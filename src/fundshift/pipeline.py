"""Per-fund analysis pipeline and report assembly.

``analyze_fund`` chains the layers for one aligned sample: break
detection on the benchmark-adjusted regression, short-regime filtering,
per-regime style classification, break grading, full-sample metrics and
pre/post break comparisons. ``build_report`` folds the per-fund records
into the machine-readable report document with its aggregate tables,
and ``render_table`` prints one of those tables as CSV or Markdown.

The report dict is fully deterministic: funds sorted by fund_id, keys
sorted at serialization time, no timestamps, non-finite floats mapped
to JSON null.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .breaks import (
    BreakSet,
    build_ssr_table,
    default_h,
    filter_short_regimes,
    select_break_count,
)
from .marketdata import MIN_ALIGNED_OBS, AlignedSample
from .perf import (
    GROUP_CSV_HEADER,
    FundMetrics,
    ShiftComparison,
    annualized_metrics,
    break_histogram,
    decile_analysis,
    group_by_break_count,
    metrics_delta,
    pre_post_compare,
)
from .regress import RegressionResult, fit_benchmark_adjusted, fit_carhart, fit_ff3
from .stylebox import (
    STYLE_BOX_LABELS,
    BreakShift,
    FactorShift,
    RegimeStyle,
    accumulate_transitions,
    apply_style_flags,
    grade_breaks,
    regime_styles,
)

#: Regressor count of the break-detection design.
_DETECTION_K = 4


class ConfigError(ValueError):
    """Analysis parameters violate their bounds."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable parameters of one analysis run."""

    sig_level: float = 0.05
    trim: float = 0.15
    max_breaks: int = 5
    min_regime_obs: int = 0
    annualization: int = 252
    hac: bool = False
    carhart: bool = False
    min_aligned_obs: int = MIN_ALIGNED_OBS

    def __post_init__(self) -> None:
        if not 0.0 < self.sig_level < 1.0:
            raise ConfigError(f"sig_level must lie in (0, 1), got {self.sig_level!r}")
        if not 0.0 < self.trim < 0.5:
            raise ConfigError(f"trim must lie in (0, 0.5), got {self.trim!r}")
        if self.max_breaks < 0:
            raise ConfigError(f"max_breaks must be >= 0, got {self.max_breaks!r}")
        if self.min_regime_obs < 0:
            raise ConfigError(f"min_regime_obs must be >= 0, got {self.min_regime_obs!r}")
        if self.annualization < 1:
            raise ConfigError(f"annualization must be >= 1, got {self.annualization!r}")
        if self.min_aligned_obs < 2:
            raise ConfigError(f"min_aligned_obs must be >= 2, got {self.min_aligned_obs!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FundRecord:
    """Everything the pipeline produced for one fund."""

    sample: AlignedSample
    break_set: BreakSet
    styles: tuple[RegimeStyle, ...]
    shifts: tuple[BreakShift, ...]
    metrics: FundMetrics
    comparisons: tuple[ShiftComparison, ...]
    omitted_comparisons: tuple[int, ...]
    carhart_fit: RegressionResult | None = None

    @property
    def fund_id(self) -> str:
        return self.sample.fund_id


def analyze_fund(sample: AlignedSample, config: AnalysisConfig) -> FundRecord:
    """Run the full per-fund pipeline on one aligned sample."""
    # The full-sample fits reject a rank-deficient design before the
    # O(n^2) table would grind through it window by window.
    ff3_full = fit_ff3(sample, sig_level=config.sig_level, hac=config.hac)
    agt_full = fit_benchmark_adjusted(sample, sig_level=config.sig_level, hac=config.hac)
    h = default_h(sample.n, config.trim, _DETECTION_K)
    table = build_ssr_table(sample, h)
    bs = select_break_count(
        sample, max_breaks=config.max_breaks, trim=config.trim, table=table
    )
    bs = filter_short_regimes(bs, config.min_regime_obs, table=table)

    styles = regime_styles(sample, bs, sig_level=config.sig_level, hac=config.hac)
    shifts = grade_breaks(bs, styles)
    bs = apply_style_flags(bs, shifts)

    full = (0, sample.n - 1)
    metrics = annualized_metrics(
        sample, full, ff3_full, agt_full,
        n_breaks=bs.chosen_m, annualization=config.annualization,
    )

    comparisons: list[ShiftComparison] = []
    omitted: list[int] = []
    for pos in range(bs.chosen_m):
        cmp = pre_post_compare(
            sample, bs, styles, shifts, pos,
            sig_level=config.sig_level, hac=config.hac,
            min_window=config.min_aligned_obs,
        )
        if cmp is None:
            omitted.append(bs.break_indices[pos])
        else:
            comparisons.append(cmp)

    carhart_fit = None
    if config.carhart:
        carhart_fit = fit_carhart(sample, sig_level=config.sig_level, hac=config.hac)

    return FundRecord(
        sample=sample,
        break_set=bs,
        styles=styles,
        shifts=shifts,
        metrics=metrics,
        comparisons=tuple(comparisons),
        omitted_comparisons=tuple(omitted),
        carhart_fit=carhart_fit,
    )


def _clean(value):
    """Replace non-finite floats with None, recursively."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _fit_dict(fit: RegressionResult) -> dict:
    return {
        "model": fit.model,
        "nobs": fit.nobs,
        "dof": fit.dof,
        "ssr": fit.ssr,
        "r_squared": fit.r_squared,
        "loadings": [
            {
                "name": l.name,
                "coef": l.coef,
                "se": l.se,
                "tstat": l.tstat,
                "pvalue": l.pvalue,
                "significant": l.significant,
            }
            for l in fit.loadings
        ],
    }


def _state_dict(shift_side) -> dict:
    return {
        "beta": shift_side.beta,
        "significant": shift_side.significant,
        "sign": shift_side.sign_char,
    }


def _factor_shift_dict(fs: FactorShift) -> dict:
    return {
        "factor": fs.factor,
        "before": _state_dict(fs.before),
        "after": _state_dict(fs.after),
        "intensity": fs.intensity.value,
    }


def _metrics_dict(m: FundMetrics) -> dict:
    return {
        "excess_return_pa": m.excess_return_pa,
        "stdev_pa": m.stdev_pa,
        "sharpe_pa": m.sharpe_pa,
        "treynor_pa": m.treynor_pa,
        "ff3_alpha_pa": m.ff3_alpha_pa,
        "agt_alpha_pa": m.agt_alpha_pa,
        "n_breaks": m.n_breaks,
    }


def fund_record_dict(rec: FundRecord) -> dict:
    """JSON-ready form of one fund's record."""
    sample, bs = rec.sample, rec.break_set
    dates = sample.dates
    regimes = []
    for style in rec.styles:
        start, end = style.window
        regimes.append(
            {
                "start": start,
                "end": end,
                "start_date": dates[start].isoformat(),
                "end_date": dates[end].isoformat(),
                "style": style.box.label,
                "ff3": _fit_dict(style.fit),
            }
        )
    shifts = []
    for s in rec.shifts:
        shifts.append(
            {
                "break_index": s.break_index,
                "break_date": dates[s.break_index].isoformat(),
                "intensity": s.intensity.value,
                "style_from": s.style_from.label,
                "style_to": s.style_to.label,
                "smb": _factor_shift_dict(s.smb),
                "hml": _factor_shift_dict(s.hml),
                "is_style_break": s.is_style_break,
            }
        )
    comparisons = []
    for c in rec.comparisons:
        comparisons.append(
            {
                "break_index": c.break_index,
                "break_date": dates[c.break_index].isoformat(),
                "intensity": c.intensity.value,
                "style_from": c.style_from.label,
                "style_to": c.style_to.label,
                "pre": _metrics_dict(c.pre),
                "post": _metrics_dict(c.post),
                "delta": {
                    "excess_return_pa": c.delta.excess_return_pa,
                    "stdev_pa": c.delta.stdev_pa,
                    "sharpe_pa": c.delta.sharpe_pa,
                    "treynor_pa": c.delta.treynor_pa,
                    "ff3_alpha_pa": c.delta.ff3_alpha_pa,
                    "agt_alpha_pa": c.delta.agt_alpha_pa,
                },
            }
        )
    record = {
        "fund_id": rec.fund_id,
        "n_obs": sample.n,
        "first_date": dates[0].isoformat(),
        "last_date": dates[-1].isoformat(),
        "h": bs.partition.h,
        "chosen_m": bs.chosen_m,
        "break_indices": list(bs.break_indices),
        "break_dates": [dates[b].isoformat() for b in bs.break_indices],
        "is_style_break": list(bs.is_style_break or ()),
        "total_ssr": bs.partition.total_ssr,
        "criterion": [{"m": m, "bic": v} for m, v in bs.criterion_values],
        "regimes": regimes,
        "shifts": shifts,
        "comparisons": comparisons,
        "omitted_comparisons": list(rec.omitted_comparisons),
        "metrics": _metrics_dict(rec.metrics),
    }
    if rec.carhart_fit is not None:
        record["carhart"] = _fit_dict(rec.carhart_fit)
    return record


def build_aggregates(records: list[FundRecord], config: AnalysisConfig) -> dict:
    """Aggregate tables recomputable from the per-fund records."""
    metrics = [rec.metrics for rec in records]
    hist = break_histogram(metrics, max_m=config.max_breaks)
    matrix = accumulate_transitions(
        [[style.box for style in rec.styles] for rec in records]
    )
    group = group_by_break_count(metrics, max_m=config.max_breaks)

    deciles = None
    if len(metrics) >= 10:
        report = decile_analysis(
            metrics, {rec.fund_id: rec.shifts for rec in records}
        )
        deciles = {
            "decile_size": report.decile_size,
            "top_fund_ids": list(report.top_fund_ids),
            "bottom_fund_ids": list(report.bottom_fund_ids),
            "top_intensity": dict(report.top_intensity),
            "bottom_intensity": dict(report.bottom_intensity),
            "top_destinations": dict(report.top_destinations),
            "bottom_destinations": dict(report.bottom_destinations),
        }

    return {
        "break_histogram": {
            "rows": [
                {"n_breaks": r.n_breaks, "funds": r.funds, "breaks": r.breaks}
                for r in hist.rows
            ],
            "total_funds_with_breaks": hist.total_funds_with_breaks,
            "total_breaks": hist.total_breaks,
        },
        "transitions": {
            "labels": list(STYLE_BOX_LABELS),
            "counts": [list(row) for row in matrix.counts],
            "grand_total": matrix.grand_total,
        },
        "performance_by_breaks": {
            "rows": [
                {
                    "group": r.group,
                    "funds": r.funds,
                    "breaks": r.breaks,
                    "excess_return_pa": r.excess_return_pa,
                    "stdev_pa": r.stdev_pa,
                    "sharpe_pa": r.sharpe_pa,
                    "ff3_alpha_pa": r.ff3_alpha_pa,
                    "agt_alpha_pa": r.agt_alpha_pa,
                }
                for r in group.rows
            ]
        },
        "deciles": deciles,
    }


def build_report(
    records: list[FundRecord],
    skipped: list[tuple[str, str]],
    config: AnalysisConfig,
    version: str,
) -> dict:
    """Assemble the full report document (pre-serialization dict)."""
    records = sorted(records, key=lambda r: r.fund_id)
    report = {
        "version": version,
        "config": config.to_dict(),
        "funds": [fund_record_dict(rec) for rec in records],
        "skipped": [
            {"fund_id": fund_id, "reason": reason}
            for fund_id, reason in sorted(skipped)
        ],
        "aggregates": build_aggregates(records, config),
    }
    return _clean(report)


def _render(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    # Empty buckets average to NaN; the report stores them as null.
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return "" if value is None else str(value)


def _render_breaks(agg: dict, fmt: str) -> str:
    hist = agg["break_histogram"]
    rows = [
        [str(r["n_breaks"]), str(r["funds"]), str(r["breaks"])] for r in hist["rows"]
    ]
    rows.append(
        ["total", str(hist["total_funds_with_breaks"]), str(hist["total_breaks"])]
    )
    return _render(["n_breaks", "funds", "breaks"], rows, fmt)


def _render_transitions(agg: dict, fmt: str) -> str:
    t = agg["transitions"]
    labels, counts = t["labels"], t["counts"]
    header = ["style_t"] + labels + ["Total"]
    rows = []
    for i, label in enumerate(labels):
        rows.append([label] + [str(c) for c in counts[i]] + [str(sum(counts[i]))])
    col_totals = [sum(row[j] for row in counts) for j in range(len(labels))]
    rows.append(["Total"] + [str(c) for c in col_totals] + [str(t["grand_total"])])
    return _render(header, rows, fmt)


def _render_performance(agg: dict, fmt: str) -> str:
    header = GROUP_CSV_HEADER.split(",")
    rows = []
    for r in agg["performance_by_breaks"]["rows"]:
        rows.append([_cell(r[name]) for name in header])
    return _render(header, rows, fmt)


def _render_deciles(agg: dict, fmt: str) -> str:
    d = agg["deciles"]
    if d is None:
        return "no decile analysis (fewer than 10 funds)\n"
    rows = []
    for i, fund_id in enumerate(d["top_fund_ids"], start=1):
        rows.append(["top_funds", str(i), fund_id])
    for i, fund_id in enumerate(d["bottom_fund_ids"], start=1):
        rows.append(["bottom_funds", str(i), fund_id])
    for section in ("top_intensity", "bottom_intensity",
                    "top_destinations", "bottom_destinations"):
        for key, count in d[section].items():
            rows.append([section, key, str(count)])
    return _render(["section", "key", "value"], rows, fmt)


_TABLE_RENDERERS = {
    "breaks": _render_breaks,
    "transitions": _render_transitions,
    "performance": _render_performance,
    "deciles": _render_deciles,
}

#: Table names ``render_table`` accepts.
REPORT_TABLES = tuple(sorted(_TABLE_RENDERERS))


def render_table(aggregates: dict, table: str, fmt: str) -> str:
    """Render one aggregate table as ``csv`` or ``md`` (Markdown) text.

    ``aggregates`` is the dict :func:`build_aggregates` returns, before
    or after a JSON round trip; missing data raises KeyError or
    TypeError. Empty cells stand for undefined values.
    """
    return _TABLE_RENDERERS[table](aggregates, fmt)
