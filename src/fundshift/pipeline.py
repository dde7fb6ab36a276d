"""Per-fund analysis pipeline and report assembly.

``analyze_fund`` chains the layers for one aligned sample: break
detection on the benchmark-adjusted regression, short-regime filtering,
per-regime style classification, break grading, full-sample metrics and
a pre/post comparison per break. ``build_report`` folds the per-fund records
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
    DEFAULT_TRIM,
    BreakDetectionError,
    BreakSet,
    build_ssr_table,
    filter_short_regimes,
    max_breaks_bound,
    select_break_count,
)
from .marketdata import MIN_ALIGNED_OBS, AlignedSample
from .perf import (
    GROUP_COLUMNS,
    METRIC_FIELDS,
    TRADING_DAYS_PER_YEAR,
    FundMetrics,
    annualized_metrics,
    break_histogram,
    decile_analysis,
    group_by_break_count,
    pre_post_compare,
)
from .regress import (
    DEFAULT_SIG_LEVEL,
    RegressionResult,
    fit_benchmark_adjusted,
    fit_carhart,
    fit_ff3,
)
from .stylebox import (
    BreakShift,
    FactorShift,
    RegimeStyle,
    accumulate_transitions,
    apply_style_flags,
    grade_breaks,
    regime_styles,
)

class ConfigError(ValueError):
    """Analysis parameters violate their bounds."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable parameters of one analysis run."""

    sig_level: float = DEFAULT_SIG_LEVEL
    trim: float = DEFAULT_TRIM
    max_breaks: int | None = None  # None: the most any sample can hold
    min_regime_obs: int = 0
    annualization: int = TRADING_DAYS_PER_YEAR
    hac: bool = False
    carhart: bool = False
    min_aligned_obs: int = MIN_ALIGNED_OBS

    def __post_init__(self) -> None:
        if not 0.0 < self.sig_level < 1.0:
            raise ConfigError(f"sig_level must lie in (0, 1), got {self.sig_level!r}")
        try:
            most = max_breaks_bound(self.trim)
        except BreakDetectionError as exc:
            raise ConfigError(str(exc)) from None
        if self.max_breaks is None:
            object.__setattr__(self, "max_breaks", most)
        if self.max_breaks < 0:
            raise ConfigError(f"max_breaks must be >= 0, got {self.max_breaks!r}")
        if self.max_breaks > most:
            raise ConfigError(
                f"max_breaks must be <= floor(1/trim) - 1 = {most} at trim "
                f"{self.trim!r}, got {self.max_breaks!r}"
            )
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
    # One (pre, post) pair per break, aligned with shifts; None where a
    # flanking regime is too short to compare.
    comparisons: tuple[tuple[FundMetrics, FundMetrics] | None, ...]
    carhart_fit: RegressionResult | None = None

    @property
    def fund_id(self) -> str:
        return self.sample.fund_id


def analyze_fund(sample: AlignedSample, config: AnalysisConfig) -> FundRecord:
    """Run the full per-fund pipeline on one aligned sample."""
    # The full-sample fits reject a rank-deficient design before the
    # break search would grind through it window by window.
    ff3_full = fit_ff3(sample, sig_level=config.sig_level, hac=config.hac)
    agt_full = fit_benchmark_adjusted(sample, sig_level=config.sig_level, hac=config.hac)
    table = build_ssr_table(sample, config.trim)
    bs = select_break_count(sample, table, max_breaks=config.max_breaks)
    bs = filter_short_regimes(bs, config.min_regime_obs, table=table)

    styles = regime_styles(sample, bs, sig_level=config.sig_level, hac=config.hac)
    shifts = grade_breaks(styles)
    bs = apply_style_flags(bs, shifts)

    metrics = annualized_metrics(
        sample, ff3_full, agt_full,
        n_breaks=bs.chosen_m, annualization=config.annualization,
    )
    comparisons = pre_post_compare(
        sample, styles, min_window=config.min_aligned_obs, annualization=config.annualization
    )

    carhart_fit = None
    if config.carhart:
        carhart_fit = fit_carhart(sample, sig_level=config.sig_level, hac=config.hac)

    return FundRecord(
        sample=sample,
        break_set=bs,
        styles=styles,
        shifts=shifts,
        metrics=metrics,
        comparisons=comparisons,
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
    return {name: value for name, value in asdict(m).items() if name != "fund_id"}


def _break_dict(s: BreakShift, dates) -> dict:
    """The keys a break's shift and comparison entries share."""
    return {
        "break_index": s.break_index,
        "break_date": dates[s.break_index].isoformat(),
        "intensity": s.intensity.value,
        "style_from": s.style_from.label,
        "style_to": s.style_to.label,
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
                "ff3": asdict(style.fit),
            }
        )
    shifts = [
        {
            **_break_dict(s, dates),
            "smb": _factor_shift_dict(s.smb),
            "hml": _factor_shift_dict(s.hml),
            "is_style_break": s.is_style_break,
        }
        for s in rec.shifts
    ]
    comparisons = []
    omitted = []
    for s, pair in zip(rec.shifts, rec.comparisons, strict=True):
        if pair is None:
            omitted.append(s.break_index)
            continue
        pre, post = pair
        delta = {name: getattr(post, name) - getattr(pre, name) for name in METRIC_FIELDS}
        comparisons.append(
            {
                **_break_dict(s, dates),
                "pre": _metrics_dict(pre),
                "post": _metrics_dict(post),
                "delta": delta,
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
        "omitted_comparisons": omitted,
        "metrics": _metrics_dict(rec.metrics),
    }
    if rec.carhart_fit is not None:
        record["carhart"] = asdict(rec.carhart_fit)
    return record


def build_aggregates(records: list[FundRecord]) -> dict:
    """The report's aggregate tables, recomputable from the per-fund records.

    Keys are the report's: ``break_histogram``, ``transitions``,
    ``performance_by_breaks`` and ``deciles`` (None below 10 funds).
    Break counts run to the largest count any fund's criterion scored.
    """
    metrics = [rec.metrics for rec in records]
    max_m = max((len(rec.break_set.criterion_values) - 1 for rec in records), default=0)
    deciles = None
    if len(metrics) >= 10:
        deciles = decile_analysis(metrics, {rec.fund_id: rec.shifts for rec in records})
    return {
        "break_histogram": break_histogram(metrics, max_m=max_m),
        "transitions": accumulate_transitions(
            [[style.box for style in rec.styles] for rec in records]
        ),
        "performance_by_breaks": group_by_break_count(metrics, max_m=max_m),
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
        "aggregates": build_aggregates(records),
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
    rows = []
    for r in agg["performance_by_breaks"]["rows"]:
        rows.append([_cell(r[name]) for name in GROUP_COLUMNS])
    return _render(list(GROUP_COLUMNS), rows, fmt)


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
