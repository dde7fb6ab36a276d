"""Per-fund analysis pipeline and report assembly.

A cohort runs in two stages. ``search_breaks`` fits each aligned
sample's full-sample regressions, then runs break detection on the
benchmark-adjusted regression and short-regime filtering, searching
funds of equal length together. ``analyze_fund`` takes one searched fund
on through per-regime style classification, break grading, full-sample
metrics and a pre/post comparison per break. ``build_report`` folds the
per-fund records into the machine-readable report document with its
aggregate tables.

The report dict is fully deterministic: funds sorted by fund_id, keys
sorted at serialization time, no timestamps, non-finite floats mapped
to JSON null.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
    METRIC_FIELDS,
    TRADING_DAYS_PER_YEAR,
    FundMetrics,
    annualized_metrics,
    break_count_tables,
    decile_analysis,
    pre_post_compare,
)
from .regress import (
    DEFAULT_SIG_LEVEL,
    RegressionResult,
    fit_benchmark_adjusted,
    fit_carhart,
    fit_ff3,
    t_kernel,
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

# regress.ols loads scipy's t kernel (Boost's t_cdf from
# scipy.special._ufuncs_cxx, which maps no BLAS) on its first fit, so
# that simulating loads no scipy. analyze loads it here, before any input
# is read: loaded after the inputs, scipy.special raised peak RSS by 0.8
# MB on a 3 x 5000-day cohort.
t_kernel()


class ConfigError(ValueError):
    """Analysis parameters violate their bounds."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings of one analysis run, one per ``fundshift analyze`` flag."""

    sig_level: float = DEFAULT_SIG_LEVEL
    trim: float = DEFAULT_TRIM
    max_breaks: int | None = None  # None: the most any sample can hold
    min_regime_obs: int = 0
    hac: bool = False
    carhart: bool = False

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

    def to_dict(self) -> dict:
        """The settings, plus the fixed constants the report echoes."""
        return {
            **asdict(self),
            "annualization": TRADING_DAYS_PER_YEAR,
            "min_aligned_obs": MIN_ALIGNED_OBS,
        }


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


#: Most fund-days one break search holds. Equal-length funds are searched
#: together in groups of at most this size: 4 funds of 1,000 days, while a
#: 5,000-day fund is searched alone. At its peak a group's search holds
#: about 0.43 MB per 1,000 fund-days in a group of four 1,000-day funds
#: (1.72 MB) and 0.64 MB per 1,000 days for a 4,995-day fund alone
#: (3.17-3.24 MB; tracemalloc, seed-7 perfbench inputs), which adds to the
#: peak RSS of a run.
GROUP_FUND_DAYS = 4000


@dataclass(frozen=True)
class SearchedFund:
    """One fund after the break search: its full-sample fits and its break set."""

    sample: AlignedSample
    ff3_full: RegressionResult
    agt_full: RegressionResult
    break_set: BreakSet  # filtered for short regimes, not yet graded

    @property
    def fund_id(self) -> str:
        return self.sample.fund_id


def search_breaks(
    samples: Sequence[AlignedSample], config: AnalysisConfig
) -> tuple[list[SearchedFund], list[tuple[str, str]]]:
    """Fit each fund's full sample, then search the breaks of equal-length funds together.

    The full-sample fits are the rank check: they reject a rank-deficient
    design before the break search would grind through it window by
    window. The other funds are grouped by length, in input order, at
    most ``GROUP_FUND_DAYS`` fund-days to a group, and each group's SSR
    tables are built, searched in one sweep, filtered and dropped before
    the next group starts. A fund's result does not depend on its group.
    Returns the searched funds, and ``(fund_id, reason)`` per fund skipped.
    """
    skipped: list[tuple[str, str]] = []
    by_length: dict[int, list[tuple]] = {}
    for sample in samples:
        try:
            ff3 = fit_ff3(sample, sig_level=config.sig_level, hac=config.hac)
            agt = fit_benchmark_adjusted(sample, sig_level=config.sig_level, hac=config.hac)
        except ValueError as exc:
            skipped.append((sample.fund_id, str(exc)))
            continue
        by_length.setdefault(sample.n, []).append((sample, ff3, agt))

    searched: list[SearchedFund] = []
    for n, fitted in by_length.items():
        size = max(1, GROUP_FUND_DAYS // n)
        for lo in range(0, len(fitted), size):
            _search_group(fitted[lo : lo + size], config, searched, skipped)
    return searched, skipped


def _search_group(group: list[tuple], config: AnalysisConfig, searched: list, skipped: list) -> None:
    """Search one group of fitted funds; on an error, search each fund alone."""
    samples = [sample for sample, _, _ in group]
    try:
        tables = [build_ssr_table(sample, config.trim) for sample in samples]
        break_sets = select_break_count(tables, max_breaks=config.max_breaks)
        filtered = [
            filter_short_regimes(bs, config.min_regime_obs, table=table)
            for bs, table in zip(break_sets, tables)
        ]
    except ValueError as exc:
        if len(group) == 1:
            skipped.append((samples[0].fund_id, str(exc)))
        else:
            for fund in group:
                _search_group([fund], config, searched, skipped)
        return
    searched.extend(
        SearchedFund(sample, ff3, agt, bs) for (sample, ff3, agt), bs in zip(group, filtered)
    )


def analyze_fund(fund: SearchedFund, config: AnalysisConfig) -> FundRecord:
    """Run the rest of the per-fund pipeline on one fund's searched break set."""
    sample, bs = fund.sample, fund.break_set
    styles = regime_styles(sample, bs, sig_level=config.sig_level, hac=config.hac)
    shifts = grade_breaks(styles)
    bs = apply_style_flags(bs, shifts)

    metrics = annualized_metrics(sample, fund.ff3_full, fund.agt_full, n_breaks=bs.chosen_m)
    comparisons = pre_post_compare(sample, styles)

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
    histogram, performance = break_count_tables(metrics, max_m=max_m)
    return {
        "break_histogram": histogram,
        "transitions": accumulate_transitions(
            [[style.box for style in rec.styles] for rec in records]
        ),
        "performance_by_breaks": performance,
        "deciles": decile_analysis(metrics, {rec.fund_id: rec.shifts for rec in records}),
    }


def build_report(
    records: list[FundRecord],
    skipped: list[tuple[str, str]],
    config: AnalysisConfig,
    version: str,
) -> dict:
    """Assemble the report dict, cleaning each fund entry and the aggregates once, as built."""
    records = sorted(records, key=lambda r: r.fund_id)
    return {
        "version": version,
        "config": config.to_dict(),
        "funds": [_clean(fund_record_dict(rec)) for rec in records],
        "skipped": [
            {"fund_id": fund_id, "reason": reason}
            for fund_id, reason in sorted(skipped)
        ],
        "aggregates": _clean(build_aggregates(records)),
    }

