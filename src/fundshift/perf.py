"""Per-regime fits, annualized performance metrics and break-count tables.

Each regime is cut here (``regress.subsample``) and fitted: three-factor
for the box ``stylebox`` reads, benchmark-adjusted for the pre/post metrics.

All metrics are computed from the daily excess returns over cash of a
whole sample (a fund, or one regime's subsample) and annualized with
A = :data:`TRADING_DAYS_PER_YEAR` = 252 periods a year:

* excess return p.a. (%) = mean * A * 100
* stdev p.a. (%)         = stdev(ddof=1) * sqrt(A) * 100
* Sharpe p.a.            = mean / stdev * sqrt(A)
* Treynor p.a. (%)       = excess return p.a. / market beta
* alphas p.a. (%)        = daily regression alpha * A * 100

Undefined ratios (zero stdev, zero market beta, empty groups) are NaN,
never silently 0. Aggregation mirrors the reporting layout: one
bucketing of the funds by break count gives both the break histogram,
whose arithmetic ``tables.break_histogram`` states, and the
equal-weighted means per count, plus top and bottom deciles by excess
return for cohorts of at least 10 funds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from . import tables
from .marketdata import MIN_ALIGNED_OBS, AlignedSample
from .regress import (
    DEFAULT_SIG_LEVEL, RegressionResult, excess_over_cash, fit_benchmark_adjusted, fit_ff3,
    subsample,
)
from .stylebox import STYLE_BOX_LABELS, BreakShift, IntensityClass, RegimeStyle, style_of

if TYPE_CHECKING:
    from .breaks import BreakSet

#: Annualization factor for daily data.
TRADING_DAYS_PER_YEAR = 252


class PerfError(ValueError):
    """Sample or inputs unusable for metric computation."""


@dataclass(frozen=True)
class FundMetrics:
    """Annualized performance of one fund (or one regime window)."""

    fund_id: str
    excess_return_pa: float
    stdev_pa: float
    sharpe_pa: float
    treynor_pa: float
    ff3_alpha_pa: float
    agt_alpha_pa: float
    n_breaks: int

    def __post_init__(self) -> None:
        if not math.isnan(self.stdev_pa) and self.stdev_pa < 0.0:
            raise PerfError("FundMetrics: negative stdev_pa")
        if self.n_breaks < 0:
            raise PerfError("FundMetrics: negative n_breaks")


#: Numeric FundMetrics fields; a comparison's delta is post minus pre on each.
METRIC_FIELDS = (
    "excess_return_pa",
    "stdev_pa",
    "sharpe_pa",
    "treynor_pa",
    "ff3_alpha_pa",
    "agt_alpha_pa",
)


def annualized_metrics(
    sample: AlignedSample,
    ff3_fit: RegressionResult,
    agt_fit: RegressionResult,
    n_breaks: int = 0,
) -> FundMetrics:
    """Annualized metrics of the whole sample.

    The fits must have been estimated on the same sample; their alphas
    and the market beta are annualized as-is.
    """
    if sample.n < 2:
        raise PerfError(f"{sample.fund_id}: sample shorter than 2 observations")
    e = excess_over_cash(sample)
    mean = float(e.mean())
    sd = float(e.std(ddof=1))

    a = float(TRADING_DAYS_PER_YEAR)
    excess_pa = mean * a * 100.0
    stdev_pa = sd * math.sqrt(a) * 100.0
    sharpe_pa = mean / sd * math.sqrt(a) if sd > 0.0 else float("nan")
    beta_mkt = ff3_fit.loading("mkt_rf").coef
    treynor_pa = excess_pa / beta_mkt if beta_mkt != 0.0 else float("nan")
    return FundMetrics(
        fund_id=sample.fund_id,
        excess_return_pa=excess_pa,
        stdev_pa=stdev_pa,
        sharpe_pa=sharpe_pa,
        treynor_pa=treynor_pa,
        ff3_alpha_pa=ff3_fit.loading("alpha").coef * a * 100.0,
        agt_alpha_pa=agt_fit.loading("alpha").coef * a * 100.0,
        n_breaks=n_breaks,
    )


#: Label of the funds-with-at-least-one-break aggregate row.
WITH_BREAKS_GROUP = "all_with_breaks"


def _mean_or_nan(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")


def _group_row(group: str, members: list[FundMetrics]) -> dict:
    row = {
        "group": group,
        "funds": len(members),
        "breaks": sum(m.n_breaks for m in members),
    }
    for name in tables.GROUP_COLUMNS[3:]:
        row[name] = _mean_or_nan([getattr(m, name) for m in members])
    return row


def break_count_tables(metrics: list[FundMetrics], max_m: int = 0) -> tuple[dict, dict]:
    """The break histogram and the performance-by-breaks table of one bucketing.

    Buckets run over m = 0..max(max_m, largest observed count), empty or
    not. The histogram is :func:`tables.break_histogram` of the bucket
    sizes. The performance table holds one row keyed by
    :data:`tables.GROUP_COLUMNS` per bucket, then the row over all funds
    with a break; empty input yields no rows.
    """
    top = max([max_m, *(x.n_breaks for x in metrics)])
    buckets: list[list[FundMetrics]] = [[] for _ in range(top + 1)]
    for x in metrics:
        buckets[x.n_breaks].append(x)
    rows = []
    if metrics:
        rows = [_group_row(str(m), b) for m, b in enumerate(buckets)]
        # Input order, not bucket order: the means' bits depend on it.
        rows.append(_group_row(WITH_BREAKS_GROUP, [x for x in metrics if x.n_breaks >= 1]))
    return tables.break_histogram([len(b) for b in buckets]), {"rows": rows}


def regime_styles(
    sample: AlignedSample, bs: BreakSet, sig_level: float = DEFAULT_SIG_LEVEL, hac: bool = False
) -> tuple[RegimeStyle, ...]:
    """Fit the three-factor model per regime and classify each one."""
    out = []
    for start, end in bs.regime_windows:
        fit = fit_ff3(subsample(sample, start, end), sig_level=sig_level, hac=hac)
        out.append(RegimeStyle(window=(start, end), fit=fit, box=style_of(fit)))
    return tuple(out)


def pre_post_compare(
    sample: AlignedSample,
    styles: tuple[RegimeStyle, ...],
) -> tuple[tuple[FundMetrics, FundMetrics] | None, ...]:
    """Metrics of the regimes before and after each break.

    Returns one entry per break between the ``styles`` regimes: ``(pre,
    post)``, or None (caller records the omission) when either flanking
    regime is shorter than :data:`MIN_ALIGNED_OBS`: annualized ratios on
    a few dozen points would be noise dressed as signal. Each regime used
    is fitted and measured once; only the fit's alpha is read, which
    neither the significance level nor HAC errors move.
    """

    @functools.cache
    def regime(pos: int) -> FundMetrics:
        part = subsample(sample, *styles[pos].window)
        return annualized_metrics(
            part, styles[pos].fit, fit_benchmark_adjusted(part), n_breaks=len(styles) - 1
        )

    long_enough = [end - start + 1 >= MIN_ALIGNED_OBS for start, end in (s.window for s in styles)]
    return tuple(
        (regime(pos), regime(pos + 1)) if long_enough[pos] and long_enough[pos + 1] else None
        for pos in range(len(styles) - 1)
    )


#: Canonical key order for the decile histograms.
INTENSITY_LABELS = tuple(c.value for c in IntensityClass)


def _histogram(shifts: list[BreakShift], labels: tuple[str, ...], key) -> dict[str, int]:
    counts = {label: 0 for label in labels}
    for s in shifts:
        counts[key(s)] += 1
    return counts


def decile_analysis(
    metrics: list[FundMetrics],
    shifts_by_fund: dict[str, tuple[BreakShift, ...]],
) -> dict | None:
    """Composition of the best and worst deciles by excess return, None below 10 funds.

    Decile size is ceil(N/10); ranking ties break by fund_id. Each
    histogram counts every label in canonical order, pooling every
    graded break of the decile's funds.
    """
    if len(metrics) < 10:
        return None
    size = math.ceil(len(metrics) / 10)
    desc = sorted(metrics, key=lambda m: (-m.excess_return_pa, m.fund_id))
    asc = sorted(metrics, key=lambda m: (m.excess_return_pa, m.fund_id))
    top_ids = [m.fund_id for m in desc[:size]]
    bottom_ids = [m.fund_id for m in asc[:size]]

    def _pool(ids: list[str]) -> list[BreakShift]:
        out: list[BreakShift] = []
        for fund_id in ids:
            out.extend(shifts_by_fund.get(fund_id, ()))
        return out

    top_pool, bottom_pool = _pool(top_ids), _pool(bottom_ids)
    intensity = (INTENSITY_LABELS, attrgetter("intensity.value"))
    destination = (STYLE_BOX_LABELS, attrgetter("style_to.label"))
    return {
        "decile_size": size,
        "top_fund_ids": top_ids,
        "bottom_fund_ids": bottom_ids,
        "top_intensity": _histogram(top_pool, *intensity),
        "bottom_intensity": _histogram(bottom_pool, *intensity),
        "top_destinations": _histogram(top_pool, *destination),
        "bottom_destinations": _histogram(bottom_pool, *destination),
    }
