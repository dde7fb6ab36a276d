"""Multiple structural break detection by least-squares segmentation.

The benchmark-adjusted regression is refitted on every admissible
window (i, j), the per-segment sums of squared residuals are tabulated,
and a dynamic program finds, for each candidate break count m, the
partition that globally minimizes total SSR subject to a minimum
segment length h. The break count is then chosen by BIC.

Conventions:

* a break at index b separates regimes ...b and b+1...; the reported
  break date is the date at index b,
* h = max(ceil(trim * n), k + 1) where k is the regressor count,
* breaks are pure structural changes: any coefficient of the
  benchmark-adjusted regression may move at a break. Whether a break
  touched the style loadings is flagged afterwards (``is_style_break``)
  by the classification layer.

Table construction uses segment-local cumulative Gram matrices, so the
whole O(n^2) family of window fits costs O(n^2 k^2) instead of
O(n^3 k^2). Only windows some partition can use are fitted: a segment
starts at 0 or at i >= h (its predecessors need h observations) and
ends at n-1 or at j <= n-h-1 (its successors do). At trim 0.15 that is
about 42% of the windows of length >= h; the table stays n x n with
every other cell NaN. The DP cost recursion is
cost(j, r) = min_i { cost(i, r-1) + ssr(i+1, j) },
with ties broken toward the lexicographically earliest break vector.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .marketdata import AlignedSample
from .regress import design_matrix, excess_over_benchmark

#: Default minimum-segment-length fraction of the sample.
DEFAULT_TRIM = 0.15

#: Default cap on the number of breaks considered.
DEFAULT_MAX_BREAKS = 5

#: Relative floor applied to SSR inside the BIC log. Exact-fit segments
#: drive SSR to rounding dust whose size varies with window length (the
#: cumulative Gram sums can leave ~1e-14 of y'y on long windows), so the
#: floor must sit above the dust or the selector would add cuts just to
#: shrink rounding error. Anything below tss * 1e-12 is numerically zero
#: for model comparison and ties resolve by the parameter penalty.
_SSR_FLOOR_REL = 1e-12


class BreakDetectionError(ValueError):
    """Sample or parameters unusable for break detection."""


def default_h(n: int, trim: float, k: int) -> int:
    """Minimum segment length: the trimming floor, but never below k+1."""
    if not 0.0 < trim < 0.5:
        raise BreakDetectionError(f"trim must lie in (0, 0.5), got {trim!r}")
    return max(math.ceil(trim * n), k + 1)


@dataclass(frozen=True)
class SsrTable:
    """SSR of the segment regression on every window a partition can use.

    ``values[i, j]`` is the SSR of the fit on observations i..j
    inclusive. A window is admissible when it is at least h long,
    starts at 0 or at i >= h, and ends at n-1 or at j <= n-h-1; every
    other cell is NaN.
    """

    n: int
    h: int
    k: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.n, self.n):
            raise BreakDetectionError("SsrTable: values shape mismatch")
        self.values.flags.writeable = False

    def admissible(self, i: int, j: int) -> bool:
        n, h = self.n, self.h
        return (
            0 <= i <= j < n
            and j - i + 1 >= h
            and (i == 0 or i >= h)
            and (j == n - 1 or j <= n - h - 1)
        )

    def ssr(self, i: int, j: int) -> float:
        if not self.admissible(i, j):
            raise BreakDetectionError(f"SsrTable: window ({i}, {j}) inadmissible for h={self.h}")
        return float(self.values[i, j])


def _solve_gram_fallback(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # Gram systems are always consistent (rhs lies in the Gram's range),
    # so the least-squares solution still yields the minimal SSR.
    beta = np.empty_like(rhs)
    for b in range(grams.shape[0]):
        beta[b] = np.linalg.lstsq(grams[b], rhs[b], rcond=None)[0]
    return beta


def ssr_table_from_arrays(y: np.ndarray, X: np.ndarray, h: int) -> SsrTable:
    """Tabulate per-window least-squares SSR for an arbitrary design.

    Each observation contributes one packed row of moments: the
    k(k+1)/2 distinct products x_a x_b, then x y, then y^2. For each
    admissible start row i one cumulative sum of those rows gives the
    Gram matrix and cross moments of every window (i, j) at once; only
    the admissible ends are solved, so the batched solves cost
    O(n^2 k^2) overall.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise BreakDetectionError("ssr table: y must be (n,), X must be (n, k)")
    n, k = X.shape
    if h < k + 1:
        raise BreakDetectionError(f"ssr table: h={h} below k+1={k + 1}")
    if n < 2 * h:
        raise BreakDetectionError(f"ssr table: n={n} below 2h={2 * h}")

    rows, cols = np.triu_indices(k)
    pairs = rows.size
    gram_at = np.empty((k, k), dtype=np.intp)
    gram_at[rows, cols] = gram_at[cols, rows] = np.arange(pairs)
    moments = np.column_stack([X[:, rows] * X[:, cols], X * y[:, None], y * y])
    values = np.full((n, n), np.nan)
    for i in [0, *range(h, n - h + 1)]:
        sums = np.cumsum(moments[i:], axis=0)
        ends = np.r_[i + h - 1 : n - h, n - 1]
        cells = sums[ends - i]
        grams = cells[:, gram_at]
        rhs = cells[:, pairs : pairs + k]
        try:
            beta = np.linalg.solve(grams, rhs[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            beta = _solve_gram_fallback(grams, rhs)
        ssr = cells[:, -1] - np.einsum("bk,bk->b", beta, rhs)
        values[i, ends] = np.maximum(ssr, 0.0)
    return SsrTable(n=n, h=h, k=k, values=values)


def build_ssr_table(sample: AlignedSample, h: int) -> SsrTable:
    """SSR table of the benchmark-adjusted regression on an aligned sample."""
    X = design_matrix(sample)
    return ssr_table_from_arrays(excess_over_benchmark(sample), X, h)


@dataclass(frozen=True)
class Partition:
    """One segmentation: m break indices and its total SSR.

    A break index b is the last observation of its regime, so breaks
    live in [h-1, n-h-1] and consecutive breaks are at least h apart.
    """

    m: int
    break_indices: tuple[int, ...]
    total_ssr: float
    n: int
    h: int

    def __post_init__(self) -> None:
        if self.m != len(self.break_indices):
            raise BreakDetectionError("Partition: m != len(break_indices)")
        if self.total_ssr < 0.0:
            raise BreakDetectionError("Partition: negative total_ssr")
        bounds = (-1,) + self.break_indices + (self.n - 1,)
        for a, b in zip(bounds, bounds[1:]):
            if b - a < self.h:
                raise BreakDetectionError(
                    f"Partition: segment ({a + 1}, {b}) shorter than h={self.h}"
                )

    @property
    def regime_windows(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (start, end) windows tiling [0, n-1]."""
        bounds = (-1,) + self.break_indices + (self.n - 1,)
        return tuple((a + 1, b) for a, b in zip(bounds, bounds[1:]))


def optimal_partitions(table: SsrTable, max_m: int) -> tuple[Partition, ...]:
    """Globally SSR-minimal partitions with 0, 1, ..., max_m breaks.

    Suffix dynamic program: B[r][i] is the least total SSR over
    segmentations of i..n-1 into r+1 segments of length >= h. Level r
    reads only level r-1, so one sweep up to max_m holds every
    B[m][0] and its break vector. Only starts 0 and i >= h are swept:
    no segment of a partition of 0..n-1 starts at 1..h-1, and those
    table rows are NaN. Scanning candidate first breaks in
    ascending order and keeping the first minimum makes each
    reconstructed break vector lexicographically earliest among all
    global minimizers.
    """
    if max_m < 0:
        raise BreakDetectionError(f"break count m={max_m} negative")
    n, h, S = table.n, table.h, table.values
    if n < (max_m + 1) * h:
        raise BreakDetectionError(f"m={max_m} infeasible: n={n} < (m+1)h={(max_m + 1) * h}")

    best = np.full((max_m + 1, n), np.inf)
    choice = np.zeros((max_m + 1, n), dtype=np.intp)
    best[0, 0] = S[0, n - 1]
    best[0, h : n - h + 1] = S[h : n - h + 1, n - 1]
    for r in range(1, max_m + 1):
        hi = n - 1 - r * h
        for i in [0, *range(h, n - (r + 1) * h + 1)]:
            lo = i + h - 1
            cand = S[i, lo : hi + 1] + best[r - 1, lo + 1 : hi + 2]
            j = int(np.argmin(cand))
            best[r, i] = cand[j]
            choice[r, i] = lo + j

    partitions = []
    for m in range(max_m + 1):
        breaks: list[int] = []
        i = 0
        for r in range(m, 0, -1):
            b = int(choice[r, i])
            breaks.append(b)
            i = b + 1
        partitions.append(
            Partition(m=m, break_indices=tuple(breaks), total_ssr=float(best[m, 0]),
                      n=n, h=h)
        )
    return tuple(partitions)


def optimal_partition(table: SsrTable, m: int) -> Partition:
    """Globally SSR-minimal partition with exactly m breaks.

    The sweep of :func:`optimal_partitions` stopped at m; ties go to
    the lexicographically earliest break vector.
    """
    return optimal_partitions(table, m)[m]


@dataclass(frozen=True)
class BreakSet:
    """Selected break structure of one fund.

    ``criterion_values`` echoes the BIC score of every feasible
    candidate break count. ``is_style_break`` stays None until the
    classification layer grades each break; True marks breaks where the
    size or value loading changed class or magnitude.
    """

    fund_id: str
    chosen_m: int
    partition: Partition
    criterion_values: tuple[tuple[int, float], ...]
    regime_windows: tuple[tuple[int, int], ...]
    is_style_break: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if self.chosen_m != self.partition.m:
            raise BreakDetectionError("BreakSet: chosen_m != partition.m")
        if len(self.regime_windows) != self.chosen_m + 1:
            raise BreakDetectionError("BreakSet: regime count != chosen_m + 1")
        expect = 0
        for start, end in self.regime_windows:
            if start != expect or end < start:
                raise BreakDetectionError("BreakSet: regime windows do not tile the sample")
            expect = end + 1
        if expect != self.partition.n:
            raise BreakDetectionError("BreakSet: regime windows do not cover the sample")
        if self.is_style_break is not None and len(self.is_style_break) != self.chosen_m:
            raise BreakDetectionError("BreakSet: is_style_break length != chosen_m")

    @property
    def break_indices(self) -> tuple[int, ...]:
        return self.partition.break_indices


def _bic(ssr: float, n: int, k: int, m: int, floor: float) -> float:
    penalty_params = (m + 1) * k + m
    return math.log(max(ssr, floor) / n) + penalty_params * math.log(n) / n


def select_break_count(
    sample: AlignedSample,
    max_breaks: int = DEFAULT_MAX_BREAKS,
    trim: float = DEFAULT_TRIM,
    table: SsrTable | None = None,
) -> BreakSet:
    """Fit 0..max_breaks breaks and keep the BIC-minimal count.

    BIC(m) = ln(SSR_m / n) + p(m) ln(n) / n with p(m) = (m+1) k + m.
    Infeasible break counts (n < (m+1) h) are skipped. Ties go to the
    smaller m. A prebuilt ``table`` (same sample and h) avoids repeating
    the O(n^2 k^2) tabulation.
    """
    if max_breaks < 0:
        raise BreakDetectionError(f"max_breaks={max_breaks} negative")
    X = design_matrix(sample)
    n, k = X.shape
    h = default_h(n, trim, k)
    if table is None:
        table = build_ssr_table(sample, h)
    elif (table.n, table.h) != (n, h):
        raise BreakDetectionError("select_break_count: table does not match sample and trim")

    y = excess_over_benchmark(sample)
    tss = float(np.sum((y - y.mean()) ** 2))
    floor = max(tss * _SSR_FLOOR_REL, np.finfo(float).tiny)

    partitions = optimal_partitions(table, min(max_breaks, n // h - 1))
    scores = tuple(
        (part.m, _bic(part.total_ssr, n, k, part.m, floor)) for part in partitions
    )
    chosen_m = min(scores, key=lambda mv: mv[1])[0]
    part = partitions[chosen_m]
    return BreakSet(
        fund_id=sample.fund_id,
        chosen_m=chosen_m,
        partition=part,
        criterion_values=scores,
        regime_windows=part.regime_windows,
    )


def filter_short_regimes(
    bs: BreakSet, min_regime: int, table: SsrTable | None = None
) -> BreakSet:
    """Drop breaks adjacent to regimes shorter than ``min_regime``.

    A break survives only when both regimes it separates have at least
    min_regime observations; removed breaks merge their regimes. One
    pass is idempotent: every merged regime contains a full-length
    original regime, so re-filtering removes nothing. Recomputing the
    merged partition's total SSR needs the fund's ``table``; it may be
    omitted when no break can be removed.
    """
    if min_regime < 0:
        raise BreakDetectionError(f"min_regime={min_regime} negative")
    if min_regime == 0 or bs.chosen_m == 0:
        return bs

    lengths = [end - start + 1 for start, end in bs.regime_windows]
    keep = [
        b
        for pos, b in enumerate(bs.break_indices)
        if lengths[pos] >= min_regime and lengths[pos + 1] >= min_regime
    ]
    if len(keep) == bs.chosen_m:
        return bs
    if table is None:
        raise BreakDetectionError(
            "filter_short_regimes: merging regimes requires the fund's SSR table"
        )

    n, h = bs.partition.n, bs.partition.h
    bounds = [-1] + keep + [n - 1]
    total = 0.0
    for a, b in zip(bounds, bounds[1:]):
        total += table.ssr(a + 1, b)
    part = Partition(
        m=len(keep), break_indices=tuple(keep), total_ssr=total, n=n, h=h
    )
    return BreakSet(
        fund_id=bs.fund_id,
        chosen_m=part.m,
        partition=part,
        criterion_values=bs.criterion_values,
        regime_windows=part.regime_windows,
    )


def with_style_flags(bs: BreakSet, flags: tuple[bool, ...]) -> BreakSet:
    """Attach per-break style-change flags computed by the classifier."""
    return dataclasses.replace(bs, is_style_break=flags)
