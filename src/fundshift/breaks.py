"""Multiple structural break detection by least-squares segmentation.

The benchmark-adjusted regression is refitted on every admissible
window (i, j), the per-segment sums of squared residuals are tabulated,
and a dynamic program finds, for each candidate break count m, the
partition that globally minimizes total SSR subject to a minimum
segment length h. The break count is then chosen by BIC.

Conventions:

* a break at index b separates regimes ...b and b+1...; the reported
  break date is the date at index b,
* h = max(ceil(trim * n), k + 1) where k is the regressor count; the
  SSR table fixes it, and break-count selection reads it from there,
* breaks are pure structural changes: any coefficient of the
  benchmark-adjusted regression may move at a break. Whether a break
  touched the style loadings is flagged afterwards (``is_style_break``)
  by the classification layer.

Table construction uses segment-local cumulative Gram matrices, so the
whole O(n^2) family of window fits costs O(n^2 k^2) instead of
O(n^3 k^2). Only windows some partition can use are fitted and kept: a
segment starts at 0 or at i >= h (its predecessors need h
observations) and ends at n-1 or at j <= n-h-1 (its successors do). At
trim 0.15 that is about 42% of the windows of length >= h, packed row
after row into one array (:func:`packed_layout`). The DP cost recursion is
cost(j, r) = min_i { cost(i, r-1) + ssr(i+1, j) },
with ties broken toward the lexicographically earliest break vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .marketdata import AlignedSample
from .regress import design_matrix, excess_over_benchmark

#: Default minimum-segment-length fraction of the sample.
DEFAULT_TRIM = 0.15

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


def max_breaks_bound(trim: float) -> int:
    """The most breaks any sample can hold: floor(1/trim) - 1."""
    # Regimes hold >= trim * n observations; the ulps of slack cover
    # default_h's rounding of trim * n.
    bound = 1.0 / trim * (1.0 + 4 * math.ulp(1.0))
    if not math.isfinite(bound):
        raise BreakDetectionError(f"trim {trim!r} is too small: 1/trim overflows")
    return math.floor(bound) - 1


def packed_layout(n: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Start rows of the packed SSR table and the offset of each row.

    Row i exists for i = 0 and h <= i <= n-h. It holds the windows
    (i, i+h-1) ... (i, n-h-1), then (i, n-1): every end a partition can
    use after a segment starting at i. Row ``starts[r]`` occupies
    ``offsets[r]:offsets[r + 1]`` of the packed values.
    """
    starts = np.r_[0, h : n - h + 1]
    widths = np.maximum(n - 2 * h + 1 - starts, 0) + 1
    offsets = np.zeros(starts.size + 1, dtype=np.intp)
    np.cumsum(widths, out=offsets[1:])
    return starts, offsets


@dataclass(frozen=True)
class SsrTable:
    """SSR of the segment regression on every window a partition can use.

    ``values`` holds the rows of :func:`packed_layout` end to end;
    ``row(i)`` is the row of windows starting at i and ``ssr(i, j)`` the
    SSR of the fit on observations i..j inclusive. A window is
    admissible when it is at least h long, starts at 0 or at i >= h, and
    ends at n-1 or at j <= n-h-1.
    """

    n: int
    h: int
    values: np.ndarray
    _spans: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts, offsets = packed_layout(self.n, self.h)
        if self.values.shape != (offsets[-1],):
            raise BreakDetectionError("SsrTable: values shape mismatch")
        self.values.flags.writeable = False
        spans = dict(zip(starts.tolist(), zip(offsets[:-1].tolist(), offsets[1:].tolist())))
        object.__setattr__(self, "_spans", spans)

    def row(self, i: int) -> np.ndarray:
        """SSR of windows (i, i+h-1) ... (i, n-h-1), then (i, n-1)."""
        if i not in self._spans:
            raise BreakDetectionError(f"SsrTable: no segment starts at {i} for h={self.h}")
        lo, hi = self._spans[i]
        return self.values[lo:hi]

    def _cell(self, i: int, j: int) -> int | None:
        if i not in self._spans or not 0 <= j < self.n:
            return None
        lo, hi = self._spans[i]
        if j == self.n - 1:
            return hi - 1
        col = j - (i + self.h - 1)
        return lo + col if 0 <= col < hi - lo - 1 else None

    def admissible(self, i: int, j: int) -> bool:
        return self._cell(i, j) is not None

    def ssr(self, i: int, j: int) -> float:
        cell = self._cell(i, j)
        if cell is None:
            raise BreakDetectionError(f"SsrTable: window ({i}, {j}) inadmissible for h={self.h}")
        return float(self.values[cell])


def ssr_table_from_arrays(y: np.ndarray, X: np.ndarray, h: int) -> SsrTable:
    """Tabulate per-window least-squares SSR for an arbitrary design.

    Each observation contributes one packed row of moments: the
    k(k+1)/2 distinct products x_a x_b, then x y, then y^2. For each
    start row i one cumulative sum of those rows gives the Gram matrix
    and cross moments of every window (i, j) at once; only the ends of
    the row are solved, so the batched solves cost O(n^2 k^2) overall.
    A row holding a singular window is solved by pseudo-inverse: Gram
    systems are always consistent (the right-hand side lies in the
    Gram's range), so that still yields the minimal SSR.
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
    starts, offsets = packed_layout(n, h)
    values = np.empty(offsets[-1])
    for i, lo, hi in zip(starts.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
        sums = np.cumsum(moments[i:], axis=0)
        ends = np.r_[i + h - 1 : i + h - 2 + hi - lo, n - 1]
        cells = sums[ends - i]
        grams = cells[:, gram_at]
        rhs = cells[:, pairs : pairs + k]
        try:
            beta = np.linalg.solve(grams, rhs[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            beta = (np.linalg.pinv(grams) @ rhs[:, :, None])[..., 0]
        ssr = cells[:, -1] - np.einsum("bk,bk->b", beta, rhs)
        values[lo:hi] = np.maximum(ssr, 0.0)
    return SsrTable(n=n, h=h, values=values)


def build_ssr_table(sample: AlignedSample, trim: float = DEFAULT_TRIM) -> SsrTable:
    """SSR table of the benchmark-adjusted regression, h = default_h(n, trim, k)."""
    X = design_matrix(sample)
    n, k = X.shape
    return ssr_table_from_arrays(excess_over_benchmark(sample), X, default_h(n, trim, k))


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
    B[m][0] and its break vector. Only the start rows of the table are
    swept: no segment of a partition of 0..n-1 starts at 1..h-1.
    Scanning candidate first breaks in ascending order and keeping the
    first minimum makes each reconstructed break vector
    lexicographically earliest among all global minimizers.
    """
    if max_m < 0:
        raise BreakDetectionError(f"break count m={max_m} negative")
    n, h = table.n, table.h
    if n < (max_m + 1) * h:
        raise BreakDetectionError(f"m={max_m} infeasible: n={n} < (m+1)h={(max_m + 1) * h}")

    starts, offsets = packed_layout(n, h)
    best = np.full((max_m + 1, n), np.inf)
    choice = np.zeros((max_m + 1, n), dtype=np.intp)
    best[0, starts] = table.values[offsets[1:] - 1]
    for r in range(1, max_m + 1):
        hi = n - 1 - r * h
        for i in starts[starts <= n - (r + 1) * h].tolist():
            lo = i + h - 1
            cand = table.row(i)[: hi - lo + 1] + best[r - 1, lo + 1 : hi + 2]
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

    partition: Partition
    criterion_values: tuple[tuple[int, float], ...]
    is_style_break: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if self.is_style_break is not None and len(self.is_style_break) != self.chosen_m:
            raise BreakDetectionError("BreakSet: is_style_break length != chosen_m")

    @property
    def chosen_m(self) -> int:
        return self.partition.m

    @property
    def break_indices(self) -> tuple[int, ...]:
        return self.partition.break_indices

    @property
    def regime_windows(self) -> tuple[tuple[int, int], ...]:
        return self.partition.regime_windows


def _bic(ssr: float, n: int, k: int, m: int, floor: float) -> float:
    penalty_params = (m + 1) * k + m
    return math.log(max(ssr, floor) / n) + penalty_params * math.log(n) / n


def select_break_count(
    sample: AlignedSample, table: SsrTable, max_breaks: int | None = None
) -> BreakSet:
    """Fit 0..max_breaks breaks and keep the BIC-minimal count.

    BIC(m) = ln(SSR_m / n) + p(m) ln(n) / n with p(m) = (m+1) k + m.
    ``table`` is the sample's :func:`build_ssr_table`, and its h bounds
    the count: at most n // h - 1 breaks fit, which is also the default
    ``max_breaks``. Ties go to the smaller m.
    """
    n, most = table.n, table.n // table.h - 1
    if n != sample.n:
        raise BreakDetectionError(f"select_break_count: table of n={n}, sample of n={sample.n}")
    k = design_matrix(sample).shape[1]

    y = excess_over_benchmark(sample)
    tss = float(np.sum((y - y.mean()) ** 2))
    floor = max(tss * _SSR_FLOOR_REL, np.finfo(float).tiny)

    partitions = optimal_partitions(table, most if max_breaks is None else min(max_breaks, most))
    scores = tuple(
        (part.m, _bic(part.total_ssr, n, k, part.m, floor)) for part in partitions
    )
    chosen_m = min(scores, key=lambda mv: mv[1])[0]
    return BreakSet(partition=partitions[chosen_m], criterion_values=scores)


def filter_short_regimes(bs: BreakSet, min_regime: int, table: SsrTable) -> BreakSet:
    """Drop breaks adjacent to regimes shorter than ``min_regime``.

    A break survives only when both regimes it separates have at least
    min_regime observations; removed breaks merge their regimes, whose
    total SSR is read from the fund's ``table``. One pass is idempotent:
    every merged regime contains a full-length original regime, so
    re-filtering removes nothing.
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

    n, h = bs.partition.n, bs.partition.h
    bounds = [-1] + keep + [n - 1]
    total = sum(table.ssr(a + 1, b) for a, b in zip(bounds, bounds[1:]))
    part = Partition(m=len(keep), break_indices=tuple(keep), total_ssr=total, n=n, h=h)
    return BreakSet(partition=part, criterion_values=bs.criterion_values)
