"""Multiple structural break detection by least-squares segmentation.

For each candidate break count m, a dynamic program finds the partition
that globally minimizes the total SSR of the benchmark-adjusted
regression over its segments, subject to a minimum segment length h.
The break count is then chosen by BIC.

Conventions:

* a break at index b separates regimes ...b and b+1...; the reported
  break date is the date at index b,
* h = max(ceil(trim * n), k + 1) where k is the regressor count; the
  SSR table fixes it, and break-count selection reads it from there,
* the BIC's SSR floor is 1e-12 of y's total sum of squares; the SSR
  table fixes it from its own y, and selection reads it from there too,
* breaks are pure structural changes: any coefficient of the
  benchmark-adjusted regression may move at a break. Whether a break
  touched the style loadings is flagged afterwards (``is_style_break``)
  by the classification layer.

The SSR table is lazy: it holds one row of regression moments per
observation, and a cumulative sum of the rows from i gives the Gram
matrix and cross moments of every window (i, j) at once. The DP sweeps
the start rows backwards and solves only the windows that can still win
(:func:`optimal_partitions`); its partitions, totals and ties equal
those of the full table bit for bit. It sweeps a group of tables of
equal n, h and k in lockstep, so equal-length funds share each row's
numpy calls, and every fund keeps the bits of a sweep alone. The
kernel, :func:`solve_windows`, solves one batch for the whole group and
falls back to each fund's own batch, by pseudo-inverse where a fund's
windows are singular. :meth:`SsrTable.ssr`, which the filter reads,
solves through it too.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .marketdata import AlignedSample
from .regress import design_matrix, excess_over_benchmark

#: Default minimum-segment-length fraction of the sample.
DEFAULT_TRIM = 0.15

#: Smallest trim: at 0.001, h = ceil(trim * n) is at most the k + 1 = 5 floor
#: for any fund up to 5,000 days, so a smaller trim says nothing more.
MIN_TRIM = 0.001

#: Relative floor applied to SSR inside the BIC log. Only exact fits (in the
#: tests, noise-free simulated funds) reach it: they drive SSR to rounding
#: dust whose size varies with window length (~1e-14 of y'y on long windows),
#: so the floor must sit above the dust or the selector would add cuts just
#: to shrink rounding error. Below tss * 1e-12 SSR is numerically zero for
#: model comparison, and ties resolve by the parameter penalty.
_SSR_FLOOR_REL = 1e-12

#: Margin, relative to a start row's y'y, by which a window's lower bound
#: must exceed the row's best exact cost before the search skips it.
#: Computed SSR is monotone only up to rounding: ssr(i, j) fell below
#: ssr(i', j), i' > i, by up to 1.9e-15 of y'y on 600-day exact fits (tested
#: to 1e-14) and 4.1e-15 at 5000 days (Gram condition number 6e4).
_PRUNE_SLACK_REL = 1e-12

#: Most windows one batched solve of a group holds; a larger batch, which
#: the first rows a flat fund sweeps can ask for, is solved fund by fund.
#: Each window costs about 300 bytes while its batch is solved.
_BATCH_WINDOWS = 1024


class BreakDetectionError(ValueError):
    """Sample or parameters unusable for break detection."""


def check_trim(trim: float) -> None:
    """Reject a trim outside [MIN_TRIM, 0.5)."""
    if not MIN_TRIM <= trim < 0.5:
        raise BreakDetectionError(f"trim must lie in [{MIN_TRIM}, 0.5), got {trim!r}")


def default_h(n: int, trim: float, k: int) -> int:
    """Minimum segment length: the trimming floor, but never below k+1."""
    check_trim(trim)
    return max(math.ceil(trim * n), k + 1)


def max_breaks_bound(trim: float) -> int:
    """The most breaks any sample can hold: floor(1/trim) - 1."""
    check_trim(trim)
    # Regimes hold >= trim * n observations; the ulps of slack cover
    # default_h's rounding of trim * n.
    return math.floor(1.0 / trim * (1.0 + 4 * math.ulp(1.0))) - 1


@functools.cache
def _gram_index(k: int) -> np.ndarray:
    """Column of each Gram entry (a, b) within a moment row."""
    rows, cols = np.triu_indices(k)
    at = np.empty((k, k), dtype=np.intp)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    at.flags.writeable = False
    return at


@dataclass(frozen=True)
class SsrTable:
    """Segment regressions of y on X, solved window by window on demand.

    Row t of ``values`` holds observation t's moments: the k(k+1)/2
    distinct products x_a x_b, then x y, then y^2. A window a partition
    can use is at least h long, starts at 0 or at i >= h, and ends at
    n-1 or at j <= n-h-1. ``floor`` is the least SSR the BIC reads.
    """

    n: int
    h: int
    values: np.ndarray
    floor: float

    def __post_init__(self) -> None:
        if self.values.shape != (self.n, (self.k + 1) * (self.k + 2) // 2):
            raise BreakDetectionError("SsrTable: values shape mismatch")
        self.values.flags.writeable = False

    @property
    def k(self) -> int:
        """Regressor count: a moment row holds (k+1)(k+2)/2 values."""
        return (math.isqrt(8 * self.values.shape[-1] + 1) - 3) // 2

    def ends(self, i: int) -> np.ndarray:
        """Ends a partition can use after a segment from i: i+h-1 ... n-h-1, then n-1."""
        return np.append(np.arange(i + self.h - 1, self.n - self.h), self.n - 1)

    def ssr(self, i: int, j: int) -> float:
        """SSR of the fit on observations i..j inclusive, with the search's bits."""
        if not (i == 0 or self.h <= i <= self.n - self.h) or j not in self.ends(i):
            raise BreakDetectionError(f"SsrTable: window ({i}, {j}) inadmissible for h={self.h}")
        sums = np.cumsum(self.values[i : j + 1], axis=0)[None]
        ends = np.unique([self.ends(i)[0], j])  # led by the row's first window
        return float(solve_windows(sums, i, np.zeros(ends.size, dtype=np.intp), ends)[-1])


def _ssr(cells: np.ndarray, solve) -> np.ndarray:
    """SSR of each window from its moment sums, its normal equations solved by ``solve``."""
    k = (math.isqrt(8 * cells.shape[-1] + 1) - 3) // 2
    rhs = cells[:, -k - 1 : -1]
    beta = solve(cells[:, _gram_index(k)], rhs[:, :, None])[..., 0]
    return np.maximum(cells[:, -1] - np.einsum("bk,bk->b", beta, rhs), 0.0)


def _pinv_solve(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(grams) @ rhs


def solve_windows(sums: np.ndarray, i: int, fund: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """SSR of the windows (i, ends[b]) of fund fund[b], one batch for all funds.

    ``sums[f]`` is the cumulative sum of fund f's moment rows from row i.
    Each fund's windows are contiguous, ascending and led by its first
    window at i, (i, i+h-1) or (i, n-1). Every later window holds the
    first, so none is singular unless the first is. LAPACK factors each
    matrix of a batch on its own, so the batch's make-up cannot move a
    window's bits. If any matrix is singular, or the batch holds more than
    ``_BATCH_WINDOWS`` windows, each fund's windows are solved on their
    own, and a fund whose batch is singular gets the pseudo-inverse,
    which still gives the least SSR of a consistent Gram system. A
    window's bits thus depend on (i, j) alone.
    """
    at = ends - i
    if at.size <= _BATCH_WINDOWS:
        try:
            return _ssr(sums[fund, at], np.linalg.solve)
        except np.linalg.LinAlgError:
            pass
    ssr = np.empty(at.size)
    cuts = [0, *(np.flatnonzero(np.diff(fund)) + 1).tolist(), at.size]
    for lo, hi in zip(cuts, cuts[1:]):
        cells = sums[fund[lo], at[lo:hi]]
        try:
            ssr[lo:hi] = _ssr(cells, np.linalg.solve)
        except np.linalg.LinAlgError:
            ssr[lo:hi] = _ssr(cells, _pinv_solve)
    return ssr


def ssr_table_from_arrays(y: np.ndarray, X: np.ndarray, h: int) -> SsrTable:
    """Moment table of the segment regression of y on X, segments >= h long."""
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
    moments = np.column_stack([X[:, rows] * X[:, cols], X * y[:, None], y * y])
    floor = max(float(np.sum((y - y.mean()) ** 2)) * _SSR_FLOOR_REL, np.finfo(float).tiny)
    return SsrTable(n=n, h=h, values=moments, floor=floor)


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


def optimal_partitions(
    tables: Sequence[SsrTable], max_m: int
) -> tuple[tuple[Partition, ...], ...]:
    """Globally SSR-minimal partitions with 0, 1, ..., max_m breaks, per table.

    Suffix DP: best[r][i] is the least total SSR of i..n-1 in r+1
    segments of length >= h, filled by one descending sweep over the
    start rows in O(n * max_m) memory. Removing an observation never
    raises a least-squares SSR, so windows solved on later rows bound
    those of row i from below. Row i solves its first end, its last and
    each level's bound-argmin, which gives an exact cost per level, then
    every end whose bound comes within the slack of that cost; the rest
    can neither win nor tie. Breaks let the bounds prune most ends; a flat
    fund without one solves a fifth to a third. The first minimum over
    ascending ends makes each break vector the earliest global minimizer.

    The tables share n, h and k, and the sweep advances them in lockstep:
    each row fills one buffer of cumulative sums and solves one batch per
    pass for the whole group, while every table keeps its own bounds, DP
    rows and pruning. Each table's windows, partitions and totals
    therefore carry the bits of a sweep over that table alone.
    """
    if max_m < 0:
        raise BreakDetectionError(f"break count m={max_m} negative")
    if not tables:
        raise BreakDetectionError("optimal_partitions: no table to search")
    n, h, k = tables[0].n, tables[0].h, tables[0].k
    if any((t.n, t.h, t.k) != (n, h, k) for t in tables):
        raise BreakDetectionError("optimal_partitions: tables differ in n, h or k")
    if n < (max_m + 1) * h:
        raise BreakDetectionError(f"m={max_m} infeasible: n={n} < (m+1)h={(max_m + 1) * h}")

    funds = len(tables)
    sums = np.empty((funds, *tables[0].values.shape))
    best = np.full((funds, max_m + 1, n), np.inf)
    choice = np.zeros((funds, max_m + 1, n), dtype=np.int32)
    bound = np.zeros((funds, n))  # bound[f, j] <= ssr(i, j): the last solved ssr(i', j), i' > i, or 0
    each = np.arange(funds)[:, None]
    all_ends = tables[0].ends(0)  # row i's ends are its suffix from min(i, n-2h+1)
    for i in [*range(n - h, h - 1, -1), 0]:
        for table, row in zip(tables, sums):
            np.cumsum(table.values[i:], axis=0, out=row[: n - i])
        ends = all_ends[min(i, n - 2 * h + 1) :]
        inner = slice(i + h - 1, n - h)
        levels = min(max_m, (n - i) // h - 1)
        follow = best[:, :levels, i + h : n - h + 1]  # best[f, r-1, j+1] per interior end j
        pick = np.zeros((funds, ends.size), dtype=bool)
        pick[:, 0] = pick[:, -1] = True
        if ends.size > 2:  # each level's bound-argmin over the ends after the first
            lower = bound[:, None, i + h : n - h] + follow[:, :, 1:]
            pick[each, lower.argmin(axis=2) + 1] = True
            del lower
        ssr = np.full((funds, ends.size), np.inf)
        f, e = np.divmod(np.flatnonzero(pick), ends.size)
        ssr[f, e] = solve_windows(sums, i, f, ends[e])
        if levels:
            upper = np.min(ssr[:, None, :-1] + follow, axis=2)
            upper += _PRUNE_SLACK_REL * sums[:, n - i - 1, -1:]
            # The bounds are summed again rather than kept, as a group's
            # memory peaks during its solves.
            lower = bound[:, None, inner] + follow
            rest = (lower <= upper[:, :, None]).any(axis=1) & np.isinf(ssr[:, :-1])
            del lower
            if rest.any():
                rest[:, 0] = rest.any(axis=1)  # solved already; leads the fund's batch
                f, e = np.divmod(np.flatnonzero(rest), ends.size - 1)
                solved = solve_windows(sums, i, f, ends[e])
                ssr[f[e > 0], e[e > 0]] = solved[e > 0]
        best[:, 0, i] = ssr[:, -1]
        if levels:
            cand = ssr[:, None, :-1] + follow
            best[:, 1 : levels + 1, i] = cand.min(axis=2)
            choice[:, 1 : levels + 1, i] = i + h - 1 + cand.argmin(axis=2)
        np.copyto(bound[:, inner], ssr[:, :-1], where=np.isfinite(ssr[:, :-1]))

    return tuple(
        tuple(_backtrack(best[f], choice[f], m, n, h) for m in range(max_m + 1))
        for f in range(funds)
    )


def _backtrack(best: np.ndarray, choice: np.ndarray, m: int, n: int, h: int) -> Partition:
    """The m-break partition the DP rows ``best`` and ``choice`` of one table hold."""
    path = [-1]  # each break is the choice at the row after the last one
    for r in range(m, 0, -1):
        path.append(int(choice[r, path[-1] + 1]))
    return Partition(m=m, break_indices=tuple(path[1:]), total_ssr=float(best[m, 0]), n=n, h=h)


def optimal_partition(table: SsrTable, m: int) -> Partition:
    """Globally SSR-minimal partition with exactly m breaks: the sweep stopped at m."""
    return optimal_partitions([table], m)[0][m]


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
    tables: Sequence[SsrTable], max_breaks: int | None = None
) -> tuple[BreakSet, ...]:
    """Fit 0..max_breaks breaks per table and keep each table's BIC-minimal count.

    BIC(m) = ln(max(SSR_m, floor) / n) + p(m) ln(n) / n with p(m) = (m+1) k + m,
    where floor is the table's own. The tables share n and h, and one
    :func:`optimal_partitions` sweep serves them all. The tables' h bounds
    the count: at most n // h - 1 breaks fit, which is also the default
    ``max_breaks``. Ties go to the smaller m.
    """
    if not tables:
        raise BreakDetectionError("select_break_count: no table to search")
    n, most, k = tables[0].n, tables[0].n // tables[0].h - 1, tables[0].k
    sweeps = optimal_partitions(tables, most if max_breaks is None else min(max_breaks, most))
    selected = []
    for table, partitions in zip(tables, sweeps):
        scores = tuple(
            (part.m, _bic(part.total_ssr, n, k, part.m, table.floor)) for part in partitions
        )
        chosen_m = min(scores, key=lambda mv: mv[1])[0]
        selected.append(BreakSet(partition=partitions[chosen_m], criterion_values=scores))
    return tuple(selected)


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
