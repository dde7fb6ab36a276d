"""Multiple structural break detection by least-squares segmentation.

For each candidate break count m, a dynamic program finds the partition
that globally minimizes the total SSR of the benchmark-adjusted
regression over its segments, subject to a minimum segment length h.
The break count is then chosen by BIC. One :class:`BreakSet` holds each
segmentation; the chosen one also holds every count's BIC.

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
observation, and the sum of rows i .. j, added in row order from i,
gives window (i, j)'s Gram matrix and cross moments. A start row's
prefix sums give its windows up to its last inner end, and one reduce
over a tile of consecutive start rows gives each row's window to n-1
with the same bits. A row holds the k(k+1)/2 distinct products
x_a x_b, a zero pad column where the count would be odd, then x y, then
y^2; the sums run over its complex128 view (:func:`_lanes`), two
columns per step, each with its bits. The DP sweeps the start rows
backwards and solves only the windows that can still win
(:func:`optimal_partitions`); its partitions, totals and ties equal
those of the full table bit for bit.
A row's windows are chosen before its prefix sums, from lower bounds
solved on rows above it and an upper bound carried down from the row
above, so the sweep runs eight row chains per fund, and every fund of a
group of tables of equal n, h and k, in lockstep: a step's windows
share kernel batches of whole runs, and every fund keeps the bits of a
sweep alone at any chain count. The kernel, :func:`solve_windows`,
solves the gathered windows of any funds and start rows in one batch
and falls back to each (fund, start) run, by pseudo-inverse where a run
is singular.
:meth:`SsrTable.ssr`, which the filter reads, solves through it too.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

#: Least size of the sweep's batch buffer, in windows: it holds
#: max(_BATCH_WINDOWS, n-2h+2), room for the longest run of one row and
#: fund, and the sweep solves its gathered windows before a run would
#: overflow it. Each window costs about 300 bytes while it is solved; a
#: buffer of n-2h+2 alone raised seed-7 ``wide``'s kernel calls by a third.
_BATCH_WINDOWS = 1024

#: Row chains the search advances per fund in lockstep, at most h.
_CHAINS = 8

#: Consecutive start rows whose sums to n-1 one reduce adds at once
#: (:meth:`_Sweep.fill_tails`). On a 4,995-day fund (k = 4, h = 750),
#: tiles of 32, 64, 128 and 256 rows summed the 3,497 start rows' tails
#: in 27, 24, 23 and 34 ms (best of 15): at 128 rows a tile's output,
#: 16 KB, stays in L1.
_TILE = 128

#: Largest Gram condition number at which the search trusts a fit of rows
#: it skipped as a lower bound on their SSR (:func:`_own_fit_ssr`).
_GAP_COND = 1e6


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
def _pair_terms(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each Gram column's pair (a, b), a <= b, and its count in sum_ab beta_a beta_b x_a x_b."""
    rows, cols = np.triu_indices(k)
    return rows, cols, np.where(rows == cols, 1.0, 2.0)


@functools.cache
def _gram_index(k: int) -> np.ndarray:
    """Column of each Gram entry (a, b) within a moment row."""
    rows, cols, _ = _pair_terms(k)
    at = np.empty((k, k), dtype=np.intp)
    at[rows, cols] = at[cols, rows] = np.arange(rows.size)
    at.flags.writeable = False
    return at


def _row_width(k: int) -> int:
    """Columns of a moment row: its (k+1)(k+2)/2 moments, rounded up to even."""
    moments = (k + 1) * (k + 2) // 2
    return moments + moments % 2


def _regressors(width: int) -> int:
    """Regressor count k of a moment row ``width`` columns wide (see :func:`_row_width`)."""
    return (math.isqrt(8 * width + 1) - 3) // 2


def _lanes(rows: np.ndarray) -> np.ndarray:
    """Moment rows (float64, C order, even width) as complex128 pair lanes.

    A complex add is one IEEE add per float64 column, so
    ``np.cumsum(_lanes(rows), axis=0)`` holds the bits of
    ``np.cumsum(rows, axis=0)`` in half the accumulate steps.
    """
    return rows.view(np.complex128)


@dataclass(frozen=True)
class SsrTable:
    """Segment regressions of y on X, solved window by window on demand.

    Row t of ``values`` holds observation t's moments: the k(k+1)/2
    distinct products x_a x_b, one zero column where the row would
    otherwise hold an odd count, then x y, then y^2: float64 in C order,
    whole pair lanes for :func:`_lanes`. A window a partition can use is
    at least h long, starts at 0 or at i >= h, and ends at n-1 or at
    j <= n-h-1. ``floor`` is the least SSR the BIC reads.
    """

    h: int
    values: np.ndarray
    floor: float

    def __post_init__(self) -> None:
        v = self.values
        shaped = v.ndim == 2 and v.shape[1] == _row_width(self.k)
        if not shaped or v.dtype != np.float64 or not v.flags.c_contiguous:
            raise BreakDetectionError("SsrTable: values must be (n, even width) float64 in C order")
        v.flags.writeable = False

    @property
    def n(self) -> int:
        """Observation count: one moment row each."""
        return len(self.values)

    @property
    def k(self) -> int:
        """Regressor count: a moment row holds (k+1)(k+2)/2 moments and the pad."""
        return _regressors(self.values.shape[-1])

    def ends(self, i: int) -> np.ndarray:
        """Ends a partition can use after a segment from i: i+h-1 ... n-h-1, then n-1."""
        return np.append(np.arange(i + self.h - 1, self.n - self.h), self.n - 1)

    def ssr(self, i: int, j: int) -> float:
        """SSR of the fit on observations i..j inclusive, with the search's bits."""
        if not (i == 0 or self.h <= i <= self.n - self.h) or j not in self.ends(i):
            raise BreakDetectionError(f"SsrTable: window ({i}, {j}) inadmissible for h={self.h}")
        sums = np.cumsum(_lanes(self.values[i : j + 1]), axis=0).view(np.float64)
        ends = np.unique([self.ends(i)[0], j])  # led by the row's first window
        ssr, _ = solve_windows(sums[ends - i], np.zeros_like(ends), np.full_like(ends, i), ends)
        return float(ssr[-1])


def _fit(cells: np.ndarray, solve) -> tuple[np.ndarray, np.ndarray]:
    """SSR and coefficients of each window from its moment sums, solved by ``solve``."""
    k = _regressors(cells.shape[-1])
    rhs = cells[:, -k - 1 : -1]
    beta = solve(cells[:, _gram_index(k)], rhs[:, :, None])[..., 0]
    return np.maximum(cells[:, -1] - np.einsum("bk,bk->b", beta, rhs), 0.0), beta


def _pinv_solve(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(grams) @ rhs


def solve_windows(
    cells: np.ndarray, fund: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SSR and coefficients of the windows (start[b], end[b]) of fund fund[b].

    ``cells[b]`` holds window b's moment sums, summed from its start row.
    The windows of one fund and start form a contiguous run, ascending
    and led by the row's first window, (i, i+h-1) or (i, n-1). Every
    later window holds the first, so none is singular unless the first
    is. LAPACK factors each matrix of a batch on its own, so the batch's
    make-up cannot move a window's bits. If any matrix is singular, each
    run is solved whole on its own, and a run that is singular gets the
    pseudo-inverse, which still gives the least SSR of a consistent Gram
    system. A window's bits thus depend on (i, j) alone.
    """
    try:
        return _fit(cells, np.linalg.solve)
    except np.linalg.LinAlgError:
        pass
    ssr, beta = np.empty(end.size), np.empty((end.size, _regressors(cells.shape[-1])))
    runs = np.flatnonzero((np.diff(fund) != 0) | (np.diff(start) != 0)) + 1
    for lo, hi in zip([0, *runs.tolist()], [*runs.tolist(), end.size]):
        try:
            ssr[lo:hi], beta[lo:hi] = _fit(cells[lo:hi], np.linalg.solve)
        except np.linalg.LinAlgError:
            ssr[lo:hi], beta[lo:hi] = _fit(cells[lo:hi], _pinv_solve)
    return ssr, beta


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
    rows, cols, _ = _pair_terms(k)
    pad = np.zeros((n, _row_width(k) - rows.size - k - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        moments = np.column_stack([X[:, rows] * X[:, cols], pad, X * y[:, None], y * y])
    if not np.isfinite(moments).all():
        raise BreakDetectionError("ssr table: y, X and their products must be finite")
    floor = max(float(np.sum((y - y.mean()) ** 2)) * _SSR_FLOOR_REL, np.finfo(float).tiny)
    return SsrTable(h=h, values=moments, floor=floor)


def build_ssr_table(sample: AlignedSample, trim: float = DEFAULT_TRIM) -> SsrTable:
    """SSR table of the benchmark-adjusted regression, h = default_h(n, trim, k)."""
    X = design_matrix(sample)
    n, k = X.shape
    return ssr_table_from_arrays(excess_over_benchmark(sample), X, default_h(n, trim, k))


@dataclass(frozen=True)
class BreakSet:
    """One segmentation of a fund: its break indices and total SSR.

    A break index b is the last observation of its regime, so breaks
    live in [h-1, n-h-1] and consecutive breaks are at least h apart.
    ``criterion[m]`` is the BIC score of m breaks, for every feasible m,
    once break-count selection has chosen this segmentation; the search's
    own partitions leave it empty. ``is_style_break`` stays None until
    the classification layer grades each break; True marks breaks where
    the size or value loading changed class or magnitude.
    """

    break_indices: tuple[int, ...]
    total_ssr: float
    n: int
    h: int
    criterion: tuple[float, ...] = ()
    is_style_break: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        if self.total_ssr < 0.0:
            raise BreakDetectionError("BreakSet: negative total_ssr")
        for a, b in self.regime_windows:
            if b - a + 1 < self.h:
                raise BreakDetectionError(f"BreakSet: segment ({a}, {b}) shorter than h={self.h}")
        if self.is_style_break is not None and len(self.is_style_break) != self.chosen_m:
            raise BreakDetectionError("BreakSet: is_style_break length != chosen_m")

    @property
    def chosen_m(self) -> int:
        return len(self.break_indices)

    @property
    def regime_windows(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (start, end) windows tiling [0, n-1]."""
        bounds = (-1,) + self.break_indices + (self.n - 1,)
        return tuple((a + 1, b) for a, b in zip(bounds, bounds[1:]))


def _chain_blocks(n: int, h: int, chains: int):
    """The sweep's schedule: (row above, each chain's rows) per block, row 0 last.

    The start rows n-h ... h, descending, split into blocks of ``chains``
    segments of S = (h-1) // (chains-1) rows; the last block takes
    segments of its ceiling share. Chain c runs segment c and step s runs
    row s of every chain, so the rows of one step lie within
    S (chains-1) < h of each other: a row's followers, the rows from i+h
    on, all ran at earlier steps. Row 0 runs alone, after row h.
    """
    span = (h - 1) // (chains - 1) if chains > 1 else n
    for top in range(n - h, h - 1, -chains * span):
        size = min(chains * span, top - h + 1)
        seg = -(-size // chains)
        rows = np.arange(top, top - size, -1)
        yield top + 1, [rows[lo : lo + seg] for lo in range(0, size, seg)]
    yield h, [np.zeros(1, dtype=np.intp)]


def _residual_weights(beta: np.ndarray) -> np.ndarray:
    """Weights w with (summed moment rows) @ w = the rows' sum of (y - x beta)^2."""
    k = beta.shape[-1]
    rows, cols, count = _pair_terms(k)
    w = np.zeros((*beta.shape[:-1], _row_width(k)))
    w[..., : rows.size] = beta[..., rows] * beta[..., cols] * count
    w[..., -k - 1 : -1] = -2.0 * beta
    w[..., -1] = 1.0
    return w


def _own_fit_ssr(moments: np.ndarray) -> np.ndarray:
    """A lower bound on the SSR of each row set, from its summed moment rows: 0 or its own fit's.

    LU with partial pivoting is backward stable, so where the Gram
    matrix's condition number is below ``_GAP_COND`` the residual sum
    under the solved coefficients exceeds the least SSR by about
    (eps * cond)^2 of the fitted sum of squares, far inside the prune
    slack. Elsewhere, singular and non-finite sets among them, the bound
    is 0. The gate reads the Frobenius condition number, whose inverse
    runs through the same LAPACK ``gesv`` as the window solves, so no
    SVD is loaded; it is never below the 2-norm one, so up to rounding
    at a tie the gate is at least as strict.
    """
    k = _regressors(moments.shape[-1])
    grams = moments[..., _gram_index(k)]
    ssr = np.zeros(moments.shape[:-1])
    sound = np.isfinite(moments).all(axis=-1)
    sound[sound] = np.linalg.cond(grams[sound], "fro") < _GAP_COND
    if sound.any():
        _, beta = _fit(moments[sound], np.linalg.solve)
        fitted = np.einsum("bw,bw->b", moments[sound], _residual_weights(beta))
        ssr[sound] = np.maximum(fitted, 0.0)
    return ssr


def _level_bounds(
    carried: np.ndarray, weights: np.ndarray, values: Sequence[np.ndarray], rows: np.ndarray
) -> np.ndarray:
    """Each lane's cost bound per level at its row, before the prune slack.

    ``carried[a, f, r]`` bounds level r+1's cost from row rows[a]+1 of
    fund f through its first window; row rows[a]'s squared residual
    under the coefficients ``weights[a, f, r]`` encodes extends that
    window to the row.
    """
    moments = np.stack([v[rows] for v in values], axis=1)
    return carried + np.einsum("afw,afrw->afr", moments, weights)


class _Sweep:
    """One lockstep sweep: every fund's DP rows, each lane's bounds and the block's tail sums.

    A lane is one (chain, fund) pair. ``bound[c, f, j-h+1]`` bounds
    ssr(i, j) from below for the lane's next row i: an SSR solved on a
    row above it, raised by the own-fit SSR of rows the lane skipped.
    ``carried[c, f, r]`` bounds level r+1's cost at the row above the
    lane's next one: its best at the lane's last row plus the residuals
    of any rows skipped since, under the coefficients of that best's
    first window, whose residual weights ``weights[c, f, r]`` holds.
    ``tails`` holds each fund's sums to n-1 from the block's rows (the
    last column, y'y, scales a row's prune slack), and ``batch`` a
    step's gathered windows, whole runs only: it has room for the
    longest run, so no batch splits one.
    """

    def __init__(self, tables: Sequence[SsrTable], max_m: int, chains: int) -> None:
        n, h, funds = tables[0].n, tables[0].h, len(tables)
        self.n, self.h = n, h
        self.values = [t.values for t in tables]
        self.row_lanes = [_lanes(v) for v in self.values]
        # One fund's prefix sums from row i, each at its end row, and the
        # sum to n-1 at n-1; fill_tails puts rows low .. n-1 in it, above
        # _TILE rows of -0.0.
        self.sums = np.full((n + _TILE, self.values[0].shape[1]), -0.0)
        self.sum_lanes = _lanes(self.sums)
        self.tails = np.empty((funds, 0, self.sums.shape[1]))  # see fill_tails
        self.tails_from = 0
        self.batch = np.empty((max(_BATCH_WINDOWS, n - 2 * h + 2), self.sums.shape[1]))
        self.all_ends = tables[0].ends(0)  # row i's ends are its suffix from min(i, n-2h+1)
        self.max_m = max_m
        self.best = np.full((funds, max_m + 1, n), np.inf)
        self.choice = np.zeros((funds, max_m + 1, n), dtype=np.int32)
        self.bound = np.zeros((chains, funds, n - 2 * h + 1))  # interior ends h-1 .. n-h-1
        self.carried = np.full((chains, funds, max_m), np.inf)
        self.weights = _residual_weights(np.zeros((chains, funds, max_m, tables[0].k)))

    def restart(self, above: int, firsts: Sequence[int], src: int) -> None:
        """Start chain c at row firsts[c] from lane src, which ran row ``above``.

        Every chain takes src's state. Chain c adds to its cost bounds the
        residuals of rows firsts[c]+1 .. above-1 under src's coefficients,
        and to the lower bound of every end from above-1 on the own-fit
        SSR of rows firsts[c] .. above-1: a window holding those rows and
        a window from ``above`` costs at least the two fitted apart.
        """
        for state in (self.bound, self.carried, self.weights):
            state[:] = state[src].copy()
        firsts = np.asarray(firsts)
        lo = int(firsts.min())
        skipped = np.empty((firsts.size, len(self.values), self.sums.shape[1]))
        for f, v in enumerate(self.values):
            tails = np.zeros((above - lo + 1, v.shape[1]))  # tails[t-lo]: rows t .. above-1
            np.cumsum(v[lo:above][::-1], axis=0, out=tails[-2::-1])
            self.carried[: firsts.size, f] += tails[firsts + 1 - lo] @ self.weights[src, f].T
            skipped[:, f] = tails[firsts - lo]
        self.bound[: firsts.size, :, above - self.h :] += _own_fit_ssr(skipped)[:, :, None]

    def fill_tails(self, low: int, top: int) -> None:
        """Sum rows i .. n-1 of every fund for each start row i = low .. top.

        ``sums`` takes a fund's rows low .. n-1 above its _TILE rows of
        -0.0. Viewed from row a with both leading strides one row, as
        (n-a, m, lanes), it holds row a+r+t at [t, r], so one reduce over
        axis 0 adds the tails of the m <= _TILE rows a .. a+m-1 at once,
        vectorized across them. numpy adds along a reduced outer axis in
        row order, from row i as np.cumsum does; x + (-0.0) is x bit for
        bit, so the -0.0 start and the rows past n-1 leave each tail with
        the bits of the cumulative sum's last row.
        """
        n, buf, zero = self.n, self.sum_lanes, complex(-0.0, -0.0)
        (row, lane), lanes = buf.strides, buf.shape[1]
        self.tails_from = low  # tails[f, i - low]: fund f's sum of rows i .. n-1
        self.tails = np.empty((len(self.values), top - low + 1, self.sums.shape[1]))
        for f, v in enumerate(self.row_lanes):
            buf[low:n] = v[low:]
            tails = _lanes(self.tails[f])
            for a in range(low, top + 1, _TILE):
                m = min(_TILE, top + 1 - a)
                view = as_strided(buf[a:], (n - a, m, lanes), (row, row, lane), writeable=False)
                np.add.reduce(view, axis=0, out=tails[a - low : a - low + m], initial=zero)

    def advance(self, rows: np.ndarray) -> None:
        """Run row rows[a] on lane a of every fund: pick, solve and fill its DP row."""
        n, h = self.n, self.h
        lanes, low = rows.size, int(rows[-1])
        grid = self.all_ends[min(low, n - 2 * h + 1) :]  # every lane's ends are a suffix of it
        first = np.minimum(rows, n - 2 * h + 1) - min(low, n - 2 * h + 1)
        levels = min(self.max_m, (n - low) // h - 1)
        follow = self.best[:, :levels, low + h : n - h + 1]  # best[f, r-1, j+1] per interior end j
        pick = np.zeros((lanes, len(self.values), grid.size), dtype=bool)
        if levels:
            bound = self.bound[:lanes, :, low : n - 2 * h + 1]
            carried, weights = self.carried[:lanes, :, :levels], self.weights[:lanes, :, :levels]
            upper = _level_bounds(carried, weights, self.values, rows)
            upper += _PRUNE_SLACK_REL * self.tails[:, rows - self.tails_from, -1].T[:, :, None]
            upper = np.fmin(upper, np.finfo(float).max)  # a level new to a lane: every feasible end
            lower = np.empty(bound.shape)
            for r in range(levels):
                e = n - (r + 2) * h - low + 1  # ends after which r+1 segments still fit
                np.add(bound[:, :, :e], follow[:, r, :e], out=lower[:, :, :e])
                pick[:, :, :e] |= lower[:, :, :e] <= upper[:, :, r, None]
            del lower
            pick &= np.arange(grid.size) >= first[:, None, None]
        pick[np.arange(lanes), :, first] = True
        pick[:, :, -1] = True

        # The picked windows' ends in (lane, fund, end) order: one run per
        # (lane, fund), its sums gathered while the one buffer holds the
        # lane's row: prefix sums to the run's last inner end, and its tail.
        ends = grid[np.flatnonzero(pick) % grid.size]
        sizes = pick.sum(axis=2).ravel()
        tops = np.cumsum(sizes)
        step = (rows, ends, sizes, tops, levels)
        r0, w0 = 0, 0  # the pending batch's first run and first window
        for run, (i, f) in enumerate(itertools.product(rows.tolist(), range(len(self.values)))):
            lo, hi = tops[run] - sizes[run], tops[run]
            if hi - w0 > len(self.batch):  # never on run r0: it fits alone
                self._fill(step, r0, run, self.batch[: lo - w0])
                r0, w0 = run, lo
            if hi - lo > 1:  # prefix sums of rows i .. the run's last inner end
                last = int(ends[hi - 2]) + 1
                np.cumsum(self.row_lanes[f][i:last], axis=0, out=self.sum_lanes[i:last])
            self.sums[n - 1] = self.tails[f, i - self.tails_from]
            np.take(self.sums, ends[lo:hi], axis=0, out=self.batch[lo - w0 : hi - w0], mode="clip")
        self._fill(step, r0, sizes.size, self.batch[: tops[-1] - w0])

    def _fill(self, step: tuple, r0: int, r1: int, cells: np.ndarray) -> None:
        """Solve runs r0 .. r1-1 of a step and fill their DP rows, bounds and carried costs.

        ``step`` holds the step's rows, each picked window's end, the
        window count of each run and its running total, and the step's
        level count. A run holds every window its row solves, ascending,
        so its DP row is final at once: each level keeps its first least
        candidate.
        """
        rows, ends, sizes, tops, levels = step
        lane, fund = np.divmod(np.arange(r0, r1), len(self.values))
        start = rows[lane]
        w0 = tops[r0] - sizes[r0]
        ends = ends[w0 : tops[r1 - 1]]
        run = np.repeat(np.arange(r1 - r0), sizes[r0:r1])
        ssr, beta = solve_windows(cells, fund[run], start[run], ends)
        heads = tops[r0:r1] - sizes[r0:r1] - w0
        self.best[fund, 0, start] = ssr[tops[r0:r1] - 1 - w0]  # each run ends at n-1
        inner = ends < self.n - 1
        self.bound[lane[run[inner]], fund[run[inner]], ends[inner] - self.h + 1] = ssr[inner]
        if levels:  # cand[b, r]: window b's cost as the first segment of level r+1
            cand = np.full((ssr.size, levels), np.inf)
            cand[inner] = self.best[fund[run[inner]], :levels, ends[inner] + 1]
            cand += ssr[:, None]
            least = np.minimum.reduceat(cand, heads)
            index = np.where(cand == least[run], np.arange(ssr.size)[:, None], ssr.size)
            win = np.minimum.reduceat(index, heads)  # each run's first least window
            self.best[fund, 1 : levels + 1, start] = least
            self.choice[fund, 1 : levels + 1, start] = ends[win]
            self.carried[lane, fund, :levels] = least
            self.weights[lane, fund, :levels] = _residual_weights(beta[win])


def optimal_partitions(
    tables: Sequence[SsrTable], max_m: int
) -> tuple[tuple[BreakSet, ...], ...]:
    """Globally SSR-minimal partitions with 0, 1, ..., max_m breaks, per table.

    Suffix DP: best[r][i] is the least total SSR of i..n-1 in r+1
    segments of length >= h, filled by one descending sweep over the
    start rows in O(n * max_m) memory per fund. Removing an observation
    never raises a least-squares SSR, so windows solved on later rows
    bound those of row i from below. From above, each level's cost at row
    i is at most its best at a later row i' plus the squared residuals of
    rows i .. i'-1 under the coefficients of that best's first window.
    Row i solves its first end, its last, and every end whose lower bound
    comes within the slack of some level's upper bound; the rest can
    neither win nor tie. All of this is known before the row's prefix
    sums, so a step's lanes share kernel batches. Breaks let the bounds
    prune most ends; a flat fund without one solves a fifth to a third.
    Each level keeps the first minimum over ascending ends: each break
    vector is a global minimizer, the earliest unless rounding ties an
    earlier vector's total with it.

    The sweep runs min(_CHAINS, h) row chains per fund in lockstep
    (:func:`_chain_blocks`), and the tables share n, h and k, so a step
    advances every (chain, fund) lane at once through one buffer of
    prefix sums. Each lane keeps its own bounds, taken only from rows
    above its own. Each table's windows, partitions and totals therefore
    carry the bits of a sweep over that table alone, at any chain count.
    A block's rows are consecutive, so at its start one tiled reduce per
    fund sums every row's window to n-1 (:meth:`_Sweep.fill_tails`), and
    a row's prefix sums stop at its last picked inner end: on seed-7
    perfbench inputs they covered 38% (``long``) and 42% (``wide``) of
    the rows a prefix sum to n-1 from every start row would.
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

    chains = min(_CHAINS, h)
    sweep = _Sweep(tables, max_m, chains)
    for block, (above, rows) in enumerate(_chain_blocks(n, h, chains)):
        if block:
            sweep.restart(above, [int(r[0]) for r in rows], src)
        sweep.fill_tails(int(rows[-1][-1]), int(rows[0][0]))
        for step in range(rows[0].size):
            sweep.advance(np.array([r[step] for r in rows if step < r.size]))
        src = len(rows) - 1  # the lane of the block's lowest row: the next block's row above
    return tuple(
        tuple(_backtrack(sweep.best[f], sweep.choice[f], m, n, h) for m in range(max_m + 1))
        for f in range(len(tables))
    )


def _backtrack(best: np.ndarray, choice: np.ndarray, m: int, n: int, h: int) -> BreakSet:
    """The m-break partition the DP rows ``best`` and ``choice`` of one table hold."""
    path = [-1]  # each break is the choice at the row after the last one
    for r in range(m, 0, -1):
        path.append(int(choice[r, path[-1] + 1]))
    return BreakSet(break_indices=tuple(path[1:]), total_ssr=float(best[m, 0]), n=n, h=h)


def optimal_partition(table: SsrTable, m: int) -> BreakSet:
    """Globally SSR-minimal partition with exactly m breaks: the sweep stopped at m."""
    return optimal_partitions([table], m)[0][m]


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
        bic = tuple(_bic(part.total_ssr, n, k, m, table.floor) for m, part in enumerate(partitions))
        selected.append(replace(partitions[bic.index(min(bic))], criterion=bic))
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

    merged = replace(bs, break_indices=tuple(keep))
    return replace(merged, total_ssr=sum(table.ssr(a, b) for a, b in merged.regime_windows))
