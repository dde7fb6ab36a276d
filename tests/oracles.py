"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes a different algorithmic route from
the code under test: normal equations instead of QR, brute-force
enumeration instead of dynamic programming, a full table of every
reachable window and an unpruned DP instead of the pruned search,
direct formula evaluation instead of the metrics layer. Totals in the
enumeration oracle are folded right to left, matching the summation
order of the suffix dynamic program, so optimal values can be compared
for exact equality.
"""

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np
from scipy import linalg

from fundshift.breaks import BreakDetectionError, BreakSet
from fundshift.marketdata import AlignedSample

#: Annualization constant mirrored here so the oracle stays standalone.
A_DAYS = 252


def normal_equations_fit(y: np.ndarray, X: np.ndarray):
    """Coefficients and standard errors via a dense X'X solve."""
    xtx_inv = linalg.inv(X.T @ X)
    beta = xtx_inv @ (X.T @ y)
    resid = y - X @ beta
    n, k = X.shape
    s2 = float(resid @ resid) / (n - k)
    se = np.sqrt(s2 * np.diag(xtx_inv))
    return beta, se, float(resid @ resid)


def window_ssr(y: np.ndarray, X: np.ndarray, i: int, j: int) -> float:
    """SSR of an independent least-squares refit on rows i..j inclusive."""
    sol, residual, rank, _ = np.linalg.lstsq(X[i : j + 1], y[i : j + 1], rcond=None)
    resid = y[i : j + 1] - X[i : j + 1] @ sol
    return float(resid @ resid)


def dense_ssr_table(y: np.ndarray, X: np.ndarray, h: int) -> np.ndarray:
    """SSR of every window of length >= h, one full cumulative pass per row.

    Rows 0..n-h, columns i+h-1..n-1, k x k outer products and three
    cumulative sums per row, whether or not a partition can reach the
    cell. The bitwise reference for the library's reachable-cell
    kernel; cells shorter than h are NaN.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    outers = X[:, :, None] * X[:, None, :]
    cross = X * y[:, None]
    ysq = y * y
    values = np.full((n, n), np.nan)
    for i in range(n - h + 1):
        grams = np.cumsum(outers[i:], axis=0)
        rhs = np.cumsum(cross[i:], axis=0)
        ytot = np.cumsum(ysq[i:])
        lo = h - 1
        try:
            beta = np.linalg.solve(grams[lo:], rhs[lo:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            beta = np.empty_like(rhs[lo:])
            for b in range(beta.shape[0]):
                beta[b] = np.linalg.lstsq(grams[lo + b], rhs[lo + b], rcond=None)[0]
        ssr = ytot[lo:] - np.einsum("bk,bk->b", beta, rhs[lo:])
        values[i, i + lo:] = np.maximum(ssr, 0.0)
    return values


def reachable_cells(n: int, h: int) -> np.ndarray:
    """(n, n) mask of the windows (i, j) some partition into >= h-long segments uses."""
    reach = np.zeros((n, n), dtype=bool)
    for i in [0, *range(h, n - h + 1)]:
        reach[i, [*range(i + h - 1, n - h), n - 1]] = True
    return reach


def exhaustive_best_partition(table, m: int):
    """Brute-force global minimum over all m-break partitions.

    Enumerates every feasible break vector (supported for m <= 3),
    computing each total as the right-nested sum of table cells; windows
    no partition can use cost inf. Returns (break_indices, total_ssr) of
    the first minimizer in lexicographic order, which is therefore the
    earliest one.
    """
    n = table.n
    S = np.full((n, n), np.inf)
    for i, j in zip(*np.nonzero(reachable_cells(n, table.h))):
        S[i, j] = table.ssr(int(i), int(j))
    last = S[:, n - 1]
    if m == 0:
        return (), float(S[0, n - 1])
    if m == 1:
        totals = np.full(n, np.inf)
        totals[: n - 1] = S[0, : n - 1] + last[1:]
        b = int(np.argmin(totals))
        return (b,), float(totals[b])
    if m == 2:
        # t2[b1, b2] = S[b1+1, b2] + S[b2+1, n-1]
        t2 = np.full((n, n), np.inf)
        t2[: n - 1, : n - 1] = S[1:, : n - 1] + last[1:][None, :]
        totals = S[0, :, None] + t2
        b1, b2 = np.unravel_index(int(np.argmin(totals)), totals.shape)
        return (int(b1), int(b2)), float(totals[b1, b2])
    if m == 3:
        # t1[b3] = S[b3+1, n-1]; t2[b2, b3] = S[b2+1, b3] + t1[b3]
        t2 = np.full((n, n), np.inf)
        t2[: n - 1, : n - 1] = S[1:, : n - 1] + last[1:][None, :]
        # t3[b1, b2, b3] = S[b1+1, b2] + t2[b2, b3]
        t3 = np.full((n, n, n), np.inf)
        t3[: n - 1] = S[1:, :, None] + t2[None, :, :]
        totals = S[0, :, None, None] + t3
        b1, b2, b3 = np.unravel_index(int(np.argmin(totals)), totals.shape)
        return (int(b1), int(b2), int(b3)), float(totals[b1, b2, b3])
    raise ValueError(f"oracle supports m <= 3, got {m}")


def annual_metrics_reference(e: np.ndarray) -> dict:
    """Direct-formula annualized metrics from daily excess returns."""
    mean = float(np.mean(e))
    sd = float(np.std(e, ddof=1))
    return {
        "excess_return_pa": mean * A_DAYS * 100.0,
        "stdev_pa": sd * np.sqrt(A_DAYS) * 100.0,
        "sharpe_pa": mean / sd * np.sqrt(A_DAYS) if sd > 0 else float("nan"),
    }


def reference_nav_csv(nav) -> str:
    """``date,nav`` text of a NAV series, one f-string per row."""
    lines = ["date,nav"]
    lines += [f"{d.isoformat()},{float(v)!r}" for d, v in zip(nav.dates, nav.navs)]
    return "\n".join(lines) + "\n"


def reference_factor_csv(panel) -> str:
    """Factor file text of a panel, one f-string per row; ``mom`` only when present."""
    names = ["mkt_rf", "smb", "hml", *(["mom"] if panel.mom is not None else []), "rf"]
    columns = [getattr(panel, name) for name in names]
    lines = [",".join(["date", *names])]
    for i, d in enumerate(panel.dates):
        lines.append(d.isoformat() + "".join(f",{float(column[i])!r}" for column in columns))
    return "\n".join(lines) + "\n"


def weekdays(count: int, start: date = date(2006, 1, 2)) -> tuple[date, ...]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def make_styled_sample(
    seed: int,
    path: list[tuple[int, float, float, float]],
    noise: float = 0.0,
    tile_factors: bool = False,
) -> AlignedSample:
    """Fund whose active (alpha, smb, hml) tilt is a step function.

    path lists (length, alpha, beta_smb, beta_hml) segments; the
    benchmark carries the market loading. With tile_factors the second
    half repeats the first half's factor draws exactly, so two identical
    regimes produce identical excess streams.
    """
    n = sum(length for length, *_ in path)
    rng = np.random.default_rng(seed)
    mkt = rng.normal(0, 0.008, n)
    smb = rng.normal(0, 0.004, n)
    hml = rng.normal(0, 0.004, n)
    if tile_factors:
        assert n % 2 == 0
        half = n // 2
        for arr in (mkt, smb, hml):
            arr[half:] = arr[:half]
    rf = np.full(n, 0.0002)
    r_bench = rf + 1.0 * mkt
    alpha = np.concatenate([np.full(length, a) for length, a, _, _ in path])
    b_smb = np.concatenate([np.full(length, b) for length, _, b, _ in path])
    b_hml = np.concatenate([np.full(length, b) for length, _, _, b in path])
    eps = rng.normal(0, noise, n) if noise > 0 else np.zeros(n)
    r_fund = r_bench + alpha + b_smb * smb + b_hml * hml + eps
    return AlignedSample(
        fund_id="F1", dates=weekdays(n), r_fund=r_fund, r_bench=r_bench,
        mkt_rf=mkt, smb=smb, hml=hml, rf=rf,
    )


# ---------------------------------------------------------------------------
# The full SSR table of every reachable window and its unpruned DP: the
# bitwise reference for the pruned search in fundshift.breaks.


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
class PackedSsrTable:
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


def packed_ssr_table(y: np.ndarray, X: np.ndarray, h: int) -> PackedSsrTable:
    """Tabulate per-window least-squares SSR for an arbitrary design.

    Each observation contributes one packed row of moments: the
    k(k+1)/2 distinct products x_a x_b, then x y, then y^2. For each
    start row i one cumulative sum of those rows gives the Gram matrix
    and cross moments of every window (i, j) at once; only the ends of
    the row are solved. A row holding a singular window is solved by
    pseudo-inverse.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
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
    return PackedSsrTable(n=n, h=h, values=values)


def reference_dp(table: PackedSsrTable, max_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The unpruned suffix DP over every cell of the packed table: (best, choice).

    B[r][i] is the least total SSR over segmentations of i..n-1 into r+1
    segments of length >= h, and choice[r][i] the end of the first
    segment it keeps. Scanning candidate first breaks in ascending order
    and keeping the first minimum makes each break vector
    lexicographically earliest among all global minimizers.
    """
    n, h = table.n, table.h
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
    return best, choice


def reference_partitions(table: PackedSsrTable, max_m: int) -> tuple[BreakSet, ...]:
    """Globally SSR-minimal partitions with 0, 1, ..., max_m breaks, from :func:`reference_dp`."""
    n, h = table.n, table.h
    best, choice = reference_dp(table, max_m)
    partitions = []
    for m in range(max_m + 1):
        breaks: list[int] = []
        i = 0
        for r in range(m, 0, -1):
            b = int(choice[r, i])
            breaks.append(b)
            i = b + 1
        partitions.append(
            BreakSet(break_indices=tuple(breaks), total_ssr=float(best[m, 0]), n=n, h=h)
        )
    return tuple(partitions)
