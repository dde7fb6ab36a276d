"""Independent reference implementations used to cross-check the library.

Everything here deliberately takes a different algorithmic route from
the code under test: normal equations instead of QR, brute-force
enumeration instead of dynamic programming, direct formula evaluation
instead of the metrics layer. Totals in the enumeration oracle are
folded right to left, matching the summation order of the suffix
dynamic program, so optimal values can be compared for exact equality.
"""

from datetime import date, timedelta

import numpy as np
from scipy import linalg

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


def exhaustive_best_partition(table, m: int):
    """Brute-force global minimum over all m-break partitions.

    Enumerates every feasible break vector (supported for m <= 3),
    computing each total as the right-nested sum of table cells. Returns
    (break_indices, total_ssr) of the first minimizer in lexicographic
    order, which is therefore the earliest one.
    """
    n = table.n
    S = np.where(np.isnan(table.values), np.inf, table.values)
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


def weekdays(count: int, start: date = date(2006, 1, 2)) -> tuple[date, ...]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)
