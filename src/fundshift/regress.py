"""Factor regressions on aligned daily samples.

Three designs share one OLS core:

* plain three-factor: fund excess return over cash on market, size and
  value factors,
* four-factor: the same plus momentum,
* benchmark-adjusted: fund return minus benchmark return on the same
  factor block, so loadings measure exposure relative to the mandate
  rather than to cash.

Coefficients come from a QR decomposition (never the normal equations),
standard errors from s^2 (X'X)^{-1} computed via the R factor, and
significance from a two-sided Student-t test. A Newey-West covariance
is available behind a flag for serial-correlation-robust inference.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import sys
import types
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .marketdata import AlignedSample

#: Default two-sided significance level for loading t-tests.
DEFAULT_SIG_LEVEL = 0.05

#: Coefficient names, in design-matrix column order.
FF3_NAMES = ("alpha", "mkt_rf", "smb", "hml")
CARHART_NAMES = (*FF3_NAMES, "mom")


class RegressionError(ValueError):
    """Sample unusable for the requested design."""


@dataclass(frozen=True)
class FactorLoading:
    """One estimated coefficient with its inference."""

    name: str
    coef: float
    se: float
    tstat: float
    pvalue: float
    significant: bool


@dataclass(frozen=True)
class RegressionResult:
    """OLS fit of one design over one window."""

    model: str
    loadings: tuple[FactorLoading, ...]
    ssr: float
    nobs: int
    dof: int
    r_squared: float

    def loading(self, name: str) -> FactorLoading:
        for l in self.loadings:
            if l.name == name:
                return l
        raise KeyError(name)


def design_matrix(sample: AlignedSample) -> np.ndarray:
    """Column-stack [1, mkt_rf, smb, hml] for the aligned window."""
    return np.column_stack([np.ones(sample.n), sample.mkt_rf, sample.smb, sample.hml])


def excess_over_cash(sample: AlignedSample) -> np.ndarray:
    """Fund return net of the risk-free rate."""
    return sample.r_fund - sample.rf


def excess_over_benchmark(sample: AlignedSample) -> np.ndarray:
    """Fund return net of its benchmark's return."""
    return sample.r_fund - sample.r_bench


def nw_bandwidth(n: int) -> int:
    """Newey-West lag truncation floor(4 (n/100)^{2/9})."""
    return int(np.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


#: SSR at or below this fraction of y'y is rounding noise, not residual.
_EXACT_FIT_REL = 1e-20

#: In an exact fit, coefficients below this fraction of the largest one
#: are rounding dust from the solve, not planted structure.
_EXACT_COEF_REL = 1e-8


def _load_ufuncs_cxx() -> types.ModuleType:
    """Import ``scipy.special._ufuncs_cxx``, without running scipy's package init if it has not run.

    With ``scipy`` already loaded, this is a plain import. Otherwise bare
    stand-ins for ``scipy`` and ``scipy.special`` hold only the package
    paths while the compiled module and its own imports load. Then every
    scipy entry the load added to ``sys.modules`` is removed, stand-ins
    included, so that a later ``import scipy`` runs in full.
    """
    if "scipy" in sys.modules:
        return importlib.import_module("scipy.special._ufuncs_cxx")
    # find_spec locates a top-level package without running any of its code.
    roots = importlib.util.find_spec("scipy").submodule_search_locations
    before = set(sys.modules)
    try:
        for name, sub in (("scipy", ()), ("scipy.special", ("special",))):
            stand_in = types.ModuleType(name)
            stand_in.__path__ = [os.path.join(root, *sub) for root in roots]
            sys.modules[name] = stand_in
        return importlib.import_module("scipy.special._ufuncs_cxx")
    finally:
        for name in set(sys.modules) - before:
            if name.partition(".")[0] == "scipy":
                del sys.modules[name]


def _boost_t_cdf() -> Callable[[float, float], float]:
    """Boost's Student-t CDF ``t_cdf(dof, t)``, the function ``stdtr`` runs.

    ``_ufuncs_cxx`` exports it as a ``void *`` variable; the capsule
    holds that variable's address, and the variable the function's.
    Raises if the kernel does not give 0.25 at one degree of freedom
    and t = -1, which a swapped argument order would not.
    """
    capsule = _load_ufuncs_cxx().__pyx_capi__["_export_t_cdf_double"]
    # A prototype of its own: setting ``restype`` on ``ctypes.pythonapi``'s
    # function would change it for every other caller in the process.
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    address = ctypes.c_void_p.from_address(get_pointer(capsule, b"void *")).value
    cdf = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double)(address)
    if not abs(cdf(1.0, -1.0) - 0.25) < 1e-12:
        raise ImportError("t_cdf_double does not take (dof, t)")
    return cdf


@functools.cache
def t_kernel() -> Callable[[float, float], float]:
    """scipy's compiled Student-t CDF, as ``stdtr(dof, t)``.

    ``scipy.special.stdtr`` is a ufunc over Boost's ``t_cdf``, compiled
    into ``scipy.special._ufuncs_cxx``. The package init that ``import
    scipy.special`` runs (array-API support, f2py) was 20 MB of an
    ``analyze`` process's 65 MB peak RSS and 0.25 s of its imports on a
    2-core Xeon, and ``scipy.special._ufuncs``, which holds the ufunc,
    maps scipy's own OpenBLAS, libgfortran and libquadmath besides
    numpy's. ``_ufuncs_cxx`` maps only the C++ runtime. So the kernel is
    ``t_cdf`` itself, called through ctypes: the same compiled function,
    so the same bits, whether or not scipy was loaded first. Only if
    that load fails is the kernel ``scipy.special.stdtr``.
    """
    try:
        return _boost_t_cdf()
    except Exception:  # a layout this loader does not know: take the public path
        from scipy import special

        return special.stdtr


def _nw_cov(X: np.ndarray, resid: np.ndarray, xtx_inv: np.ndarray, lags: int) -> np.ndarray:
    n = X.shape[0]
    Xu = X * resid[:, None]
    S = Xu.T @ Xu
    for lag in range(1, lags + 1):
        w = 1.0 - lag / (lags + 1.0)
        gamma = Xu[lag:].T @ Xu[:-lag]
        S += w * (gamma + gamma.T)
    return n * (xtx_inv @ (S / n) @ xtx_inv)


def ols(
    y: np.ndarray,
    X: np.ndarray,
    names: tuple[str, ...],
    model: str,
    sig_level: float = DEFAULT_SIG_LEVEL,
    hac: bool = False,
) -> RegressionResult:
    """QR-based OLS with t-tests on every coefficient.

    Requires n > k and a finite y'y. With ``hac`` set, standard errors use
    the Newey-West estimator at the conventional bandwidth; point
    estimates and SSR are unchanged.
    """
    stdtr = t_kernel()  # here, so that simulating loads no scipy

    n, k = X.shape
    if len(names) != k:
        raise RegressionError("names/columns mismatch")
    if n <= k:
        raise RegressionError(f"{model}: need more than {k} observations, got {n}")
    if not 0.0 < sig_level < 1.0:
        raise RegressionError(f"invalid significance level {sig_level!r}")
    with np.errstate(over="ignore"):  # an overflow raises below, with the model named
        yy = float(y @ y)
    if not np.isfinite(yy):
        raise RegressionError(f"{model}: the dependent variable's sum of squares overflows")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if np.any(diag < 1e-12 * max(diag.max(), 1.0)):
        raise RegressionError(f"{model}: design matrix is rank deficient")
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    ssr = float(resid @ resid)
    dof = n - k

    # An exact fit (noiseless synthetic windows) leaves only rounding
    # dust in ssr; dividing dust coefficients by dust standard errors
    # would randomize significance. Treat it as certainty instead:
    # clearly nonzero coefficients get t = +/-inf, dust-sized ones t = 0.
    exact = ssr <= _EXACT_FIT_REL * yy
    if exact:
        se = np.zeros(k)
        coef_tol = _EXACT_COEF_REL * float(np.max(np.abs(beta)))
    else:
        # (X'X)^{-1} = R^{-1} R^{-T}, formed from the triangular factor.
        r_inv = np.linalg.solve(R, np.eye(k))
        xtx_inv = r_inv @ r_inv.T
        if hac:
            cov = _nw_cov(X, resid, xtx_inv, nw_bandwidth(n))
        else:
            cov = (ssr / dof) * xtx_inv
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
        coef_tol = 0.0

    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ssr / tss if tss > 0.0 else 0.0

    loadings = []
    for j, name in enumerate(names):
        coef = float(beta[j])
        if se[j] > 0.0:
            t = coef / float(se[j])
            p = float(2.0 * stdtr(dof, -abs(t)))
        elif abs(coef) > coef_tol:
            t, p = float(np.inf) * np.sign(coef), 0.0
        else:
            t, p = 0.0, 1.0
        loadings.append(
            FactorLoading(
                name=name, coef=coef, se=float(se[j]),
                tstat=t, pvalue=p, significant=p < sig_level,
            )
        )
    return RegressionResult(
        model=model, loadings=tuple(loadings), ssr=ssr,
        nobs=n, dof=dof, r_squared=r_squared,
    )


def fit_ff3(
    sample: AlignedSample,
    sig_level: float = DEFAULT_SIG_LEVEL,
    hac: bool = False,
) -> RegressionResult:
    """Three-factor regression of the fund's excess over cash."""
    X = design_matrix(sample)
    return ols(excess_over_cash(sample), X, FF3_NAMES, "ff3", sig_level=sig_level, hac=hac)


def fit_carhart(
    sample: AlignedSample,
    sig_level: float = DEFAULT_SIG_LEVEL,
    hac: bool = False,
) -> RegressionResult:
    """Four-factor fit over cash: the three-factor design plus momentum."""
    if not sample.has_mom:
        raise RegressionError(
            f"{sample.fund_id}: momentum design requested but factor panel has no mom column"
        )
    X = np.column_stack([design_matrix(sample), sample.mom])
    return ols(excess_over_cash(sample), X, CARHART_NAMES, "carhart", sig_level=sig_level, hac=hac)


def fit_benchmark_adjusted(
    sample: AlignedSample,
    sig_level: float = DEFAULT_SIG_LEVEL,
    hac: bool = False,
) -> RegressionResult:
    """Benchmark-adjusted factor regression on the same design block.

    The dependent variable is fund minus benchmark, so a passive fund
    tracking its benchmark shows no significant loadings at all.
    """
    X = design_matrix(sample)
    return ols(excess_over_benchmark(sample), X, FF3_NAMES, "agt", sig_level=sig_level, hac=hac)


def subsample(sample: AlignedSample, start: int, end: int) -> AlignedSample:
    """Inclusive [start, end] row slice of an aligned sample."""
    if not 0 <= start <= end < sample.n:
        raise RegressionError(f"{sample.fund_id}: bad window [{start}, {end}]")
    sl = slice(start, end + 1)
    return AlignedSample(
        fund_id=sample.fund_id,
        dates=sample.dates[sl],
        r_fund=sample.r_fund[sl].copy(),
        r_bench=sample.r_bench[sl].copy(),
        mkt_rf=sample.mkt_rf[sl].copy(),
        smb=sample.smb[sl].copy(),
        hml=sample.hml[sl].copy(),
        rf=sample.rf[sl].copy(),
        mom=sample.mom[sl].copy() if sample.has_mom else None,
    )
