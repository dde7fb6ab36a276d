"""OLS core and the three named factor-model fits.

The oracle for coefficient checks is an independent normal-equations
solve (scipy.linalg.solve on X'X b = X'y), a different algorithm from
the QR path under test.
"""

import dataclasses
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import linalg, stats

from fundshift import pipeline
from fundshift.marketdata import AlignedSample
from fundshift.regress import (
    RegressionError,
    fit_benchmark_adjusted,
    fit_carhart,
    fit_ff3,
    nw_bandwidth,
    ols,
    subsample,
)

#: Two-sided Student-t critical value, level 0.05, dof 200 (standard table).
T_CRIT_200_5PCT = 1.972


def weekdays(count: int) -> tuple[date, ...]:
    out = []
    d = date(2006, 1, 2)
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


def make_sample(
    n: int,
    seed: int,
    alpha: float = 0.0,
    betas: tuple[float, float, float] = (0.0, 0.0, 0.0),
    noise: float = 0.0,
    bench_betas: tuple[float, float, float] | None = None,
    with_mom: bool = False,
    beta_mom: float = 0.0,
    rf: float = 0.0002,
) -> AlignedSample:
    """Fund (and optional benchmark) built from planted loadings."""
    rng = np.random.default_rng(seed)
    mkt = rng.normal(0, 0.008, n)
    smb = rng.normal(0, 0.004, n)
    hml = rng.normal(0, 0.004, n)
    mom = rng.normal(0, 0.004, n)
    eps = rng.normal(0, noise, n) if noise > 0 else np.zeros(n)
    b_mkt, b_smb, b_hml = betas
    r_fund = rf + alpha + b_mkt * mkt + b_smb * smb + b_hml * hml + beta_mom * mom + eps
    if bench_betas is None:
        r_bench = np.full(n, rf)
    else:
        q_mkt, q_smb, q_hml = bench_betas
        r_bench = rf + q_mkt * mkt + q_smb * smb + q_hml * hml
    return AlignedSample(
        fund_id="F1",
        dates=weekdays(n),
        r_fund=r_fund,
        r_bench=r_bench,
        mkt_rf=mkt,
        smb=smb,
        hml=hml,
        rf=np.full(n, rf),
        mom=mom if with_mom else None,
    )


def test_ols_exact_line():
    x = np.arange(10, dtype=float)
    X = np.column_stack([np.ones(10), x])
    y = 3.0 + 2.0 * x
    fit = ols(y, X, ("alpha", "x"), "test")
    assert fit.loading("alpha").coef == pytest.approx(3.0, abs=1e-12)
    assert fit.loading("x").coef == pytest.approx(2.0, abs=1e-12)
    assert fit.ssr == pytest.approx(0.0, abs=1e-20)


def test_ols_identity_regression():
    x = np.linspace(-1.0, 1.0, 25)
    X = np.column_stack([np.ones(25), x])
    fit = ols(x.copy(), X, ("alpha", "x"), "test")
    assert fit.loading("x").coef == pytest.approx(1.0, abs=1e-12)
    assert fit.loading("alpha").coef == pytest.approx(0.0, abs=1e-12)


def test_ols_matches_normal_equations_oracle():
    # Fixed-seed instance, n=50, k=4; oracle solves X'X b = X'y directly.
    rng = np.random.default_rng(42)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
    y = rng.normal(size=50)
    oracle = linalg.solve(X.T @ X, X.T @ y)
    fit = ols(y, X, ("c0", "c1", "c2", "c3"), "test")
    coefs = np.array([l.coef for l in fit.loadings])
    assert np.max(np.abs(coefs - oracle)) <= 1e-8 * max(1.0, np.max(np.abs(oracle)))


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
    y = rng.normal(size=200)
    fit = ols(y, X, ("c0", "c1", "c2", "c3"), "test")
    coefs = np.array([l.coef for l in fit.loadings])
    resid = y - X @ coefs
    assert np.max(np.abs(X.T @ resid)) <= 1e-8 * np.linalg.norm(y)


def test_ols_ssr_minimality_under_perturbation():
    rng = np.random.default_rng(9)
    X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
    y = rng.normal(size=80)
    fit = ols(y, X, ("c0", "c1", "c2"), "test")
    coefs = np.array([l.coef for l in fit.loadings])
    for j in range(3):
        for delta in (1e-3, -1e-3):
            bumped = coefs.copy()
            bumped[j] += delta
            ssr = float(np.sum((y - X @ bumped) ** 2))
            assert ssr >= fit.ssr - 1e-12


def test_ols_rejects_rank_deficient_design():
    X = np.column_stack([np.ones(30), np.ones(30)])
    with pytest.raises(RegressionError, match="rank deficient"):
        ols(np.zeros(30), X, ("a", "b"), "test")


def test_analyze_fund_rejects_rank_deficient_design_before_ssr_table(monkeypatch):
    # The full-sample fit names the defect at once, so the O(n^2) SSR
    # table never grinds through the singular windows.
    def no_table(*args):
        raise AssertionError("SSR table built for a rank-deficient design")

    monkeypatch.setattr(pipeline, "build_ssr_table", no_table)
    sample = make_sample(1000, 21, betas=(1.0, 0.3, 0.0), noise=0.002)
    sample = dataclasses.replace(sample, hml=np.zeros(1000))
    with pytest.raises(RegressionError, match="^ff3: design matrix is rank deficient$"):
        pipeline.analyze_fund(sample, pipeline.AnalysisConfig())


def test_ols_rejects_too_few_observations():
    X = np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2])
    with pytest.raises(RegressionError, match="observations"):
        ols(np.zeros(3), X, ("a", "b", "c"), "test")


def test_significance_against_t_table():
    # dof=200: |t|=2.5 clears the 5% critical value 1.972, |t|=1.9 does not.
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(204), rng.normal(size=(204, 3))])
    y = rng.normal(size=204)
    fit = ols(y, X, ("c0", "c1", "c2", "c3"), "test")
    assert fit.dof == 200
    for tstat, expected in ((2.5, True), (1.9, False), (0.0, False)):
        pvalue = float(2.0 * stats.t.sf(abs(tstat), fit.dof))
        assert (pvalue < 0.05) is expected
        assert (abs(tstat) > T_CRIT_200_5PCT) is expected


def test_monte_carlo_size_of_smb_test():
    # Pure noise regressed on noise factors: the 5% test should flag SMB
    # in about 5% of runs (tolerance +/- 2 percentage points).
    flagged = 0
    runs = 1000
    for seed in range(runs):
        sample = make_sample(150, seed, noise=0.01)
        fit = fit_ff3(sample)
        flagged += fit.loading("smb").significant
    assert 0.03 <= flagged / runs <= 0.07


def test_fit_ff3_planted_zero_noise():
    sample = make_sample(300, 1, alpha=0.0002, betas=(1.0, 0.5, -0.3))
    fit = fit_ff3(sample)
    assert fit.loading("alpha").coef == pytest.approx(0.0002, abs=1e-12)
    assert fit.loading("mkt_rf").coef == pytest.approx(1.0, abs=1e-9)
    assert fit.loading("smb").coef == pytest.approx(0.5, abs=1e-9)
    assert fit.loading("hml").coef == pytest.approx(-0.3, abs=1e-9)
    assert fit.ssr == pytest.approx(0.0, abs=1e-16)


def test_fit_ff3_planted_with_noise_within_three_ses():
    planted = {"alpha": 0.0002, "mkt_rf": 1.0, "smb": 0.5, "hml": -0.3}
    sample = make_sample(750, 12, alpha=0.0002, betas=(1.0, 0.5, -0.3), noise=0.001)
    # Oracle SEs from an independent normal-equations path.
    X = np.column_stack([np.ones(750), sample.mkt_rf, sample.smb, sample.hml])
    y = sample.r_fund - sample.rf
    xtx_inv = linalg.inv(X.T @ X)
    beta = xtx_inv @ (X.T @ y)
    resid = y - X @ beta
    s2 = float(resid @ resid) / (750 - 4)
    oracle_se = np.sqrt(s2 * np.diag(xtx_inv))
    fit = fit_ff3(sample)
    for j, name in enumerate(("alpha", "mkt_rf", "smb", "hml")):
        assert abs(fit.loading(name).coef - planted[name]) <= 3.0 * oracle_se[j]


def test_fit_benchmark_adjusted_self_cancellation():
    # Fund identical to its benchmark: every coefficient collapses to zero.
    sample = make_sample(300, 4, betas=(1.0, 0.4, 0.0), bench_betas=(1.0, 0.4, 0.0))
    fit = fit_benchmark_adjusted(sample)
    for l in fit.loadings:
        assert l.coef == pytest.approx(0.0, abs=1e-12)
        assert not l.significant
    assert fit.ssr == pytest.approx(0.0, abs=1e-20)


def test_fit_benchmark_adjusted_planted_tilt():
    sample = make_sample(300, 5, betas=(1.0, 0.4, 0.0), bench_betas=(1.0, 0.0, 0.0))
    fit = fit_benchmark_adjusted(sample)
    assert fit.loading("smb").coef == pytest.approx(0.4, abs=1e-9)
    assert fit.loading("mkt_rf").coef == pytest.approx(0.0, abs=1e-9)
    assert fit.loading("hml").coef == pytest.approx(0.0, abs=1e-9)


def test_fit_benchmark_adjusted_tilt_with_noise_within_three_ses():
    sample = make_sample(
        750, 21, betas=(1.0, 0.4, 0.0), bench_betas=(1.0, 0.0, 0.0), noise=0.001
    )
    fit = fit_benchmark_adjusted(sample)
    smb = fit.loading("smb")
    assert abs(smb.coef - 0.4) <= 3.0 * smb.se
    assert smb.significant


def test_fit_carhart_planted_momentum():
    sample = make_sample(300, 6, with_mom=True, beta_mom=0.2)
    fit = fit_carhart(sample)
    assert fit.loading("mom").coef == pytest.approx(0.2, abs=1e-9)
    assert fit.loading("smb").coef == pytest.approx(0.0, abs=1e-9)


def test_fit_carhart_requires_mom_column():
    sample = make_sample(300, 6, with_mom=False)
    with pytest.raises(RegressionError, match="mom"):
        fit_carhart(sample)


def test_carhart_never_increases_ssr():
    for seed in range(5):
        sample = make_sample(
            400, 100 + seed, betas=(1.0, 0.3, -0.2), noise=0.002,
            with_mom=True, beta_mom=0.1,
        )
        assert fit_carhart(sample).ssr <= fit_ff3(sample).ssr + 1e-15


def test_scale_equivariance():
    sample = make_sample(400, 8, alpha=0.0001, betas=(1.0, 0.3, -0.2), noise=0.002)
    fit1 = fit_ff3(sample)
    scaled = AlignedSample(
        fund_id="F1",
        dates=sample.dates,
        r_fund=sample.rf + 3.0 * (sample.r_fund - sample.rf),
        r_bench=sample.r_bench.copy(),
        mkt_rf=sample.mkt_rf.copy(),
        smb=sample.smb.copy(),
        hml=sample.hml.copy(),
        rf=sample.rf.copy(),
    )
    fit3 = fit_ff3(scaled)
    for l1, l3 in zip(fit1.loadings, fit3.loadings):
        assert l3.coef == pytest.approx(3.0 * l1.coef, rel=1e-9, abs=1e-15)
        assert l3.se == pytest.approx(3.0 * l1.se, rel=1e-9, abs=1e-15)
        assert l3.tstat == pytest.approx(l1.tstat, rel=1e-9, abs=1e-12)
        assert l3.significant == l1.significant


def test_zero_noise_tstat_conventions():
    # Exact fits have se=0: nonzero planted loadings are certain hits,
    # exactly-zero ones carry no evidence.
    sample = make_sample(300, 13, betas=(1.0, 0.5, 0.0))
    fit = fit_ff3(sample)
    assert np.isinf(fit.loading("smb").tstat)
    assert fit.loading("smb").significant
    assert fit.loading("hml").tstat == 0.0
    assert not fit.loading("hml").significant


def test_nw_bandwidth_values():
    assert nw_bandwidth(100) == 4
    assert nw_bandwidth(1000) == 6
    assert nw_bandwidth(50) == 3


def test_hac_keeps_coefficients_changes_ses():
    sample = make_sample(500, 17, betas=(1.0, 0.3, -0.2), noise=0.003)
    plain = fit_ff3(sample)
    robust = fit_ff3(sample, hac=True)
    for lp, lr in zip(plain.loadings, robust.loadings):
        assert lr.coef == lp.coef
        # iid noise: HAC and OLS standard errors agree loosely.
        assert 0.5 * lp.se <= lr.se <= 2.0 * lp.se
    assert robust.ssr == plain.ssr


def test_subsample_inclusive_window():
    sample = make_sample(100, 19, betas=(1.0, 0.0, 0.0))
    sub = subsample(sample, 10, 29)
    assert sub.n == 20
    assert sub.dates[0] == sample.dates[10]
    assert sub.dates[-1] == sample.dates[29]
    assert np.array_equal(sub.r_fund, sample.r_fund[10:30])


def test_subsample_bad_window():
    sample = make_sample(100, 19)
    with pytest.raises(RegressionError, match="bad window"):
        subsample(sample, 50, 200)
