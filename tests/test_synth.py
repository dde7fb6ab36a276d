"""Synthetic panel and fund generation against planted ground truth."""

import json
import math
import re
from dataclasses import MISSING, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from fundshift.breaks import build_ssr_table, select_break_count
from fundshift.marketdata import align, compute_returns
from fundshift.perf import regime_styles
from fundshift.regress import fit_benchmark_adjusted
from fundshift.stylebox import IntensityClass, grade_breaks
from fundshift.synth import (
    DEFAULT_RF_DAILY,
    DEFAULT_START_DATE,
    NAV_BASE,
    BenchmarkSpec,
    FactorVols,
    FundSpec,
    RegimeSpec,
    SimSpec,
    SynthError,
    gen_benchmark,
    gen_factors,
    gen_fund,
    parse_sim_spec,
    planted_intensity,
    planted_style,
    run_simulation,
    truth_to_dict,
    weekday_calendar,
)


def rotation_fund(n1: int = 500, n2: int = 500, noise: float = 0.0) -> FundSpec:
    return FundSpec(
        fund_id="FR", benchmark_id="B1",
        regimes=(
            RegimeSpec(length=n1, beta_mkt=1.0, beta_smb=0.8, noise_sigma=noise),
            RegimeSpec(length=n2, beta_mkt=1.0, beta_smb=-0.8, noise_sigma=noise),
        ),
    )


# --------------------------------------------------------------- factors


def test_gen_factors_is_deterministic():
    a = gen_factors(300, 42)
    b = gen_factors(300, 42)
    assert a == b
    c = gen_factors(300, 43)
    assert c.smb != a.smb


def test_gen_factors_tiny_vol_accepted():
    panel = gen_factors(100, 1, vols=FactorVols(mkt_rf=1e-12, smb=1e-12, hml=1e-12, mom=1e-12))
    assert max(abs(v) for v in panel.mkt_rf) < 1e-9
    assert max(abs(v) for v in panel.smb) < 1e-9


def test_gen_factors_sample_stdev_matches_vol():
    # Law of large numbers: at T = 100000 the sample stdev sits within
    # 1% of the generating vol.
    panel = gen_factors(100_000, 7, vols=FactorVols(smb=0.006))
    sd = float(np.std(np.asarray(panel.smb), ddof=1))
    assert abs(sd - 0.006) / 0.006 < 0.01


def test_gen_factors_calendar_and_rf():
    panel = gen_factors(10, 3)
    assert panel.dates[0] == DEFAULT_START_DATE
    assert all(d.weekday() < 5 for d in panel.dates)
    assert all(a < b for a, b in zip(panel.dates, panel.dates[1:]))
    assert panel.rf == (DEFAULT_RF_DAILY,) * 10
    assert panel.has_mom


def test_gen_factors_validation():
    with pytest.raises(SynthError, match="T=0"):
        gen_factors(0, 1)
    with pytest.raises(SynthError, match="must be positive"):
        FactorVols(smb=0.0)


def test_weekday_calendar_skips_weekends():
    # 2006-01-06 is a Friday; the next weekday is Monday the 9th.
    cal = weekday_calendar(date(2006, 1, 6), 2)
    assert cal == (date(2006, 1, 6), date(2006, 1, 9))


# ----------------------------------------------------------------- funds


def test_gen_fund_rf_compounding_closed_form():
    panel = gen_factors(250, 5)
    spec = FundSpec(fund_id="F1", benchmark_id="B1", regimes=(RegimeSpec(length=250),))
    nav = gen_fund(spec, panel, 11)
    assert nav.navs[0] == NAV_BASE
    assert nav.dates[0] == panel.dates[0] - timedelta(days=1)
    expected_last = NAV_BASE * (1.0 + DEFAULT_RF_DAILY) ** 250
    assert nav.navs[-1] == pytest.approx(expected_last, rel=1e-12)
    assert spec.break_indices == ()
    assert spec.styles[0].label == "Mid Blend"


def test_gen_fund_rotation_truth():
    panel = gen_factors(1000, 6)
    spec = rotation_fund()
    nav = gen_fund(spec, panel, 12)
    assert spec.break_indices == (499,)
    assert spec.intensities == (IntensityClass.ROTATION,)
    assert [b.label for b in spec.styles] == ["Small Blend", "Large Blend"]
    assert len(nav.navs) == 1001  # day-zero base plus one NAV per return


def test_gen_fund_same_seed_identical():
    panel = gen_factors(1000, 6)
    spec = rotation_fund(noise=0.01)
    nav1 = gen_fund(spec, panel, 12)
    nav2 = gen_fund(spec, panel, 12)
    assert nav1 == nav2
    nav3 = gen_fund(spec, panel, 13)
    assert nav3.navs != nav1.navs


def test_gen_fund_longer_than_panel():
    panel = gen_factors(100, 1)
    with pytest.raises(SynthError, match="need 1000 observations"):
        gen_fund(rotation_fund(), panel, 1)


def test_gen_fund_rejects_unsurvivable_return():
    panel = gen_factors(10, 1)
    spec = FundSpec(
        fund_id="F1", benchmark_id="B1",
        regimes=(RegimeSpec(length=10, alpha=-1.5),),
    )
    with pytest.raises(SynthError, match="-100%"):
        gen_fund(spec, panel, 1)


def first_unwritable_day(panel, alpha: float) -> int:
    """Index of the first NAV of zero loadings plus ``alpha`` that is not positive and finite."""
    growth = 1.0
    for day, rf in enumerate(panel.rf):
        growth *= 1.0 + (rf + alpha)
        if not 0.0 < NAV_BASE * growth < math.inf:
            return day
    raise AssertionError("every NAV is writable")


@pytest.mark.filterwarnings("error")  # an overflow warning would escape as an error
@pytest.mark.parametrize("days, alpha", [(1200, 1.0), (400, -0.99)], ids=["overflow", "underflow"])
def test_gen_fund_and_gen_benchmark_reject_navs_they_cannot_write(days, alpha):
    panel = gen_factors(days, 2)
    bad_date = panel.dates[first_unwritable_day(panel, alpha)].isoformat()
    fund = FundSpec(
        fund_id="F1", benchmark_id="B1", regimes=(RegimeSpec(length=days, alpha=alpha),)
    )
    with pytest.raises(SynthError, match=rf"^F1: NAV .* on {bad_date} is not a positive finite"):
        gen_fund(fund, panel, 1)
    with pytest.raises(SynthError, match=rf"^B1: NAV .* on {bad_date} is not a positive finite"):
        gen_benchmark(BenchmarkSpec(benchmark_id="B1", alpha=alpha), panel)


def test_regime_spec_validation():
    with pytest.raises(SynthError, match="length 0 < 1"):
        RegimeSpec(length=0)
    with pytest.raises(SynthError, match="negative noise_sigma"):
        RegimeSpec(length=10, noise_sigma=-0.1)


def test_round_trip_returns_recovered():
    # compute_returns inverts NAV compounding to 1e-12 and the returns
    # land exactly on factor dates.
    panel = gen_factors(400, 8)
    spec = FundSpec(
        fund_id="F1", benchmark_id="B1",
        regimes=(RegimeSpec(length=400, alpha=0.0001, beta_mkt=0.9,
                            beta_smb=0.3, beta_hml=-0.2, noise_sigma=0.005),),
    )
    nav = gen_fund(spec, panel, 9)
    rs = compute_returns(nav)
    assert rs.dates == panel.dates
    # Independent reconstruction of the planted return path.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9)))
    eps = rng.standard_normal(400) * 0.005
    expected = (
        np.asarray(panel.rf) + 0.0001 + 0.9 * np.asarray(panel.mkt_rf)
        + 0.3 * np.asarray(panel.smb) - 0.2 * np.asarray(panel.hml) + eps
    )
    assert np.max(np.abs(np.asarray(rs.returns) - expected)) < 1e-12


def test_seed_isolation_across_funds():
    panel = gen_factors(10_000, 3)
    noise_spec = FundSpec(
        fund_id="F1", benchmark_id="B1",
        regimes=(RegimeSpec(length=10_000, noise_sigma=0.01),),
    )
    nav_a = gen_fund(noise_spec, panel, 100)
    nav_b = gen_fund(noise_spec, panel, 101)
    resid_a = np.asarray(compute_returns(nav_a).returns) - np.asarray(panel.rf)
    resid_b = np.asarray(compute_returns(nav_b).returns) - np.asarray(panel.rf)
    rho = float(np.corrcoef(resid_a, resid_b)[0, 1])
    assert abs(rho) < 0.05


# ------------------------------------------------------------ benchmarks


def test_benchmark_self_cancellation():
    # A benchmark sharing the fund's loadings absorbs everything: the
    # benchmark-adjusted regression is left with rounding dust only.
    panel = gen_factors(500, 21)
    fund_spec = FundSpec(
        fund_id="F1", benchmark_id="B1",
        regimes=(RegimeSpec(length=500, alpha=0.0003, beta_mkt=0.9,
                            beta_smb=0.4, beta_hml=-0.2),),
    )
    bench_spec = BenchmarkSpec(
        benchmark_id="B1", alpha=0.0003, beta_mkt=0.9, beta_smb=0.4, beta_hml=-0.2
    )
    nav_f = gen_fund(fund_spec, panel, 22)
    nav_b = gen_benchmark(bench_spec, panel)
    sample = align(compute_returns(nav_f), compute_returns(nav_b), panel)
    fit = fit_benchmark_adjusted(sample)
    assert max(abs(l.coef) for l in fit.loadings) < 1e-10


def test_benchmark_zero_loadings_compounds_at_rf():
    panel = gen_factors(300, 4)
    nav = gen_benchmark(BenchmarkSpec(benchmark_id="B0"), panel)
    expected_last = NAV_BASE * (1.0 + DEFAULT_RF_DAILY) ** 300
    assert nav.navs[-1] == pytest.approx(expected_last, rel=1e-12)


# --------------------------------------------------- planted-truth labels


def test_planted_style_and_intensity_reuse_classifiers():
    small_value = RegimeSpec(length=300, beta_smb=0.5, beta_hml=0.3)
    large_growth = RegimeSpec(length=300, beta_smb=-0.5, beta_hml=-0.3)
    mid_blend = RegimeSpec(length=300)
    assert planted_style(small_value).label == "Small Value"
    assert planted_style(large_growth).label == "Large Growth"
    assert planted_style(mid_blend).label == "Mid Blend"
    assert planted_intensity(small_value, large_growth) is IntensityClass.ROTATION
    assert planted_intensity(small_value, mid_blend) is IntensityClass.DRIFT
    assert planted_intensity(
        RegimeSpec(length=1, beta_smb=0.3), RegimeSpec(length=1, beta_smb=0.7)
    ) is IntensityClass.STRENGTHEN


def test_fund_spec_derives_its_planted_truth_from_its_regimes():
    regimes = (
        RegimeSpec(length=300, beta_smb=0.5, beta_hml=0.3),
        RegimeSpec(length=400, beta_smb=-0.5, beta_hml=-0.3),
        RegimeSpec(length=250, beta_smb=-0.5),
    )
    spec = FundSpec(fund_id="F3", benchmark_id="B1", regimes=regimes)
    assert spec.break_indices == (299, 699)
    assert spec.styles == tuple(planted_style(r) for r in regimes)
    assert [b.label for b in spec.styles] == ["Small Value", "Large Growth", "Large Blend"]
    assert spec.intensities == (
        planted_intensity(regimes[0], regimes[1]), planted_intensity(regimes[1], regimes[2])
    )
    assert spec.intensities == (IntensityClass.ROTATION, IntensityClass.DRIFT)

    alone = FundSpec(fund_id="F1", benchmark_id="B1", regimes=regimes[:1])
    assert alone.break_indices == ()
    assert alone.styles == (planted_style(regimes[0]),)
    assert alone.intensities == ()


def test_pipeline_reproduces_planted_truth_exactly():
    # Zero noise, strong loadings: detection, classification and grading
    # must all agree with the generator's ground truth.
    spec = parse_sim_spec(
        {
            "seed": 77,
            "t": 1000,
            "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
            "funds": [
                {
                    "fund_id": "F1",
                    "benchmark_id": "B1",
                    "regimes": [
                        {"length": 500, "beta_mkt": 1.0, "beta_smb": 0.6, "beta_hml": 0.4},
                        {"length": 500, "beta_mkt": 1.0, "beta_smb": -0.6, "beta_hml": 0.4},
                    ],
                }
            ],
        }
    )
    out = run_simulation(spec)
    truth = spec.funds[0]
    sample = align(
        compute_returns(out.funds[0]), compute_returns(out.benchmarks[0]), out.factors
    )
    (bs,) = select_break_count([build_ssr_table(sample)])
    styles = regime_styles(sample, bs)
    shifts = grade_breaks(styles)
    assert bs.chosen_m == len(truth.break_indices)
    assert bs.break_indices == truth.break_indices
    assert tuple(s.box for s in styles) == truth.styles
    assert tuple(s.intensity for s in shifts) == truth.intensities


# ------------------------------------------------------- spec and driver


def test_parse_sim_spec_defaults():
    spec = parse_sim_spec(
        {
            "t": 300,
            "benchmarks": [{"benchmark_id": "B1"}],
            "funds": [
                {"fund_id": "F1", "benchmark_id": "B1", "regimes": [{"length": 300}]}
            ],
        }
    )
    assert spec.seed == 0
    assert spec.start_date == DEFAULT_START_DATE
    assert spec.rf_daily == DEFAULT_RF_DAILY
    assert spec.factor_vols == FactorVols()
    assert spec.funds[0].regimes[0].noise_sigma == 0.0


def test_parse_sim_spec_missing_keys():
    base = {
        "t": 300,
        "benchmarks": [{"benchmark_id": "B1"}],
        "funds": [{"fund_id": "F1", "benchmark_id": "B1", "regimes": [{"length": 300}]}],
    }
    for key in ("t", "benchmarks", "funds"):
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(SynthError, match=f"missing required key {key!r}"):
            parse_sim_spec(broken)
    with pytest.raises(SynthError, match="missing required key 'length'"):
        parse_sim_spec({**base, "funds": [{"fund_id": "F1", "benchmark_id": "B1",
                                           "regimes": [{}]}]})
    with pytest.raises(SynthError, match="missing required key 'regimes'"):
        parse_sim_spec({**base, "funds": [{"fund_id": "F1", "benchmark_id": "B1"}]})
    with pytest.raises(SynthError, match="bad start_date"):
        parse_sim_spec({**base, "start_date": "not-a-date"})


def test_readme_spec_schema_parses_and_shows_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("The spec schema, with defaults:")[1]
    block = block.split("```jsonc\n")[1].split("```")[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    spec = parse_sim_spec(doc)
    for parsed, raw in [
        (spec, doc),
        (spec.factor_vols, doc["factor_vols"]),
        (spec.benchmarks[0], doc["benchmarks"][0]),
        (spec.funds[0], doc["funds"][0]),
        (spec.funds[0].regimes[0], doc["funds"][0]["regimes"][0]),
    ]:
        # README lists every key, and each key with a default shows it.
        assert set(raw) == {f.name for f in fields(parsed)}
        for f in fields(parsed):
            if f.default is not MISSING:
                assert getattr(parsed, f.name) == f.default, f.name


def test_sim_spec_cross_validation():
    bench = BenchmarkSpec(benchmark_id="B1")
    fund = FundSpec(fund_id="F1", benchmark_id="B1", regimes=(RegimeSpec(length=100),))
    with pytest.raises(SynthError, match="unknown benchmark"):
        SimSpec(seed=0, t=100, start_date=DEFAULT_START_DATE, rf_daily=0.0002,
                factor_vols=FactorVols(), benchmarks=(),
                funds=(fund,))
    with pytest.raises(SynthError, match="duplicate fund_id"):
        SimSpec(seed=0, t=100, start_date=DEFAULT_START_DATE, rf_daily=0.0002,
                factor_vols=FactorVols(), benchmarks=(bench,), funds=(fund, fund))
    with pytest.raises(SynthError, match="needs 200 observations"):
        SimSpec(seed=0, t=100, start_date=DEFAULT_START_DATE, rf_daily=0.0002,
                factor_vols=FactorVols(), benchmarks=(bench,),
                funds=(FundSpec(fund_id="F2", benchmark_id="B1",
                                regimes=(RegimeSpec(length=200),)),))
    with pytest.raises(SynthError, match="no funds"):
        SimSpec(seed=0, t=100, start_date=DEFAULT_START_DATE, rf_daily=0.0002,
                factor_vols=FactorVols(), benchmarks=(bench,), funds=())


def test_run_simulation_is_deterministic_and_seed_overridable():
    spec = parse_sim_spec(
        {
            "seed": 5,
            "t": 400,
            "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
            "funds": [
                {"fund_id": "F1", "benchmark_id": "B1",
                 "regimes": [{"length": 400, "beta_smb": 0.5, "noise_sigma": 0.01}]}
            ],
        }
    )
    a = run_simulation(spec)
    b = run_simulation(spec)
    assert a.factors == b.factors
    assert a.funds == b.funds
    c = run_simulation(spec, seed=6)
    assert c.seed == 6
    assert c.funds != a.funds
    assert a.benchmark_map.benchmark_for("F1") == "B1"


def test_truth_to_dict_shape():
    d = truth_to_dict(rotation_fund())
    assert d == {
        "fund_id": "FR",
        "break_indices": [499],
        "styles": ["Small Blend", "Large Blend"],
        "intensities": ["Rotation"],
    }
