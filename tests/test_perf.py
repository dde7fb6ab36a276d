"""Annualized metrics, break-count grouping and decile composition."""

import csv
import io
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import annual_metrics_reference, make_styled_sample, weekdays

from fundshift.breaks import BreakSet, build_ssr_table, select_break_count
from fundshift.marketdata import MIN_ALIGNED_OBS, AlignedSample
from fundshift.perf import (
    METRIC_FIELDS,
    WITH_BREAKS_GROUP,
    FundMetrics,
    PerfError,
    annualized_metrics,
    break_count_tables,
    decile_analysis,
    pre_post_compare,
    regime_styles,
)
from fundshift.pipeline import (
    AnalysisConfig,
    analyze_fund,
    build_aggregates,
    fund_record_dict,
    search_breaks,
)
from fundshift import perf
from fundshift.regress import (
    FactorLoading,
    RegressionResult,
    fit_benchmark_adjusted,
    subsample,
)
from fundshift.stylebox import (
    STYLE_BOX_LABELS,
    STYLE_BOX_ORDER,
    BreakShift,
    FactorShift,
    FactorState,
    IntensityClass,
    grade_breaks,
)
from fundshift.tables import render_table


def loading(name: str, coef: float) -> FactorLoading:
    return FactorLoading(
        name=name, coef=coef, se=0.01, tstat=coef / 0.01, pvalue=0.01, significant=True
    )


def fit_with(alpha: float = 0.0, mkt: float = 1.0, model: str = "ff3") -> RegressionResult:
    loadings = (
        loading("alpha", alpha),
        loading("mkt_rf", mkt),
        loading("smb", 0.1),
        loading("hml", 0.1),
    )
    return RegressionResult(
        model=model, loadings=loadings, ssr=1.0, nobs=500, dof=496, r_squared=0.9
    )


def sample_from_excess(e: np.ndarray, rf_daily: float = 0.0002) -> AlignedSample:
    """Wrap a planted daily excess-return stream in an aligned sample."""
    n = e.shape[0]
    rf = np.full(n, rf_daily)
    zeros = np.zeros(n)
    return AlignedSample(
        fund_id="F1", dates=weekdays(n), r_fund=rf + e, r_bench=zeros.copy(),
        mkt_rf=zeros.copy(), smb=zeros.copy(), hml=zeros.copy(), rf=rf,
    )


def make_metrics(fund_id: str, excess: float, n_breaks: int) -> FundMetrics:
    return FundMetrics(
        fund_id=fund_id, excess_return_pa=excess, stdev_pa=15.0,
        sharpe_pa=excess / 15.0, treynor_pa=excess, ff3_alpha_pa=1.0,
        agt_alpha_pa=0.5, n_breaks=n_breaks,
    )


#: SMB after-state that grades a move from a significant 0.5 as the given class.
_SMB_AFTER = {
    IntensityClass.ROTATION: FactorState(beta=-0.5, significant=True),
    IntensityClass.WEAKEN: FactorState(beta=0.3, significant=True),
    IntensityClass.UNCHANGED: FactorState(beta=0.5, significant=True),
}


def make_shift(intensity: IntensityClass, to_label: str) -> BreakShift:
    before = FactorState(beta=0.5, significant=True)
    shift = BreakShift(
        break_index=100,
        smb=FactorShift(factor="smb", before=before, after=_SMB_AFTER[intensity]),
        hml=FactorShift(factor="hml", before=before, after=before),
        style_from=STYLE_BOX_ORDER[STYLE_BOX_LABELS.index("Small Value")],
        style_to=STYLE_BOX_ORDER[STYLE_BOX_LABELS.index(to_label)],
    )
    assert shift.intensity is intensity
    return shift


# -------------------------------------------------------------- metrics


def test_constant_excess_has_nan_sharpe_not_zero():
    sample = sample_from_excess(np.full(300, 0.0004))
    m = annualized_metrics(sample, fit_with(), fit_with(model="agt"))
    assert m.stdev_pa == 0.0
    assert math.isnan(m.sharpe_pa)
    assert m.excess_return_pa == pytest.approx(0.0004 * 252 * 100)


def test_alternating_excess_means_zero():
    e = np.tile([0.01, -0.01], 150)
    sample = sample_from_excess(e)
    m = annualized_metrics(sample, fit_with(), fit_with(model="agt"))
    assert m.excess_return_pa == 0.0
    assert m.sharpe_pa == 0.0
    assert m.stdev_pa > 0.0


def test_metrics_match_independent_oracle():
    # Direct-formula oracle first, library second; the oracle is the
    # authority and the rounded figures are only a sanity band.
    rng = np.random.default_rng(4)
    e = rng.normal(0.0003, 0.011, 2520)
    expected = annual_metrics_reference(e)
    assert abs(expected["excess_return_pa"] - 7.56) < 1.0
    assert abs(expected["sharpe_pa"] - 0.43) < 0.05

    sample = sample_from_excess(e)
    m = annualized_metrics(sample, fit_with(), fit_with(model="agt"))
    assert m.excess_return_pa == pytest.approx(expected["excess_return_pa"], abs=1e-10)
    assert m.stdev_pa == pytest.approx(expected["stdev_pa"], abs=1e-10)
    assert m.sharpe_pa == pytest.approx(expected["sharpe_pa"], abs=1e-10)


def test_ratio_identity_excess_over_stdev_is_sharpe():
    rng = np.random.default_rng(5)
    e = rng.normal(0.0002, 0.009, 1000)
    sample = sample_from_excess(e)
    m = annualized_metrics(sample, fit_with(), fit_with(model="agt"))
    assert abs(m.excess_return_pa / m.stdev_pa - m.sharpe_pa) <= 1e-12 * abs(m.sharpe_pa)


def test_alpha_annualization_is_exact():
    ff3 = fit_with(alpha=0.00013)
    agt = fit_with(alpha=-0.00007, model="agt")
    sample = sample_from_excess(np.random.default_rng(6).normal(0, 0.01, 300))
    m = annualized_metrics(sample, ff3, agt)
    assert m.ff3_alpha_pa == 0.00013 * 252.0 * 100.0
    assert m.agt_alpha_pa == -0.00007 * 252.0 * 100.0


def test_treynor_divides_by_market_beta():
    rng = np.random.default_rng(7)
    e = rng.normal(0.0003, 0.01, 500)
    sample = sample_from_excess(e)
    m = annualized_metrics(sample, fit_with(mkt=0.8), fit_with(model="agt"))
    assert m.treynor_pa == pytest.approx(m.excess_return_pa / 0.8)
    nan_case = annualized_metrics(sample, fit_with(mkt=0.0), fit_with(model="agt"))
    assert math.isnan(nan_case.treynor_pa)


def test_sharpe_sign_and_positive_scale_invariance():
    rng = np.random.default_rng(8)
    e = rng.normal(0.0004, 0.012, 800)
    m1 = annualized_metrics(sample_from_excess(e), fit_with(), fit_with(model="agt"))
    m3 = annualized_metrics(sample_from_excess(3.0 * e), fit_with(), fit_with(model="agt"))
    assert math.copysign(1.0, m1.sharpe_pa) == math.copysign(1.0, float(e.mean()))
    assert m3.sharpe_pa == pytest.approx(m1.sharpe_pa, rel=1e-12)
    neg = annualized_metrics(sample_from_excess(-e), fit_with(), fit_with(model="agt"))
    assert neg.sharpe_pa < 0.0


def test_window_validation():
    one_day = subsample(sample_from_excess(np.zeros(100)), 5, 5)
    with pytest.raises(PerfError, match="shorter than 2"):
        annualized_metrics(one_day, fit_with(), fit_with(model="agt"))


def test_fund_metrics_rejects_negative_stdev():
    with pytest.raises(PerfError, match="negative stdev"):
        FundMetrics(
            fund_id="F1", excess_return_pa=1.0, stdev_pa=-1.0, sharpe_pa=0.1,
            treynor_pa=1.0, ff3_alpha_pa=0.0, agt_alpha_pa=0.0, n_breaks=0,
        )


# ------------------------------------------------------------- grouping


def group_row(report: dict, group: str) -> dict:
    """The row of one bucket in a performance-by-breaks table."""
    (row,) = [r for r in report["rows"] if r["group"] == group]
    return row


def test_group_by_break_count_empty():
    assert break_count_tables([])[1]["rows"] == []


def test_group_means_are_equal_weighted():
    _, report = break_count_tables(
        [make_metrics("A", 4.0, 2), make_metrics("B", 6.0, 2)]
    )
    assert group_row(report, "2")["excess_return_pa"] == pytest.approx(5.0)
    assert group_row(report, "2")["funds"] == 2
    assert group_row(report, "2")["breaks"] == 4


def test_group_fixture_reproduces_break_count_totals():
    # Bucket sizes 34/31/32/34/29 over 1..5 breaks give per-bucket break
    # totals 34/62/96/136/145, i.e. 160 breaking funds and 473 breaks.
    sizes = {1: 34, 2: 31, 3: 32, 4: 34, 5: 29}
    metrics = [make_metrics("Z", 3.0, 0) for _ in range(40)]
    k = 0
    for m, count in sizes.items():
        for _ in range(count):
            metrics.append(make_metrics(f"F{k:03d}", 5.0, m))
            k += 1
    hist, report = break_count_tables(metrics)
    assert [group_row(report, str(m))["breaks"] for m in range(1, 6)] == [34, 62, 96, 136, 145]
    with_breaks = group_row(report, WITH_BREAKS_GROUP)
    assert with_breaks["funds"] == 160
    assert with_breaks["breaks"] == 473

    assert hist["total_funds_with_breaks"] == 160
    assert hist["total_breaks"] == 473
    assert hist["rows"][0]["funds"] == 40  # listed but outside the totals


def test_group_conservation():
    rng = np.random.default_rng(9)
    metrics = [
        make_metrics(f"F{i}", float(rng.normal(5, 2)), int(rng.integers(0, 4)))
        for i in range(50)
    ]
    _, report = break_count_tables(metrics)
    bucket_rows = [r for r in report["rows"] if r["group"] != WITH_BREAKS_GROUP]
    assert sum(r["funds"] for r in bucket_rows) == 50
    assert sum(r["breaks"] for r in bucket_rows) == sum(m.n_breaks for m in metrics)


def test_empty_bucket_row_is_nan_not_zero():
    _, report = break_count_tables([make_metrics("A", 4.0, 2)], max_m=3)
    assert group_row(report, "1")["funds"] == 0
    assert math.isnan(group_row(report, "1")["excess_return_pa"])
    assert group_row(report, "3")["funds"] == 0


def test_break_histogram_max_m_extension_and_empty():
    hist, _ = break_count_tables([make_metrics("A", 4.0, 1)], max_m=3)
    assert [r["n_breaks"] for r in hist["rows"]] == [0, 1, 2, 3]
    assert hist["total_funds_with_breaks"] == 1
    assert hist["total_breaks"] == 1
    empty, _ = break_count_tables([])
    assert len(empty["rows"]) == 1
    assert empty["total_breaks"] == 0


def test_render_group_csv_layout():
    # Stand-in record: only the fields build_aggregates reads.
    record = SimpleNamespace(
        fund_id="A", metrics=make_metrics("A", 4.0, 0), styles=[], shifts=(),
        break_set=SimpleNamespace(criterion=(0.0,)),
    )
    agg = build_aggregates([record])
    lines = render_table(agg, "performance", "csv").splitlines()
    assert lines[0] == (
        "group,funds,breaks,excess_return_pa,stdev_pa,sharpe_pa,ff3_alpha_pa,agt_alpha_pa"
    )
    assert lines[1].startswith("0,1,0,4.0,")
    # The with-breaks bucket is empty: its means are undefined, not 0.
    assert lines[-1] == WITH_BREAKS_GROUP + ",0,0,,,,,"
    md = render_table(agg, "performance", "md").splitlines()
    assert md[-1] == f"| {WITH_BREAKS_GROUP} | 0 | 0 |  |  |  |  |  |"


def test_render_deciles_keeps_odd_fund_ids_in_one_cell():
    # Fund ids are NAV file stems, so they may hold either format's separator.
    excess = {"F,1": 10.0, "G|x": -10.0, **{f"H{i}": float(i) for i in range(8)}}
    records = [
        SimpleNamespace(
            fund_id=fund_id, metrics=make_metrics(fund_id, er, 0), styles=[], shifts=(),
            break_set=SimpleNamespace(criterion=(0.0,)),
        )
        for fund_id, er in excess.items()
    ]
    agg = build_aggregates(records)

    rows = list(csv.reader(io.StringIO(render_table(agg, "deciles", "csv"))))
    assert {len(row) for row in rows} == {3}
    assert ["top_funds", "1", "F,1"] in rows
    assert ["bottom_funds", "1", "G|x"] in rows

    md = render_table(agg, "deciles", "md").splitlines()
    cells = [re.split(r"(?<!\\)\|", line)[1:-1] for line in md]
    assert {len(c) for c in cells} == {3}
    assert [" bottom_funds ", " 1 ", r" G\|x "] in cells


def test_aggregate_break_counts_stop_at_the_longest_fund_cap():
    # At trim 0.2 the bound is 4 breaks, but n=1001 with h=201 holds 3, so
    # its criterion scores m = 0..3; a second fund of n=1200, h=240 holds 4,
    # and the tables follow it.
    def record(fund_id, cap):
        return SimpleNamespace(
            fund_id=fund_id, metrics=make_metrics(fund_id, 1.0, 0), styles=[], shifts=(),
            break_set=SimpleNamespace(criterion=(0.0,) * (cap + 1)),
        )

    short = build_aggregates([record("A", 3)])
    assert [r["n_breaks"] for r in short["break_histogram"]["rows"]] == [0, 1, 2, 3]
    assert len(short["performance_by_breaks"]["rows"]) == 4 + 1
    both = build_aggregates([record("A", 3), record("B", 4)])
    assert [r["n_breaks"] for r in both["break_histogram"]["rows"]] == [0, 1, 2, 3, 4]


def test_report_delta_is_post_minus_pre():
    # Each side is annualized at 252 days a year, and the report's delta
    # is post minus pre, bit for bit.
    sample = make_styled_sample(
        10, [(500, 0.0002, 0.5, -0.4), (500, 0.0004, 0.5, -0.4)]
    )
    config = AnalysisConfig()
    (fund,), _ = search_breaks([sample], config)
    rec = analyze_fund(fund, config)
    (cmp,) = fund_record_dict(rec)["comparisons"]
    for name in METRIC_FIELDS:
        assert cmp["delta"][name] == cmp["post"][name] - cmp["pre"][name], name
    e = sample.r_fund - sample.rf
    for side, (start, end) in zip(("pre", "post"), rec.break_set.regime_windows):
        mean = float(e[start : end + 1].mean())
        assert cmp[side]["excess_return_pa"] == pytest.approx(
            mean * 252 * 100.0, rel=1e-12
        )


# ------------------------------------------------------- pre/post compare


def _graded(sample):
    (bs,) = select_break_count([build_ssr_table(sample)])
    styles = regime_styles(sample, bs)
    shifts = grade_breaks(styles)
    return bs, styles, shifts


def test_pre_post_alpha_doubling_raises_alpha_delta():
    # Post regime doubles the daily active alpha; the regime fits are
    # exact, so the annualized delta is the planted step.
    sample = make_styled_sample(
        10, [(500, 0.0002, 0.5, -0.4), (500, 0.0004, 0.5, -0.4)]
    )
    bs, styles, shifts = _graded(sample)
    assert bs.chosen_m == 1
    (pair,) = pre_post_compare(sample, styles)
    assert pair is not None
    pre, post = pair
    assert post.ff3_alpha_pa - pre.ff3_alpha_pa > 0.0
    assert post.ff3_alpha_pa - pre.ff3_alpha_pa == pytest.approx(0.0002 * 252 * 100, abs=1e-6)
    assert post.agt_alpha_pa - pre.agt_alpha_pa == pytest.approx(0.0002 * 252 * 100, abs=1e-6)
    assert shifts[0].intensity is IntensityClass.UNCHANGED
    assert pre.fund_id == post.fund_id == "F1"
    assert pre.n_breaks == post.n_breaks == 1


def test_pre_post_null_comparison_with_tiled_factors():
    # Identical regimes over identical factor draws: force the break by
    # hand and every delta must vanish exactly.
    sample = make_styled_sample(
        11, [(400, 0.0003, 0.6, 0.2), (400, 0.0003, 0.6, 0.2)], tile_factors=True
    )
    bs = BreakSet(break_indices=(399,), total_ssr=0.0, n=800, h=120)
    styles = regime_styles(sample, bs)
    shifts = grade_breaks(styles)
    (pair,) = pre_post_compare(sample, styles)
    assert pair is not None
    pre, post = pair
    for name in METRIC_FIELDS:
        assert getattr(post, name) - getattr(pre, name) == 0.0, name
    assert shifts[0].style_from == shifts[0].style_to


def test_pre_post_short_flanking_regime_is_omitted():
    sample = make_styled_sample(12, [(200, 0.0, 0.5, 0.0)])
    # Stand-in regimes: the window gate comes before any fit.
    styles = (SimpleNamespace(window=(0, 196)), SimpleNamespace(window=(197, 199)))
    assert pre_post_compare(sample, styles) == (None,)


def test_pre_post_min_window_boundary():
    # Both regimes must hold MIN_ALIGNED_OBS days: 60/60 is compared,
    # 59/61 is not.
    assert MIN_ALIGNED_OBS == 60
    sample = make_styled_sample(
        13, [(60, 0.0, 0.5, 0.0), (60, 0.0, 0.5, 0.0)], tile_factors=True
    )

    def compared(first: int) -> bool:
        bs = BreakSet(break_indices=(first - 1,), total_ssr=0.0, n=120, h=10)
        styles = regime_styles(sample, bs)
        (pair,) = pre_post_compare(sample, styles)
        return pair is not None

    assert compared(60)
    assert not compared(59)


@pytest.mark.parametrize("lengths, trim, fitted", [
    ((250, 250, 250, 250), 0.15, (0, 1, 2, 3)),  # inner regimes flank two breaks each
    ((400, 300, 55, 245), 0.05, (0, 1)),  # the 55-day regime is too short to compare
], ids=["four_long_regimes", "short_third_regime"])
def test_pre_post_fits_each_compared_regime_once(monkeypatch, lengths, trim, fitted):
    loads = [(0.0001, 0.6, 0.0), (0.0002, -0.6, 0.0), (0.0, 0.6, 0.5), (0.0003, 0.0, -0.5)]
    sample = make_styled_sample(
        15, [(length, *load) for length, load in zip(lengths, loads)], noise=0.002
    )
    first_days = []

    def counted(regime, **kwargs):
        first_days.append(regime.dates[0])
        return fit_benchmark_adjusted(regime, **kwargs)

    monkeypatch.setattr(perf, "fit_benchmark_adjusted", counted)
    config = AnalysisConfig(trim=trim)
    (fund,), _ = search_breaks([sample], config)
    rec = analyze_fund(fund, config)
    planted = np.cumsum(lengths)[:-1] - 1
    assert np.abs(np.array(rec.break_set.break_indices) - planted).max() <= 5
    styles, comparisons = rec.styles, rec.comparisons
    assert first_days == [sample.dates[styles[pos].window[0]] for pos in fitted]
    assert [pair is not None for pair in comparisons] == [
        pos in fitted and pos + 1 in fitted for pos in range(3)
    ]
    for pos, pair in enumerate(comparisons):
        if pair is None:
            continue
        if pos + 1 < len(comparisons) and comparisons[pos + 1] is not None:
            assert pair[1] is comparisons[pos + 1][0]
        # Each side is its regime measured on its own, bit for bit.
        for side, style in zip(pair, styles[pos : pos + 2]):
            regime = subsample(sample, *style.window)
            alone = annualized_metrics(
                regime, style.fit, fit_benchmark_adjusted(regime), n_breaks=3
            )
            assert side == alone


# --------------------------------------------------------------- deciles


def test_decile_needs_ten_funds():
    # Below 10 funds a decile would be a single fund: there is no analysis.
    metrics = [make_metrics(f"F{i}", float(i), 0) for i in range(9)]
    assert decile_analysis(metrics, {}) is None
    assert decile_analysis([], {}) is None


def test_decile_sizes():
    ten = [make_metrics(f"F{i}", float(i), 0) for i in range(10)]
    report = decile_analysis(ten, {})
    assert report["decile_size"] == 1
    assert report["top_fund_ids"] == ["F9"]
    assert report["bottom_fund_ids"] == ["F0"]
    thirty_four = [make_metrics(f"F{i:02d}", float(i), 0) for i in range(34)]
    assert decile_analysis(thirty_four, {})["decile_size"] == 4


def test_decile_ties_break_by_fund_id():
    metrics = [make_metrics(f"F{i}", 1.0, 0) for i in range(10)]
    report = decile_analysis(metrics, {})
    assert report["top_fund_ids"] == ["F0"]
    assert report["bottom_fund_ids"] == ["F0"]


def test_decile_composition_tracks_planted_rotations():
    # Only the two best funds carry Rotation shifts; the worst carry
    # Weaken shifts. The pooled histograms must reflect that split.
    metrics = []
    shifts = {}
    for i in range(20):
        fund_id = f"F{i:02d}"
        metrics.append(make_metrics(fund_id, float(i), 1))
        if i >= 18:
            shifts[fund_id] = (make_shift(IntensityClass.ROTATION, "Large Growth"),)
        elif i < 2:
            shifts[fund_id] = (make_shift(IntensityClass.WEAKEN, "Small Value"),)
        else:
            shifts[fund_id] = (make_shift(IntensityClass.UNCHANGED, "Small Value"),)
    report = decile_analysis(metrics, shifts)
    assert report["decile_size"] == 2
    top = report["top_intensity"]
    bottom = report["bottom_intensity"]
    assert top["Rotation"] == 2
    assert bottom["Rotation"] == 0
    assert bottom["Weaken"] == 2
    assert top["Rotation"] > bottom["Rotation"]
    # Histograms carry the full canonical key sets in order.
    assert tuple(report["top_intensity"]) == (
        "Rotation", "Drift", "Strengthen", "Weaken", "Unchanged",
    )
    assert tuple(report["top_destinations"]) == STYLE_BOX_LABELS
    assert report["top_destinations"]["Large Growth"] == 2
    assert report["bottom_destinations"]["Small Value"] == 2


def test_decile_missing_shift_records_pool_empty():
    metrics = [make_metrics(f"F{i}", float(i), 0) for i in range(10)]
    report = decile_analysis(metrics, {})
    assert all(count == 0 for count in report["top_intensity"].values())
    assert all(count == 0 for count in report["bottom_destinations"].values())
