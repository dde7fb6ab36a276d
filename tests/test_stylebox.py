"""Style-box classification, shift grading and the transition matrix."""

from collections import Counter
from types import SimpleNamespace

import pytest

from oracles import make_styled_sample

from fundshift.breaks import BreakSet, build_ssr_table, select_break_count
from fundshift.perf import FundMetrics, regime_styles
from fundshift.pipeline import build_aggregates
from fundshift.regress import FactorLoading, RegressionError, RegressionResult
from fundshift.stylebox import (
    SHIFT_TOL,
    STYLE_BOX_LABELS,
    STYLE_BOX_ORDER,
    BreakShift,
    FactorShift,
    FactorState,
    IntensityClass,
    SizeClass,
    StyleBox,
    ValueClass,
    accumulate_transitions,
    apply_style_flags,
    classify_factor_shift,
    classify_size,
    classify_value,
    factor_state,
    fund_shift_intensity,
    grade_breaks,
    severity,
    style_of,
)
from fundshift.tables import render_table


def state(beta: float, significant: bool) -> FactorState:
    return FactorState(beta=beta, significant=significant)


def box_of(label: str) -> StyleBox:
    return STYLE_BOX_ORDER[STYLE_BOX_LABELS.index(label)]


def loading(name: str, coef: float, significant: bool) -> FactorLoading:
    # Inference fields are irrelevant to classification; fill plausibly.
    return FactorLoading(
        name=name, coef=coef, se=0.01,
        tstat=coef / 0.01, pvalue=0.01 if significant else 0.5,
        significant=significant,
    )


def fit_with(smb: tuple[float, bool], hml: tuple[float, bool]) -> RegressionResult:
    loadings = (
        loading("alpha", 0.0, False),
        loading("mkt_rf", 1.0, True),
        loading("smb", *smb),
        loading("hml", *hml),
    )
    return RegressionResult(
        model="ff3", loadings=loadings, ssr=1.0, nobs=500, dof=496, r_squared=0.9
    )


# ---------------------------------------------------------------- boxes


def test_canonical_box_order_and_labels():
    assert len(STYLE_BOX_ORDER) == 9
    assert len(set(STYLE_BOX_ORDER)) == 9
    assert STYLE_BOX_LABELS == (
        "Large Value", "Large Blend", "Large Growth",
        "Mid Value", "Mid Blend", "Mid Growth",
        "Small Value", "Small Blend", "Small Growth",
    )
    for i, box in enumerate(STYLE_BOX_ORDER):
        assert box.index == i


def test_classify_size_examples():
    # A small-to-large rotation reads +0.1 significant as Small and
    # -0.8 significant as Large.
    assert classify_size(state(0.1, True)) is SizeClass.SMALL
    assert classify_size(state(-0.8, True)) is SizeClass.LARGE
    assert classify_size(state(0.05, False)) is SizeClass.MID


def test_classify_value_examples():
    assert classify_value(state(0.3, True)) is ValueClass.VALUE
    assert classify_value(state(-0.4, True)) is ValueClass.GROWTH
    assert classify_value(state(0.0, False)) is ValueClass.BLEND


def test_style_of_composition():
    assert style_of(fit_with((0.5, True), (0.3, True))).label == "Small Value"
    assert style_of(fit_with((-0.6, True), (-0.2, True))).label == "Large Growth"
    assert style_of(fit_with((0.02, False), (0.01, False))).label == "Mid Blend"


def test_all_nine_boxes_reachable_and_distinct():
    # Three size states x three value states must hit all nine cells.
    axis = [state(0.5, True), state(-0.5, True), state(0.05, False)]
    seen = set()
    for s in axis:
        for v in axis:
            seen.add(StyleBox(size=classify_size(s), value=classify_value(v)).label)
    assert seen == set(STYLE_BOX_LABELS)


def test_factor_state_validation_and_sign_char():
    assert state(0.5, True).sign_char == "+"
    assert state(-0.5, False).sign_char == "-"
    assert state(0.0, False).sign_char == "0"


def test_factor_state_from_loading():
    st = factor_state(loading("smb", -0.25, True))
    assert (st.beta, st.significant, st.sign) == (-0.25, True, -1)
    assert factor_state(loading("hml", 0.0, False)).sign == 0


# ------------------------------------------------------------- taxonomy


def test_rotation_on_significant_sign_flip():
    # The canonical small-to-large example: +0.1 significant flips to
    # -0.8 significant.
    assert (
        classify_factor_shift(state(0.1, True), state(-0.8, True))
        is IntensityClass.ROTATION
    )


def test_drift_on_significance_change():
    assert (
        classify_factor_shift(state(0.4, True), state(0.05, False))
        is IntensityClass.DRIFT
    )
    assert (
        classify_factor_shift(state(0.05, False), state(0.4, True))
        is IntensityClass.DRIFT
    )


def test_strengthen_and_weaken_on_magnitude():
    assert (
        classify_factor_shift(state(0.3, True), state(0.6, True))
        is IntensityClass.STRENGTHEN
    )
    assert (
        classify_factor_shift(state(0.6, True), state(0.3, True))
        is IntensityClass.WEAKEN
    )
    # Magnitude moves of insignificant loadings grade the same way.
    assert (
        classify_factor_shift(state(-0.01, False), state(-0.05, False))
        is IntensityClass.STRENGTHEN
    )


def test_unchanged_cases():
    assert (
        classify_factor_shift(state(0.3, True), state(0.3, True))
        is IntensityClass.UNCHANGED
    )
    # A move inside the tolerance band is noise.
    assert (
        classify_factor_shift(state(0.3, True), state(0.3 + 1e-9, True))
        is IntensityClass.UNCHANGED
    )
    # An insignificant sign flip matches no earlier branch.
    assert (
        classify_factor_shift(state(0.1, False), state(-0.1, False))
        is IntensityClass.UNCHANGED
    )


def test_shift_tolerance_is_respected():
    # Magnitude moves count only beyond SHIFT_TOL, in either direction.
    before = state(0.3, True)
    for step, grade in ((1, IntensityClass.STRENGTHEN), (-1, IntensityClass.WEAKEN)):
        near = state(0.3 + step * 0.5 * SHIFT_TOL, True)
        far = state(0.3 + step * 2.0 * SHIFT_TOL, True)
        assert classify_factor_shift(before, near) is IntensityClass.UNCHANGED
        assert classify_factor_shift(before, far) is grade


def test_taxonomy_is_a_partition_over_the_state_grid():
    # Every (sign x significance) pairing must land in exactly one
    # class, and Rotation only on significant sign flips.
    grid = [
        state(0.7, True), state(-0.7, True), state(0.0, True),
        state(0.1, False), state(-0.1, False), state(0.0, False),
    ]
    for before in grid:
        for after in grid:
            got = classify_factor_shift(before, after)
            assert isinstance(got, IntensityClass)
            flip = before.significant and after.significant and before.sign * after.sign == -1
            assert (got is IntensityClass.ROTATION) == flip


def test_severity_order():
    assert (
        severity(IntensityClass.ROTATION)
        > severity(IntensityClass.DRIFT)
        > severity(IntensityClass.STRENGTHEN)
        == severity(IntensityClass.WEAKEN)
        > severity(IntensityClass.UNCHANGED)
    )


def test_fund_shift_intensity_takes_max_severity():
    assert (
        fund_shift_intensity(IntensityClass.ROTATION, IntensityClass.DRIFT)
        is IntensityClass.ROTATION
    )
    assert (
        fund_shift_intensity(IntensityClass.UNCHANGED, IntensityClass.WEAKEN)
        is IntensityClass.WEAKEN
    )
    assert (
        fund_shift_intensity(IntensityClass.DRIFT, IntensityClass.DRIFT)
        is IntensityClass.DRIFT
    )
    # Strengthen and Weaken tie in severity; the size factor's grade wins.
    assert (
        fund_shift_intensity(IntensityClass.WEAKEN, IntensityClass.STRENGTHEN)
        is IntensityClass.WEAKEN
    )
    assert (
        fund_shift_intensity(IntensityClass.STRENGTHEN, IntensityClass.WEAKEN)
        is IntensityClass.STRENGTHEN
    )


#: One (before, after) state pair per grade.
_PAIR_OF = {
    IntensityClass.ROTATION: (state(0.5, True), state(-0.5, True)),
    IntensityClass.DRIFT: (state(0.5, True), state(0.5, False)),
    IntensityClass.STRENGTHEN: (state(0.3, True), state(0.5, True)),
    IntensityClass.WEAKEN: (state(0.5, True), state(0.3, True)),
    IntensityClass.UNCHANGED: (state(0.5, True), state(0.5, True)),
}


def break_shift(smb: IntensityClass, hml: IntensityClass) -> BreakShift:
    return BreakShift(
        break_index=10,
        smb=FactorShift("smb", *_PAIR_OF[smb]),
        hml=FactorShift("hml", *_PAIR_OF[hml]),
        style_from=box_of("Mid Blend"),
        style_to=box_of("Mid Blend"),
    )


def test_shift_grades_are_derived_from_their_states():
    for smb, (before, after) in _PAIR_OF.items():
        assert classify_factor_shift(before, after) is smb
        assert FactorShift("smb", before, after).intensity is smb
        for hml in IntensityClass:
            shift = break_shift(smb, hml)
            assert shift.intensity is fund_shift_intensity(smb, hml)
            assert severity(shift.intensity) == max(severity(smb), severity(hml))
    # Strengthen and Weaken tie in severity; SMB's grade wins.
    assert break_shift(IntensityClass.WEAKEN, IntensityClass.STRENGTHEN).intensity \
        is IntensityClass.WEAKEN
    assert break_shift(IntensityClass.STRENGTHEN, IntensityClass.WEAKEN).intensity \
        is IntensityClass.STRENGTHEN
    # A grade is never passed in, so none can disagree with the states.
    with pytest.raises(TypeError):
        FactorShift("smb", before, after, intensity=IntensityClass.ROTATION)
    with pytest.raises(TypeError):
        BreakShift(
            break_index=10, smb=FactorShift("smb", before, after),
            hml=FactorShift("hml", before, after), intensity=IntensityClass.ROTATION,
            style_from=box_of("Mid Blend"), style_to=box_of("Mid Blend"),
        )


# --------------------------------------------- regime fits and grading


def test_regime_styles_single_regime():
    sample = make_styled_sample(21, [(400, 0.0, 0.8, 0.5)])
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 0
    styles = regime_styles(sample, bs)
    assert len(styles) == 1
    assert styles[0].window == (0, 399)
    assert styles[0].box.label == "Small Value"


def test_regime_styles_planted_two_regime_fund():
    sample = make_styled_sample(
        22, [(500, 0.0, 0.8, 0.5), (500, 0.0, -0.8, -0.5)]
    )
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 1
    styles = regime_styles(sample, bs)
    assert [s.box.label for s in styles] == ["Small Value", "Large Growth"]
    assert styles[0].window[0] == 0
    assert styles[-1].window[1] == sample.n - 1


def test_regime_styles_rejects_regime_shorter_than_parameters():
    sample = make_styled_sample(23, [(20, 0.0, 0.5, 0.0)])
    bs = BreakSet(break_indices=(2,), total_ssr=0.0, n=20, h=3)
    with pytest.raises(RegressionError, match="need more than"):
        regime_styles(sample, bs)


def test_grade_breaks_planted_rotation():
    sample = make_styled_sample(
        24, [(500, 0.0, 0.8, 0.5), (500, 0.0, -0.8, -0.5)]
    )
    (bs,) = select_break_count([build_ssr_table(sample)])
    styles = regime_styles(sample, bs)
    shifts = grade_breaks(styles)
    assert len(shifts) == 1
    s = shifts[0]
    assert s.break_index == bs.break_indices[0]
    assert s.smb.intensity is IntensityClass.ROTATION
    assert s.hml.intensity is IntensityClass.ROTATION
    assert s.intensity is IntensityClass.ROTATION
    assert s.style_from.label == "Small Value"
    assert s.style_to.label == "Large Growth"
    assert s.is_style_break
    flagged = apply_style_flags(bs, shifts)
    assert flagged.is_style_break == (True,)


def test_grade_breaks_planted_drift():
    sample = make_styled_sample(25, [(500, 0.0, 0.6, 0.0), (500, 0.0, 0.0, 0.0)])
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 1
    styles = regime_styles(sample, bs)
    assert [s.box.label for s in styles] == ["Small Blend", "Mid Blend"]
    (shift,) = grade_breaks(styles)
    assert shift.smb.intensity is IntensityClass.DRIFT
    assert shift.hml.intensity is IntensityClass.UNCHANGED
    assert shift.intensity is IntensityClass.DRIFT


def test_grade_breaks_planted_strengthen_stays_on_diagonal():
    sample = make_styled_sample(26, [(500, 0.0, 0.3, -0.4), (500, 0.0, 0.7, -0.4)])
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 1
    styles = regime_styles(sample, bs)
    assert [s.box.label for s in styles] == ["Small Growth", "Small Growth"]
    (shift,) = grade_breaks(styles)
    assert shift.smb.intensity is IntensityClass.STRENGTHEN
    assert shift.intensity is IntensityClass.STRENGTHEN
    assert shift.style_from == shift.style_to
    assert shift.is_style_break


def test_alpha_only_break_grades_unchanged():
    # A pure alpha step triggers detection on the benchmark-adjusted
    # model but moves neither style loading.
    sample = make_styled_sample(
        27, [(500, 0.0, 0.5, -0.4), (500, 0.003, 0.5, -0.4)]
    )
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 1
    styles = regime_styles(sample, bs)
    (shift,) = grade_breaks(styles)
    assert shift.intensity is IntensityClass.UNCHANGED
    assert not shift.is_style_break
    assert shift.style_from == shift.style_to
    flagged = apply_style_flags(bs, (shift,))
    assert flagged.is_style_break == (False,)


def test_box_change_mirrors_shift_severity():
    # Over states reachable from a real fit (significant implies a
    # nonzero coefficient), the box moves off the diagonal exactly when
    # some factor graded Rotation or Drift.
    grid = [
        state(0.7, True), state(-0.7, True), state(0.3, True),
        state(0.1, False), state(-0.1, False), state(0.0, False),
    ]
    for s_before in grid:
        for s_after in grid:
            for v_before in grid:
                for v_after in grid:
                    box_before = StyleBox(
                        size=classify_size(s_before), value=classify_value(v_before)
                    )
                    box_after = StyleBox(
                        size=classify_size(s_after), value=classify_value(v_after)
                    )
                    intensity = fund_shift_intensity(
                        classify_factor_shift(s_before, s_after),
                        classify_factor_shift(v_before, v_after),
                    )
                    if box_before == box_after:
                        assert severity(intensity) <= severity(IntensityClass.STRENGTHEN)
                    else:
                        assert intensity in (IntensityClass.ROTATION, IntensityClass.DRIFT)


# ----------------------------------------------------- transition matrix


def cell(matrix: dict, from_box: StyleBox, to_box: StyleBox) -> int:
    """One count of a transitions table: rows are the style before."""
    return matrix["counts"][from_box.index][to_box.index]


def test_accumulate_no_funds():
    m = accumulate_transitions([])
    assert m == {"labels": list(STYLE_BOX_LABELS), "counts": [[0] * 9] * 9, "grand_total": 0}
    assert m["grand_total"] == 0


def test_accumulate_single_transition():
    lv = box_of("Large Value")
    lb = box_of("Large Blend")
    m = accumulate_transitions([[lv, lb]])
    assert cell(m, lv, lb) == 1
    assert m["grand_total"] == 1
    total = sum(cell(m, a, b) for a in STYLE_BOX_ORDER for b in STYLE_BOX_ORDER)
    assert total == 1


# Twelve transitions across five funds, listed by hand. The pair list
# is the oracle; the style chains below must reproduce it.
HAND_PAIRS = [
    ("Large Value", "Large Blend"),
    ("Large Blend", "Mid Blend"),
    ("Small Growth", "Small Growth"),
    ("Mid Blend", "Small Value"),
    ("Small Value", "Small Value"),
    ("Small Value", "Large Growth"),
    ("Small Blend", "Mid Growth"),
    ("Mid Growth", "Mid Growth"),
    ("Mid Growth", "Mid Value"),
    ("Large Growth", "Mid Blend"),
    ("Mid Blend", "Large Value"),
    ("Large Value", "Large Value"),
]

FUND_CHAINS = [
    ["Large Value", "Large Blend", "Mid Blend"],
    ["Small Growth", "Small Growth"],
    ["Mid Blend", "Small Value", "Small Value", "Large Growth"],
    ["Small Blend", "Mid Growth", "Mid Growth", "Mid Value"],
    ["Large Growth", "Mid Blend", "Large Value", "Large Value"],
]


def test_accumulate_matches_hand_tally():
    tally = Counter(HAND_PAIRS)
    assert sum(tally.values()) == 12
    chains = [[box_of(l) for l in chain] for chain in FUND_CHAINS]
    m = accumulate_transitions(chains)
    for a in STYLE_BOX_ORDER:
        for b in STYLE_BOX_ORDER:
            assert cell(m, a, b) == tally.get((a.label, b.label), 0)
    assert m["grand_total"] == 12
    assert m["grand_total"] == sum(len(c) - 1 for c in chains)


def render_transitions(chains: list[list[str]]) -> str:
    """The report's transitions table for funds with these style chains.

    Stand-in records carry only the fields build_aggregates reads.
    """
    records = [
        SimpleNamespace(
            fund_id=f"F{i}",
            styles=[SimpleNamespace(box=box_of(l)) for l in chain],
            shifts=(),
            metrics=FundMetrics(f"F{i}", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, len(chain) - 1),
            break_set=SimpleNamespace(criterion=(0.0,) * 6),
        )
        for i, chain in enumerate(chains)
    ]
    return render_table(build_aggregates(records), "transitions", "csv")


def test_render_transition_csv_layout():
    text = render_transitions(FUND_CHAINS)
    lines = text.splitlines()
    assert len(lines) == 11
    assert lines[0] == "style_t," + ",".join(STYLE_BOX_LABELS) + ",Total"
    # Large Value row: one self-transition, one move to Large Blend.
    assert lines[1] == "Large Value,1,1,0,0,0,0,0,0,0,2"
    assert lines[10].startswith("Total,")
    assert lines[10].endswith(",12")
    assert text.endswith("\n")


def test_render_zero_matrix():
    text = render_transitions([])
    lines = text.splitlines()
    assert lines[5] == "Mid Blend," + ",".join(["0"] * 9) + ",0"
    assert lines[10] == "Total," + ",".join(["0"] * 9) + ",0"
