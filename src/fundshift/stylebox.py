"""Style-box classification and risk-shift intensity grading.

Rules only, on the standard library and ``tables``; ``perf.regime_styles``
fits the regimes. Each regime's three-factor fit maps to one of nine
size/value boxes (:func:`box_of`): the size axis reads the SMB loading
(significantly positive = Small, significantly negative = Large,
insignificant = Mid), the value axis reads HML the same way (Value /
Growth / Blend), through one sign-and-significance rule. Breaks are
graded by how the loadings moved:

* Rotation: a loading stays significant but flips sign (worst),
* Drift: a loading crosses between significant and insignificant,
* Strengthen / Weaken: sign and significance hold, magnitude moves,
* Unchanged: nothing moved beyond tolerance.

A fund-level break grade is the more severe of its SMB and HML grades.
Adjacent regime pairs accumulate into a 9x9 transition matrix whose
diagonal, by construction, holds exactly the breaks that kept the box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

from . import tables

if TYPE_CHECKING:
    from .breaks import BreakSet
    from .regress import FactorLoading, RegressionResult

#: Loading-magnitude move below this is noise, not a strengthen/weaken.
SHIFT_TOL = 1e-6


class SizeClass(Enum):
    LARGE = "Large"
    MID = "Mid"
    SMALL = "Small"


class ValueClass(Enum):
    VALUE = "Value"
    BLEND = "Blend"
    GROWTH = "Growth"


@dataclass(frozen=True)
class StyleBox:
    """One cell of the 3x3 size/value grid."""

    size: SizeClass
    value: ValueClass

    @property
    def index(self) -> int:
        """Canonical position 0..8 (Large Value first, Small Growth last)."""
        return STYLE_BOX_ORDER.index(self)

    @property
    def label(self) -> str:
        return f"{self.size.value} {self.value.value}"


#: All nine boxes in canonical order, the axis enums' declaration order.
STYLE_BOX_ORDER: tuple[StyleBox, ...] = tuple(
    StyleBox(size=s, value=v) for s in SizeClass for v in ValueClass
)

STYLE_BOX_LABELS: tuple[str, ...] = tuple(box.label for box in STYLE_BOX_ORDER)


class IntensityClass(Enum):
    ROTATION = "Rotation"
    DRIFT = "Drift"
    STRENGTHEN = "Strengthen"
    WEAKEN = "Weaken"
    UNCHANGED = "Unchanged"


#: Severity ranks; Strengthen and Weaken tie by design.
_SEVERITY = {
    IntensityClass.ROTATION: 4,
    IntensityClass.DRIFT: 3,
    IntensityClass.STRENGTHEN: 2,
    IntensityClass.WEAKEN: 2,
    IntensityClass.UNCHANGED: 1,
}


def severity(intensity: IntensityClass) -> int:
    return _SEVERITY[intensity]


@dataclass(frozen=True)
class FactorState:
    """Sign and significance of one loading, as the taxonomy sees it."""

    beta: float
    significant: bool

    @property
    def sign(self) -> int:
        return 0 if self.beta == 0.0 else (1 if self.beta > 0.0 else -1)

    @property
    def sign_char(self) -> str:
        return {1: "+", -1: "-", 0: "0"}[self.sign]


def factor_state(loading: FactorLoading) -> FactorState:
    return FactorState(beta=loading.coef, significant=loading.significant)


def _tilt(state: FactorState) -> int:
    """+1 for a significantly positive loading, -1 for a significantly negative one, else 0."""
    return state.sign if state.significant else 0


def classify_size(state: FactorState) -> SizeClass:
    """SMB loading to size class: positive tilts small, negative large."""
    return {1: SizeClass.SMALL, 0: SizeClass.MID, -1: SizeClass.LARGE}[_tilt(state)]


def classify_value(state: FactorState) -> ValueClass:
    """HML loading to value class: positive tilts value, negative growth."""
    return {1: ValueClass.VALUE, 0: ValueClass.BLEND, -1: ValueClass.GROWTH}[_tilt(state)]


def box_of(smb: FactorState, hml: FactorState) -> StyleBox:
    """The box of an SMB and an HML state."""
    return StyleBox(size=classify_size(smb), value=classify_value(hml))


def style_of(fit: RegressionResult) -> StyleBox:
    """Compose the box from a fit's SMB and HML states."""
    return box_of(factor_state(fit.loading("smb")), factor_state(fit.loading("hml")))


def classify_factor_shift(before: FactorState, after: FactorState) -> IntensityClass:
    """Grade one loading's move across a break.

    Branch order matters: a significant sign flip outranks everything,
    then any significance change, then magnitude moves within the same
    sign and status. Pairs that fit none of these (for example an
    insignificant sign flip) are Unchanged.
    """
    if before.significant and after.significant and before.sign * after.sign == -1:
        return IntensityClass.ROTATION
    if before.significant != after.significant:
        return IntensityClass.DRIFT
    if before.sign == after.sign:
        if abs(after.beta) > abs(before.beta) + SHIFT_TOL:
            return IntensityClass.STRENGTHEN
        if abs(after.beta) < abs(before.beta) - SHIFT_TOL:
            return IntensityClass.WEAKEN
    return IntensityClass.UNCHANGED


def fund_shift_intensity(
    smb_shift: IntensityClass, hml_shift: IntensityClass
) -> IntensityClass:
    """The more severe of the two per-factor grades (SMB wins ties)."""
    return smb_shift if severity(smb_shift) >= severity(hml_shift) else hml_shift


@dataclass(frozen=True)
class RegimeStyle:
    """One regime's window, its three-factor fit and the resulting box."""

    window: tuple[int, int]
    fit: RegressionResult
    box: StyleBox


@dataclass(frozen=True)
class FactorShift:
    """One loading's before/after states at one break, graded from them."""

    factor: str
    before: FactorState
    after: FactorState

    @property
    def intensity(self) -> IntensityClass:
        return classify_factor_shift(self.before, self.after)


@dataclass(frozen=True)
class BreakShift:
    """Full grading of one break: both factors, whose grades give the fund-level one."""

    break_index: int
    smb: FactorShift
    hml: FactorShift
    style_from: StyleBox
    style_to: StyleBox

    @property
    def intensity(self) -> IntensityClass:
        return fund_shift_intensity(self.smb.intensity, self.hml.intensity)

    @property
    def is_style_break(self) -> bool:
        return self.intensity is not IntensityClass.UNCHANGED


def grade_breaks(styles: tuple[RegimeStyle, ...]) -> tuple[BreakShift, ...]:
    """One shift per break, the last observation of a regime, between the fits flanking it."""
    return tuple(
        BreakShift(
            break_index=pre.window[1],
            smb=FactorShift("smb", *(factor_state(r.fit.loading("smb")) for r in (pre, post))),
            hml=FactorShift("hml", *(factor_state(r.fit.loading("hml")) for r in (pre, post))),
            style_from=pre.box,
            style_to=post.box,
        )
        for pre, post in zip(styles, styles[1:])
    )


def apply_style_flags(bs: BreakSet, shifts: tuple[BreakShift, ...]) -> BreakSet:
    """Stamp the per-break style-change flags onto the break set."""
    return replace(bs, is_style_break=tuple(s.is_style_break for s in shifts))


def accumulate_transitions(per_fund_styles: list[list[StyleBox]]) -> dict:
    """Count every adjacent regime pair, per fund, in chronological order.

    ``counts[i][j]`` tallies box index i followed by box index j, and
    :func:`tables.transitions` adds the grand total, which therefore
    equals the number of breaks across all funds; breaks whose shift
    graded Unchanged land on the diagonal.
    """
    cells = [[0] * len(STYLE_BOX_ORDER) for _ in STYLE_BOX_ORDER]
    for styles in per_fund_styles:
        for s_t, s_next in zip(styles, styles[1:]):
            cells[s_t.index][s_next.index] += 1
    return tables.transitions(list(STYLE_BOX_LABELS), cells)
