"""Deterministic synthetic panels and funds with planted regimes.

The generators exist to give the pipeline a ground truth: factor
returns are iid Gaussian, each fund is built regime by regime as
r_t = rf + alpha + beta . f_t + eps_t, and the resulting NAV series is
NAV_0 = 100 compounded through those returns. PlantedTruth records
where the breaks are, which style box each regime should classify into
and how each break should grade, so recovery can be checked exactly.

Randomness comes only from numpy's PCG64 generator seeded through
SeedSequence (a fixed, documented 64-bit algorithm, stable across
platforms); one child stream per artifact keeps funds independent of
each other and of the factor draw. Column draw order is fixed:
mkt_rf, smb, hml, mom, then per-regime fund noise.

Factor dates follow a weekday calendar from ``start_date``. Each NAV
series is prepended with a day-zero observation dated one calendar day
before the panel starts, so computed returns land exactly on factor
dates and planted break indices equal aligned-sample indices.
"""

from __future__ import annotations

import functools
import sys
from itertools import islice
from dataclasses import MISSING, dataclass, fields
from datetime import date, timedelta
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .marketdata import BenchmarkMap, FactorPanel, NavSeries, is_plain_id
from .stylebox import (
    FactorState, IntensityClass, StyleBox, box_of, classify_factor_shift, fund_shift_intensity,
)

#: Default panel start: first weekday of 2006.
DEFAULT_START_DATE = date(2006, 1, 2)

DEFAULT_RF_DAILY = 0.0002

#: NAV base value for all generated series.
NAV_BASE = 100.0


class SynthError(ValueError):
    """Invalid generation spec."""


@dataclass(frozen=True)
class FactorVols:
    """Daily stdevs of the generated factor returns.

    Defaults approximate US daily factor volatility: about 13% a year
    for the market and 9 to 10% a year for the style factors. The field
    order is the order in which :func:`gen_factors` draws the factors.
    """

    mkt_rf: float = 0.008
    smb: float = 0.006
    hml: float = 0.006
    mom: float = 0.006

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise SynthError(f"FactorVols: {f.name} must be positive")


@dataclass(frozen=True)
class RegimeSpec:
    """Planted loadings over one span of observations."""

    length: int
    alpha: float = 0.0
    beta_mkt: float = 0.0
    beta_smb: float = 0.0
    beta_hml: float = 0.0
    beta_mom: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise SynthError(f"RegimeSpec: length {self.length} < 1")
        if self.noise_sigma < 0.0:
            raise SynthError("RegimeSpec: negative noise_sigma")


@dataclass(frozen=True)
class FundSpec:
    """One synthetic fund: ordered regimes plus its benchmark link."""

    fund_id: str
    benchmark_id: str
    regimes: tuple[RegimeSpec, ...]

    def __post_init__(self) -> None:
        for value in (self.fund_id, self.benchmark_id):
            if not is_plain_id(value):
                raise SynthError(f"FundSpec: id {value!r} is not a plain file name")
        if not self.regimes:
            raise SynthError(f"FundSpec {self.fund_id}: no regimes")

    @property
    def total_length(self) -> int:
        return sum(r.length for r in self.regimes)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Fixed loadings of a synthetic benchmark (single regime, no noise)."""

    benchmark_id: str
    alpha: float = 0.0
    beta_mkt: float = 0.0
    beta_smb: float = 0.0
    beta_hml: float = 0.0
    beta_mom: float = 0.0

    def __post_init__(self) -> None:
        if not is_plain_id(self.benchmark_id):
            raise SynthError(f"BenchmarkSpec: id {self.benchmark_id!r} is not a plain file name")


def _planted_state(beta: float) -> FactorState:
    # A planted loading is significant exactly when it is nonzero; spec
    # magnitudes are chosen large enough that estimation agrees.
    return FactorState(beta=beta, significant=beta != 0.0)


def planted_style(regime: RegimeSpec) -> StyleBox:
    return box_of(_planted_state(regime.beta_smb), _planted_state(regime.beta_hml))


def planted_intensity(before: RegimeSpec, after: RegimeSpec) -> IntensityClass:
    smb = classify_factor_shift(
        _planted_state(before.beta_smb), _planted_state(after.beta_smb)
    )
    hml = classify_factor_shift(
        _planted_state(before.beta_hml), _planted_state(after.beta_hml)
    )
    return fund_shift_intensity(smb, hml)


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth of one generated fund."""

    fund_id: str
    break_indices: tuple[int, ...]
    styles: tuple[StyleBox, ...]
    intensities: tuple[IntensityClass, ...]

    def __post_init__(self) -> None:
        if len(self.break_indices) != len(self.styles) - 1:
            raise SynthError("PlantedTruth: break count != regimes - 1")
        if len(self.intensities) != len(self.break_indices):
            raise SynthError("PlantedTruth: one intensity per break required")


def weekday_calendar(start: date, count: int) -> tuple[date, ...]:
    """``count`` consecutive weekdays beginning at or after ``start``."""
    # Ordinal 1, 0001-01-01, is a Monday.
    days = range(start.toordinal(), date.max.toordinal() + 1)
    weekdays = islice((day for day in days if (day - 1) % 7 < 5), count)
    out = tuple(map(date.fromordinal, weekdays))
    if len(out) < count:
        raise SynthError(f"weekday calendar: {count} weekdays from {start} run past {date.max}")
    return out


def gen_factors(
    T: int,
    seed,
    vols: FactorVols = FactorVols(),
    rf_daily: float = DEFAULT_RF_DAILY,
    start: date = DEFAULT_START_DATE,
) -> FactorPanel:
    """Generate an iid Gaussian factor panel with a constant cash rate."""
    if T < 1:
        raise SynthError(f"gen_factors: T={T} < 1")
    rng = np.random.default_rng(seed)
    draws = {
        f.name: tuple(map(float, rng.standard_normal(T) * getattr(vols, f.name)))
        for f in fields(vols)
    }
    return FactorPanel(dates=weekday_calendar(start, T), rf=(float(rf_daily),) * T, **draws)


def _returns_from_loadings(
    factors: FactorPanel, span: slice, spec: RegimeSpec | BenchmarkSpec, eps: np.ndarray
) -> np.ndarray:
    return (
        np.asarray(factors.rf[span])
        + spec.alpha
        + spec.beta_mkt * np.asarray(factors.mkt_rf[span])
        + spec.beta_smb * np.asarray(factors.smb[span])
        + spec.beta_hml * np.asarray(factors.hml[span])
        + spec.beta_mom * np.asarray(factors.mom[span])
        + eps
    )


def _nav_from_returns(series_id: str, factors: FactorPanel, r: np.ndarray) -> NavSeries:
    if np.any(r <= -1.0):
        raise SynthError(f"{series_id}: generated return at or below -100%")
    if factors.dates[0] == date.min:
        raise SynthError(f"{series_id}: the NAV base row falls before {date.min}")
    navs = NAV_BASE * np.cumprod(1.0 + r)
    dates = (factors.dates[0] - timedelta(days=1),) + factors.dates[: len(r)]
    return NavSeries(
        fund_id=series_id,
        dates=dates,
        navs=(NAV_BASE,) + tuple(map(float, navs)),
    )


def gen_fund(
    spec: FundSpec, factors: FactorPanel, seed
) -> tuple[NavSeries, PlantedTruth]:
    """Generate one fund's NAV series and its ground truth."""
    if spec.total_length > len(factors):
        raise SynthError(
            f"{spec.fund_id}: regimes need {spec.total_length} observations, "
            f"panel has {len(factors)}"
        )
    rng = np.random.default_rng(seed)
    chunks = []
    pos = 0
    for regime in spec.regimes:
        span = slice(pos, pos + regime.length)
        eps = (
            rng.standard_normal(regime.length) * regime.noise_sigma
            if regime.noise_sigma > 0.0
            else np.zeros(regime.length)
        )
        chunks.append(_returns_from_loadings(factors, span, regime, eps))
        pos += regime.length
    r = np.concatenate(chunks)
    nav = _nav_from_returns(spec.fund_id, factors, r)

    cuts = np.cumsum([rg.length for rg in spec.regimes])[:-1]
    truth = PlantedTruth(
        fund_id=spec.fund_id,
        break_indices=tuple(int(c) - 1 for c in cuts),
        styles=tuple(planted_style(rg) for rg in spec.regimes),
        intensities=tuple(
            planted_intensity(a, b) for a, b in zip(spec.regimes, spec.regimes[1:])
        ),
    )
    return nav, truth


def gen_benchmark(spec: BenchmarkSpec, factors: FactorPanel) -> NavSeries:
    """Generate a zero-noise single-regime benchmark over the full panel."""
    r = _returns_from_loadings(factors, slice(0, len(factors)), spec, np.zeros(len(factors)))
    return _nav_from_returns(spec.benchmark_id, factors, r)


@dataclass(frozen=True, kw_only=True)
class SimSpec:
    """Parsed simulation spec: panel parameters plus all funds and benchmarks.

    Each field is the JSON key of the same name; a field without a
    default is a required key.
    """

    seed: int = 0
    t: int
    start_date: date = DEFAULT_START_DATE
    rf_daily: float = DEFAULT_RF_DAILY
    factor_vols: FactorVols = FactorVols()
    benchmarks: tuple[BenchmarkSpec, ...]
    funds: tuple[FundSpec, ...]

    def __post_init__(self) -> None:
        bench_ids = [b.benchmark_id for b in self.benchmarks]
        if len(set(bench_ids)) != len(bench_ids):
            raise SynthError("SimSpec: duplicate benchmark_id")
        fund_ids = [f.fund_id for f in self.funds]
        if len(set(fund_ids)) != len(fund_ids):
            raise SynthError("SimSpec: duplicate fund_id")
        known = set(bench_ids)
        for f in self.funds:
            if f.benchmark_id not in known:
                raise SynthError(
                    f"SimSpec: fund {f.fund_id} references unknown benchmark "
                    f"{f.benchmark_id}"
                )
            if f.total_length > self.t:
                raise SynthError(
                    f"SimSpec: fund {f.fund_id} needs {f.total_length} observations, "
                    f"panel length is {self.t}"
                )
        if not self.funds:
            raise SynthError("SimSpec: no funds")


#: JSON values a scalar field of each type accepts: a JSON integer is
#: also a valid float, and a bool is neither.
_JSON_TYPES = {int: int, float: (int, float), str: str}

#: Field types of a spec dataclass, with its string annotations resolved.
_field_types = functools.cache(get_type_hints)


def _from_json(cls, value, path: str):
    """Convert the JSON ``value`` found at ``path`` into ``cls``.

    ``cls`` is a spec dataclass, read from an object whose keys are its
    fields (a field without a default is required), or a tuple of them,
    read from a list. Field types give the JSON type of each key; a
    date is an ISO string, and a float must be finite. Any mismatch
    raises :class:`SynthError`.
    """
    if get_origin(cls) is tuple:
        if not isinstance(value, list):
            raise SynthError(f"{path}: expected a list, got {value!r}")
        item = get_args(cls)[0]
        return tuple(_from_json(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        raise SynthError(f"{path}: expected an object, got {value!r}")
    types = _field_types(cls)
    for key in value:
        if key not in types:
            raise SynthError(f"{path}: unknown key {key!r}")
    for f in fields(cls):
        if f.name not in value and f.default is MISSING:
            raise SynthError(f"{path}: missing required key {f.name!r}")
    kwargs = {}
    for key, v in value.items():
        kind = types[key]
        if kind is date:
            try:
                kwargs[key] = date.fromisoformat(v)
            except (TypeError, ValueError) as exc:
                raise SynthError(f"{path}: bad {key}: {exc}") from exc
        elif kind not in _JSON_TYPES:
            kwargs[key] = _from_json(kind, v, f"{path}.{key}")
        elif isinstance(v, bool) or not isinstance(v, _JSON_TYPES[kind]):
            raise SynthError(f"{path}: key {key!r} must be {kind.__name__}, got {v!r}")
        elif kind is float and not abs(v) <= sys.float_info.max:  # NaN, inf, 10**400
            raise SynthError(f"{path}: key {key!r} must be a finite number, got {v!r}")
        else:
            kwargs[key] = kind(v)
    return cls(**kwargs)


def parse_sim_spec(obj) -> SimSpec:
    """Validate and convert a JSON simulation document.

    An unknown key, a missing required key or a value of the wrong JSON
    type raises :class:`SynthError` naming the key and where it sits.
    """
    return _from_json(SimSpec, obj, "spec")


@dataclass(frozen=True)
class SimOutput:
    """Everything one simulation produced, in memory."""

    seed: int
    factors: FactorPanel
    benchmarks: tuple[NavSeries, ...]
    funds: tuple[NavSeries, ...]
    truths: tuple[PlantedTruth, ...]
    benchmark_map: BenchmarkMap


def run_simulation(spec: SimSpec, seed: int | None = None) -> SimOutput:
    """Generate all artifacts of a simulation spec.

    ``seed`` overrides the spec's own seed. Child streams are spawned
    in a fixed order (factors first, then funds in file order), so
    identical spec and seed give byte-identical artifacts.
    """
    root_seed = spec.seed if seed is None else int(seed)
    if root_seed < 0:
        raise SynthError(f"seed must be >= 0, got {root_seed}")
    root = np.random.SeedSequence(root_seed)
    children = root.spawn(1 + len(spec.funds))

    factors = gen_factors(
        spec.t, children[0], vols=spec.factor_vols,
        rf_daily=spec.rf_daily, start=spec.start_date,
    )
    benchmarks = tuple(gen_benchmark(b, factors) for b in spec.benchmarks)

    funds, truths = [], []
    for i, fspec in enumerate(spec.funds):
        nav, truth = gen_fund(fspec, factors, children[1 + i])
        funds.append(nav)
        truths.append(truth)

    bmap = BenchmarkMap(entries={f.fund_id: f.benchmark_id for f in spec.funds})
    return SimOutput(
        seed=root_seed,
        factors=factors,
        benchmarks=benchmarks,
        funds=tuple(funds),
        truths=tuple(truths),
        benchmark_map=bmap,
    )


def truth_to_dict(truth: PlantedTruth) -> dict:
    """JSON-ready form of one fund's ground truth."""
    return {
        "fund_id": truth.fund_id,
        "break_indices": list(truth.break_indices),
        "styles": [box.label for box in truth.styles],
        "intensities": [ic.value for ic in truth.intensities],
    }
