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

from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

from .marketdata import BenchmarkMap, FactorPanel, NavSeries
from .stylebox import (
    FactorState,
    IntensityClass,
    StyleBox,
    classify_factor_shift,
    classify_size,
    classify_value,
    fund_shift_intensity,
)

#: Default panel start: first weekday of 2006.
DEFAULT_START_DATE = date(2006, 1, 2)

DEFAULT_RF_DAILY = 0.0002

#: NAV base value for all generated series.
NAV_BASE = 100.0


class SynthError(ValueError):
    """Invalid generation spec."""


def _rng(seed: "int | np.random.SeedSequence") -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True)
class FactorVols:
    """Daily stdevs of the generated factor returns.

    Defaults approximate US daily factor volatility: about 13% a year
    for the market and 9 to 10% a year for the style factors.
    """

    mkt_rf: float = 0.008
    smb: float = 0.006
    hml: float = 0.006
    mom: float = 0.006

    def __post_init__(self) -> None:
        for name in ("mkt_rf", "smb", "hml", "mom"):
            if not getattr(self, name) > 0.0:
                raise SynthError(f"FactorVols: {name} must be positive")


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
        if not self.fund_id or not self.benchmark_id:
            raise SynthError("FundSpec: empty identifier")
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
        if not self.benchmark_id:
            raise SynthError("BenchmarkSpec: empty identifier")


def _planted_state(beta: float) -> FactorState:
    # A planted loading is significant exactly when it is nonzero; spec
    # magnitudes are chosen large enough that estimation agrees.
    return FactorState(beta=beta, significant=beta != 0.0)


def planted_style(regime: RegimeSpec) -> StyleBox:
    return StyleBox(
        size=classify_size(_planted_state(regime.beta_smb)),
        value=classify_value(_planted_state(regime.beta_hml)),
    )


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
    out: list[date] = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return tuple(out)


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
    rng = _rng(seed)
    mkt = rng.standard_normal(T) * vols.mkt_rf
    smb = rng.standard_normal(T) * vols.smb
    hml = rng.standard_normal(T) * vols.hml
    mom = rng.standard_normal(T) * vols.mom
    return FactorPanel(
        dates=weekday_calendar(start, T),
        mkt_rf=tuple(map(float, mkt)),
        smb=tuple(map(float, smb)),
        hml=tuple(map(float, hml)),
        rf=(float(rf_daily),) * T,
        mom=tuple(map(float, mom)),
    )


def _returns_from_loadings(
    factors: FactorPanel,
    span: slice,
    alpha: float,
    beta_mkt: float,
    beta_smb: float,
    beta_hml: float,
    beta_mom: float,
    eps: np.ndarray,
) -> np.ndarray:
    rf = np.asarray(factors.rf[span])
    r = (
        rf
        + alpha
        + beta_mkt * np.asarray(factors.mkt_rf[span])
        + beta_smb * np.asarray(factors.smb[span])
        + beta_hml * np.asarray(factors.hml[span])
        + beta_mom * np.asarray(factors.mom[span])
        + eps
    )
    return r


def _nav_from_returns(series_id: str, factors: FactorPanel, r: np.ndarray) -> NavSeries:
    if np.any(r <= -1.0):
        raise SynthError(f"{series_id}: generated return at or below -100%")
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
    rng = _rng(seed)
    chunks = []
    pos = 0
    for regime in spec.regimes:
        span = slice(pos, pos + regime.length)
        eps = (
            rng.standard_normal(regime.length) * regime.noise_sigma
            if regime.noise_sigma > 0.0
            else np.zeros(regime.length)
        )
        chunks.append(
            _returns_from_loadings(
                factors, span, regime.alpha, regime.beta_mkt,
                regime.beta_smb, regime.beta_hml, regime.beta_mom, eps,
            )
        )
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
    r = _returns_from_loadings(
        factors, slice(0, len(factors)), spec.alpha, spec.beta_mkt,
        spec.beta_smb, spec.beta_hml, spec.beta_mom, np.zeros(len(factors)),
    )
    return _nav_from_returns(spec.benchmark_id, factors, r)


@dataclass(frozen=True)
class SimSpec:
    """Parsed simulation spec: panel parameters plus all funds and benchmarks."""

    seed: int
    t: int
    start_date: date
    rf_daily: float
    vols: FactorVols
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


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise SynthError(f"{context}: missing required key {key!r}")
    return obj[key]


def parse_sim_spec(obj: dict) -> SimSpec:
    """Validate and convert a JSON simulation document."""
    if not isinstance(obj, dict):
        raise SynthError("simulation spec: top level must be an object")
    try:
        start = date.fromisoformat(obj.get("start_date", DEFAULT_START_DATE.isoformat()))
    except ValueError as exc:
        raise SynthError(f"simulation spec: bad start_date: {exc}") from exc

    vols_obj = obj.get("factor_vols", {})
    if not isinstance(vols_obj, dict):
        raise SynthError("simulation spec: factor_vols must be an object")
    vols = FactorVols(**{k: float(v) for k, v in vols_obj.items()
                         if k in ("mkt_rf", "smb", "hml", "mom")})

    benchmarks = []
    for b in _require(obj, "benchmarks", "simulation spec"):
        benchmarks.append(
            BenchmarkSpec(
                benchmark_id=str(_require(b, "benchmark_id", "benchmark")),
                alpha=float(b.get("alpha", 0.0)),
                beta_mkt=float(b.get("beta_mkt", 0.0)),
                beta_smb=float(b.get("beta_smb", 0.0)),
                beta_hml=float(b.get("beta_hml", 0.0)),
                beta_mom=float(b.get("beta_mom", 0.0)),
            )
        )

    funds = []
    for f in _require(obj, "funds", "simulation spec"):
        context = f"fund {f.get('fund_id', '?')}"
        regimes = []
        for rg in _require(f, "regimes", context):
            regimes.append(
                RegimeSpec(
                    length=int(_require(rg, "length", context)),
                    alpha=float(rg.get("alpha", 0.0)),
                    beta_mkt=float(rg.get("beta_mkt", 0.0)),
                    beta_smb=float(rg.get("beta_smb", 0.0)),
                    beta_hml=float(rg.get("beta_hml", 0.0)),
                    beta_mom=float(rg.get("beta_mom", 0.0)),
                    noise_sigma=float(rg.get("noise_sigma", 0.0)),
                )
            )
        funds.append(
            FundSpec(
                fund_id=str(_require(f, "fund_id", "fund")),
                benchmark_id=str(_require(f, "benchmark_id", context)),
                regimes=tuple(regimes),
            )
        )

    return SimSpec(
        seed=int(obj.get("seed", 0)),
        t=int(_require(obj, "t", "simulation spec")),
        start_date=start,
        rf_daily=float(obj.get("rf_daily", DEFAULT_RF_DAILY)),
        vols=vols,
        benchmarks=tuple(benchmarks),
        funds=tuple(funds),
    )


@dataclass(frozen=True)
class SimOutput:
    """Everything one simulation produced, in memory."""

    seed: int
    factors: FactorPanel
    benchmarks: tuple[NavSeries, ...]
    funds: tuple[NavSeries, ...]
    truths: tuple[PlantedTruth, ...]
    benchmark_map: BenchmarkMap = field(default_factory=BenchmarkMap)


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
        spec.t, children[0], vols=spec.vols,
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
