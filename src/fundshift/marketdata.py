"""NAV, benchmark and factor ingestion.

Parses the three CSV formats used by the analysis pipeline (``date,nav``
per-fund files, a ``date,mkt_rf,smb,hml[,mom],rf`` factor panel, and a
``fund_id,benchmark_id`` map), computes daily simple returns from NAVs,
and joins fund / benchmark / factor series onto their common trading
calendar so the regression layer sees equal-length vectors.

Dates are ISO-8601. Returns are daily decimal fractions. NAVs must be
total-return adjusted upstream; no dividend handling happens here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

#: Alignments shorter than this are rejected: per-regime OLS with four
#: regressors on fewer points is statistically meaningless.
MIN_ALIGNED_OBS = 60


class MarketDataError(ValueError):
    """Malformed input file or an unusable series."""


def _parse_date(text: str, context: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError as exc:
        raise MarketDataError(f"{context}: malformed date {text!r}") from exc


def _parse_float(text: str, context: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise MarketDataError(f"{context}: non-numeric value {text!r}") from exc
    if not math.isfinite(value):
        raise MarketDataError(f"{context}: non-finite value {text!r}")
    return value


def _check_dates_increasing(dates: tuple[date, ...], context: str) -> None:
    for a, b in zip(dates, dates[1:]):
        if b == a:
            raise MarketDataError(f"{context}: duplicate date {a.isoformat()}")
        if b < a:
            raise MarketDataError(
                f"{context}: dates out of order ({b.isoformat()} after {a.isoformat()})"
            )


@dataclass(frozen=True)
class NavSeries:
    """Daily NAV history of one fund (or benchmark)."""

    fund_id: str
    dates: tuple[date, ...]
    navs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.fund_id:
            raise MarketDataError("NavSeries: empty fund_id")
        if len(self.dates) != len(self.navs):
            raise MarketDataError(f"NavSeries {self.fund_id}: dates/navs length mismatch")
        if len(self.navs) < 2:
            raise MarketDataError(f"NavSeries {self.fund_id}: fewer than 2 rows")
        _check_dates_increasing(self.dates, f"NavSeries {self.fund_id}")
        for d, v in zip(self.dates, self.navs):
            if not v > 0:
                raise MarketDataError(
                    f"NavSeries {self.fund_id}: nav {v!r} on {d.isoformat()} is not positive"
                )

    def __len__(self) -> int:
        return len(self.navs)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily simple returns, each dated at the day it accrued."""

    series_id: str
    dates: tuple[date, ...]
    returns: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.returns):
            raise MarketDataError(f"ReturnSeries {self.series_id}: length mismatch")
        _check_dates_increasing(self.dates, f"ReturnSeries {self.series_id}")
        for d, r in zip(self.dates, self.returns):
            if not r > -1.0:
                raise MarketDataError(
                    f"ReturnSeries {self.series_id}: return {r!r} on {d.isoformat()} <= -1"
                )

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class FactorPanel:
    """Daily factor returns (``mkt_rf``, ``smb``, ``hml``, optional ``mom``) and risk-free rate."""

    dates: tuple[date, ...]
    mkt_rf: tuple[float, ...]
    smb: tuple[float, ...]
    hml: tuple[float, ...]
    rf: tuple[float, ...]
    mom: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.dates)
        cols = {"mkt_rf": self.mkt_rf, "smb": self.smb, "hml": self.hml, "rf": self.rf}
        if self.mom is not None:
            cols["mom"] = self.mom
        for name, col in cols.items():
            if len(col) != n:
                raise MarketDataError(f"FactorPanel: column {name} length mismatch")
        _check_dates_increasing(self.dates, "FactorPanel")

    @property
    def has_mom(self) -> bool:
        return self.mom is not None

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class BenchmarkMap:
    """fund_id -> benchmark_id associations."""

    entries: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for fund_id, bench_id in self.entries.items():
            if not fund_id or not bench_id:
                raise MarketDataError("BenchmarkMap: empty identifier")

    def benchmark_for(self, fund_id: str) -> str | None:
        return self.entries.get(fund_id)


@dataclass(frozen=True)
class AlignedSample:
    """Regression-ready join of one fund, its benchmark and the factor panel.

    All vectors share the common calendar ``dates`` (the exact sorted
    intersection of the three input calendars) and have length ``n``.
    Arrays are read-only.
    """

    fund_id: str
    dates: tuple[date, ...]
    r_fund: np.ndarray
    r_bench: np.ndarray
    mkt_rf: np.ndarray
    smb: np.ndarray
    hml: np.ndarray
    rf: np.ndarray
    mom: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.dates)
        for name in ("r_fund", "r_bench", "mkt_rf", "smb", "hml", "rf"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise MarketDataError(f"AlignedSample {self.fund_id}: {name} shape mismatch")
            arr.flags.writeable = False
        if self.mom is not None:
            if self.mom.shape != (n,):
                raise MarketDataError(f"AlignedSample {self.fund_id}: mom shape mismatch")
            self.mom.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def has_mom(self) -> bool:
        return self.mom is not None


def _read_rows(text: str, expected_header: list[str], context: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MarketDataError(f"{context}: empty file") from None
    header = [h.strip().lower() for h in header]
    if header != expected_header:
        raise MarketDataError(
            f"{context}: expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
        )
    return [row for row in reader if row and any(cell.strip() for cell in row)]


def parse_nav_csv(text: str, fund_id: str) -> NavSeries:
    """Parse a two-column ``date,nav`` CSV into a :class:`NavSeries`."""
    rows = _read_rows(text, ["date", "nav"], f"NAV file {fund_id}")
    dates, navs = [], []
    for row in rows:
        if len(row) != 2:
            raise MarketDataError(f"NAV file {fund_id}: expected 2 columns, got {len(row)}")
        dates.append(_parse_date(row[0], f"NAV file {fund_id}"))
        navs.append(_parse_float(row[1], f"NAV file {fund_id}"))
    return NavSeries(fund_id=fund_id, dates=tuple(dates), navs=tuple(navs))


def compute_returns(nav: NavSeries) -> ReturnSeries:
    """Daily simple returns ``nav[t+1]/nav[t] - 1``, dated at the later date."""
    returns = tuple(b / a - 1.0 for a, b in zip(nav.navs, nav.navs[1:]))
    return ReturnSeries(series_id=nav.fund_id, dates=nav.dates[1:], returns=returns)


#: Factor file headers, with and without the optional momentum column.
_FACTOR_HEADER_MOM = ["date", "mkt_rf", "smb", "hml", "mom", "rf"]
_FACTOR_HEADER = ["date", "mkt_rf", "smb", "hml", "rf"]


def parse_factor_csv(text: str) -> FactorPanel:
    """Parse the daily factor panel; the ``mom`` column is optional."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise MarketDataError("factor file: empty file") from None
    if header == _FACTOR_HEADER_MOM:
        has_mom = True
    elif header == _FACTOR_HEADER:
        has_mom = False
    else:
        missing = [c for c in _FACTOR_HEADER if c not in header]
        if missing:
            raise MarketDataError(f"factor file: missing column(s) {', '.join(missing)}")
        raise MarketDataError(f"factor file: unexpected header {','.join(header)!r}")

    ncol = 6 if has_mom else 5
    dates: list[date] = []
    cols: list[list[float]] = [[] for _ in range(ncol - 1)]
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != ncol:
            raise MarketDataError(f"factor file: expected {ncol} columns, got {len(row)}")
        dates.append(_parse_date(row[0], "factor file"))
        for k, cell in enumerate(row[1:]):
            cols[k].append(_parse_float(cell, "factor file"))
    if has_mom:
        mkt, smb, hml, mom, rf = cols
        return FactorPanel(
            dates=tuple(dates), mkt_rf=tuple(mkt), smb=tuple(smb),
            hml=tuple(hml), rf=tuple(rf), mom=tuple(mom),
        )
    mkt, smb, hml, rf = cols
    return FactorPanel(
        dates=tuple(dates), mkt_rf=tuple(mkt), smb=tuple(smb),
        hml=tuple(hml), rf=tuple(rf),
    )


def parse_benchmark_map_csv(text: str) -> BenchmarkMap:
    """Parse the ``fund_id,benchmark_id`` map file."""
    rows = _read_rows(text, ["fund_id", "benchmark_id"], "benchmark map")
    entries: dict[str, str] = {}
    for row in rows:
        if len(row) != 2:
            raise MarketDataError(f"benchmark map: expected 2 columns, got {len(row)}")
        fund_id, bench_id = row[0].strip(), row[1].strip()
        if fund_id in entries:
            raise MarketDataError(f"benchmark map: duplicate fund_id {fund_id!r}")
        # The id names the benchmark's NAV file inside the benchmark directory.
        if bench_id in (".", "..") or "/" in bench_id or "\\" in bench_id:
            raise MarketDataError(
                f"benchmark map: benchmark_id {bench_id!r} is not a plain file name"
            )
        entries[fund_id] = bench_id
    return BenchmarkMap(entries=entries)


def _ftext(value: float) -> str:
    # repr of a Python float is the shortest text that round-trips exactly.
    return repr(float(value))


def write_nav_csv(nav: NavSeries) -> str:
    """Serialize to the ``date,nav`` format. Floats round-trip exactly."""
    lines = ["date,nav"]
    lines += [f"{d.isoformat()},{_ftext(v)}" for d, v in zip(nav.dates, nav.navs)]
    return "\n".join(lines) + "\n"


def write_factor_csv(panel: FactorPanel) -> str:
    """Serialize a factor panel, emitting ``mom`` only when present."""
    if panel.has_mom:
        lines = [",".join(_FACTOR_HEADER_MOM)]
        for i, d in enumerate(panel.dates):
            lines.append(
                f"{d.isoformat()},{_ftext(panel.mkt_rf[i])},{_ftext(panel.smb[i])},"
                f"{_ftext(panel.hml[i])},{_ftext(panel.mom[i])},{_ftext(panel.rf[i])}"
            )
    else:
        lines = [",".join(_FACTOR_HEADER)]
        for i, d in enumerate(panel.dates):
            lines.append(
                f"{d.isoformat()},{_ftext(panel.mkt_rf[i])},{_ftext(panel.smb[i])},"
                f"{_ftext(panel.hml[i])},{_ftext(panel.rf[i])}"
            )
    return "\n".join(lines) + "\n"


def write_benchmark_map_csv(bmap: BenchmarkMap) -> str:
    lines = ["fund_id,benchmark_id"]
    lines += [f"{f},{b}" for f, b in sorted(bmap.entries.items())]
    return "\n".join(lines) + "\n"


def align(
    fund: ReturnSeries,
    bench: ReturnSeries,
    factors: FactorPanel,
    min_obs: int = MIN_ALIGNED_OBS,
) -> AlignedSample:
    """Restrict all series to the exact intersection of their calendars.

    No forward-filling: a date survives only if the fund, the benchmark
    and the factor panel all observed it. Raises when the intersection
    is shorter than ``min_obs``.
    """
    common = set(fund.dates) & set(bench.dates) & set(factors.dates)
    if len(common) < min_obs:
        raise MarketDataError(
            f"align {fund.series_id}: common calendar has {len(common)} observations, "
            f"need at least {min_obs}"
        )
    dates = tuple(sorted(common))

    def _take(src_dates: tuple[date, ...], values) -> np.ndarray:
        lookup = {d: v for d, v in zip(src_dates, values)}
        return np.array([lookup[d] for d in dates], dtype=float)

    mom = _take(factors.dates, factors.mom) if factors.has_mom else None
    return AlignedSample(
        fund_id=fund.series_id,
        dates=dates,
        r_fund=_take(fund.dates, fund.returns),
        r_bench=_take(bench.dates, bench.returns),
        mkt_rf=_take(factors.dates, factors.mkt_rf),
        smb=_take(factors.dates, factors.smb),
        hml=_take(factors.dates, factors.hml),
        rf=_take(factors.dates, factors.rf),
        mom=mom,
    )
