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
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from datetime import date
from itertools import filterfalse
from typing import TYPE_CHECKING

from . import tables

if TYPE_CHECKING:
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


def is_plain_id(text: str) -> bool:
    """Whether ``text`` may be a fund or benchmark id, which names files, rows and cells."""
    return (text.isprintable() and text == text.strip() and text not in ("", ".", "..")
            and "/" not in text and "\\" not in text)


def _check_dates_increasing(dates: tuple[date, ...], context: str) -> None:
    # One comparison a row, here and in the series checks, whose bounds
    # are floats because a float compares faster with a float than with
    # an int. A failure is told apart only once it is found.
    for a, b in zip(dates, dates[1:]):
        if not b > a:
            if b == a:
                raise MarketDataError(f"{context}: duplicate date {a.isoformat()}")
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
        if not is_plain_id(self.fund_id):
            raise MarketDataError(f"NavSeries: fund_id {self.fund_id!r} is not a plain file name")
        if len(self.dates) != len(self.navs):
            raise MarketDataError(f"NavSeries {self.fund_id}: dates/navs length mismatch")
        if len(self.navs) < 2:
            raise MarketDataError(f"NavSeries {self.fund_id}: fewer than 2 rows")
        _check_dates_increasing(self.dates, f"NavSeries {self.fund_id}")
        for d, v in zip(self.dates, self.navs):
            if not v > 0.0:
                raise MarketDataError(
                    f"NavSeries {self.fund_id}: nav {v!r} on {d.isoformat()} is not positive"
                )


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
        for name, col in data_columns(self).items():
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
        for row in self.entries.items():
            for value in row:
                if not is_plain_id(value):
                    raise MarketDataError(f"BenchmarkMap: id {value!r} is not a plain file name")

    def benchmark_for(self, fund_id: str) -> str | None:
        return self.entries.get(fund_id)


@dataclass(frozen=True)
class AlignedSample:
    """Regression-ready join of one fund, its benchmark and the factor panel.

    All vectors share the common calendar ``dates`` (the exact sorted
    intersection of the three input calendars) and have length ``n``.
    Its arrays, the :func:`data_columns` (``mom`` only when the factor
    panel has it), are read-only, and samples that :func:`align` built
    through one ``shared`` dict may hold the same ``dates`` tuple and the
    same benchmark and factor arrays; each holds its own ``r_fund``.
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
        for name, arr in data_columns(self).items():
            if arr.shape != (n,):
                raise MarketDataError(f"AlignedSample {self.fund_id}: {name} shape mismatch")
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.dates)

    @property
    def has_mom(self) -> bool:
        return self.mom is not None


def data_columns(record: FactorPanel | AlignedSample) -> dict[str, tuple | np.ndarray]:
    """Data columns of a factor panel or an aligned sample by field name, in field order.

    They are all fields but ``fund_id`` and ``dates``: ``mom`` only when
    present, and any other as it is, ``None`` included, so its checks fail.
    """
    skip = ("fund_id", "dates") if record.mom is not None else ("fund_id", "dates", "mom")
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}


def _read_rows(text: str, headers: list[list[str]], context: str) -> Iterator[list[str]]:
    """Header of a CSV, stripped and lower-cased, then each of its non-blank rows, read lazily.

    Every reading error raises MarketDataError here, at the row that
    shows it: an empty file, a header not in ``headers`` (naming the
    columns missing from the first, narrowest one), a row not as wide as
    the header, and a row csv cannot read, such as one with a cell over
    its process-wide field limit.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
        if first is None:
            raise MarketDataError(f"{context}: empty file")
        header = [h.strip().lower() for h in first]
        if header not in headers:
            expected = " or ".join(repr(",".join(h)) for h in headers)
            missing = [c for c in headers[0] if c not in header]
            raise MarketDataError(
                f"{context}: expected header {expected}, got {','.join(header)!r}"
                + (f" (missing column(s) {', '.join(missing)})" if missing else "")
            )
        yield header
        for row in reader:
            if not any(map(str.strip, row)):
                continue
            if len(row) != len(header):
                raise MarketDataError(f"{context}: expected {len(header)} columns, got {len(row)}")
            yield row
    except csv.Error as exc:
        raise MarketDataError(f"{context}: {exc}") from None


def _read_columns(text: str, headers: list[list[str]], context: str) -> dict[str, tuple]:
    """Columns, keyed by header name, of a CSV whose first column is ``date``.

    The other columns hold finite floats. Rows are read and parsed one
    at a time in file order, so the first bad row is the one reported.
    """
    rows = _read_rows(text, headers, context)
    header = next(rows)
    dates: list[date] = []
    columns: list[list[float]] = [[] for _ in header[1:]]
    for row in rows:
        dates.append(_parse_date(row[0], context))
        for column, cell in zip(columns, row[1:]):
            column.append(_parse_float(cell, context))
    return dict(zip(header, [tuple(dates), *map(tuple, columns)]))


def parse_nav_csv(text: str, fund_id: str) -> NavSeries:
    """Parse a two-column ``date,nav`` CSV into a :class:`NavSeries`."""
    columns = _read_columns(text, [["date", "nav"]], f"NAV file {fund_id}")
    return NavSeries(fund_id=fund_id, dates=columns["date"], navs=columns["nav"])


def compute_returns(nav: NavSeries) -> ReturnSeries:
    """Daily simple returns ``nav[t+1]/nav[t] - 1``, dated at the later date."""
    returns = tuple(b / a - 1.0 for a, b in zip(nav.navs, nav.navs[1:]))
    return ReturnSeries(series_id=nav.fund_id, dates=nav.dates[1:], returns=returns)


#: Factor file headers, without and with the optional momentum column.
_FACTOR_HEADERS = [
    ["date", "mkt_rf", "smb", "hml", "rf"],
    ["date", "mkt_rf", "smb", "hml", "mom", "rf"],
]


def parse_factor_csv(text: str) -> FactorPanel:
    """Parse the daily factor panel; the ``mom`` column is optional."""
    columns = _read_columns(text, _FACTOR_HEADERS, "factor file")
    return FactorPanel(dates=columns.pop("date"), **columns)


def parse_benchmark_map_csv(text: str) -> BenchmarkMap:
    """Parse the ``fund_id,benchmark_id`` map file; its cells are ids as written."""
    rows = _read_rows(text, [["fund_id", "benchmark_id"]], "benchmark map")
    next(rows)
    entries: dict[str, str] = {}
    for fund_id, bench_id in rows:
        if fund_id in entries:
            raise MarketDataError(f"benchmark map: duplicate fund_id {fund_id!r}")
        entries[fund_id] = bench_id
    return BenchmarkMap(entries=entries)


def _csv_text(header: list[str], dates: tuple[date, ...], values: list, iso: dict | None) -> str:
    """CSV text of a date column and float columns, each built in one pass; ``iso`` as below."""
    iso = {} if iso is None else iso
    new = list(filterfalse(iso.__contains__, dates))
    iso.update(zip(new, map(date.isoformat, new)))
    # repr of a Python float is the shortest text that round-trips exactly.
    columns = [map(iso.__getitem__, dates), *(map(repr, map(float, column)) for column in values)]
    return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


def write_nav_csv(nav: NavSeries, iso: dict | None = None) -> str:
    """Serialize to the ``date,nav`` format. Floats round-trip exactly.

    ``iso`` maps dates to their ISO text and gains the dates it lacked,
    so that a caller writing many files on one calendar formats each
    date once.
    """
    return _csv_text(["date", "nav"], nav.dates, [nav.navs], iso)


def write_factor_csv(panel: FactorPanel, iso: dict | None = None) -> str:
    """Serialize a factor panel, emitting ``mom`` only when present; ``iso`` as for NAVs."""
    header = _FACTOR_HEADERS[panel.has_mom]
    return _csv_text(header, panel.dates, [getattr(panel, name) for name in header[1:]], iso)


def write_benchmark_map_csv(bmap: BenchmarkMap) -> str:
    return tables.write_csv([("fund_id", "benchmark_id"), *sorted(bmap.entries.items())])


def align(
    fund: ReturnSeries, bench: ReturnSeries, factors: FactorPanel, shared: dict | None = None
) -> AlignedSample:
    """Restrict all series to the exact intersection of their calendars.

    No forward-filling: a date survives only if the fund, the benchmark
    and the factor panel all observed it. Raises when the intersection
    is shorter than :data:`MIN_ALIGNED_OBS`.

    ``shared`` is a dict the caller keeps for the samples of one run.
    Samples aligned through it on one calendar, with the same ``bench``
    and ``factors`` objects, share their ``dates`` and every array but
    their own ``r_fund``.
    """
    common = set(fund.dates) & set(bench.dates) & set(factors.dates)
    if len(common) < MIN_ALIGNED_OBS:
        raise MarketDataError(
            f"align {fund.series_id}: common calendar has {len(common)} observations, "
            f"need at least {MIN_ALIGNED_OBS}"
        )
    dates = tuple(sorted(common))
    # Imported here, so that reading and writing files loads no numpy.
    import numpy as np

    def _take(src_dates: tuple[date, ...], values) -> np.ndarray:
        lookup = {d: v for d, v in zip(src_dates, values)}
        return np.array([lookup[d] for d in dates], dtype=float)

    key = (id(bench), id(factors), dates)
    if shared is not None and key in shared:
        columns = shared[key][0]
    else:
        columns = {
            "dates": dates,
            "r_bench": _take(bench.dates, bench.returns),
            **{name: _take(factors.dates, col) for name, col in data_columns(factors).items()},
        }
        if shared is not None:
            # The entry holds bench and factors, so no other object takes their ids.
            shared[key] = (columns, bench, factors)
    return AlignedSample(fund_id=fund.series_id, r_fund=_take(fund.dates, fund.returns), **columns)
