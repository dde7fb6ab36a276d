"""Generated inputs for the file readers.

Each reader must turn any text into its value or a ``MarketDataError``,
and each writer's output must read back as the value written. The
examples are generated with a fixed seed and no example database, so a
run sees the same inputs every time.
"""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundshift.marketdata import (
    BenchmarkMap,
    FactorPanel,
    MarketDataError,
    NavSeries,
    is_plain_id,
    parse_benchmark_map_csv,
    parse_factor_csv,
    parse_nav_csv,
    write_benchmark_map_csv,
    write_factor_csv,
    write_nav_csv,
)

generated = settings(derandomize=True, database=None, max_examples=100, deadline=None)

#: Cells a hand-edited file may hold: text of any kind, and near misses
#: of dates and numbers.
CELLS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0", "-1", "1_0", "0x10", "2024-02-30",
                     "20240102", '"', '"a,b"', "a\rb", "\x00", " "]),
    st.floats().map(repr),
    st.dates().map(date.isoformat),
)


def csv_text(headers: list[str]):
    """Text that starts like a file of one of ``headers`` and then goes astray."""
    header = st.one_of(st.sampled_from(headers), st.text(max_size=20))
    rows = st.lists(st.lists(CELLS, max_size=7).map(",".join), max_size=6)
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    return st.builds(lambda h, r, nl: nl.join([h, *r]), header, rows, newline)


def reads_or_rejects(reader, text: str) -> None:
    try:
        reader(text)
    except MarketDataError:
        pass


@pytest.mark.parametrize(
    "reader, headers",
    [
        (lambda text: parse_nav_csv(text, "F1"), ["date,nav"]),
        (parse_factor_csv, ["date,mkt_rf,smb,hml,rf", "date,mkt_rf,smb,hml,mom,rf"]),
        (parse_benchmark_map_csv, ["fund_id,benchmark_id"]),
    ],
    ids=["nav", "factors", "benchmark-map"],
)
def test_readers_raise_only_market_data_error(reader, headers):
    @generated
    @given(st.one_of(st.text(), csv_text(headers)))
    def check(text):
        reads_or_rejects(reader, text)

    check()


PLAIN_IDS = st.text(min_size=1, max_size=10).filter(is_plain_id)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def calendar(min_size: int = 0):
    return st.lists(st.dates(), min_size=min_size, max_size=20, unique=True).map(
        lambda ds: tuple(sorted(ds))
    )


@st.composite
def nav_series(draw):
    dates = draw(calendar(min_size=2))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    navs = draw(st.lists(positive, min_size=len(dates), max_size=len(dates)))
    return NavSeries(fund_id=draw(PLAIN_IDS), dates=dates, navs=tuple(navs))


@st.composite
def factor_panels(draw):
    dates = draw(calendar())
    column = st.lists(FINITE, min_size=len(dates), max_size=len(dates)).map(tuple)
    mom = draw(st.none() | column)
    return FactorPanel(dates=dates, mkt_rf=draw(column), smb=draw(column), hml=draw(column),
                       rf=draw(column), mom=mom)


@generated
@given(nav_series())
def test_nav_round_trip(nav):
    assert parse_nav_csv(write_nav_csv(nav), nav.fund_id) == nav


@generated
@given(factor_panels())
def test_factor_round_trip_in_both_layouts(panel):
    assert parse_factor_csv(write_factor_csv(panel)) == panel


@generated
@given(st.dictionaries(PLAIN_IDS, PLAIN_IDS, max_size=8))
def test_benchmark_map_round_trip(entries):
    bmap = BenchmarkMap(entries=entries)
    assert parse_benchmark_map_csv(write_benchmark_map_csv(bmap)) == bmap
