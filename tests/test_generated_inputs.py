"""Generated inputs for the file readers and the break search.

Each reader must turn any text into its value or a ``MarketDataError``,
and each writer's output must read back as the value written. A group
of small funds searched in lockstep must give each fund the partitions
of the unpruned reference bit for bit, and the least totals of the
exhaustive enumeration. The examples are generated with a fixed seed
and no example database, so a run sees the same inputs every time.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exhaustive_best_partition, packed_ssr_table, reference_partitions

from fundshift.breaks import optimal_partitions, ssr_table_from_arrays
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


@st.composite
def search_groups(draw):
    """1-4 funds of one (n <= 40, h, k): exact fits with planted breaks, noise, zeros.

    The regressors are an intercept, then Gaussian or small-integer
    columns; integer columns give windows whose Gram is singular and
    funds whose partitions tie.
    """
    k = draw(st.integers(1, 3))
    h = draw(st.integers(k + 1, 10))
    n = draw(st.integers(2 * h, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    funds = []
    for kind in draw(st.lists(st.sampled_from(["exact", "noise", "zero"]), min_size=1,
                              max_size=4)):
        X = np.ones((n, k))
        if k > 1:
            X[:, 1:] = (rng.integers(-2, 3, (n, k - 1)) if draw(st.booleans())
                        else rng.normal(0, 0.01, (n, k - 1)))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True)))
        beta = np.repeat(rng.normal(size=(len(cuts) + 1, k)), np.diff([0, *cuts, n]), axis=0)
        y = np.einsum("tk,tk->t", X, beta) * 10.0 ** draw(st.integers(-4, 2))
        if kind == "noise":
            y += rng.normal(0, 0.01, n)
        funds.append((np.zeros(n) if kind == "zero" else y, X))
    return h, funds


def folded_total(table, breaks: tuple[int, ...]) -> float:
    """Total SSR of a break vector, folded right to left as the search sums it."""
    bounds = (-1, *breaks, table.n - 1)
    total = 0.0
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        total = table.ssr(a + 1, b) + total
    return total


@generated
@given(search_groups())
def test_group_search_equals_the_reference_and_the_enumeration(group):
    # The search's vector is a global minimizer, but not always the
    # earliest one: where rounding makes a later vector's total tie with
    # an earlier one's, enumeration keeps the earlier vector.
    h, funds = group
    n = funds[0][1].shape[0]
    most = n // h - 1
    searched = optimal_partitions([ssr_table_from_arrays(y, X, h) for y, X in funds], most)
    for (y, X), parts in zip(funds, searched, strict=True):
        packed = packed_ssr_table(y, X, h)
        got = [(p.break_indices, p.total_ssr.hex()) for p in parts]
        assert got == [(p.break_indices, p.total_ssr.hex()) for p in reference_partitions(packed, most)]
        for breaks, total in got[1:4]:
            enumerated, enumerated_total = exhaustive_best_partition(packed, len(breaks))
            assert total == enumerated_total.hex() == folded_total(packed, breaks).hex()
