"""Generated inputs for the file readers, ``analyze`` and the break search.

Each reader must turn any text into its value or a ``MarketDataError``,
and each writer's output must read back as the value written.
``analyze``, run in process on a valid input tree with one file
mutated, must exit with one of its stable codes and print no traceback.
A group of small funds searched in lockstep must give each fund the
partitions of the unpruned reference bit for bit, and the least totals
of the exhaustive enumeration. The examples are generated with a fixed
seed and no example database, so a run sees the same inputs every time.
"""

import io
import json
import logging
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    exhaustive_best_partition,
    packed_ssr_table,
    reference_factor_csv,
    reference_nav_csv,
    reference_partitions,
)

from fundshift import breaks
from fundshift.breaks import optimal_partitions, ssr_table_from_arrays
from fundshift.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_IO, EXIT_OK, main
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


#: Floats whose text is easy to get wrong: signed zeros, subnormals and
#: the largest magnitudes, beside any finite float.
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308,
                               1.7976931348623157e308])


def written_floats(positive: bool):
    """Finite floats, each a Python float or a numpy float64."""
    values = FINITE | EDGE_FLOATS
    if positive:
        values = values.filter(lambda v: v > 0)
    return st.tuples(values, st.booleans()).map(lambda vb: np.float64(vb[0]) if vb[1] else vb[0])


#: Calendars with years below 1000, whose ISO text is zero-padded, or any year.
EARLY_DATES = st.dates(max_value=date(999, 12, 31)) | st.dates()


@st.composite
def written_series(draw):
    """A NAV series, a factor panel, and a date map holding some of their dates."""
    dates = st.lists(EARLY_DATES, max_size=20, unique=True).map(lambda ds: tuple(sorted(ds)))
    nav_dates = draw(dates.filter(lambda ds: len(ds) >= 2))
    navs = draw(st.lists(written_floats(True), min_size=len(nav_dates),
                         max_size=len(nav_dates)))
    nav = NavSeries(fund_id="F1", dates=nav_dates, navs=tuple(navs))
    panel_dates = draw(dates)
    column = st.lists(written_floats(False), min_size=len(panel_dates),
                      max_size=len(panel_dates)).map(tuple)
    panel = FactorPanel(dates=panel_dates, mkt_rf=draw(column), smb=draw(column),
                        hml=draw(column), rf=draw(column), mom=draw(st.none() | column))
    known = draw(st.lists(st.sampled_from(nav_dates + panel_dates), unique=True))
    return nav, panel, {d: d.isoformat() for d in known}


@generated
@given(written_series())
def test_writers_equal_the_row_wise_reference_with_and_without_a_date_map(series):
    # The map may lack some dates; the writers add them, each with its
    # ISO text, so that a second file on the calendar finds them.
    nav, panel, iso = series
    known = set(iso)
    assert write_nav_csv(nav) == write_nav_csv(nav, iso) == reference_nav_csv(nav)
    assert write_factor_csv(panel) == write_factor_csv(panel, iso) == reference_factor_csv(panel)
    assert write_nav_csv(nav, iso) == reference_nav_csv(nav)
    assert iso == {d: d.isoformat() for d in {*known, *nav.dates, *panel.dates}}


@st.composite
def search_groups(draw):
    """1-4 funds of one (n <= 40, h, k): exact fits with planted breaks, noise, zeros.

    The regressors are an intercept, then Gaussian or small-integer
    columns; integer columns give windows whose Gram is singular and
    funds whose partitions tie. The search runs 1-12 row chains, which
    caps at h.
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
    return h, funds, draw(st.integers(1, 12))


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
    h, funds, chains = group
    n = funds[0][1].shape[0]
    most = n // h - 1
    with mock.patch.object(breaks, "_CHAINS", chains):
        searched = optimal_partitions([ssr_table_from_arrays(y, X, h) for y, X in funds], most)
    for (y, X), parts in zip(funds, searched, strict=True):
        packed = packed_ssr_table(y, X, h)
        got = [(p.break_indices, p.total_ssr.hex()) for p in parts]
        assert got == [(p.break_indices, p.total_ssr.hex()) for p in reference_partitions(packed, most)]
        for vector, total in got[1:4]:
            enumerated, enumerated_total = exhaustive_best_partition(packed, len(vector))
            assert total == enumerated_total.hex() == folded_total(packed, vector).hex()


#: Three 240-day funds on one benchmark, two of them with a planted break.
MUTATION_SPEC = {
    "seed": 5,
    "t": 240,
    "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
    "funds": [
        {"fund_id": fund_id, "benchmark_id": "B1", "regimes": [
            {"length": 120, "beta_mkt": 1.0, "beta_smb": first, "noise_sigma": 0.002},
            {"length": 120, "beta_mkt": 1.0, "beta_smb": second, "noise_sigma": 0.002},
        ]}
        for fund_id, first, second in (("F1", 0.8, -0.8), ("F2", 0.5, 0.5), ("F3", 0.0, 0.6))
    ],
}

MUTATIONS = ["truncate", "duplicate_row", "swap_columns", "insert_bytes", "overlong_field"]


@pytest.fixture(scope="module")
def input_tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mutations")
    (root / "spec.json").write_text(json.dumps(MUTATION_SPEC), encoding="utf-8")
    assert main(["simulate", "--spec", str(root / "spec.json"), "--out", str(root / "tree")]) == 0
    return root / "tree"


def mutate(data: bytes, kind: str, draw) -> bytes:
    """``data`` with one mutation of ``kind``, its place and bytes drawn by ``draw``."""
    lines = data.split(b"\n")
    line = draw(st.integers(0, len(lines) - 2))  # the text ends in a newline
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "duplicate_row":
        return b"\n".join(lines[: line + 1] + lines[line:])
    if kind == "insert_bytes":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    fields = [row.split(b",") for row in lines]
    width = len(fields[0])
    if kind == "swap_columns":
        a, b = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
        for row in fields:
            if len(row) == width:
                row[a], row[b] = row[b], row[a]
    else:  # overlong_field: longer than the csv module's 131,072-character field limit
        fields[line][draw(st.integers(0, width - 1))] = b"7" * 140_000
    return b"\n".join(b",".join(row) for row in fields)


@pytest.mark.parametrize(
    "name", ["nav/F2.csv", "factors.csv", "benchmark_map.csv", "bench_nav/B1.csv"]
)
def test_analyze_survives_a_mutated_input_file(input_tree, name):
    # A mutated fund NAV file may only cost that fund; any other file may
    # also stop the run with a stable exit code. Nothing escapes.
    original = (input_tree / name).read_bytes()
    funds = sorted(path.stem for path in (input_tree / "nav").iterdir())

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(st.sampled_from(MUTATIONS), st.data())
    def check(kind, data):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(input_tree, tree)
            (tree / name).write_bytes(mutate(original, kind, data.draw))
            records = []
            handler = logging.Handler()
            handler.emit = records.append
            logging.getLogger("fundshift").addHandler(handler)
            printed = io.StringIO()
            try:
                with redirect_stdout(printed), redirect_stderr(printed):
                    code = main([
                        "analyze", "--nav", str(tree / "nav"), "--factors",
                        str(tree / "factors.csv"), "--bench-map", str(tree / "benchmark_map.csv"),
                        "--bench-nav", str(tree / "bench_nav"), "--out", str(tree / "report.json"),
                    ])
            finally:
                logging.getLogger("fundshift").removeHandler(handler)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_EMPTY), kind
            assert "Traceback" not in printed.getvalue(), kind
            assert not any(record.exc_info for record in records), kind
            if name.startswith("nav/"):
                assert code == EXIT_OK, kind
                report = json.loads((tree / "report.json").read_text(encoding="utf-8"))
                analyzed = {fund["fund_id"] for fund in report["funds"]}
                assert analyzed >= set(funds) - {Path(name).stem}, kind
                assert {s["fund_id"] for s in report["skipped"]} <= {Path(name).stem}, kind

    check()
