"""Parsing, return computation and calendar alignment."""

from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from oracles import weekdays

from fundshift.marketdata import (
    AlignedSample,
    BenchmarkMap,
    FactorPanel,
    MarketDataError,
    NavSeries,
    ReturnSeries,
    align,
    compute_returns,
    data_columns,
    parse_benchmark_map_csv,
    parse_factor_csv,
    parse_nav_csv,
    write_benchmark_map_csv,
    write_factor_csv,
    write_nav_csv,
)


def nav_csv(rows: list[tuple[str, float]]) -> str:
    return "date,nav\n" + "\n".join(f"{d},{v}" for d, v in rows) + "\n"


def test_parse_nav_two_point_series():
    series = parse_nav_csv("date,nav\n2006-01-02,100.0\n2006-01-03,101.0", "F1")
    assert series.fund_id == "F1"
    assert series.navs == (100.0, 101.0)
    assert series.dates == (date(2006, 1, 2), date(2006, 1, 3))


def test_parse_nav_duplicate_date_rejected():
    text = nav_csv([("2006-01-02", 100.0), ("2006-01-03", 101.0), ("2006-01-03", 102.0)])
    with pytest.raises(MarketDataError, match="duplicate date"):
        parse_nav_csv(text, "F1")


def test_parse_nav_decreasing_date_rejected():
    text = nav_csv([("2006-01-03", 100.0), ("2006-01-02", 101.0)])
    with pytest.raises(MarketDataError, match="out of order"):
        parse_nav_csv(text, "F1")


def test_parse_nav_nonpositive_nav_rejected():
    text = nav_csv([("2006-01-02", 100.0), ("2006-01-03", 0.0)])
    with pytest.raises(MarketDataError, match="not positive"):
        parse_nav_csv(text, "F1")


def test_parse_nav_needs_two_rows():
    with pytest.raises(MarketDataError, match="fewer than 2"):
        parse_nav_csv("date,nav\n2006-01-02,100.0", "F1")


def test_parse_nav_malformed_date():
    with pytest.raises(MarketDataError, match="malformed date"):
        parse_nav_csv("date,nav\n2006/01/02,100.0\n2006-01-03,101.0", "F1")


def test_parse_nav_nonnumeric_value():
    with pytest.raises(MarketDataError, match="non-numeric"):
        parse_nav_csv("date,nav\n2006-01-02,abc\n2006-01-03,101.0", "F1")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_parse_non_finite_value_rejected(value):
    with pytest.raises(MarketDataError, match=f"NAV file F1: non-finite value '{value}'"):
        parse_nav_csv(f"date,nav\n2006-01-02,100.0\n2006-01-03,{value}", "F1")
    with pytest.raises(MarketDataError, match=f"factor file: non-finite value '{value}'"):
        parse_factor_csv(f"date,mkt_rf,smb,hml,rf\n2006-01-02,0.001,{value},0.0,0.0002\n")


def test_parse_nav_wrong_header():
    with pytest.raises(MarketDataError, match="expected header"):
        parse_nav_csv("day,price\n2006-01-02,100.0\n2006-01-03,101.0", "F1")


def test_parse_nav_full_sample_window_accepts_every_row():
    # A file spanning January 2006 to June 2023 parses with no row rejected.
    dates = []
    d = date(2006, 1, 2)
    while d <= date(2023, 6, 30):
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    text = nav_csv([(dd.isoformat(), 100.0 + i * 0.01) for i, dd in enumerate(dates)])
    series = parse_nav_csv(text, "F1")
    assert len(series.navs) == len(dates)
    assert series.dates[0] == date(2006, 1, 2)
    assert series.dates[-1] == date(2023, 6, 30)


def test_compute_returns_hand_arithmetic():
    series = NavSeries(
        fund_id="F1",
        dates=weekdays(2),
        navs=(100.0, 101.0),
    )
    rs = compute_returns(series)
    assert rs.returns == pytest.approx([0.01], abs=1e-15)
    assert rs.dates == (series.dates[1],)


def test_compute_returns_constant_series():
    series = NavSeries(
        fund_id="F1",
        dates=weekdays(3),
        navs=(100.0, 100.0, 100.0),
    )
    assert compute_returns(series).returns == (0.0, 0.0)


def test_compute_returns_down_then_up():
    series = NavSeries(
        fund_id="F1",
        dates=weekdays(3),
        navs=(100.0, 99.0, 108.9),
    )
    rs = compute_returns(series)
    assert rs.returns == pytest.approx([-0.01, 0.10], abs=1e-12)


def test_nav_reconstruction_round_trip():
    # NAV_0 * prod(1 + r_t) reproduces the final NAV to 1e-10 relative.
    rng = np.random.default_rng(11)
    navs = [100.0]
    for _ in range(500):
        navs.append(navs[-1] * (1.0 + rng.normal(0.0003, 0.01)))
    series = NavSeries(
        fund_id="F1",
        dates=weekdays(len(navs)),
        navs=tuple(navs),
    )
    rs = compute_returns(series)
    rebuilt = navs[0] * np.prod(1.0 + np.array(rs.returns))
    assert abs(rebuilt - navs[-1]) <= 1e-10 * abs(navs[-1])


def test_parse_factor_csv_with_mom():
    text = (
        "date,mkt_rf,smb,hml,mom,rf\n"
        "2006-01-02,0.001,0.0002,-0.0001,0.0003,0.0002\n"
    )
    panel = parse_factor_csv(text)
    assert len(panel) == 1
    assert panel.has_mom
    assert panel.mkt_rf == (0.001,)
    assert panel.mom == (0.0003,)


def test_parse_factor_csv_without_mom():
    text = "date,mkt_rf,smb,hml,rf\n2006-01-02,0.001,0.0002,-0.0001,0.0002\n"
    panel = parse_factor_csv(text)
    assert not panel.has_mom
    assert panel.mom is None


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda t: parse_nav_csv(t, "F1"),
         "date,nav\n2006-01-02,100.0\n2006-01-03,101.0,7\n",
         "NAV file F1: expected 2 columns, got 3"),
        (parse_factor_csv,
         "date,mkt_rf,smb,hml,rf\n2006-01-02,0.001,0.0002,-0.0001,0.0002\n"
         "2006-01-03,0.001,0.0002,0.0002\n",
         "factor file: expected 5 columns, got 4"),
        (parse_benchmark_map_csv,
         "fund_id,benchmark_id\nF1,B1\n\nF2\n",
         "benchmark map: expected 2 columns, got 1"),
    ],
    ids=["nav", "factor", "benchmark_map"],
)
def test_row_of_wrong_width_is_rejected(parse, text, message):
    with pytest.raises(MarketDataError) as exc:
        parse(text)
    assert str(exc.value) == message


#: A cell longer than the csv module's 131,072-character field limit.
OVERLONG = "9" * 140_000
FACTOR_HEADER = "date,mkt_rf,smb,hml,rf\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda t: parse_nav_csv(t, "F1"),
         "date,nav\n2006-01-02,100.0\n2006-01-03,101.0,7\n2006-13-01,102.0\n",
         "NAV file F1: expected 2 columns, got 3"),
        (lambda t: parse_nav_csv(t, "F1"),
         "date,nav\n2006-01-02,100.0\n2006-13-01,102.0\n2006-01-04,101.0,7\n",
         "NAV file F1: malformed date '2006-13-01'"),
        (parse_factor_csv,
         f"{FACTOR_HEADER}2006-01-02,0.001,abc,0.0,0.0\n2006-01-03,{OVERLONG},0.0,0.0,0.0\n",
         "factor file: non-numeric value 'abc'"),
        (lambda t: parse_nav_csv(t, "F1"),
         f"date,nav\n2006-01-02,{OVERLONG}\n2006-13-01,102.0\n",
         "NAV file F1: field larger than field limit (131072)"),
        (parse_factor_csv,
         f"{FACTOR_HEADER}\n , ,,\t,\n2006-01-02,0.001,nan,0.0,0.0\n2006-01-03,x,0.0,0.0,0.0\n",
         "factor file: non-finite value 'nan'"),
        (parse_factor_csv, "", "factor file: empty file"),
        (parse_benchmark_map_csv,
         "fund_id,benchmark_id\nF1,B1\nF1,B2\nF2,B1,B3\n",
         "benchmark map: duplicate fund_id 'F1'"),
        (parse_benchmark_map_csv,
         "fund_id,benchmark_id\nF1,B1\n\nF2,B1,B3\nF1,../B2\n",
         "benchmark map: expected 2 columns, got 3"),
    ],
    ids=["width-then-date", "date-then-width", "non-numeric-then-overlong",
         "overlong-then-date", "non-finite-after-blank-rows", "empty", "map-duplicate-then-width",
         "map-width-then-duplicate"],
)
def test_file_with_two_faults_reports_the_earlier_row(parse, text, message):
    with pytest.raises(MarketDataError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_parse_factor_csv_missing_column():
    text = "date,mkt_rf,hml,rf\n2006-01-02,0.001,-0.0001,0.0002\n"
    with pytest.raises(MarketDataError, match="missing column"):
        parse_factor_csv(text)


def test_parse_factor_csv_unordered_dates():
    text = (
        "date,mkt_rf,smb,hml,rf\n"
        "2006-01-03,0.001,0.0002,-0.0001,0.0002\n"
        "2006-01-02,0.001,0.0002,-0.0001,0.0002\n"
    )
    with pytest.raises(MarketDataError, match="out of order"):
        parse_factor_csv(text)


#: A 5,000-day calendar and the row near its end that holds the one bad value.
LONG_DAYS = weekdays(5000)
BAD_ROW = 4990


@pytest.mark.parametrize("value", [0.0, -0.0, -3.5, float("nan"), np.float64(-1e-300)], ids=repr)
def test_long_nav_series_names_its_one_bad_nav_near_the_end(value):
    navs = [100.0] * len(LONG_DAYS)
    navs[BAD_ROW] = value
    with pytest.raises(MarketDataError) as err:
        NavSeries("F1", LONG_DAYS, tuple(navs))
    day = LONG_DAYS[BAD_ROW].isoformat()
    assert str(err.value) == f"NavSeries F1: nav {value!r} on {day} is not positive"


@pytest.mark.parametrize("value", [-1.0, -2.0, float("nan")], ids=repr)
def test_long_return_series_names_its_one_bad_return_near_the_end(value):
    returns = [0.001] * len(LONG_DAYS)
    returns[BAD_ROW] = value
    with pytest.raises(MarketDataError) as err:
        ReturnSeries("R1", LONG_DAYS, tuple(returns))
    day = LONG_DAYS[BAD_ROW].isoformat()
    assert str(err.value) == f"ReturnSeries R1: return {value!r} on {day} <= -1"


@pytest.mark.parametrize("duplicate", [True, False], ids=["duplicate", "out-of-order"])
def test_long_factor_panel_names_its_one_bad_date_near_the_end(duplicate):
    dates = list(LONG_DAYS)
    a = dates[BAD_ROW - 1]
    dates[BAD_ROW] = a if duplicate else a - timedelta(days=1)
    zeros = (0.0,) * len(dates)
    with pytest.raises(MarketDataError) as err:
        FactorPanel(dates=tuple(dates), mkt_rf=zeros, smb=zeros, hml=zeros, rf=zeros)
    if duplicate:
        assert str(err.value) == f"FactorPanel: duplicate date {a.isoformat()}"
    else:
        assert str(err.value) == (
            f"FactorPanel: dates out of order ({dates[BAD_ROW].isoformat()} after {a.isoformat()})"
        )


def test_parse_benchmark_map():
    bmap = parse_benchmark_map_csv("fund_id,benchmark_id\nF1,B1\nF2,B1\n")
    assert bmap.benchmark_for("F1") == "B1"
    assert bmap.benchmark_for("F3") is None


#: Ids that are file names, map cells and report cells all at once.
GOOD_IDS = ["F1", "F,1", "G|x", "Fund (G) & Co", 'Q"1', "Fund-ü", "a.b", "..."]
#: Ids the rule refuses: not a plain file name, padded or unprintable.
BAD_IDS = ["", ".", "..", "a/b", "../x", "a\\b", " F1", "F1 ", "F\n1", "F\t1", "F\r1"]


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_nav_series_rejects_bad_fund_id(bad):
    with pytest.raises(MarketDataError, match="not a plain file name"):
        parse_nav_csv(nav_csv([("2006-01-02", 100.0), ("2006-01-03", 101.0)]), bad)


def test_parse_benchmark_map_duplicate_fund():
    with pytest.raises(MarketDataError, match="duplicate fund_id"):
        parse_benchmark_map_csv("fund_id,benchmark_id\nF1,B1\nF1,B2\n")


@pytest.mark.parametrize("bench_id", ["../outside/X", "sub/B1", "C:\\B1", ".", ".."])
def test_parse_benchmark_map_rejects_path_like_benchmark_id(bench_id):
    with pytest.raises(MarketDataError, match="not a plain file name"):
        parse_benchmark_map_csv(f"fund_id,benchmark_id\nF1,{bench_id}\n")


def _panel(dates: list[date], seed: int = 3) -> FactorPanel:
    rng = np.random.default_rng(seed)
    n = len(dates)
    return FactorPanel(
        dates=tuple(dates),
        mkt_rf=tuple(rng.normal(0, 0.008, n)),
        smb=tuple(rng.normal(0, 0.004, n)),
        hml=tuple(rng.normal(0, 0.004, n)),
        rf=(0.0002,) * n,
    )


def _returns(series_id: str, dates: list[date], seed: int) -> ReturnSeries:
    rng = np.random.default_rng(seed)
    return ReturnSeries(
        series_id=series_id,
        dates=tuple(dates),
        returns=tuple(rng.normal(0.0003, 0.01, len(dates))),
    )


def test_align_identical_calendars():
    dates = weekdays(500)
    sample = align(_returns("F1", dates, 1), _returns("B1", dates, 2), _panel(dates))
    assert sample.n == 500
    assert sample.dates == tuple(dates)


def test_align_intersection_starts_at_latest_calendar():
    long_dates = weekdays(400)
    short_dates = long_dates[100:]
    sample = align(
        _returns("F1", long_dates, 1), _returns("B1", long_dates, 2), _panel(short_dates)
    )
    assert sample.dates[0] == short_dates[0]
    assert sample.n == 300


def test_align_values_follow_their_dates():
    dates = weekdays(100)
    fund = _returns("F1", dates, 1)
    sample = align(fund, _returns("B1", dates, 2), _panel(dates))
    lookup = dict(zip(fund.dates, fund.returns))
    assert sample.r_fund[17] == lookup[sample.dates[17]]


def test_align_disjoint_calendars_error():
    a = weekdays(100)
    b = weekdays(100, date(2010, 1, 4))
    with pytest.raises(MarketDataError, match="common calendar"):
        align(_returns("F1", a, 1), _returns("B1", a, 2), _panel(b))


def test_align_idempotent():
    dates = weekdays(120)
    sample = align(_returns("F1", dates, 1), _returns("B1", dates, 2), _panel(dates))
    again = align(
        ReturnSeries("F1", sample.dates, tuple(sample.r_fund)),
        ReturnSeries("B1", sample.dates, tuple(sample.r_bench)),
        FactorPanel(
            dates=sample.dates,
            mkt_rf=tuple(sample.mkt_rf),
            smb=tuple(sample.smb),
            hml=tuple(sample.hml),
            rf=tuple(sample.rf),
        ),
    )
    assert again.dates == sample.dates
    assert np.array_equal(again.r_fund, sample.r_fund)
    assert np.array_equal(again.mkt_rf, sample.mkt_rf)


def test_nav_csv_round_trip_exact():
    rng = np.random.default_rng(5)
    navs = tuple(100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 50))))
    series = NavSeries(
        fund_id="F1", dates=weekdays(50), navs=navs
    )
    assert parse_nav_csv(write_nav_csv(series), "F1") == series


def test_factor_csv_round_trip_exact():
    dates = weekdays(40)
    panel = _panel(dates)
    with_mom = replace(panel, mom=tuple(np.random.default_rng(4).normal(0, 0.006, 40)))
    for p in (panel, with_mom):
        assert parse_factor_csv(write_factor_csv(p)) == p
    assert write_factor_csv(with_mom).startswith("date,mkt_rf,smb,hml,mom,rf\n")


def test_benchmark_map_round_trip():
    bmap = parse_benchmark_map_csv("fund_id,benchmark_id\nF2,B9\nF1,B1\n")
    assert parse_benchmark_map_csv(write_benchmark_map_csv(bmap)) == bmap


def test_benchmark_map_quotes_ids_that_hold_commas_or_quotes():
    bmap = BenchmarkMap({fund_id: "B,1" for fund_id in GOOD_IDS})
    text = write_benchmark_map_csv(bmap)
    lines = text.splitlines()
    assert {'"F,1","B,1"', '"Q""1","B,1"', 'F1,"B,1"', 'G|x,"B,1"'} <= set(lines)
    assert parse_benchmark_map_csv(text) == bmap


#: What samples aligned on one calendar, benchmark and factor panel share.
SHARED_COLUMNS = ("r_bench", "mkt_rf", "smb", "hml", "rf", "mom")


def _nav_returns(fund_id: str, dates: list[date], seed: int) -> ReturnSeries:
    rng = np.random.default_rng(seed)
    navs = 100.0 * np.cumprod(1.0 + rng.normal(0.0003, 0.01, len(dates)))
    rows = [(d.isoformat(), float(v)) for d, v in zip(dates, navs)]
    return compute_returns(parse_nav_csv(nav_csv(rows), fund_id))


def _cohort(days: int = 200):
    dates = list(weekdays(days))
    panel = replace(_panel(dates), mom=tuple(np.random.default_rng(5).normal(0, 0.005, days)))
    return dates, _nav_returns("B1", dates, 2), panel


def test_align_funds_on_one_calendar_share_dates_and_benchmark_and_factor_arrays():
    dates, bench, panel = _cohort()
    shared: dict = {}
    a = align(_nav_returns("F1", dates, 1), bench, panel, shared)
    b = align(_nav_returns("F2", dates, 7), bench, panel, shared)
    assert b.dates is a.dates
    for name in SHARED_COLUMNS:
        assert getattr(b, name) is getattr(a, name), name
    assert b.r_fund is not a.r_fund
    assert not np.array_equal(a.r_fund, b.r_fund)
    # Sharing changes no value: each sample equals its own unshared alignment.
    alone = align(_nav_returns("F2", dates, 7), bench, panel)
    assert alone.dates == b.dates
    for name in ("r_fund", *SHARED_COLUMNS):
        assert np.array_equal(getattr(alone, name), getattr(b, name)), name


def test_align_fund_whose_nav_file_has_a_gap_shares_nothing():
    dates, bench, panel = _cohort()
    shared: dict = {}
    a = align(_nav_returns("F1", dates, 1), bench, panel, shared)
    gapped = align(_nav_returns("F2", dates[:90] + dates[91:], 7), bench, panel, shared)
    assert gapped.n == a.n - 1
    assert gapped.dates is not a.dates
    for name in ("r_fund", *SHARED_COLUMNS):
        assert not np.shares_memory(getattr(gapped, name), getattr(a, name)), name


def test_align_fund_with_another_benchmark_shares_none_of_its_arrays():
    dates, bench, panel = _cohort()
    shared: dict = {}
    a = align(_nav_returns("F1", dates, 1), bench, panel, shared)
    other = align(_nav_returns("F2", dates, 7), _nav_returns("B2", dates, 8), panel, shared)
    assert other.dates == a.dates
    for name in ("r_fund", *SHARED_COLUMNS):
        assert not np.shares_memory(getattr(other, name), getattr(a, name)), name


def test_align_shared_arrays_stay_read_only_and_subsample_copies():
    from fundshift.regress import subsample

    dates, bench, panel = _cohort()
    shared: dict = {}
    a = align(_nav_returns("F1", dates, 1), bench, panel, shared)
    b = align(_nav_returns("F2", dates, 7), bench, panel, shared)
    for name in ("r_fund", *SHARED_COLUMNS):
        assert not getattr(b, name).flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            getattr(b, name)[0] = 1.0
    part = subsample(b, 10, 120)
    for name in ("r_fund", *SHARED_COLUMNS):
        assert not np.shares_memory(getattr(part, name), getattr(a, name)), name
        assert np.array_equal(getattr(part, name), getattr(b, name)[10:121]), name


#: Data columns in field order: a factor panel's, and an aligned sample's.
PANEL_COLUMNS = ("mkt_rf", "smb", "hml", "rf", "mom")
SAMPLE_COLUMNS = ("r_fund", "r_bench", "mkt_rf", "smb", "hml", "rf", "mom")


@pytest.mark.parametrize("name", PANEL_COLUMNS)
def test_factor_panel_length_error_names_the_short_column(name):
    columns = {c: (0.0,) * 5 for c in PANEL_COLUMNS}
    columns[name] = (0.0,) * 4
    with pytest.raises(MarketDataError) as err:
        FactorPanel(dates=tuple(weekdays(5)), **columns)
    assert str(err.value) == f"FactorPanel: column {name} length mismatch"


@pytest.mark.parametrize("shape", [(4,), (5, 1)], ids=["short", "2-d"])
@pytest.mark.parametrize("name", SAMPLE_COLUMNS)
def test_aligned_sample_shape_error_names_the_bad_column(name, shape):
    columns = {c: np.zeros(5) for c in SAMPLE_COLUMNS}
    columns[name] = np.zeros(shape)
    with pytest.raises(MarketDataError) as err:
        AlignedSample("F1", tuple(weekdays(5)), **columns)
    assert str(err.value) == f"AlignedSample F1: {name} shape mismatch"


@pytest.mark.parametrize("name", SAMPLE_COLUMNS[:-1])
def test_none_in_a_column_other_than_mom_still_raises(name):
    dates = tuple(weekdays(5))
    with pytest.raises(AttributeError, match="shape"):
        AlignedSample("F1", dates, **{**{c: np.zeros(5) for c in SAMPLE_COLUMNS}, name: None})
    if name in PANEL_COLUMNS:
        with pytest.raises(TypeError, match="len"):
            FactorPanel(dates=dates, **{**{c: (0.0,) * 5 for c in PANEL_COLUMNS}, name: None})


@pytest.mark.parametrize("with_mom", [True, False], ids=["mom", "no-mom"])
def test_align_and_subsample_carry_mom_exactly_when_the_panel_has_it(with_mom):
    from fundshift.regress import subsample

    dates, bench, panel = _cohort()
    if not with_mom:
        panel = replace(panel, mom=None)
    names = PANEL_COLUMNS if with_mom else PANEL_COLUMNS[:-1]
    assert tuple(data_columns(panel)) == names
    sample = align(_nav_returns("F1", dates, 1), bench, panel)
    part = subsample(sample, 10, 120)
    for s in (sample, part):
        assert s.has_mom is with_mom
        assert tuple(data_columns(s)) == ("r_fund", "r_bench", *names)
    if with_mom:
        mom_on = dict(zip(panel.dates, panel.mom))
        assert part.mom.tolist() == [mom_on[d] for d in part.dates]
