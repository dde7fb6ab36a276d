"""SSR table construction, DP segmentation and break-count selection."""

import dataclasses
import math
import re

import numpy as np
import pytest

from oracles import (
    dense_ssr_table,
    exhaustive_best_partition,
    make_styled_sample,
    packed_layout,
    packed_ssr_table,
    reachable_cells,
    reference_dp,
    reference_partitions,
    weekdays,
    window_ssr,
)

from fundshift import breaks
from fundshift.breaks import (
    BreakDetectionError,
    SsrTable,
    build_ssr_table,
    default_h,
    filter_short_regimes,
    max_breaks_bound,
    optimal_partition,
    optimal_partitions,
    select_break_count,
    ssr_table_from_arrays,
)
from fundshift.marketdata import AlignedSample
from fundshift.pipeline import AnalysisConfig, ConfigError
from fundshift.regress import design_matrix, excess_over_benchmark, fit_benchmark_adjusted


def make_sample(
    n: int,
    seed: int,
    smb_path: list[tuple[int, float]],
    noise: float = 0.0,
    hml_beta: float = 0.0,
    t_df: int | None = None,
) -> AlignedSample:
    """Fund whose active SMB tilt follows a step function over regimes.

    smb_path lists (length, beta_smb) segments; the benchmark carries
    the market loading so the active return is pure style tilt. The
    noise is Gaussian with stdev ``noise``, or with ``t_df`` Student-t
    with ``t_df`` degrees of freedom scaled to the same stdev.
    """
    rng = np.random.default_rng(seed)
    mkt = rng.normal(0, 0.008, n)
    smb = rng.normal(0, 0.004, n)
    hml = rng.normal(0, 0.004, n)
    rf = np.full(n, 0.0002)
    r_bench = rf + 1.0 * mkt
    beta_smb = np.concatenate(
        [np.full(length, b) for length, b in smb_path]
    )
    assert beta_smb.shape == (n,)
    if t_df is not None:
        eps = noise * math.sqrt((t_df - 2) / t_df) * rng.standard_t(t_df, n)
    elif noise > 0:
        eps = rng.normal(0, noise, n)
    else:
        eps = np.zeros(n)
    r_fund = r_bench + beta_smb * smb + hml_beta * hml + eps
    return AlignedSample(
        fund_id="F1", dates=weekdays(n), r_fund=r_fund, r_bench=r_bench,
        mkt_rf=mkt, smb=smb, hml=hml, rf=rf,
    )


def random_mean_instance(n: int, seed: int, h: int):
    """Mean-only segmentation instance: X is a bare intercept column."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    X = np.ones((n, 1))
    return y, X, ssr_table_from_arrays(y, X, h)


def test_default_h():
    assert default_h(1000, 0.15, 4) == 150
    assert default_h(20, 0.15, 4) == 5  # k+1 floor dominates
    with pytest.raises(BreakDetectionError, match="trim"):
        default_h(100, 0.6, 4)


def test_config_max_breaks_bound():
    for trim, most in ((0.15, 5), (0.2, 4), (0.1, 9), (1 / 3, 2), (0.49, 1)):
        assert max_breaks_bound(trim) == most
        assert AnalysisConfig(trim=trim).max_breaks == most
        assert AnalysisConfig(trim=trim, max_breaks=most).max_breaks == most
        with pytest.raises(ConfigError, match=rf"<= floor\(1/trim\) - 1 = {most} at trim"):
            AnalysisConfig(trim=trim, max_breaks=most + 1)


def test_max_breaks_bound_rejects_a_trim_whose_reciprocal_overflows():
    # Both trims lie below the floor; 1/1e-310 would also overflow.
    floor = re.escape("trim must lie in [0.001, 0.5)")
    for trim in (1e-300, 1e-310):
        with pytest.raises(BreakDetectionError, match=floor):
            max_breaks_bound(trim)
        with pytest.raises(ConfigError, match=floor):
            AnalysisConfig(trim=trim)


def test_max_breaks_bound_covers_every_sample_length():
    # A grid of trims, plus the doubles next to 1/j: there default_h's
    # rounded trim * n can fall a hair below the exact product, so j
    # regimes fit where exact arithmetic says they cannot.
    trims = [i / 1000 for i in range(1, 500)]
    for j in range(3, 60):
        trims += [math.nextafter(1 / j, 0), 1 / j, math.nextafter(1 / j, 1)]
    for trim in trims:
        most = max(n // default_h(n, trim, 4) - 1 for n in range(1, 3001))
        AnalysisConfig(trim=trim, max_breaks=most)  # raises if above the bound


def test_ssr_table_zero_noise_constant_beta_is_zero_everywhere():
    sample = make_sample(120, 1, [(120, 0.4)])
    table = build_ssr_table(sample, trim=0.08)
    assert table.h == 10
    vals = np.array([table.ssr(i, j) for i, j in zip(*np.nonzero(reachable_cells(120, 10)))])
    # Exact fit leaves only Gram-accumulation rounding, which scales with y'y.
    y = sample.r_fund - sample.r_bench
    assert vals.max() <= 1e-12 * float(y @ y)


def test_ssr_table_full_window_matches_direct_fit():
    sample = make_sample(200, 2, [(100, 0.4), (100, -0.4)], noise=0.003)
    table = build_ssr_table(sample, trim=0.1)
    assert table.h == 20
    direct = fit_benchmark_adjusted(sample).ssr
    assert table.ssr(0, 199) == pytest.approx(direct, rel=1e-10)


def test_ssr_table_spot_cells_match_refit_oracle():
    # 10 random reachable cells vs independent per-window lstsq refits.
    sample = make_sample(300, 3, [(150, 0.5), (150, -0.5)], noise=0.004)
    table = build_ssr_table(sample, trim=0.04)
    h = table.h
    assert h == 12
    y = excess_over_benchmark(sample)
    X = design_matrix(sample)
    rng = np.random.default_rng(99)
    for _ in range(10):
        i = int(rng.choice([0, *range(h, 300 - h + 1)]))
        j = int(rng.choice([*range(i + h - 1, 300 - h), 299]))
        expected = window_ssr(y, X, i, j)
        assert table.ssr(i, j) == pytest.approx(expected, rel=1e-10, abs=1e-18)


def test_ssr_table_split_never_increases_ssr():
    sample = make_sample(200, 4, [(200, 0.3)], noise=0.005)
    table = build_ssr_table(sample, trim=0.05)
    h = table.h
    assert h == 10
    rng = np.random.default_rng(5)
    for _ in range(50):
        i = int(rng.choice([0, *range(h, 150)]))
        j = int(rng.choice([*range(i + 2 * h - 1, 200 - h), 199]))
        cut = int(rng.integers(i + h - 1, j - h + 1))
        assert table.ssr(i, cut) + table.ssr(cut + 1, j) <= table.ssr(i, j) + 1e-8


def dense_oracle_instance(n: int, k: int):
    """(y, X) with an intercept and k-1 small regressors, nearly an exact fit."""
    rng = np.random.default_rng(n * 10 + k)
    X = np.column_stack([np.ones(n), rng.normal(0, 0.01, (n, k - 1))])
    return X @ rng.normal(size=k) + rng.normal(0, 0.001, n), X


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n, h", [(10, 5), (11, 5), (90, 15), (121, 19)])
def test_ssr_table_matches_dense_oracle_on_reachable_cells(k, n, h):
    # Bitwise equal to the full row loop where a partition can reach:
    # the lazy table cell by cell, and the packed reference, which
    # stores nothing else.
    y, X = dense_oracle_instance(n, k)
    dense = dense_ssr_table(y, X, h)
    reach = reachable_cells(n, h)
    packed = packed_ssr_table(y, X, h)
    admissible = [[packed.admissible(i, j) for j in range(n)] for i in range(n)]
    assert np.array_equal(np.array(admissible), reach)
    assert packed.values.size == reach.sum()
    for table in (ssr_table_from_arrays(y, X, h), packed):
        got = np.array([table.ssr(i, j) for i, j in zip(*np.nonzero(reach))])
        assert np.array_equal(got.view(np.uint64), dense[reach].view(np.uint64))
        for i, j in ((1, n - 1), (h, n - 2)):
            with pytest.raises(BreakDetectionError, match="inadmissible"):
                table.ssr(i, j)


def test_packed_layout_size_at_long_history():
    # n=5000 at trim 0.15: 3,792,379 reachable cells, 30.3 MB of float64,
    # against 200 MB for a dense n x n table.
    starts, offsets = packed_layout(5000, 750)
    assert starts.size == 1 + 5000 - 2 * 750 + 1
    assert offsets[-1] == 3_792_379
    assert round(offsets[-1] * 8 / 1e6, 1) == 30.3


def test_ssr_table_holds_one_moment_row_per_observation():
    # The lazy table at n=5000, k=4: 15 moments and one zero pad column
    # per row, 0.64 MB.
    sample = make_sample(5000, 6, [(5000, 0.2)])
    table = build_ssr_table(sample)
    assert (table.n, table.h, table.k) == (5000, 750, 4)
    assert table.values.shape == (5000, 16)
    assert table.values.nbytes == 640_000
    assert not table.values[:, 10].any()  # after the 10 Gram products


@pytest.mark.parametrize("k, width", [(1, 4), (2, 6), (3, 10), (4, 16), (5, 22)])
def test_moment_row_is_whole_pair_lanes(k, width):
    # The pad sits between the Gram products and x y, so x y and y^2
    # keep their places at the end of the row.
    rng = np.random.default_rng(k)
    X, y = rng.normal(size=(30, k)), rng.normal(size=30)
    table = ssr_table_from_arrays(y, X, 10)
    grams = k * (k + 1) // 2
    assert table.values.shape == (30, width) and table.k == k
    assert np.array_equal(table.values[:, -1], y * y)
    assert np.array_equal(table.values[:, -k - 1 : -1], X * y[:, None])
    assert not table.values[:, grams : width - k - 1].any()


def test_ssr_table_rejects_values_that_are_not_pair_lanes():
    good = ssr_table_from_arrays(np.arange(30.0), np.ones((30, 4)), 10).values
    for values in (
        good[:, 1:].copy(),  # odd width: 15 columns, the unpadded k = 4 row
        good.astype(np.float32),
        np.asfortranarray(good),
        good.ravel(),  # n is the row count, so values must be one row per observation
        good[:, None, :].copy(),
    ):
        with pytest.raises(BreakDetectionError, match="SsrTable"):
            SsrTable(h=10, values=values, floor=1e-300)


SPECIALS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1.7e308]


@pytest.mark.parametrize("width", [4, 16, 6, 10])
def test_lane_accumulate_keeps_every_columns_bits(width):
    # Each lane's add is one IEEE add per column: infinities, NaNs,
    # signed zeros, subnormals and overflow near 1e300 come out as the
    # float64 accumulate gives them.
    rng = np.random.default_rng(width)
    rows = rng.normal(size=(200, width)) * 10.0 ** rng.integers(-310, 300, (200, width))
    special = rng.random((200, width)) < 0.2
    rows[special] = rng.choice(SPECIALS, special.sum())
    with np.errstate(all="ignore"):
        want = np.cumsum(rows, axis=0)
        got = np.cumsum(breaks._lanes(rows), axis=0).view(np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(got).any() and np.isinf(got).any()


def adversarial_moment_rows(n: int, k: int) -> np.ndarray:
    """Moment rows whose column sums depend on the order of the adds.

    Rows cycle through 1e16, 1.0, -1e16 and 1.0 in size, so pairwise and
    sequential sums differ. A tenth of the entries are -0.0, column 0 is
    -0.0 on the last 50 rows, and the y columns are zero: x y of either
    sign, y^2 +0.0.
    """
    rng = np.random.default_rng(k)
    width = breaks._row_width(k)
    size = np.array([1e16, 1.0, -1e16, 1.0])[np.arange(n) % 4, None]
    values = size * rng.choice([1.0, 2.0, 3.0], (n, width))
    values[rng.random((n, width)) < 0.1] = -0.0
    values[-50:, 0] = -0.0
    values[:, -k - 1 : -1] = np.copysign(0.0, rng.choice([-1.0, 1.0], (n, k)))
    values[:, -1] = 0.0
    return values


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "n, h, low, top",
    [
        (400, 40, 40, 360),  # three tiles, the last ending mid-block
        (400, 40, 150, 277),  # one whole tile
        (400, 40, 0, 0),  # row 0 alone
        (80, 40, 40, 40),  # 2h = n: a single interior row
    ],
)
def test_tiled_tail_sums_keep_the_prefix_sums_bits(k, n, h, low, top):
    # The search takes each start row's window to n-1 from one reduce over
    # a tile of consecutive rows. Its bits must be those of the prefix sum
    # from the row, on data where pairwise sums would differ and where
    # some sums are -0.0.
    values = adversarial_moment_rows(n, k)
    sweep = breaks._Sweep([SsrTable(h=h, values=values, floor=1e-300)], 0, 1)
    sweep.fill_tails(low, top)
    want = np.array([np.cumsum(values[i:], axis=0)[-1] for i in range(low, top + 1)])
    assert np.array_equal(sweep.tails[0].view(np.int64), want.view(np.int64))
    pairwise = np.array([np.add.reduce(values[i:].T.copy(), axis=1) for i in range(low, top + 1)])
    assert not np.array_equal(pairwise.view(np.int64), want.view(np.int64))
    if top >= n - 50:
        assert np.signbit(want[-1, 0]) and want[-1, 0] == 0.0


def singular_window_instance():
    """(y, X, h) whose hml column is zero on a leading block.

    Every window inside the block has a singular Gram, while the full
    design keeps rank 4.
    """
    n = 300
    rng = np.random.default_rng(21)
    X = np.column_stack([np.ones(n), rng.normal(0, 0.01, (n, 3))])
    X[:120, 3] = 0.0
    y = X @ np.array([1e-4, 0.9, 0.3, -0.2]) + rng.normal(0, 0.002, n)
    return y, X, 45


def test_ssr_table_singular_windows_fall_back_to_pseudo_inverse():
    # ssr(i, j), the filter's single-window read, carries the bits of the
    # full table's whole-row solve on every reachable cell: on rows whose
    # windows are singular, and on an exact fit, whose SSR is rounding dust.
    y, X, h = singular_window_instance()
    table = ssr_table_from_arrays(y, X, h)
    reach = reachable_cells(len(y), h)
    assert reach[0, h - 1]
    for i, j in zip(*np.nonzero(reach)):
        assert table.ssr(i, j) == pytest.approx(window_ssr(y, X, i, j), rel=1e-10)
    for y, X, h in ((y, X, h), exact_fit_instance(0)):
        table, packed = ssr_table_from_arrays(y, X, h), packed_ssr_table(y, X, h)
        for i, j in zip(*np.nonzero(reachable_cells(len(y), h))):
            assert table.ssr(i, j).hex() == packed.ssr(i, j).hex(), (i, j)


def test_ssr_table_preconditions():
    sample = make_sample(100, 6, [(100, 0.2)])
    y, X = excess_over_benchmark(sample), design_matrix(sample)
    with pytest.raises(BreakDetectionError, match="below 2h"):
        ssr_table_from_arrays(y, X, 60)
    with pytest.raises(BreakDetectionError, match="k\\+1"):
        ssr_table_from_arrays(y, X, 4)
    with pytest.raises(BreakDetectionError, match="trim"):
        build_ssr_table(sample, trim=0.5)
    # A trim below (k+1)/n still leaves room for the k regressors.
    assert build_ssr_table(sample, trim=0.01).h == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "square_overflows"])
def test_ssr_table_rejects_moments_that_are_not_finite(bad):
    y = np.random.default_rng(3).normal(size=200)
    y[50] = bad
    with pytest.raises(BreakDetectionError, match="finite"):
        ssr_table_from_arrays(y, np.ones((200, 1)), 30)
    with pytest.raises(BreakDetectionError, match="finite"):
        ssr_table_from_arrays(np.ones(200), np.column_stack([np.ones(200), y]), 30)


def test_ssr_table_inadmissible_cell_raises():
    sample = make_sample(100, 6, [(100, 0.2)])
    table = build_ssr_table(sample, trim=0.1)
    with pytest.raises(BreakDetectionError, match="inadmissible"):
        table.ssr(0, 5)


@pytest.mark.parametrize("n, h", [(10, 5), (11, 5), (12, 5), (40, 7), (90, 15), (121, 19)])
def test_every_start_row_ends_are_a_suffix_of_row_0s(n, h):
    # The sweep builds row 0's ends once and reads row i's from it,
    # n = 2h and n = 2h + 1 among the shapes.
    table = ssr_table_from_arrays(np.zeros(n), np.ones((n, 1)), h)
    first = table.ends(0)
    for i in [*range(n - h, h - 1, -1), 0]:
        assert np.array_equal(first[min(i, n - 2 * h + 1) :], table.ends(i)), i


@pytest.mark.parametrize("noise", [0.0, 0.006], ids=["exact_fit", "noisy"])
def test_ssr_table_floor_is_the_bic_floor_of_its_own_y(noise):
    # Select used to compute this floor per sample; the table now holds it.
    sample = make_styled_sample(21, [(300, 0.0, 0.6, 0.3), (300, 0.0, -0.6, 0.0)], noise=noise)
    y = excess_over_benchmark(sample)
    floor = max(float(np.sum((y - y.mean()) ** 2)) * breaks._SSR_FLOOR_REL, np.finfo(float).tiny)
    assert build_ssr_table(sample).floor.hex() == floor.hex()
    zero = ssr_table_from_arrays(np.zeros(sample.n), design_matrix(sample), 90)
    assert zero.floor == np.finfo(float).tiny


def test_optimal_partition_zero_breaks_degenerate():
    y, X, table = random_mean_instance(80, 7, h=8)
    part = optimal_partition(table, 0)
    assert part.break_indices == ()
    assert part.total_ssr == table.ssr(0, 79)
    assert part.regime_windows == ((0, 79),)


def test_optimal_partition_perfect_step_series():
    # Scalar-mean model, 0 for t<500 then 1: the single break must land
    # at index 499 (last observation of the first regime) with SSR 0.
    y = np.concatenate([np.zeros(500), np.ones(500)])
    X = np.ones((1000, 1))
    table = ssr_table_from_arrays(y, X, h=100)
    part = optimal_partition(table, 1)
    assert part.break_indices == (499,)
    assert part.total_ssr == pytest.approx(0.0, abs=1e-18)


def test_optimal_partition_matches_exhaustive_oracle_seeded_instance():
    # The n=120, m=2, h=15 instance: exact agreement with enumeration.
    y, X, table = random_mean_instance(120, 42, h=15)
    part = optimal_partition(table, 2)
    oracle_breaks, oracle_total = exhaustive_best_partition(table, 2)
    assert part.break_indices == oracle_breaks
    assert part.total_ssr == oracle_total


def test_optimal_partition_lexicographic_tie_break():
    # All-zero series: every feasible partition has total 0, so the DP
    # must return the earliest break vector [h-1, 2h-1, ...].
    y = np.zeros(60)
    X = np.ones((60, 1))
    table = ssr_table_from_arrays(y, X, h=10)
    for m in (1, 2, 3):
        part = optimal_partition(table, m)
        assert part.break_indices == tuple(10 * (r + 1) - 1 for r in range(m))
        assert part.total_ssr == 0.0


@pytest.mark.parametrize("y", [
    np.random.default_rng(13).normal(size=90),  # noisy: one minimizer per m
    np.zeros(90),  # all-zero: every partition ties at 0
])
def test_one_sweep_yields_every_break_count(y):
    # Level m read off a sweep to m=5 must be the partition a sweep
    # stopped at m returns, and the exhaustive optimum where enumerable.
    table = ssr_table_from_arrays(y, np.ones((90, 1)), h=15)
    (sweep,) = optimal_partitions([table], 5)
    assert [part.chosen_m for part in sweep] == [0, 1, 2, 3, 4, 5]
    for m, part in enumerate(sweep):
        alone = optimal_partition(table, m)
        assert part.break_indices == alone.break_indices
        assert part.total_ssr == alone.total_ssr
        if m <= 3:
            assert (part.break_indices, part.total_ssr) == exhaustive_best_partition(table, m)
    if not y.any():
        assert sweep[5].break_indices == (14, 29, 44, 59, 74)


def test_optimal_partition_infeasible_m():
    y, X, table = random_mean_instance(50, 8, h=10)
    with pytest.raises(BreakDetectionError, match="infeasible"):
        optimal_partition(table, 5)
    with pytest.raises(BreakDetectionError, match="negative"):
        optimal_partition(table, -1)


def test_total_ssr_monotone_in_m():
    # h small enough that every optimal partition has a splittable segment.
    y, X, table = random_mean_instance(300, 9, h=15)
    totals = [optimal_partition(table, m).total_ssr for m in range(5)]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-12


def test_partition_windows_tile_sample():
    y, X, table = random_mean_instance(200, 10, h=20)
    part = optimal_partition(table, 3)
    windows = part.regime_windows
    assert windows[0][0] == 0
    assert windows[-1][1] == 199
    for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
        assert b0 == a1 + 1
    assert sum(end - start + 1 for start, end in windows) == 200


def criterion_2_instances():
    """The 50 (y, X, h) instances test_criterion_2_dp_global_optimality draws."""
    rng = np.random.default_rng(2002)
    instances = []
    while len(instances) < 50:
        h = int(rng.integers(5, 13))
        n = int(rng.integers(2 * h, 121))
        m = int(rng.integers(0, 4))
        if (m + 1) * h > n:
            continue
        y = np.zeros(n) if len(instances) % 5 == 4 else rng.normal(size=n)
        instances.append((y, np.ones((n, 1)), h))
    return instances


def exact_fit_instance(seed: int):
    """Three planted regimes and no noise: SSR is rounding dust within them."""
    sample = make_sample(600, seed, [(200, 0.8), (250, -0.8), (150, 0.0)])
    return excess_over_benchmark(sample), design_matrix(sample), 90


SEARCH_INSTANCES = {
    "criterion_2": criterion_2_instances,
    "dense_oracle": lambda: [
        dense_oracle_instance(n, k) + (h,)
        for k in (1, 4) for n, h in ((10, 5), (11, 5), (90, 15), (121, 19))
    ],
    "exact_fit": lambda: [exact_fit_instance(seed) for seed in range(10)],
    "all_zero": lambda: [
        (np.zeros(60), np.ones((60, 1)), 10),
        (np.zeros(600), exact_fit_instance(0)[1], 90),
    ],
    "singular_window": lambda: [singular_window_instance()],
    "mean_only": lambda: [
        random_mean_instance(n, seed, h)[:2] + (h,)
        for n, seed, h in ((120, 42, 15), (300, 9, 15), (200, 10, 20), (90, 13, 15))
    ],
}


def solved_cells(monkeypatch) -> dict[tuple[int, int, int], float]:
    """Record every window the search's kernel solves: (fund, i, j) to its SSR."""
    cells = {}
    kernel = breaks.solve_windows

    def recording(sums, fund, start, end):
        ssr, beta = kernel(sums, fund, start, end)
        cells.update(zip(zip(fund.tolist(), start.tolist(), end.tolist()), ssr.tolist()))
        return ssr, beta

    monkeypatch.setattr(breaks, "solve_windows", recording)
    return cells


def row_kernel_ssr(table: SsrTable) -> np.ndarray:
    """(n, n) SSR of every reachable window, one search-kernel batch per start row.

    NaN off the reachable cells.
    """
    ssr = np.full((table.n, table.n), np.nan)
    for i in [0, *range(table.h, table.n - table.h + 1)]:
        ends = table.ends(i)
        sums = np.cumsum(table.values[i:], axis=0)[ends - i]
        fund, start = np.zeros_like(ends), np.full_like(ends, i)
        ssr[i, ends] = breaks.solve_windows(sums, fund, start, ends)[0]
    return ssr


def chain_counts(h: int) -> tuple[int, ...]:
    """Chain counts the search must give the same bits at: 1, 2, 3, the default and h."""
    return tuple(sorted({1, 2, 3, breaks._CHAINS, h}))


def group_differs_from_reference(instances, cells, monkeypatch) -> bool:
    """Search equal-shape instances in one group; compare each to the unpruned reference DP.

    Runs to the most breaks that fit, at every count of :func:`chain_counts`,
    and once more at the default count with a batch buffer of at least 64
    windows, not 1,024, so that the sweep flushes its batches at other
    points; checks every solved cell too.
    """
    (y, X, h), n = instances[0], len(instances[0][0])
    most = n // h - 1
    tables = [ssr_table_from_arrays(y, X, h) for y, X, h in instances]
    packed = [packed_ssr_table(y, X, h) for y, X, h in instances]
    want = [
        [(p.break_indices, p.total_ssr.hex()) for p in reference_partitions(table, most)]
        for table in packed
    ]
    differs = False
    passes = [(chains, breaks._BATCH_WINDOWS) for chains in chain_counts(h)]
    for chains, batch in [*passes, (breaks._CHAINS, 64)]:
        cells.clear()
        with monkeypatch.context() as patch:
            patch.setattr(breaks, "_CHAINS", chains)
            patch.setattr(breaks, "_BATCH_WINDOWS", batch)
            got = optimal_partitions(tables, most)
        for f, (table, parts) in enumerate(zip(packed, got, strict=True)):
            mine = {(i, j): v for (g, i, j), v in cells.items() if g == f}
            assert mine and all(value == table.ssr(i, j) for (i, j), value in mine.items())
            differs |= [(p.break_indices, p.total_ssr.hex()) for p in parts] != want[f]
    return differs


def search_differs_from_reference(y, X, h, cells, monkeypatch) -> bool:
    """Run the search on one instance and compare it to the unpruned reference DP."""
    return group_differs_from_reference([(y, X, h)], cells, monkeypatch)


@pytest.mark.parametrize("family", SEARCH_INSTANCES)
def test_pruned_search_equals_the_full_table_bit_for_bit(monkeypatch, family):
    # Every break vector and total for m = 0 .. n // h - 1, and every
    # cell the search solved, carry the reference's bits, at every
    # chain count.
    cells = solved_cells(monkeypatch)
    for case, (y, X, h) in enumerate(SEARCH_INSTANCES[family]()):
        assert not search_differs_from_reference(y, X, h, cells, monkeypatch), f"{family} {case}"
        assert cells, f"{family} {case}"


def test_group_search_equals_the_full_table_bit_for_bit(monkeypatch):
    # Funds searched in lockstep keep the bits of a search alone, at
    # every chain count. The group mixes exact fits, noisy funds, an
    # all-zero fund and a fund whose hml is zero on rows 0..399: its rows
    # that start there hold a singular window, so a batch holding one
    # raises and is solved again run by run, the singular fund's by
    # pseudo-inverse.
    cells = solved_cells(monkeypatch)
    kernel, pinv = breaks.solve_windows, breaks._pinv_solve
    batch_funds, pinv_windows = [], []

    def counting(sums, fund, start, end):
        batch_funds.append(np.unique(fund).size)
        return kernel(sums, fund, start, end)

    def counting_pinv(grams, rhs):
        pinv_windows.append(len(grams))
        return pinv(grams, rhs)

    y, X, h = exact_fit_instance(0)
    rng = np.random.default_rng(4)
    singular = X.copy()
    singular[:400, 3] = 0.0
    group = [
        exact_fit_instance(1),
        (singular @ np.array([1e-4, 0.9, 0.3, -0.2]) + rng.normal(0, 0.002, 600), singular, h),
        (y + rng.normal(0, 0.004, 600), X, h),
        (np.zeros(600), X, h),
        exact_fit_instance(2),
    ]
    monkeypatch.setattr(breaks, "solve_windows", counting)
    monkeypatch.setattr(breaks, "_pinv_solve", counting_pinv)
    assert not group_differs_from_reference(group, cells, monkeypatch)
    assert max(batch_funds) == len(group)
    assert pinv_windows  # the singular fund's rows took the fallback


def test_pruning_without_slack_breaks_exactness(monkeypatch):
    # On exact fits computed SSR can fall when a window gains an
    # observation, so a bound can overshoot by rounding dust. With no
    # slack the search then skips a winning window on some seeds,
    # which shows the equality test above can fail.
    cells = solved_cells(monkeypatch)
    monkeypatch.setattr(breaks, "_PRUNE_SLACK_REL", 0.0)
    differs = [search_differs_from_reference(*exact_fit_instance(seed), cells, monkeypatch)
               for seed in range(10)]
    assert any(differs)


@pytest.mark.parametrize("family", ["exact_fit", "singular_window"])
def test_ssr_rounding_stays_far_below_the_prune_slack(family):
    # The search bounds ssr(i, j) from below by ssr(i', j) of a later row
    # i' and lets the bound overshoot by _PRUNE_SLACK_REL of row i's y'y.
    # The largest overshoot measured here was 1.9e-15 of y'y (exact-fit
    # seed 6), and the singular-window sample has none; the test asks
    # for a hundredfold headroom below the slack.
    for case, (y, X, h) in enumerate(SEARCH_INSTANCES[family]()):
        table = ssr_table_from_arrays(y, X, h)
        ssr = row_kernel_ssr(table)
        later = np.fmax.accumulate(ssr[:0:-1], axis=0)[::-1]  # row i: max over rows > i
        row_yy = np.cumsum(table.values[::-1, -1])[::-1]
        with np.errstate(invalid="ignore"):  # 0/0 on rows inside a y = 0 regime
            overshoot = np.nanmax((later - ssr[:-1]) / row_yy[:-1, None])
        assert overshoot <= breaks._PRUNE_SLACK_REL / 100, f"{family} {case}"


@pytest.mark.parametrize("family", ["exact_fit", "singular_window"])
def test_carried_bound_stays_far_below_the_prune_slack(monkeypatch, family):
    # The search bounds each level's cost at row i from above by its best
    # at a later row of the lane plus the residuals of the rows between,
    # and lets the computed best overshoot that by _PRUNE_SLACK_REL of
    # row i's y'y. The largest undershoot measured here was 2.3e-15 of
    # y'y (exact fits); on the singular-window sample every bound lies
    # above the best. The test asks for a hundredfold headroom below the
    # slack, at every chain count, on every bound the search used.
    kernel = breaks._level_bounds
    seen = []

    def recording(carried, weights, values, rows):
        bounds = kernel(carried, weights, values, rows)
        seen.append((rows.copy(), bounds[:, 0].copy()))
        return bounds

    monkeypatch.setattr(breaks, "_level_bounds", recording)
    for case, (y, X, h) in enumerate(SEARCH_INSTANCES[family]()):
        table = ssr_table_from_arrays(y, X, h)
        most = table.n // h - 1
        best = reference_dp(packed_ssr_table(y, X, h), most)[0]
        row_yy = np.cumsum(table.values[::-1, -1])[::-1]
        for chains in chain_counts(h):
            seen.clear()
            monkeypatch.setattr(breaks, "_CHAINS", chains)
            optimal_partitions([table], most)
            rows = np.concatenate([r for r, _ in seen])
            bounds = np.concatenate([
                np.pad(b, ((0, 0), (0, most - b.shape[1])), constant_values=np.inf)
                for _, b in seen
            ])
            assert np.isfinite(bounds).sum() > rows.size, f"{family} {case} {chains}"
            with np.errstate(invalid="ignore"):  # inf - inf where a level is new to a lane
                under = (best[1:, rows].T - bounds) / row_yy[rows, None]
            assert np.nanmax(under) <= breaks._PRUNE_SLACK_REL / 100, f"{family} {case} {chains}"


def planted_fund_table() -> SsrTable:
    """Three planted breaks, n = 3000, h = 450."""
    path = [(750, 0.8), (750, -0.8), (750, 0.8), (750, -0.8)]
    return build_ssr_table(make_sample(3000, 12, path, noise=0.006))


def test_pruned_search_solves_few_cells_on_a_planted_fund(monkeypatch):
    # Three planted breaks, n = 3000, h = 450: 1,367,929 reachable cells.
    # The search solved 57,308 of them (4.2%) when this test was written;
    # the bound is that share rounded up to 5%. At 8 row chains a step
    # solves every lane's windows in one batch where it can, so the
    # kernel runs on at most a third as many calls as there are start
    # rows (2,102). No call holds more windows than the sweep's batch
    # buffer, and no batch splits a run: each (fund, start) run of a call
    # begins at its row's first end. The buffer holds n - 2h + 2 = 2,102
    # windows here, and some rows' runs are longer than _BATCH_WINDOWS.
    table = planted_fund_table()
    n, h = table.n, table.h
    cells = solved_cells(monkeypatch)
    kernel, calls, heads_first = breaks.solve_windows, [], []

    def counting(sums, fund, start, end):
        calls.append(end.size)
        heads = np.flatnonzero((np.diff(fund, prepend=-1) != 0) | (np.diff(start, prepend=-1) != 0))
        first = np.where(start[heads] <= n - 2 * h, start[heads] + h - 1, n - 1)
        heads_first.append(bool((end[heads] == first).all()))
        return kernel(sums, fund, start, end)

    monkeypatch.setattr(breaks, "solve_windows", counting)
    (bs,) = select_break_count([table])
    reachable = int(packed_layout(3000, table.h)[1][-1])
    assert (table.h, reachable) == (450, 1_367_929)
    assert bs.chosen_m == 3
    assert len(cells) <= 0.05 * reachable
    rows = 1 + (n - 2 * h + 1)
    assert rows == 2102 and len(calls) <= rows / 3
    assert breaks._BATCH_WINDOWS < max(calls) <= max(breaks._BATCH_WINDOWS, n - 2 * h + 2)
    assert all(heads_first)


def test_prefix_sums_stop_at_each_rows_last_inner_end(monkeypatch):
    # Each start row's window to n-1 comes from its block's tiled reduce,
    # so the row's prefix sums stop at its last picked inner end. Run from
    # every start row to n-1 they would cover sum(n - i) = 3,154,500 rows;
    # on this fund they covered 1,770,206 (0.561) when this test was
    # written. The sweep's prefix sums are the ones over pair lanes.
    table = planted_fund_table()
    cumsum, rows = np.cumsum, []

    def counting(a, *args, **kwargs):
        if a.dtype == np.complex128:
            rows.append(a.shape[0])
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counting)
    (bs,) = select_break_count([table])
    full = sum(table.n - i for i in [0, *range(table.h, table.n - table.h + 1)])
    assert bs.chosen_m == 3 and full == 3_154_500
    assert sum(rows) <= 0.6 * full


def test_select_break_count_single_regime_zero_noise():
    sample = make_sample(400, 11, [(400, 0.5)])
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 0
    assert bs.regime_windows == ((0, 399),)
    # n=400, h=60: (m+1)*60 <= 400 holds for every m up to the default cap of 5.
    assert len(bs.criterion) == 6


def test_select_break_count_planted_rotation_with_noise():
    sample = make_sample(1000, 12, [(500, 0.8), (500, -0.8)], noise=0.01)
    (bs,) = select_break_count([build_ssr_table(sample)])
    assert bs.chosen_m == 1
    assert abs(bs.break_indices[0] - 499) <= 20


@pytest.mark.parametrize("t_df", [None, 3], ids=["gauss", "t3"])
def test_select_break_count_no_false_breaks_without_a_break(t_df):
    # The 30 seeds share one search, as equal-length funds do in a cohort.
    samples = [make_sample(600, seed, [(600, 0.5)], noise=0.006, t_df=t_df) for seed in range(30)]
    found = select_break_count([build_ssr_table(sample) for sample in samples])
    assert [seed for seed, bs in enumerate(found) if bs.chosen_m] == []


def test_select_break_count_recovers_break_under_heavy_tailed_noise():
    for seed in range(20):
        sample = make_sample(600, seed, [(300, 0.8), (300, -0.8)], noise=0.006, t_df=3)
        (bs,) = select_break_count([build_ssr_table(sample)])
        assert bs.chosen_m == 1, f"seed {seed}"
        assert abs(bs.break_indices[0] - 299) <= 20, f"seed {seed}"


def with_noise(sample: AlignedSample, eps: np.ndarray) -> AlignedSample:
    return dataclasses.replace(sample, r_fund=sample.r_fund + eps)


def ar1_noise(rng: np.random.Generator, n: int, phi: float, sd: float) -> np.ndarray:
    """Stationary AR(1) noise with marginal stdev ``sd``."""
    innov = rng.normal(0, sd * math.sqrt(1 - phi * phi), n)
    eps = np.empty(n)
    eps[0] = rng.normal(0, sd)
    for t in range(1, n):
        eps[t] = phi * eps[t - 1] + innov[t]
    return eps


def garch_noise(rng: np.random.Generator, n: int, alpha: float, beta: float,
                sd: float) -> np.ndarray:
    """GARCH(1,1) noise with unconditional stdev ``sd``."""
    omega = sd * sd * (1 - alpha - beta)
    z = rng.standard_normal(n)
    eps = np.empty(n)
    var = sd * sd
    for t in range(n):
        eps[t] = math.sqrt(var) * z[t]
        var = omega + alpha * eps[t] ** 2 + beta * var
    return eps


def one_day_shock(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian noise plus a one-day -20% return, as an unadjusted payout leaves."""
    eps = rng.normal(0, 0.006, n)
    eps[rng.integers(n)] -= 0.2
    return eps


def no_break_runs(noise):
    """(noise, BreakSet) for seeds 0..19 of a 600-day fund with no planted break."""
    for seed in range(20):
        eps = noise(np.random.default_rng([seed, 1]), 600)
        sample = with_noise(make_sample(600, seed, [(600, 0.5)]), eps)
        (bs,) = select_break_count([build_ssr_table(sample)])
        yield eps, bs


@pytest.mark.parametrize("noise", [
    lambda rng, n: ar1_noise(rng, n, 0.2, 0.006),
    lambda rng, n: garch_noise(rng, n, 0.10, 0.85, 0.006),
], ids=["ar1_0.2", "garch"])
def test_no_false_breaks_under_serial_correlation_or_clustering(noise):
    assert [bs.chosen_m for _, bs in no_break_runs(noise)] == [0] * 20


def test_few_false_breaks_under_strong_serial_correlation():
    # BIC's penalty assumes independent residuals; at phi = 0.5 the
    # effective sample is smaller than n and BIC can over-select.
    runs = no_break_runs(lambda rng, n: ar1_noise(rng, n, 0.5, 0.006))
    assert sum(bs.chosen_m > 0 for _, bs in runs) <= 2


def test_one_day_shock_false_breaks_fence_in_the_shock():
    # A -20% day is a 33-sigma outlier in the least-squares fit. When the
    # factors also moved that day, a regime of about h days around it can
    # absorb much of it with loadings of its own, and BIC pays for the
    # cut: 2 of these 20 seeds. Each such cut fences in the shock day.
    found = [(eps, bs) for eps, bs in no_break_runs(one_day_shock) if bs.chosen_m]
    assert len(found) <= 2
    for eps, bs in found:
        day = int(np.argmin(eps))
        lengths = {(a, b): b - a + 1 for a, b in bs.regime_windows}
        (home,) = [w for w in lengths if w[0] <= day <= w[1]]
        assert lengths[home] == min(lengths.values())


def test_select_break_count_recovers_break_under_clustered_noise():
    # GARCH(1,1) volatility clusters at the no-false-break test's
    # alpha = 0.10, beta = 0.85, same unconditional stdev as the t(3) case.
    for seed in range(20):
        eps = garch_noise(np.random.default_rng([seed, 1]), 600, 0.10, 0.85, 0.006)
        sample = with_noise(make_sample(600, seed, [(300, 0.8), (300, -0.8)]), eps)
        (bs,) = select_break_count([build_ssr_table(sample)])
        assert bs.chosen_m == 1, f"seed {seed}"
        assert abs(bs.break_indices[0] - 299) <= 20, f"seed {seed}"


def reversed_in_time(sample: AlignedSample) -> AlignedSample:
    """The same returns in reverse order, on the same dates."""
    return dataclasses.replace(
        sample,
        **{name: getattr(sample, name)[::-1].copy()
           for name in ("r_fund", "r_bench", "mkt_rf", "smb", "hml", "rf")},
    )


@pytest.mark.parametrize("path", [
    [(300, 0.8), (300, -0.8)],
    [(200, 0.8), (250, -0.8), (150, 0.0)],
], ids=["one_break", "two_breaks"])
def test_time_reversal_mirrors_the_breaks(path):
    # A break after day b splits days b and b+1; reversed, it splits days
    # n-2-b and n-1-b. The SSR bits differ, so only partitions are compared.
    for seed in range(10):
        sample = make_sample(600, seed, path, noise=0.006)
        mirror = reversed_in_time(sample)
        (forward,) = select_break_count([build_ssr_table(sample)])
        (backward,) = select_break_count([build_ssr_table(mirror)])
        n = sample.n
        assert forward.break_indices == tuple(
            sorted(n - 2 - b for b in backward.break_indices)
        ), f"seed {seed}"


@pytest.mark.parametrize("case", ["noisy", "exact_fit", "all_zero", "mean_only"])
def test_doubling_y_quadruples_every_ssr_exactly(case):
    sample = make_sample(600, 33, [(300, 0.6), (300, -0.6)],
                         noise=0.006 if case == "noisy" else 0.0)
    y, X = excess_over_benchmark(sample), design_matrix(sample)
    if case == "all_zero":
        y = np.zeros(600)
    elif case == "mean_only":
        y, X = np.random.default_rng(33).normal(size=600), np.ones((600, 1))
    once, twice = ssr_table_from_arrays(y, X, 90), ssr_table_from_arrays(2.0 * y, X, 90)
    reach = reachable_cells(600, 90)
    assert np.array_equal(row_kernel_ssr(twice)[reach], 4.0 * row_kernel_ssr(once)[reach])
    packed_once, packed_twice = packed_ssr_table(y, X, 90), packed_ssr_table(2.0 * y, X, 90)
    assert np.array_equal(packed_twice.values, 4.0 * packed_once.values)
    for a, b in zip(*optimal_partitions([once, twice], 5), strict=True):
        assert b.break_indices == a.break_indices
        assert b.total_ssr == 4.0 * a.total_ssr


def test_select_break_count_respects_max_breaks():
    # Four planted breaks but a cap of 2: never more than 2 reported.
    path = [(130, 0.8), (130, -0.8), (130, 0.8), (130, -0.8), (130, 0.8)]
    sample = make_sample(650, 13, path, noise=0.005)
    table = build_ssr_table(sample, trim=0.05)
    (bs,) = select_break_count([table], max_breaks=2)
    assert bs.chosen_m <= 2
    assert len(bs.criterion) <= 3
    with pytest.raises(BreakDetectionError, match="negative"):
        select_break_count([table], max_breaks=-1)


def test_select_break_count_deterministic():
    sample = make_sample(500, 14, [(250, 0.6), (250, -0.6)], noise=0.006)
    (first,) = select_break_count([build_ssr_table(sample)])
    assert (first,) == select_break_count([build_ssr_table(sample)])


def test_select_break_count_rejects_mismatched_table():
    table = build_ssr_table(make_sample(400, 15, [(400, 0.5)]))
    other = build_ssr_table(make_sample(300, 16, [(300, 0.5)]))
    for group in ([table, other], [other, table]):
        with pytest.raises(BreakDetectionError, match="tables differ in n, h or k"):
            select_break_count(group)


def _short_middle_regime_bs(min_regime: int | None = None):
    # Planted regimes of 600/30/600 observations, zero noise; trim low
    # enough that the 30-observation middle regime is admissible.
    sample = make_sample(1230, 17, [(600, 0.8), (30, -0.8), (600, 0.4)])
    table = build_ssr_table(sample, trim=0.02)
    (bs,) = select_break_count([table])
    return bs, table


def test_filter_short_regimes_zero_is_identity():
    bs, table = _short_middle_regime_bs()
    assert filter_short_regimes(bs, 0, table=table) is bs


def test_filter_short_regimes_merges_around_short_regime():
    bs, table = _short_middle_regime_bs()
    assert bs.chosen_m == 2
    assert bs.break_indices == (599, 629)
    filtered = filter_short_regimes(bs, 500, table=table)
    assert filtered.chosen_m == 0
    assert filtered.regime_windows == ((0, 1229),)
    assert filtered.total_ssr == table.ssr(0, 1229)


def test_filter_short_regimes_idempotent():
    bs, table = _short_middle_regime_bs()
    once = filter_short_regimes(bs, 500, table=table)
    twice = filter_short_regimes(once, 500, table=table)
    assert once == twice


def test_filter_short_regimes_keeps_long_regimes():
    sample = make_sample(1200, 18, [(600, 0.8), (600, -0.8)])
    table = build_ssr_table(sample)
    (bs,) = select_break_count([table])
    assert bs.chosen_m == 1
    filtered = filter_short_regimes(bs, 500, table=table)
    assert filtered.break_indices == bs.break_indices

