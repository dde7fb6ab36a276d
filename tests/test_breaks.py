"""SSR table construction, DP segmentation and break-count selection."""

import numpy as np
import pytest

from oracles import dense_ssr_table, exhaustive_best_partition, weekdays, window_ssr

from fundshift.breaks import (
    BreakDetectionError,
    build_ssr_table,
    default_h,
    filter_short_regimes,
    optimal_partition,
    optimal_partitions,
    select_break_count,
    ssr_table_from_arrays,
)
from fundshift.marketdata import AlignedSample
from fundshift.regress import design_matrix, excess_over_benchmark, fit_benchmark_adjusted


def make_sample(
    n: int,
    seed: int,
    smb_path: list[tuple[int, float]],
    noise: float = 0.0,
    hml_beta: float = 0.0,
) -> AlignedSample:
    """Fund whose active SMB tilt follows a step function over regimes.

    smb_path lists (length, beta_smb) segments; the benchmark carries
    the market loading so the active return is pure style tilt.
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
    eps = rng.normal(0, noise, n) if noise > 0 else np.zeros(n)
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


def test_ssr_table_zero_noise_constant_beta_is_zero_everywhere():
    sample = make_sample(120, 1, [(120, 0.4)])
    table = build_ssr_table(sample, h=10)
    vals = table.values[~np.isnan(table.values)]
    # Exact fit leaves only Gram-accumulation rounding, which scales with y'y.
    y = sample.r_fund - sample.r_bench
    assert vals.max() <= 1e-12 * float(y @ y)


def test_ssr_table_full_window_matches_direct_fit():
    sample = make_sample(200, 2, [(100, 0.4), (100, -0.4)], noise=0.003)
    table = build_ssr_table(sample, h=20)
    direct = fit_benchmark_adjusted(sample).ssr
    assert table.ssr(0, 199) == pytest.approx(direct, rel=1e-10)


def test_ssr_table_spot_cells_match_refit_oracle():
    # 10 random reachable cells vs independent per-window lstsq refits.
    sample = make_sample(300, 3, [(150, 0.5), (150, -0.5)], noise=0.004)
    h = 12
    table = build_ssr_table(sample, h=h)
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
    h = 10
    table = build_ssr_table(sample, h=h)
    rng = np.random.default_rng(5)
    for _ in range(50):
        i = int(rng.choice([0, *range(h, 150)]))
        j = int(rng.choice([*range(i + 2 * h - 1, 200 - h), 199]))
        cut = int(rng.integers(i + h - 1, j - h + 1))
        assert table.ssr(i, cut) + table.ssr(cut + 1, j) <= table.ssr(i, j) + 1e-8


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n, h", [(10, 5), (11, 5), (90, 15), (121, 19)])
def test_ssr_table_matches_dense_oracle_on_reachable_cells(k, n, h):
    # Bitwise equal to the full row loop where a partition can reach,
    # NaN everywhere else.
    rng = np.random.default_rng(n * 10 + k)
    X = np.column_stack([np.ones(n), rng.normal(0, 0.01, (n, k - 1))])
    y = X @ rng.normal(size=k) + rng.normal(0, 0.001, n)
    table = ssr_table_from_arrays(y, X, h)
    dense = dense_ssr_table(y, X, h)
    reach = np.zeros((n, n), dtype=bool)
    for i in [0, *range(h, n - h + 1)]:
        reach[i, [*range(i + h - 1, n - h), n - 1]] = True
    assert np.array_equal(table.values[reach].view(np.uint64), dense[reach].view(np.uint64))
    assert np.isnan(table.values[~reach]).all()
    admissible = [[table.admissible(i, j) for j in range(n)] for i in range(n)]
    assert np.array_equal(np.array(admissible), reach)
    for i, j in ((1, n - 1), (h, n - 2)):
        with pytest.raises(BreakDetectionError, match="inadmissible"):
            table.ssr(i, j)


def test_ssr_table_preconditions():
    sample = make_sample(100, 6, [(100, 0.2)])
    with pytest.raises(BreakDetectionError, match="below 2h"):
        build_ssr_table(sample, h=60)
    with pytest.raises(BreakDetectionError, match="k\\+1"):
        build_ssr_table(sample, h=4)


def test_ssr_table_inadmissible_cell_raises():
    sample = make_sample(100, 6, [(100, 0.2)])
    table = build_ssr_table(sample, h=10)
    with pytest.raises(BreakDetectionError, match="inadmissible"):
        table.ssr(0, 5)


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
    sweep = optimal_partitions(table, 5)
    assert [part.m for part in sweep] == [0, 1, 2, 3, 4, 5]
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


def test_select_break_count_single_regime_zero_noise():
    sample = make_sample(400, 11, [(400, 0.5)])
    bs = select_break_count(sample)
    assert bs.chosen_m == 0
    assert bs.regime_windows == ((0, 399),)
    # n=400, h=60: (m+1)*60 <= 400 holds for every m up to the default cap of 5.
    assert [m for m, _ in bs.criterion_values] == [0, 1, 2, 3, 4, 5]


def test_select_break_count_planted_rotation_with_noise():
    sample = make_sample(1000, 12, [(500, 0.8), (500, -0.8)], noise=0.01)
    bs = select_break_count(sample)
    assert bs.chosen_m == 1
    assert abs(bs.break_indices[0] - 499) <= 20


def test_select_break_count_respects_max_breaks():
    # Four planted breaks but a cap of 2: never more than 2 reported.
    path = [(130, 0.8), (130, -0.8), (130, 0.8), (130, -0.8), (130, 0.8)]
    sample = make_sample(650, 13, path, noise=0.005)
    bs = select_break_count(sample, max_breaks=2, trim=0.05)
    assert bs.chosen_m <= 2
    assert max(m for m, _ in bs.criterion_values) <= 2


def test_select_break_count_deterministic():
    sample = make_sample(500, 14, [(250, 0.6), (250, -0.6)], noise=0.006)
    assert select_break_count(sample) == select_break_count(sample)


def test_select_break_count_rejects_mismatched_table():
    sample = make_sample(400, 15, [(400, 0.5)])
    other = build_ssr_table(make_sample(400, 16, [(400, 0.5)]), h=10)
    with pytest.raises(BreakDetectionError, match="does not match"):
        select_break_count(sample, table=other)


def _short_middle_regime_bs(min_regime: int | None = None):
    # Planted regimes of 600/30/600 observations, zero noise; trim low
    # enough that the 30-observation middle regime is admissible.
    sample = make_sample(1230, 17, [(600, 0.8), (30, -0.8), (600, 0.4)])
    h = default_h(1230, 0.02, 4)
    table = build_ssr_table(sample, h=h)
    bs = select_break_count(sample, trim=0.02, table=table)
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
    assert filtered.partition.total_ssr == table.ssr(0, 1229)


def test_filter_short_regimes_idempotent():
    bs, table = _short_middle_regime_bs()
    once = filter_short_regimes(bs, 500, table=table)
    twice = filter_short_regimes(once, 500, table=table)
    assert once == twice


def test_filter_short_regimes_keeps_long_regimes():
    sample = make_sample(1200, 18, [(600, 0.8), (600, -0.8)])
    table = build_ssr_table(sample, h=default_h(1200, 0.15, 4))
    bs = select_break_count(sample, table=table)
    assert bs.chosen_m == 1
    filtered = filter_short_regimes(bs, 500, table=table)
    assert filtered.break_indices == bs.break_indices


def test_filter_short_regimes_requires_table_when_merging():
    bs, _ = _short_middle_regime_bs()
    with pytest.raises(BreakDetectionError, match="table"):
        filter_short_regimes(bs, 500)
