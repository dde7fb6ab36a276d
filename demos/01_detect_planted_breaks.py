#!/usr/bin/env python3
"""Plant exposure breaks in a synthetic fund, then recover them.

The fund holds three regimes: a small-cap tilt, a rotation to large-cap,
and finally the same size bet plus a fresh value tilt. The benchmark
carries the market loading, so everything the detector sees in the
benchmark-adjusted return is style. We walk the full path a real NAV
file would take: NAV -> returns -> alignment -> SSR table -> break
search -> BIC scan. The SSR table holds one row of regression moments
per day; the search sweeps the start days from last to first and fits
only the windows that can still beat the best partition found, so most
of the O(n^2) windows are never fitted, yet every break and SSR is the
one the full table would give.
"""

from fundshift.breaks import build_ssr_table, select_break_count
from fundshift.marketdata import align, compute_returns
from fundshift.synth import BenchmarkSpec, FundSpec, RegimeSpec, gen_benchmark, gen_factors, gen_fund

T = 1200
SEED = 11

fund_spec = FundSpec(
    fund_id="DEMO",
    benchmark_id="BM",
    regimes=(
        RegimeSpec(length=400, beta_mkt=1.0, beta_smb=0.7, noise_sigma=0.006),
        RegimeSpec(length=400, beta_mkt=1.0, beta_smb=-0.5, noise_sigma=0.006),
        RegimeSpec(length=400, beta_mkt=1.0, beta_smb=-0.5, beta_hml=0.6,
                   noise_sigma=0.006),
    ),
)

factors = gen_factors(T, SEED)
bench_nav = gen_benchmark(BenchmarkSpec(benchmark_id="BM", beta_mkt=1.0), factors)
fund_nav, truth = gen_fund(fund_spec, factors, seed=SEED + 1)

print(f"simulated {fund_spec.fund_id}: {T} trading days, "
      f"{len(fund_spec.regimes)} planted regimes")
print(f"planted break indices: {list(truth.break_indices)}")

sample = align(compute_returns(fund_nav), compute_returns(bench_nav), factors)
table = build_ssr_table(sample, trim=0.15)
print(f"\naligned sample: n={sample.n}, minimum regime length h={table.h}, "
      f"SSR table of {table.values.nbytes / 1e3:.0f} kB moments")

# The search takes a group of equal-length funds; this one is a group of one.
(bs,) = select_break_count([table])
print("\nBIC by break count (chosen m minimizes):")
for m, bic in bs.criterion_values:
    marker = "  <- chosen" if m == bs.chosen_m else ""
    print(f"  m={m}: {bic:+.4f}{marker}")

print(f"\ndetected break indices: {list(bs.break_indices)}")
for (start, end), planted in zip(
    bs.regime_windows, fund_spec.regimes
):
    d0, d1 = sample.dates[start], sample.dates[end]
    print(f"  regime [{start:4d}, {end:4d}]  {d0} .. {d1}  "
          f"(planted smb={planted.beta_smb:+.1f}, hml={planted.beta_hml:+.1f})")

errors = [abs(got - want) for got, want in zip(bs.break_indices, truth.break_indices)]
print(f"\nlocation error per break (observations): {errors}")
