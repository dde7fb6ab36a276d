#!/usr/bin/env python3
"""Classify regimes into the nine-box style grid and grade each shift.

A small cohort is simulated with known style journeys: a rotation from
small to large cap, a drift out of a value bet, a strengthening growth
tilt and one fund that never changes. Each fund's regimes land in a
style box, each break gets an intensity grade, and all adjacent regime
pairs accumulate into the 9x9 transition matrix.
"""

from fundshift.marketdata import align, compute_returns
from fundshift.pipeline import AnalysisConfig, analyze_fund, build_aggregates, search_breaks
from fundshift.synth import parse_sim_spec, run_simulation
from fundshift.tables import render_table

NOISE = 0.006


def regime(length, **betas):
    return {"length": length, "beta_mkt": 1.0, "noise_sigma": NOISE, **betas}


spec = parse_sim_spec({
    "seed": 23,
    "t": 1000,
    "benchmarks": [{"benchmark_id": "BM", "beta_mkt": 1.0}],
    "funds": [
        {"fund_id": "ROTATOR", "benchmark_id": "BM", "regimes": [
            regime(500, beta_smb=0.7, beta_hml=0.5),
            regime(500, beta_smb=-0.7, beta_hml=0.5),
        ]},
        {"fund_id": "DRIFTER", "benchmark_id": "BM", "regimes": [
            regime(500, beta_hml=-0.6),
            regime(500),
        ]},
        {"fund_id": "DOUBLER", "benchmark_id": "BM", "regimes": [
            regime(500, beta_smb=0.5),
            regime(500, beta_smb=1.0),
        ]},
        {"fund_id": "STEADY", "benchmark_id": "BM", "regimes": [
            regime(1000, beta_smb=-0.6, beta_hml=0.4),
        ]},
    ],
})

sim = run_simulation(spec)
config = AnalysisConfig()
bench_returns = compute_returns(sim.benchmarks[0])

# Equal-length funds share one break search; each then runs on alone.
samples = [align(compute_returns(nav), bench_returns, sim.factors) for nav in sim.funds]
searched, skipped = search_breaks(samples, config)
fund_specs = {f.fund_id: f for f in spec.funds}

records = []
for fund in searched:
    rec = analyze_fund(fund, config)
    records.append(rec)
    planted = " -> ".join(b.label for b in fund_specs[rec.fund_id].styles)
    print(f"{rec.fund_id}: planted [{planted}]")
    for style in rec.styles:
        smb = next(l for l in style.fit.loadings if l.name == "smb")
        hml = next(l for l in style.fit.loadings if l.name == "hml")
        print(f"  regime {style.window}: {style.box.label:12s} "
              f"(smb {smb.coef:+.2f}{'*' if smb.significant else ' '} "
              f"hml {hml.coef:+.2f}{'*' if hml.significant else ' '})")
    for shift in rec.shifts:
        print(f"  break @{shift.break_index}: {shift.style_from.label} -> "
              f"{shift.style_to.label}  graded {shift.intensity.value}")
    print()

aggregates = build_aggregates(records)
print(f"transition matrix over {aggregates['transitions']['grand_total']} "
      "adjacent regime pairs:")
print(render_table(aggregates, "transitions", "csv"))
