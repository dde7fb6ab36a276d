"""Summarise benchmark runs: median, quartiles and spread per metric.

Usage::

    python3 perfbench/summarize.py LOG... [--json OUT]

Each LOG is the standard output of one ``run.py`` invocation; its first
line names the workload and its last line is the JSON result. The
spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure ``BENCHMARK.json`` bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths: list[Path]) -> tuple[dict, dict[str, dict[str, list[float]]]]:
    """Machine facts of the first run, and workload to metric to the values
    of every run, in log order."""
    machine: dict = {}
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        workload = lines[0].split("workload=", 1)[1].split()[0]
        if not machine:
            machine = json.loads(lines[1].removeprefix("machine "))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{path}: run was not correct ({result['failed']} failed)")
        for name, metric in result["metrics"].items():
            out.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return machine, out


def describe(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("logs", nargs="+", type=Path)
    p.add_argument("--json", type=Path, help="also write the summary here")
    args = p.parse_args(argv)
    machine, runs = load(args.logs)
    summary = {
        workload: {name: describe(values) for name, values in metrics.items()}
        for workload, metrics in runs.items()
    }
    for workload, metrics in summary.items():
        for name, d in metrics.items():
            print(f"{workload:6s} {name:32s} runs={d['runs']:2d} median={d['median']:.6g} "
                  f"q1={d['q1']:.6g} q3={d['q3']:.6g} spread={d['spread']:.3f}")
    if args.json:
        doc = {"machine": machine, "workloads": summary}
        args.json.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
