"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fundshift.cli import main as cli_main  # noqa: E402


def _allocate(mb: int) -> list[str]:
    # Touch every page so the allocation counts towards resident memory.
    return [sys.executable, "-c", f"b = bytearray({mb} * 1000 * 1000); b[::4096] = b'x' * len(b[::4096])"]


def test_peak_rss_is_per_child(tmp_path):
    with measure.Spawner() as spawner:
        large, _ = spawner.run(_allocate(150), {}, tmp_path / "large.out")
        small, _ = spawner.run(_allocate(1), {}, tmp_path / "small.out")
    assert large.exit_code == 0 and small.exit_code == 0
    assert large.peak_rss_mb > 150
    # getrusage(RUSAGE_CHILDREN) would report the large child's peak here,
    # and a child started by this (numpy-laden) process would report at
    # least this process's resident size.
    assert small.peak_rss_mb < 50


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    digests = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.generate("long", seed, tmp_path / name, cli_main)
        digests[name] = run.tree_digest(tmp_path / name)
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_long_calendars_are_gapped_differently(tmp_path):
    removed = workloads.generate("long", 3, tmp_path, cli_main)
    assert len(removed) == 3
    assert all(len(dates) == workloads.LONG_GAPS for dates in removed.values())
    assert len({tuple(dates) for dates in removed.values()}) == 3


def test_ssr_cell_counts():
    admissible, useful = run.ssr_cells(5000, 750)
    assert admissible == sum(5000 - length + 1 for length in range(750, 5001))
    assert 0.41 < useful / admissible < 0.43
    # Brute force on a small case.
    n, h = 40, 6
    cells = [(i, j) for i in range(n) for j in range(i + h - 1, n)]
    reach = [(i, j) for i, j in cells if (i == 0 or i >= h) and (j == n - 1 or j <= n - h - 1)]
    assert run.ssr_cells(n, h) == (len(cells), len(reach))


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.tail_percentile(list(range(19))) is None
    assert measure.tail_percentile(list(range(20)))[0] == "p50"
    assert measure.tail_percentile(list(range(40)))[0] == "p75"
    assert measure.tail_percentile(list(range(1, 101))) == ("p90", 90)
    assert measure.tail_percentile(list(range(1000)))[0] == "p99"


def test_recovery_check_accepts_truth_and_flags_each_mismatch(tmp_path):
    removed = workloads.generate("long", 5, tmp_path, cli_main)
    truth = json.loads((tmp_path / "truth.json").read_text())["funds"]
    panel = [l.split(",")[0] for l in (tmp_path / "factors.csv").read_text().splitlines()[1:]]

    def planted(t):
        # Aligned index of a planted break: removed rows up to it shift it left.
        gone = set(removed[t["fund_id"]])
        shifted = [b - sum(d in gone for d in panel[: b + 1]) for b in t["break_indices"]]
        return {
            "fund_id": t["fund_id"],
            "break_indices": shifted,
            "shifts": [{"intensity": i} for i in t["intensities"]],
            "regimes": [{"style": s} for s in t["styles"]],
        }

    report = {"funds": [planted(t) for t in truth]}
    assert set(checks.recovery_errors(report, tmp_path).values()) == {""}

    first = report["funds"][0]
    first["break_indices"][0] += checks.BREAK_TOL
    assert checks.recovery_errors(report, tmp_path)[first["fund_id"]] == ""
    first["break_indices"][0] += 1
    assert "tolerance" in checks.recovery_errors(report, tmp_path)[first["fund_id"]]
    first["break_indices"][0] -= checks.BREAK_TOL + 1

    first["shifts"][0]["intensity"] = "Unchanged"
    assert "intensities" in checks.recovery_errors(report, tmp_path)[first["fund_id"]]
    first["shifts"][0]["intensity"] = truth[0]["intensities"][0]

    first["regimes"][0]["style"] = "Mid Blend"
    assert "styles" in checks.recovery_errors(report, tmp_path)[first["fund_id"]]

    report["funds"].pop()
    assert checks.recovery_errors(report, tmp_path)[truth[-1]["fund_id"]] == "not analysed"
