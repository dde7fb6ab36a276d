"""Importing a module loads only what that module needs.

The package ``__init__`` holds ``__version__`` and nothing else, so
``import fundshift.<module>`` runs that module's own imports and no
more. The CLI imports the analysis stack only for ``analyze``. Each
check starts a fresh interpreter, because this test session has already
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fundshift.cli import main
from fundshift.tables import REPORT_TABLES

SRC = Path(__file__).resolve().parents[1] / "src"

#: What ``report``, ``--help`` and ``--version`` must not load.
ANALYSIS_STACK = {"numpy", "scipy", "fundshift.pipeline", "fundshift.breaks",
                  "fundshift.regress"}


def modules_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after ``statement``."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    # The statement may print first; the module list is the last line.
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import fundshift")
    assert "fundshift" in loaded
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("fundshift.")) == []


def test_marketdata_import_loads_no_analysis_stack():
    loaded = modules_after("import fundshift.marketdata")
    assert "fundshift.marketdata" in loaded
    assert sorted(ANALYSIS_STACK & loaded) == []


def test_cli_import_and_version_load_no_analysis_stack():
    loaded = modules_after(
        "import fundshift.cli\n"
        "try:\n"
        "    fundshift.cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert "fundshift.cli" in loaded
    assert sorted(ANALYSIS_STACK & loaded) == []


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("graph")
    regime = {"length": 150, "beta_mkt": 1.0, "beta_smb": 0.8}
    spec = {
        "seed": 9,
        "t": 300,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": [{"fund_id": "F1", "benchmark_id": "B1",
                   "regimes": [regime, {**regime, "beta_smb": -0.8}]}],
    }
    (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["simulate", "--spec", str(root / "spec.json"), "--out", str(root / "sim")]) == 0
    return root / "sim"


def analyze_argv(sim_dir: Path, out: Path) -> list[str]:
    return [
        "analyze",
        "--nav", str(sim_dir / "nav"),
        "--factors", str(sim_dir / "factors.csv"),
        "--bench-map", str(sim_dir / "benchmark_map.csv"),
        "--bench-nav", str(sim_dir / "bench_nav"),
        "--out", str(out),
    ]


def test_report_command_loads_no_analysis_stack(sim_dir, tmp_path):
    report = tmp_path / "report.json"
    assert main(analyze_argv(sim_dir, report)) == 0
    # Every table and format, run as ``python -m fundshift.cli report ...``.
    calls = [
        ["report", "--in", str(report), "--table", table, "--format", fmt]
        for table in REPORT_TABLES
        for fmt in ("csv", "md")
    ]
    loaded = modules_after(
        "import runpy\n"
        f"for argv in {calls!r}:\n"
        "    sys.argv = ['fundshift', *argv]\n"
        "    try:\n"
        "        runpy.run_module('fundshift.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
    )
    assert "fundshift.tables" in loaded
    assert sorted(ANALYSIS_STACK & loaded) == []


def test_simulate_command_loads_no_scipy(sim_dir, tmp_path):
    # synth reaches regress through stylebox and breaks, but fits nothing.
    argv = ["simulate", "--spec", str(sim_dir.parent / "spec.json"), "--out", str(tmp_path)]
    loaded = modules_after(
        "import fundshift.synth, fundshift.cli\n"
        f"assert fundshift.cli.main({argv!r}) == 0"
    )
    assert {"fundshift.synth", "fundshift.regress", "numpy"} <= loaded
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
    assert (tmp_path / "truth.json").is_file()


def test_analyze_command_loads_the_analysis_stack(sim_dir, tmp_path):
    argv = analyze_argv(sim_dir, tmp_path / "report.json")
    loaded = modules_after(f"import fundshift.cli\nassert fundshift.cli.main({argv!r}) == 0")
    assert sorted(ANALYSIS_STACK - loaded) == []
    assert (tmp_path / "report.json").is_file()
