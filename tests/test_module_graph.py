"""Importing a module loads only what that module needs.

The package ``__init__`` holds ``__version__`` and nothing else, so
``import fundshift.<module>`` runs that module's own imports and no
more. The CLI imports the analysis stack only for ``analyze``, and
``marketdata`` and ``logging`` only for ``analyze`` and ``simulate``.
Each check starts a fresh interpreter, because this test session has
already imported everything.
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
#: What they must not load either: the market-data readers, the modules
#: those pull in, and logging, which only ``analyze`` and ``simulate`` use.
MARKET_DATA = {"fundshift.marketdata", "dataclasses", "logging"}


def probe(statement: str, **env: str | None):
    """The JSON value ``statement`` prints last, in a fresh interpreter.

    ``json`` and ``sys`` are imported first. Each keyword sets an
    environment variable of the child, or unsets it if None.
    """
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), child_env.get("PYTHONPATH")) if p
    )
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{statement}"],
        env=child_env, capture_output=True, text=True, check=True,
    )
    # The statement may print first; the value is the last line.
    return json.loads(out.stdout.splitlines()[-1])


def modules_after(statement: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter after ``statement``."""
    return set(probe(f"{statement}\nprint(json.dumps(sorted(sys.modules)))"))


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


def modules_after_commands(calls: list[list[str]]) -> set[str]:
    """``sys.modules`` after one fresh interpreter runs ``python -m fundshift.cli`` per call."""
    return modules_after(
        "import runpy\n"
        f"for argv in {calls!r}:\n"
        "    sys.argv = ['fundshift', *argv]\n"
        "    try:\n"
        "        runpy.run_module('fundshift.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
    )


def test_report_command_loads_no_analysis_stack(sim_dir, tmp_path):
    report = tmp_path / "report.json"
    assert main(analyze_argv(sim_dir, report)) == 0
    # Every table and format, run as ``python -m fundshift.cli report ...``.
    loaded = modules_after_commands([
        ["report", "--in", str(report), "--table", table, "--format", fmt]
        for table in REPORT_TABLES
        for fmt in ("csv", "md")
    ])
    assert "fundshift.tables" in loaded
    assert sorted(ANALYSIS_STACK & loaded) == []
    assert sorted(MARKET_DATA & loaded) == []


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_load_only_tables_of_the_package(flag):
    loaded = modules_after_commands([[flag]])
    assert sorted(m for m in loaded if m.startswith("fundshift.")) == ["fundshift.tables"]
    assert sorted((ANALYSIS_STACK | MARKET_DATA) & loaded) == []


def test_stylebox_import_loads_only_tables_of_the_package_and_no_numpy():
    loaded = modules_after("import fundshift.stylebox")
    assert sorted(m for m in loaded if m.startswith("fundshift.")) == [
        "fundshift.stylebox", "fundshift.tables",
    ]
    assert "numpy" not in loaded


def test_simulate_command_loads_no_scipy(sim_dir, tmp_path):
    # synth takes the taxonomy rules from stylebox, and fits nothing.
    argv = ["simulate", "--spec", str(sim_dir.parent / "spec.json"), "--out", str(tmp_path)]
    loaded = modules_after(
        "import fundshift.synth, fundshift.cli\n"
        f"assert fundshift.cli.main({argv!r}) == 0"
    )
    assert {"fundshift.synth", "numpy"} <= loaded
    assert sorted({"fundshift.breaks", "fundshift.regress"} & loaded) == []
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
    assert (tmp_path / "truth.json").is_file()


def test_analyze_command_loads_the_analysis_stack(sim_dir, tmp_path):
    argv = analyze_argv(sim_dir, tmp_path / "report.json")
    loaded = modules_after(f"import fundshift.cli\nassert fundshift.cli.main({argv!r}) == 0")
    # regress holds scipy's compiled t kernel; no scipy module stays in sys.modules.
    assert sorted(ANALYSIS_STACK - {"scipy"} - loaded) == []
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []
    assert (tmp_path / "report.json").is_file()


#: (dof, t) pairs on which the t kernel must give ``stdtr``'s bits.
KERNEL_DOFS = [1, 2, 3, 4, 5, 10, 100, 995, 4994, 1e6]
KERNEL_TS = [-0.0, -1e-300, -0.5, -2.0, -40.0, -1e3, -float("inf"), float("nan")]


def test_analysis_stack_loads_the_t_kernel_without_scipy_init_and_leaves_scipy_whole():
    stack, bits, cdfs = probe(
        "import fundshift.cli, fundshift.regress\n"
        "fundshift.cli._load('pipeline')\n"
        "stack = sorted(sys.modules)\n"
        "kernel = fundshift.regress.t_kernel()\n"
        f"grid = [(d, t) for d in {KERNEL_DOFS!r} for t in json.loads({json.dumps(KERNEL_TS)!r})]\n"
        "ours = [kernel(d, t) for d, t in grid]\n"
        "import numpy as np, scipy.special, scipy.stats\n"
        "theirs = [scipy.special.stdtr(d, t) for d, t in grid]\n"
        "bits = [np.array(v, dtype=float).view(np.int64).tolist() for v in (ours, theirs)]\n"
        "print(json.dumps([stack, bits,\n"
        "                  [scipy.stats.t.cdf(-2.0, 10), scipy.special.stdtr(10, -2.0)]]))"
    )
    assert "fundshift.regress" in stack
    assert sorted({"scipy._lib._array_api", "scipy.special._basic"} & set(stack)) == []
    # The kernel is the compiled function stdtr runs, and a later full
    # import of scipy works.
    assert bits[0] == bits[1]
    assert cdfs[0] == cdfs[1]


def test_analysis_stack_maps_no_scipy_openblas():
    maps = Path("/proc/self/maps")
    if not maps.is_file():
        pytest.skip("no /proc/self/maps here")
    mapped, loaded = probe(
        "import fundshift.cli, fundshift.regress\n"
        "fundshift.cli._load('pipeline')\n"
        "fundshift.regress.t_kernel()\n"
        "paths = {line.split()[-1] for line in open('/proc/self/maps') if '/' in line}\n"
        "print(json.dumps([sorted(paths), sorted(sys.modules)]))"
    )
    assert [p for p in mapped if "/scipy.libs/" in p] == []
    assert [p for p in mapped if "/_ufuncs_cxx." in p] != []
    assert [p for p in mapped if "/_ufuncs." in p] == []
    assert "scipy.special._ufuncs" not in loaded


def test_t_kernel_loads_at_the_first_fit_not_with_the_stack():
    maps = Path("/proc/self/maps")
    if not maps.is_file():
        pytest.skip("no /proc/self/maps here")
    stack, fitted = probe(
        "import numpy as np, fundshift.cli\n"
        "from fundshift.regress import ols\n"
        "def mapped():\n"
        "    return sorted({line.split()[-1] for line in open('/proc/self/maps') if '/' in line})\n"
        "fundshift.cli._load('pipeline')\n"
        "stack = mapped()\n"
        "X = np.column_stack([np.ones(20), np.arange(20.0)])\n"
        "ols(np.arange(20.0) ** 0.5, X, ('a', 'b'), 'm')\n"
        "print(json.dumps([stack, mapped()]))"
    )
    assert [p for p in stack if "/_ufuncs_cxx." in p] == []
    assert [p for p in fitted if "/_ufuncs_cxx." in p] != []
    assert [p for p in fitted if "/scipy.libs/" in p] == []


def pvalue_bits(before_fit: str = "") -> dict:
    """Bits of the p-values of two fits of one noisy design, in a fresh interpreter.

    ``before_fit`` runs after fundshift is imported and before the first
    fit loads the t kernel. Also reports whether scipy's package init ran.
    """
    return probe(
        "import numpy as np\n"
        "from fundshift.regress import ols\n"
        f"{before_fit}\n"
        "rng = np.random.default_rng(11)\n"
        "X = np.column_stack([np.ones(250), rng.normal(0, 0.01, (250, 3))])\n"
        "y = X @ np.array([1e-4, 0.9, 0.3, -0.02]) + rng.normal(0, 0.01, 250)\n"
        "fits = [ols(y, X, ('a', 'b', 'c', 'd'), 'm', hac=hac) for hac in (False, True)]\n"
        "p = np.array([l.pvalue for fit in fits for l in fit.loadings])\n"
        "assert np.all((p > 0.0) & (p < 1.0)), p\n"
        "print(json.dumps({'bits': p.view(np.int64).tolist(),\n"
        "                  'scipy_init': 'scipy._lib._array_api' in sys.modules}))"
    )


#: Ways to make the private kernel load fail, each run before the first fit.
KERNEL_FAILURES = {
    "no-scipy-spec": (
        "import importlib.util\n"
        "def find_spec(name, package=None):\n"
        "    raise ImportError(name)\n"
        "importlib.util.find_spec = find_spec"
    ),
    "no-capsule": (
        "import types, fundshift.regress\n"
        "fundshift.regress._load_ufuncs_cxx = lambda: types.SimpleNamespace(__pyx_capi__={})"
    ),
    # Only the next prototype made is swapped: its calls pass (t, dof).
    "swapped-arguments": (
        "import ctypes\n"
        "prototype = ctypes.CFUNCTYPE\n"
        "def swapped(*types):\n"
        "    ctypes.CFUNCTYPE = prototype\n"
        "    bind = prototype(*types)\n"
        "    return lambda address: (lambda f: lambda a, b: f(b, a))(bind(address))\n"
        "ctypes.CFUNCTYPE = swapped"
    ),
}


def test_t_kernel_fallback_gives_the_same_pvalue_bits():
    fast = pvalue_bits()
    assert not fast["scipy_init"]
    for failure, before_fit in KERNEL_FAILURES.items():
        failed = pvalue_bits(before_fit)
        assert failed["scipy_init"], failure
        assert failed["bits"] == fast["bits"], failure


def test_t_kernel_is_boost_t_cdf_once_scipy_is_loaded():
    # A process that imported scipy first fits with the same kernel as
    # one that did not, not with the stdtr ufunc.
    import numpy as np
    import scipy.special

    from fundshift.regress import t_kernel

    t_kernel.cache_clear()
    kernel = t_kernel()
    assert kernel is not scipy.special.stdtr
    grid = [(d, t) for d in KERNEL_DOFS for t in KERNEL_TS]
    ours = np.array([kernel(d, t) for d, t in grid])
    theirs = np.array([scipy.special.stdtr(d, t) for d, t in grid])
    assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))


@pytest.mark.parametrize(
    ("preset", "numpy_first", "expected"),
    [(None, False, "1"), ("2", False, "2"), (None, True, None)],
    ids=["unset", "user-setting-wins", "numpy-loaded-first"],
)
def test_load_stack_defaults_openblas_to_one_thread(preset, numpy_first, expected):
    value = probe(
        "import os, fundshift.cli\n"
        f"{'import numpy' if numpy_first else ''}\n"
        "fundshift.cli._load('pipeline')\n"
        "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))",
        OPENBLAS_NUM_THREADS=preset,
    )
    assert value == expected
