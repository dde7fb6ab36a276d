"""Names the traced benchmark wraps must exist, or ``--trace 1`` dies at start-up.

``perfbench/run.py`` patches module attributes by name. Its span tables
are read here from the source text, without importing the benchmark.
A wrapped name must also be what ``analyze`` calls, or its span never
fires and its layer reads zero.
"""

import ast
import functools
import json
from pathlib import Path

import fundshift
from fundshift import breaks, cli, pipeline, regress

BENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def span_tables() -> dict[str, dict[str, str]]:
    """The literal dicts ``CLI_SPANS`` and ``PIPELINE_SPANS`` of the benchmark."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("CLI_SPANS", "PIPELINE_SPANS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_benchmark_span_names_exist():
    tables = span_tables()
    assert set(tables) == {"CLI_SPANS", "PIPELINE_SPANS"}
    for module, table in ((cli, tables["CLI_SPANS"]), (pipeline, tables["PIPELINE_SPANS"])):
        assert table
        for attr in table:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_benchmark_patched_names_exist():
    for module, attr in (
        (breaks, "optimal_partition"),
        (regress, "ols"),
        (pipeline, "fund_record_dict"),
        (pipeline, "analyze_fund"),
        (cli, "analyze_fund"),
        (cli, "main"),
    ):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_package_exports_resolve():
    missing = [name for name in fundshift.__all__ if not hasattr(fundshift, name)]
    assert missing == []


def test_benchmark_spans_fire_on_analyze(tmp_path, monkeypatch):
    spec = {
        "seed": 9,
        "t": 300,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": [
            {
                "fund_id": "F1",
                "benchmark_id": "B1",
                "regimes": [
                    {"length": 150, "beta_mkt": 1.0, "beta_smb": 0.8},
                    {"length": 150, "beta_mkt": 1.0, "beta_smb": -0.8},
                ],
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(sim)]) == 0

    tables = span_tables()
    targets = [
        (module, attr)
        for module, table in ((cli, "CLI_SPANS"), (pipeline, "PIPELINE_SPANS"))
        for attr in tables[table]
    ]
    calls = {f"{module.__name__}.{attr}": 0 for module, attr in targets}
    results = {key: [] for key in calls}

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = fn(*args, **kwargs)
            results[key].append(result)
            return result

        return wrapper

    for module, attr in targets:
        key = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counted(key, getattr(module, attr)))

    code = cli.main([
        "analyze",
        "--nav", str(sim / "nav"),
        "--factors", str(sim / "factors.csv"),
        "--bench-map", str(sim / "benchmark_map.csv"),
        "--bench-nav", str(sim / "bench_nav"),
        "--out", str(tmp_path / "report.json"),
        "--carhart",
    ])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    fund = report["funds"][0]
    assert fund["chosen_m"] == 1
    assert [key for key, n in calls.items() if n == 0] == []
    # The benchmark sizes each table from what build_ssr_table returns.
    (table,) = results["fundshift.pipeline.build_ssr_table"]
    assert (table.n, table.h) == (fund["n_obs"], fund["h"])
    assert table.values.nbytes > 0
