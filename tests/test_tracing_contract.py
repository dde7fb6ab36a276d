"""Names the traced benchmark wraps must exist, or ``--trace 1`` dies at start-up.

``perfbench/run.py`` patches module attributes by name. Its span tables
are read here from the source text, without importing the benchmark.
A wrapped name must also be what ``analyze`` calls, or its span never
fires and its layer reads zero. ``cli.analyze_fund`` must be called once
per fund, with arguments from which ``pipeline.analyze_fund`` rebuilds
the same record: the traced run checks each record that way.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

from fundshift import breaks, cli, pipeline, regress

ROOT = Path(__file__).resolve().parents[1]
BENCH_RUN = ROOT / "perfbench" / "run.py"


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


def simulate(tmp_path: Path, fund_ids: list[str]) -> Path:
    """A cohort of 300-day funds, each with one SMB rotation at day 150."""
    spec = {
        "seed": 9,
        "t": 300,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": [
            {
                "fund_id": fund_id,
                "benchmark_id": "B1",
                "regimes": [
                    {"length": 150, "beta_mkt": 1.0, "beta_smb": 0.8},
                    {"length": 150, "beta_mkt": 1.0, "beta_smb": -0.8},
                ],
            }
            for fund_id in fund_ids
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--spec", str(spec_path), "--out", str(sim)]) == 0
    return sim


def analyze(sim: Path, report: Path, *flags: str) -> int:
    return cli.main([
        "analyze",
        "--nav", str(sim / "nav"),
        "--factors", str(sim / "factors.csv"),
        "--bench-map", str(sim / "benchmark_map.csv"),
        "--bench-nav", str(sim / "bench_nav"),
        "--out", str(report),
        *flags,
    ])


def test_cli_analyzes_each_fund_once_from_arguments_that_rebuild_its_record(
    tmp_path, monkeypatch
):
    # The benchmark replaces cli.analyze_fund with a wrapper that takes
    # positional arguments only, names the fund by the first one's
    # fund_id, and calls pipeline.analyze_fund(*args) a second time: the
    # records of both calls must serialise alike. The three funds share
    # one break search, and each is still analysed by its own call.
    sim = simulate(tmp_path, ["F1", "F2", "F3"])
    original = pipeline.analyze_fund
    calls = []

    def wrapper(*args):
        record = original(*args)
        again = pipeline.analyze_fund(*args)
        dump = lambda r: json.dumps(pipeline.fund_record_dict(r), sort_keys=True)
        calls.append((args[0].fund_id, record.fund_id, dump(record) == dump(again)))
        return record

    monkeypatch.setattr(cli, "analyze_fund", wrapper)
    searches = []
    select = pipeline.select_break_count
    monkeypatch.setattr(
        pipeline, "select_break_count",
        lambda samples, *rest, **kw: searches.append(len(samples)) or select(samples, *rest, **kw),
    )
    assert analyze(sim, tmp_path / "report.json", "--carhart") == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [fund["fund_id"] for fund in report["funds"]] == ["F1", "F2", "F3"]
    assert calls == [(fund_id, fund_id, True) for fund_id in ("F1", "F2", "F3")]
    assert searches == [3]


def test_benchmark_spans_fire_on_analyze(tmp_path, monkeypatch):
    sim = simulate(tmp_path, ["F1"])

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

    assert analyze(sim, tmp_path / "report.json", "--carhart") == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    fund = report["funds"][0]
    assert fund["chosen_m"] == 1
    assert [key for key, n in calls.items() if n == 0] == []
    # The benchmark sizes each table from what build_ssr_table returns.
    (table,) = results["fundshift.pipeline.build_ssr_table"]
    assert (table.n, table.h) == (fund["n_obs"], fund["h"])
    assert table.values.nbytes > 0


def test_names_wrapped_before_they_load_stay_wrapped_through_analyze(tmp_path):
    # perfbench wraps the cli names right after ``import fundshift.cli``,
    # before they load. This test run has loaded them all already, so a
    # fresh interpreter checks that loading keeps every wrapper in place.
    sim = simulate(tmp_path, ["F1"])
    names = [*span_tables()["CLI_SPANS"], "analyze_fund"]
    argv = ["analyze", "--nav", str(sim / "nav"), "--factors", str(sim / "factors.csv"),
            "--bench-map", str(sim / "benchmark_map.csv"), "--bench-nav", str(sim / "bench_nav"),
            "--out", str(tmp_path / "report.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", (
        "import json, sys\n"
        "import fundshift.cli as cli\n"
        "loaded = 'fundshift.marketdata' in sys.modules\n"
        "fired = []\n"
        "def wrap(name, fn):\n"
        "    return lambda *args, **kwargs: fired.append(name) or fn(*args, **kwargs)\n"
        f"for name in {names!r}:\n"
        "    setattr(cli, name, wrap(name, getattr(cli, name)))\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([loaded, code, sorted(set(fired))]))"
    )], env=env, capture_output=True, text=True, check=True)
    loaded, code, fired = json.loads(child.stdout)
    assert not loaded
    assert code == 0
    assert fired == sorted(names)
