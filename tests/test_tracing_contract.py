"""Names the traced benchmark wraps must exist, or ``--trace 1`` dies at start-up.

``perfbench/run.py`` patches module attributes by name. Its span tables
are read here from the source text, without importing the benchmark.
"""

import ast
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
