"""Acceptance suite: the nine contract-level checks, one test each.

Every test prints a single ``criterion N: PASS`` line on success (visible
with ``pytest -s`` or ``-rA``); under ``pytest -v`` the per-test
PASSED/FAILED status doubles as the pass/fail line. Stated runtime caps
are asserted inside the tests that carry them. One more counts the
memory of the cohort's report stage. The last tests pin the bytes of
the cohort reports and of the seed-7 perfbench reports to the numeric
stack they were recorded on, compare the same reports with references
in ``tests/references`` on any stack, and check that other BLAS kernels
move only the report's floats.
"""

import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy

from oracles import exhaustive_best_partition, normal_equations_fit, weekdays

from fundshift.breaks import (
    build_ssr_table,
    optimal_partition,
    select_break_count,
    ssr_table_from_arrays,
)
from fundshift import breaks, cli
from fundshift.cli import EXIT_OK, main
from fundshift.marketdata import AlignedSample
from fundshift.perf import annualized_metrics
from fundshift.regress import FactorLoading, RegressionResult, ols
from fundshift.synth import gen_factors
from fundshift.stylebox import (
    STYLE_BOX_LABELS,
    STYLE_BOX_ORDER,
    FactorState,
    IntensityClass,
    StyleBox,
    accumulate_transitions,
    classify_factor_shift,
    classify_size,
    classify_value,
)


def state(beta: float, significant: bool) -> FactorState:
    return FactorState(beta=beta, significant=significant)


def fabricated_fit(alpha: float, mkt: float = 1.0, model: str = "ff3") -> RegressionResult:
    loadings = tuple(
        FactorLoading(name=n, coef=c, se=0.01, tstat=c / 0.01, pvalue=0.01,
                      significant=True)
        for n, c in (("alpha", alpha), ("mkt_rf", mkt), ("smb", 0.1), ("hml", 0.1))
    )
    return RegressionResult(model=model, loadings=loadings, ssr=1.0, nobs=500,
                            dof=496, r_squared=0.9)


def excess_sample(e: np.ndarray) -> AlignedSample:
    n = e.shape[0]
    rf = np.full(n, 0.0002)
    zeros = np.zeros(n)
    return AlignedSample(
        fund_id="F1", dates=weekdays(n), r_fund=rf + e, r_bench=zeros.copy(),
        mkt_rf=zeros.copy(), smb=zeros.copy(), hml=zeros.copy(), rf=rf,
    )


def rotation_sample(seed: int, n: int = 1000, noise: float = 0.01) -> AlignedSample:
    """Planted single SMB rotation +0.8 to -0.8 at the midpoint.

    Factors come from the package's own generator at its default daily
    vols; only the planted exposure path and the noise stream are local.
    """
    panel = gen_factors(n, seed)
    mkt = np.asarray(panel.mkt_rf)
    smb = np.asarray(panel.smb)
    hml = np.asarray(panel.hml)
    rf = np.asarray(panel.rf)
    r_bench = rf + 1.0 * mkt
    beta = np.where(np.arange(n) < n // 2, 0.8, -0.8)
    noise_rng = np.random.default_rng(900_000 + seed)
    r_fund = r_bench + beta * smb + noise_rng.normal(0, noise, n)
    return AlignedSample(
        fund_id="F1", dates=weekdays(n), r_fund=r_fund, r_bench=r_bench,
        mkt_rf=mkt, smb=smb, hml=hml, rf=rf,
    )


def test_criterion_1_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k + 5, 201))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        want_beta, _, _ = normal_equations_fit(y, X)
        fit = ols(y, X, names=tuple(f"b{i}" for i in range(k)), model="test")
        got_beta = np.array([l.coef for l in fit.loadings])
        assert np.allclose(got_beta, want_beta, rtol=1e-8, atol=1e-12)
        resid = y - X @ got_beta
        assert np.max(np.abs(X.T @ resid)) <= 1e-8 * float(np.linalg.norm(y))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS - OLS matches normal-equations oracle on "
          f"200/200 instances ({elapsed:.2f}s)")


def test_criterion_2_dp_global_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    checked = 0
    while checked < 50:
        h = int(rng.integers(5, 13))
        n = int(rng.integers(2 * h, 121))
        m = int(rng.integers(0, 4))
        if (m + 1) * h > n:
            continue
        if checked % 5 == 4:
            y = np.zeros(n)  # exact ties everywhere: exercises tie-breaking
        else:
            y = rng.normal(size=n)
        X = np.ones((n, 1))
        table = ssr_table_from_arrays(y, X, h)
        want_breaks, want_total = exhaustive_best_partition(table, m)
        got = optimal_partition(table, m)
        assert got.total_ssr == want_total
        assert got.break_indices == want_breaks
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2: PASS - DP equals exhaustive minimum with earliest "
          f"tie-break on 50/50 instances ({elapsed:.2f}s)")


def test_criterion_3_planted_break_recovery():
    # Seeds 0..99 are a fixed draw of a process whose measured success
    # rates over seeds 0..499 are 500/500 detection and 492/500 location.
    start = time.perf_counter()
    detected = 0
    located = 0
    for seed in range(100):
        sample = rotation_sample(seed)
        (bs,) = select_break_count([build_ssr_table(sample)])
        if bs.chosen_m == 1:
            detected += 1
            if abs(bs.break_indices[0] - 499) <= 20:
                located += 1
    elapsed = time.perf_counter() - start
    assert detected >= 95, f"chosen_m = 1 in only {detected}/100 seeds"
    assert located >= 95, f"break within +-20 in only {located} of {detected} detections"
    assert elapsed < 120.0
    print(f"criterion 3: PASS - rotation detected in {detected}/100 seeds, "
          f"located within +-20 in {located} ({elapsed:.1f}s)")


def test_criterion_4_taxonomy_partition():
    grid = [
        state(0.7, True), state(-0.7, True), state(0.0, True),
        state(0.1, False), state(-0.1, False), state(0.0, False),
    ]
    for before in grid:
        for after in grid:
            got = classify_factor_shift(before, after)
            assert isinstance(got, IntensityClass)  # total: exactly one class
            flip = (
                before.significant and after.significant
                and before.sign * after.sign == -1
            )
            assert (got is IntensityClass.ROTATION) == flip
    example = classify_factor_shift(state(0.1, True), state(-0.8, True))
    assert example is IntensityClass.ROTATION
    print("criterion 4: PASS - taxonomy partitions all 36 state pairs; "
          "+0.1 sig to -0.8 sig grades Rotation")


def test_criterion_5_style_box_totality():
    grid = [
        state(0.7, True), state(-0.7, True), state(0.0, True),
        state(0.1, False), state(-0.1, False), state(0.0, False),
    ]
    seen = set()
    for smb in grid:
        for hml in grid:
            box = StyleBox(size=classify_size(smb), value=classify_value(hml))
            seen.add(box.label)
    assert seen == set(STYLE_BOX_LABELS)
    assert len(seen) == 9
    double_insig = StyleBox(
        size=classify_size(state(0.02, False)), value=classify_value(state(0.01, False))
    )
    assert double_insig.label == "Mid Blend"
    print("criterion 5: PASS - exactly 9 boxes, all reachable; "
          "double-insignificant maps to Mid Blend")


def test_criterion_6_fixture_arithmetic(tmp_path, capsys):
    rows = [{"n_breaks": 0, "funds": 313, "breaks": 0}]
    for m, funds in enumerate([34, 31, 32, 34, 29], start=1):
        rows.append({"n_breaks": m, "funds": funds, "breaks": m * funds})
    report = {
        "aggregates": {
            "break_histogram": {
                "rows": rows,
                "total_funds_with_breaks": sum(r["funds"] for r in rows[1:]),
                "total_breaks": sum(r["breaks"] for r in rows),
            }
        }
    }
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert main(["report", "--in", str(path), "--table", "breaks"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "total,160,473"

    rng = np.random.default_rng(6006)
    boxes = STYLE_BOX_ORDER
    for _ in range(20):
        chains = [
            [boxes[int(j)] for j in rng.integers(0, 9, size=int(rng.integers(1, 7)))]
            for _ in range(int(rng.integers(0, 12)))
        ]
        matrix = accumulate_transitions(chains)
        assert matrix["grand_total"] == sum(len(c) - 1 for c in chains)
    with capsys.disabled():
        print("criterion 6: PASS - bucket fixture renders totals 160/473; "
              "transition grand total equals adjacent pairs")


def test_criterion_7_metrics_identity():
    rng = np.random.default_rng(7007)
    for _ in range(100):
        n = int(rng.integers(100, 1500))
        e = rng.normal(rng.uniform(-0.001, 0.001), rng.uniform(0.002, 0.02), n)
        alpha_ff3 = float(rng.uniform(-0.001, 0.001))
        alpha_agt = float(rng.uniform(-0.001, 0.001))
        m = annualized_metrics(
            excess_sample(e),
            fabricated_fit(alpha_ff3), fabricated_fit(alpha_agt, model="agt"),
        )
        assert abs(m.excess_return_pa / m.stdev_pa - m.sharpe_pa) \
            <= 1e-12 * max(1.0, abs(m.sharpe_pa))
        assert m.ff3_alpha_pa == alpha_ff3 * 252.0 * 100.0
        assert m.agt_alpha_pa == alpha_agt * 252.0 * 100.0
        c = float(rng.uniform(0.5, 5.0))
        scaled = annualized_metrics(
            excess_sample(c * e),
            fabricated_fit(alpha_ff3), fabricated_fit(alpha_agt, model="agt"),
        )
        assert scaled.sharpe_pa == pytest.approx(m.sharpe_pa, rel=1e-12)
    print("criterion 7: PASS - ratio identity to 1e-12, exact alpha "
          "annualization and scale-invariant Sharpe on 100/100 samples")


def cohort_spec() -> dict:
    """30 funds: 10 Rotation, 10 Drift, 10 Strengthen, two 500-obs regimes."""
    hml_cycle = [0.5, -0.5, 0.0]
    funds = []

    def fund(fund_id: str, smb_pair: tuple[float, float], hml: float) -> dict:
        return {
            "fund_id": fund_id,
            "benchmark_id": "B1",
            "regimes": [
                {"length": 500, "beta_mkt": 1.0, "beta_smb": smb_pair[0],
                 "beta_hml": hml, "noise_sigma": 0.006},
                {"length": 500, "beta_mkt": 1.0, "beta_smb": smb_pair[1],
                 "beta_hml": hml, "noise_sigma": 0.006},
            ],
        }

    for i in range(10):
        funds.append(fund(f"R{i:02d}", (0.6, -0.6), hml_cycle[i % 3]))
    for i in range(10):
        funds.append(fund(f"D{i:02d}", (0.6, 0.0), hml_cycle[i % 3]))
    for i in range(10):
        funds.append(fund(f"S{i:02d}", (0.5, 1.0), 0.5 if i % 2 == 0 else -0.5))
    return {
        "seed": 2024,
        "t": 1000,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": funds,
    }


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cohort")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(cohort_spec()), encoding="utf-8")
    out = root / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out


def analyze_argv(sim_dir: Path, report_path: Path, *flags: str) -> list[str]:
    return [
        "analyze",
        "--nav", str(sim_dir / "nav"),
        "--factors", str(sim_dir / "factors.csv"),
        "--bench-map", str(sim_dir / "benchmark_map.csv"),
        "--bench-nav", str(sim_dir / "bench_nav"),
        "--out", str(report_path),
        *flags,
    ]


def run_analyze(sim_dir: Path, report_path: Path, *flags: str) -> int:
    return main(analyze_argv(sim_dir, report_path, *flags))


@pytest.fixture(scope="module")
def cohort_report(cohort_dir, tmp_path_factory) -> tuple[Path, float]:
    """The cohort's default-flag report and the seconds ``analyze`` took."""
    report_path = tmp_path_factory.mktemp("report") / "report.json"
    start = time.perf_counter()
    assert run_analyze(cohort_dir, report_path) == EXIT_OK
    return report_path, time.perf_counter() - start


#: The second reference report's ``analyze`` flags.
HAC_FLAGS = ("--hac", "--carhart", "--min-regime-obs", "300")


@pytest.fixture(scope="module")
def cohort_hac_report(cohort_dir, tmp_path_factory) -> Path:
    """The cohort's report with ``HAC_FLAGS``."""
    report_path = tmp_path_factory.mktemp("report") / "report.json"
    assert run_analyze(cohort_dir, report_path, *HAC_FLAGS) == EXIT_OK
    return report_path


def test_criterion_8_end_to_end_planted_cohort(cohort_dir, cohort_report):
    report_path, elapsed = cohort_report

    truth = {
        t["fund_id"]: t
        for t in json.loads(
            (cohort_dir / "truth.json").read_text(encoding="utf-8")
        )["funds"]
    }
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert len(report["funds"]) == 30

    intensity_hits = 0
    box_hits = 0
    box_total = 0
    for fund in report["funds"]:
        t = truth[fund["fund_id"]]
        got = [s["intensity"] for s in fund["shifts"]]
        if got == t["intensities"]:
            intensity_hits += 1
        for want_style, regime in zip(t["styles"], fund["regimes"]):
            box_total += 1
            if regime["style"] == want_style:
                box_hits += 1

    assert intensity_hits >= 27, f"intensity recovered for only {intensity_hits}/30"
    assert box_hits >= 0.9 * box_total, f"styles recovered {box_hits}/{box_total}"
    assert elapsed < 60.0
    print(f"criterion 8: PASS - intensities {intensity_hits}/30, styles "
          f"{box_hits}/{box_total}, analyze in {elapsed:.1f}s")


def test_criterion_9_determinism(cohort_dir, cohort_report, tmp_path):
    second = tmp_path / "second.json"
    assert run_analyze(cohort_dir, second) == EXIT_OK
    assert cohort_report[0].read_bytes() == second.read_bytes()
    print("criterion 9: PASS - consecutive analyze runs are byte-identical")


def test_analyze_holds_one_copy_of_its_report(cohort_dir, tmp_path, monkeypatch):
    # Counted, not timed: tracemalloc traces the report stage of one run.
    # build_report's peak may exceed the report it returns, and writing
    # the file may add to it, only by less than the file's size: a second
    # copy of the report, or the document held as text, would not fit.
    traced = {}
    build = cli.build_report

    def measured(*args, **kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()  # in case tracing was already on
        report = build(*args, **kwargs)
        live, peak = tracemalloc.get_traced_memory()
        traced["build"] = peak - live
        tracemalloc.reset_peak()
        traced["before_write"] = tracemalloc.get_traced_memory()[0]
        return report

    monkeypatch.setattr(cli, "build_report", measured)
    report_path = tmp_path / "report.json"
    try:
        assert run_analyze(cohort_dir, report_path) == EXIT_OK
        write = tracemalloc.get_traced_memory()[1] - traced["before_write"]
    finally:
        tracemalloc.stop()
    size = report_path.stat().st_size
    assert traced["build"] < size, f"build_report peaked {traced['build']} B above its result"
    assert write < size, f"writing a {size} B report grew traced memory by {write} B"
    print(f"report memory: PASS - build_report peak {traced['build']} B above its result, "
          f"write {write} B, against a {size} B file")


#: The numeric stack the pinned report bytes were recorded on. The same
#: code gives other float bits under another numpy, scipy (p-values come
#: from its compiled Boost ``t_cdf``, the function ``stdtr`` runs), BLAS
#: build or BLAS kernel.
PINNED_STACK = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "kernel": "SkylakeX",
}

#: sha256 of the cohort's default-flag report on ``PINNED_STACK``.
PINNED_REPORT_SHA256 = "bd10769aef84afc4e5b757297d91cf384c1bbad9bdd16fa55d3384e201a46fa0"

#: sha256 of the cohort's report with ``HAC_FLAGS`` on ``PINNED_STACK``.
PINNED_HAC_REPORT_SHA256 = "4a5f3f0eba84cf37c5fa917d1888cba35dc5c2e7d7d3969e594d014f48bd0a2e"


def openblas(query: str) -> str:
    """``get_corename`` or ``get_config`` of the OpenBLAS that numpy loaded, or "unknown"."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                call = getattr(lib, f"{prefix}_{query}{suffix}", None)
                if call is not None:
                    call.restype, call.argtypes = ctypes.c_char_p, []
                    return call().decode()
    return "unknown"


def numeric_stack() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel": openblas("get_corename"),
    }


def assert_pinned(report_path: Path, want: str, what: str) -> None:
    stack = numeric_stack()
    if stack != PINNED_STACK:
        pytest.skip(f"report bytes pinned on {PINNED_STACK}, this run has {stack}")
    digest = hashlib.sha256(report_path.read_bytes()).hexdigest()
    assert digest == want
    print(f"pinned: PASS - {what} sha256 {digest[:8]} on {stack['kernel']}")


def test_cohort_report_bytes_are_pinned(cohort_report):
    assert_pinned(cohort_report[0], PINNED_REPORT_SHA256, "cohort report")


def test_cohort_hac_report_bytes_are_pinned(cohort_hac_report):
    assert_pinned(cohort_hac_report, PINNED_HAC_REPORT_SHA256, "cohort report with HAC_FLAGS")


#: sha256 of the seed-7 perfbench reports on ``PINNED_STACK``. Some rows
#: of ``long`` solve runs longer than ``breaks._BATCH_WINDOWS`` windows.
PINNED_SEED7_SHA256 = {
    "long": "80790d8348517f625d488455a712570e5b8b7b752816337f26dcfff1d6e6460a",
    "wide": "59f7451a502d3419859d7a0ad39ce46b3c8c377bffcba26f568ebc6b4c2c8ba6",
}


def perfbench_workloads():
    """``perfbench/workloads.py``, which defines the benchmark's inputs and flags, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    """The seed-7 perfbench inputs and report of a workload, made once per module.

    ``seed7_run.search[name]`` holds the windows that run's
    ``breaks.solve_windows`` calls solved, and the number of calls.
    """
    made: dict[str, tuple[Path, Path]] = {}
    search: dict[str, tuple[int, int]] = {}

    def run(name: str) -> tuple[Path, Path]:
        if name not in made:
            workloads = perfbench_workloads()
            root = tmp_path_factory.mktemp(f"seed7-{name}")
            inputs, report_path = root / "inputs", root / "report.json"
            workloads.generate(name, 7, inputs, main)
            flags = workloads.WORKLOADS[name].analyze_flags
            solve, windows = breaks.solve_windows, []

            def counted(cells, fund, start, end):
                windows.append(end.size)
                return solve(cells, fund, start, end)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(breaks, "solve_windows", counted)
                assert run_analyze(inputs, report_path, *flags) == EXIT_OK
            made[name] = inputs, report_path
            search[name] = sum(windows), len(windows)
        return made[name]

    run.search = search
    return run


@pytest.mark.parametrize("name", sorted(PINNED_SEED7_SHA256))
def test_perfbench_seed7_report_bytes_are_pinned(name, seed7_run):
    _, report_path = seed7_run(name)
    assert_pinned(report_path, PINNED_SEED7_SHA256[name], f"seed-7 perfbench {name} report")


#: Windows solved and ``breaks.solve_windows`` calls of each seed-7
#: perfbench search on ``PINNED_STACK``. Unlike its time, the search's work
#: does not drift with the machine; which windows the bounds prune depends
#: on float bits, so the counts hold on that stack alone. A change that
#: moves them on purpose updates them here.
PINNED_SEED7_SEARCH = {"long": (225_226, 1_332), "wide": (708_182, 1_177)}


@pytest.mark.parametrize("name", sorted(PINNED_SEED7_SEARCH))
def test_perfbench_seed7_search_work_is_pinned(name, seed7_run):
    seed7_run(name)
    stack = numeric_stack()
    if stack != PINNED_STACK:
        pytest.skip(f"search counts pinned on {PINNED_STACK}, this run has {stack}")
    windows, calls = seed7_run.search[name]
    assert (windows, calls) == PINNED_SEED7_SEARCH[name]
    print(f"pinned: PASS - seed-7 {name} search solved {windows} windows in {calls} calls")


#: One reference per pinned report, recorded on ``PINNED_STACK``: the
#: sha256 of its input tree, the sha256 of the report with each float
#: replaced by ``FLOAT`` (all four in full would exceed 250 KB), and its
#: floats in order as ``repr`` strings. After a deliberate change to a
#: report, write ``reference_of`` of the new one on ``PINNED_STACK`` to
#: its file with ``json.dumps(..., sort_keys=True, indent=0)``.
REFERENCES = Path(__file__).parent / "references"
FLOAT = "<float>"


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, as perfbench/run.py takes it."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def split_floats(value, floats: list[float]):
    """``value`` with each float replaced by ``FLOAT``, appending the float to ``floats``."""
    if isinstance(value, float):
        floats.append(value)
        return FLOAT
    if isinstance(value, dict):
        return {key: split_floats(value[key], floats) for key in sorted(value)}
    if isinstance(value, list):
        return [split_floats(v, floats) for v in value]
    return value


def reference_of(inputs: Path, report_path: Path) -> dict:
    floats: list[float] = []
    structure = split_floats(json.loads(report_path.read_text(encoding="utf-8")), floats)
    text = json.dumps(structure, sort_keys=True, separators=(",", ":"))
    return {
        "inputs_sha256": tree_digest(inputs),
        "structure_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "floats": [repr(x) for x in floats],
    }


def made_report(request, name: str) -> tuple[Path, Path]:
    """The input tree and the report that the suite's fixtures made for ``name``."""
    if name.startswith("seed7_"):
        return request.getfixturevalue("seed7_run")(name.removeprefix("seed7_"))
    if name == "cohort_hac":
        return request.getfixturevalue("cohort_dir"), request.getfixturevalue("cohort_hac_report")
    return request.getfixturevalue("cohort_dir"), request.getfixturevalue("cohort_report")[0]


@pytest.mark.parametrize("name", ["cohort", "cohort_hac", "seed7_long", "seed7_wide"])
def test_report_agrees_with_its_reference_on_any_stack(name, request):
    # The sha256 pins hold only on PINNED_STACK and skip elsewhere; this
    # never skips. Every non-float must equal the reference's and every
    # float must lie within 1e-9 relative of it, the cross-kernel bound.
    ref = json.loads((REFERENCES / f"{name}.json").read_text(encoding="utf-8"))
    got = reference_of(*made_report(request, name))
    assert got["inputs_sha256"] == ref["inputs_sha256"], f"{name}: the generated inputs changed"
    assert got["structure_sha256"] == ref["structure_sha256"], (
        f"{name}: a key, string, integer, bool or null moved, or a float came or went"
    )
    moves = float_moves(list(map(float, ref["floats"])), list(map(float, got["floats"])), name)
    assert max(moves) <= 1e-9, f"{name}: a float moved {max(moves):.2g} relative"
    print(f"reference: PASS - {name}, {len(moves)} floats within {max(moves):.2g} relative")


#: Runs ``analyze`` on its arguments, then prints the OpenBLAS kernel it ran on.
KERNEL_CHILD = """
import sys
from fundshift.cli import main
code = main(sys.argv[1:])
from test_acceptance import openblas
print(openblas("get_corename"))
sys.exit(code)
"""


def float_moves(want, got, where: str = "report") -> list[float]:
    """Each float's relative move from ``want`` to ``got``; any other difference fails."""
    if isinstance(want, float) and isinstance(got, float):
        return [0.0 if want == got else abs(got - want) / max(abs(want), abs(got))]
    assert type(want) is type(got), where
    if isinstance(want, dict):
        assert want.keys() == got.keys(), where
        return [m for key in want for m in float_moves(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list):
        assert len(want) == len(got), where
        return [m for i, pair in enumerate(zip(want, got))
                for m in float_moves(*pair, f"{where}[{i}]")]
    assert want == got, where
    return []


@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_cohort_report_agrees_across_blas_kernels(cohort_dir, cohort_report, coretype, tmp_path):
    # The pinned bytes hold on one BLAS kernel. Under another, only floats
    # may move, by rounding: at most 6.5e-13 relative when this test was
    # written; it allows 1e-9. One child process per kernel.
    config = openblas("get_config")
    if "DYNAMIC_ARCH" not in config.split():
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {config}")
    default = openblas("get_corename")
    # A whole run forced to Prescott reports the corename Katmai, so the
    # run's own setting is compared too, as OpenBLAS reads it: any case.
    forced = os.environ.get("OPENBLAS_CORETYPE", "")
    if coretype == default or coretype.lower() == forced.lower():
        pytest.skip(f"{coretype} is the kernel the in-process report ran on")
    tests = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    out = tmp_path / "report.json"
    child = subprocess.run([sys.executable, "-c", KERNEL_CHILD, *analyze_argv(cohort_dir, out)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == EXIT_OK, child.stderr
    kernel = child.stdout.splitlines()[-1]
    assert kernel != default, f"OPENBLAS_CORETYPE={coretype} left the kernel at {default}"
    moves = float_moves(json.loads(cohort_report[0].read_text(encoding="utf-8")),
                        json.loads(out.read_text(encoding="utf-8")))
    assert max(moves) <= 1e-9
    moved = sum(m > 0.0 for m in moves)
    print(f"cross-kernel: PASS - under {kernel}, {moved} of {len(moves)} floats moved, "
          f"at most {max(moves):.2g} relative; nothing else moved")
