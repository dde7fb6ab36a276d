"""End-to-end command-line workflow: simulate, analyze, report."""

import csv
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fundshift import cli, pipeline
from fundshift.cli import EXIT_CONFIG, EXIT_EMPTY, EXIT_IO, EXIT_OK, main
from fundshift.breaks import MIN_TRIM
from fundshift.pipeline import AnalysisConfig
from fundshift.stylebox import STYLE_BOX_LABELS
from fundshift.tables import GROUP_COLUMNS, REPORT_TABLES, render_table


def rotation_spec(seed: int = 9) -> dict:
    return {
        "seed": seed,
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


def three_fund_spec() -> dict:
    spec = rotation_spec()
    spec["funds"].append(
        {
            "fund_id": "F2",
            "benchmark_id": "B1",
            "regimes": [{"length": 300, "beta_mkt": 1.0, "beta_hml": 0.5}],
        }
    )
    spec["funds"].append(
        {
            "fund_id": "F3",
            "benchmark_id": "B1",
            "regimes": [
                {"length": 150, "beta_mkt": 1.0, "beta_smb": 0.6},
                {"length": 150, "beta_mkt": 1.0},
            ],
        }
    )
    return spec


def write_spec(tmp_path: Path, spec: dict, name: str = "spec.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def simulate(tmp_path: Path, spec: dict, out_name: str = "sim") -> Path:
    spec_path = write_spec(tmp_path, spec)
    out = tmp_path / out_name
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out


def analyze_argv(sim_dir: Path, report_path: Path, *extra: str) -> list[str]:
    return [
        "analyze",
        "--nav", str(sim_dir / "nav"),
        "--factors", str(sim_dir / "factors.csv"),
        "--bench-map", str(sim_dir / "benchmark_map.csv"),
        "--bench-nav", str(sim_dir / "bench_nav"),
        "--out", str(report_path),
        *extra,
    ]


def analyze(sim_dir: Path, report_path: Path, *extra: str) -> int:
    return main(analyze_argv(sim_dir, report_path, *extra))


def append_non_utf8(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\xff\xfe")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -------------------------------------------------------------- simulate


def test_simulate_file_inventory(tmp_path):
    out = simulate(tmp_path, three_fund_spec())
    assert sorted(p.name for p in (out / "nav").iterdir()) == [
        "F1.csv", "F2.csv", "F3.csv",
    ]
    assert [p.name for p in (out / "bench_nav").iterdir()] == ["B1.csv"]
    assert (out / "factors.csv").is_file()
    assert (out / "benchmark_map.csv").is_file()
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
    assert truth["seed"] == 9
    assert [t["fund_id"] for t in truth["funds"]] == ["F1", "F2", "F3"]
    assert truth["funds"][0]["intensities"] == ["Rotation"]


def test_simulate_rejects_spec_without_regimes(tmp_path, capsys):
    spec = rotation_spec()
    del spec["funds"][0]["regimes"]
    spec_path = write_spec(tmp_path, spec)
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "missing required key 'regimes'" in capsys.readouterr().err


def test_simulate_same_spec_and_seed_byte_identical(tmp_path):
    out1 = simulate(tmp_path, three_fund_spec(), "sim1")
    out2 = simulate(tmp_path, three_fund_spec(), "sim2")
    assert tree_bytes(out1) == tree_bytes(out2)


def test_simulate_seed_override(tmp_path):
    spec_path = write_spec(tmp_path, rotation_spec())
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out),
                 "--seed", "123"]) == EXIT_OK
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))
    assert truth["seed"] == 123


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    # A spec seed and an override seed seed one SeedSequence; neither may be < 0.
    spec_path = write_spec(tmp_path, rotation_spec(seed=-3))
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "a")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "simulation failed: seed must be >= 0, got -3" in err
    spec_path = write_spec(tmp_path, rotation_spec())
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "b"),
                 "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert "simulation failed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_simulate_missing_spec_file(tmp_path, capsys):
    code = main(["simulate", "--spec", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_IO
    assert "cannot read spec file" in capsys.readouterr().err


def test_simulate_non_utf8_spec_exits_2(tmp_path, capsys):
    spec_path = write_spec(tmp_path, rotation_spec())
    append_non_utf8(spec_path)
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid simulation spec: spec.json: not UTF-8 text" in err
    assert "Traceback" not in err


def _regime(spec: dict, k: int) -> dict:
    return spec["funds"][0]["regimes"][k]


#: Edits that make ``rotation_spec`` malformed, each with the message
#: that must name the key at fault.
MALFORMED_SPECS = {
    "seed_float": (lambda s: s.update(seed=1.9), "spec: key 'seed' must be int, got 1.9"),
    "seed_string": (lambda s: s.update(seed="7"), "spec: key 'seed' must be int, got '7'"),
    "seed_bool": (lambda s: s.update(seed=True), "spec: key 'seed' must be int, got True"),
    "t_float": (lambda s: s.update(t=300.0), "spec: key 't' must be int, got 300.0"),
    "length_string": (
        lambda s: _regime(s, 0).update(length="150"),
        "spec.funds[0].regimes[0]: key 'length' must be int, got '150'",
    ),
    "regime_typo": (
        lambda s: _regime(s, 1).update(beta_smbb=0.8),
        "spec.funds[0].regimes[1]: unknown key 'beta_smbb'",
    ),
    "factor_vols_typo": (
        lambda s: s.update(factor_vols={"smbb": 0.1}), "spec.factor_vols: unknown key 'smbb'"
    ),
    "top_level_typo": (lambda s: s.update(sede=9), "spec: unknown key 'sede'"),
    "fund_id_int": (
        lambda s: s["funds"][0].update(fund_id=7),
        "spec.funds[0]: key 'fund_id' must be str, got 7",
    ),
    "benchmark_not_object": (
        lambda s: s.update(benchmarks=[5]), "spec.benchmarks[0]: expected an object, got 5"
    ),
    "funds_not_list": (lambda s: s.update(funds=5), "spec.funds: expected a list, got 5"),
    # json.dumps writes NaN and Infinity, which json.loads reads back as floats.
    "noise_sigma_nan": (
        lambda s: _regime(s, 0).update(noise_sigma=float("nan")),
        "spec.funds[0].regimes[0]: key 'noise_sigma' must be a finite number, got nan",
    ),
    "beta_smb_nan": (
        lambda s: _regime(s, 1).update(beta_smb=float("nan")),
        "spec.funds[0].regimes[1]: key 'beta_smb' must be a finite number, got nan",
    ),
    "rf_daily_infinity": (
        lambda s: s.update(rf_daily=float("inf")),
        "spec: key 'rf_daily' must be a finite number, got inf",
    ),
    "beta_mkt_integer_overflow": (
        lambda s: s["benchmarks"][0].update(beta_mkt=10**400),
        "spec.benchmarks[0]: key 'beta_mkt' must be a finite number, got 1000",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_SPECS)
def test_simulate_rejects_malformed_spec(tmp_path, capsys, case):
    edit, message = MALFORMED_SPECS[case]
    spec = rotation_spec()
    edit(spec)
    code = main(["simulate", "--spec", str(write_spec(tmp_path, spec)),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"invalid simulation spec: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads integers of any length")
def test_simulate_integer_too_long_to_read_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of over 4300 digits.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(rotation_spec()).replace('"seed": 9', '"seed": ' + "1" * 5000),
        encoding="utf-8",
    )
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid simulation spec:" in err and "Traceback" not in err


def test_simulate_too_deeply_nested_spec_exits_2(tmp_path, capsys):
    # json.loads raises RecursionError on arrays nested past the recursion limit.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("[" * 200_000, encoding="utf-8")
    code = main(["simulate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid simulation spec:" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_simulate_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    spec_path = write_spec(tmp_path, rotation_spec())
    code = main(["simulate", "--spec", str(spec_path),
                 "--out", str(blocker / "sub")])
    assert code == EXIT_IO
    assert "cannot write outputs" in capsys.readouterr().err


def test_simulate_output_tree_is_pinned(tmp_path):
    # The bytes every analysis and benchmark set-up rests on: paths and
    # contents of the whole tree, hashed in sorted path order.
    out = simulate(tmp_path, three_fund_spec())
    digest = hashlib.sha256()
    for name, data in tree_bytes(out).items():
        digest.update(name.encode() + b"\0" + data)
    assert digest.hexdigest() == (
        "83ff944aa1c5056485861fb4e11e17761aebdb2b00b9f33c0b7bbf921e8a4d31"
    )


#: Spec, map or NAV-file ids that the id rule refuses.
BAD_IDS = ["", ".", "..", "a/b", "../x", "a\\b", " F1", "F1 ", "F\n1", "F\t1"]


@pytest.mark.parametrize("key", ["fund_id", "benchmark_id"])
@pytest.mark.parametrize("bad_id", BAD_IDS, ids=repr)
def test_simulate_bad_id_exits_2_and_writes_nothing(tmp_path, capsys, bad_id, key):
    spec = rotation_spec()
    spec["funds"][0][key] = bad_id
    if key == "benchmark_id":
        spec["benchmarks"][0]["benchmark_id"] = bad_id
    spec_path = write_spec(tmp_path, spec)
    out = tmp_path / "deep" / "er" / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid simulation spec" in err and "not a plain file name" in err
    assert sorted(tmp_path.rglob("*")) == [spec_path]


def edge_spec(start_date: str) -> dict:
    """The rotation spec on a 100-day calendar from ``start_date``."""
    spec = {**rotation_spec(), "start_date": start_date, "t": 100}
    for regime in spec["funds"][0]["regimes"]:
        regime["length"] = 50
    return spec


@pytest.mark.parametrize(
    "start_date, reason",
    [("0001-01-01", "B1: the NAV base row falls before 0001-01-01"),
     ("9999-12-01", "weekday calendar: 100 weekdays from 9999-12-01 run past 9999-12-31")],
    ids=["base-row-before-year-1", "calendar-past-year-9999"],
)
def test_simulate_past_the_range_of_dates_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                     start_date, reason):
    spec_path = write_spec(tmp_path, edge_spec(start_date))
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"simulation failed: {reason}" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == [spec_path]


@pytest.mark.parametrize(
    "days, alpha, nav", [(1200, 1.0, "inf"), (400, -0.99, "0.0")], ids=["overflow", "underflow"]
)
def test_simulate_nav_it_cannot_write_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                  days, alpha, nav):
    spec = {**rotation_spec(), "t": days}
    spec["funds"][0]["regimes"] = [{"length": days, "alpha": alpha}]
    spec_path = write_spec(tmp_path, spec)
    out = tmp_path / "sim"
    assert main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"fundshift: error: simulation failed: F1: NAV {nav} on ")
    assert sorted(tmp_path.rglob("*")) == [spec_path]


@pytest.mark.parametrize(
    "start_date, base_date, last_date",
    [("0001-01-02", "0001-01-01", "0001-05-21"), ("9999-08-16", "9999-08-15", "9999-12-31")],
    ids=["base-row-on-year-1", "calendar-to-friday-9999-12-31"],
)
def test_simulate_at_the_edge_of_the_range_of_dates(tmp_path, start_date, base_date, last_date):
    out = simulate(tmp_path, edge_spec(start_date))
    rows = (out / "nav" / "F1.csv").read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in (rows[1], rows[2], rows[-1])] == [
        base_date, start_date, last_date
    ]
    assert len(rows) == 102


# --------------------------------------------------------------- analyze


def test_analyze_recovers_planted_rotation(tmp_path):
    # The planted truth written by the generator is the oracle for the
    # analyzer's end-to-end output.
    out = simulate(tmp_path, rotation_spec())
    truth = json.loads((out / "truth.json").read_text(encoding="utf-8"))["funds"][0]
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    fund = report["funds"][0]
    assert fund["fund_id"] == "F1"
    assert fund["chosen_m"] == len(truth["break_indices"])
    assert fund["break_indices"] == truth["break_indices"]
    assert [s["intensity"] for s in fund["shifts"]] == truth["intensities"]
    assert [r["style"] for r in fund["regimes"]] == truth["styles"]
    assert fund["shifts"][0]["is_style_break"] is True
    assert report["config"]["sig_level"] == 0.05
    assert report["config"]["annualization"] == 252
    assert report["config"]["min_aligned_obs"] == 60
    assert report["version"]


def test_every_analysis_setting_is_an_analyze_flag():
    # --sig, --trim, --max-breaks, --min-regime-obs, --hac and --carhart;
    # anything else the analysis fixes is a module constant.
    assert [f.name for f in fields(AnalysisConfig)] == [
        "sig_level", "trim", "max_breaks", "min_regime_obs", "hac", "carhart",
    ]


def test_analyze_help_states_the_trim_range_of_the_break_search(capsys, monkeypatch):
    # cli.py spells the bound out, so that building the parser loads no numpy.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert f"minimum segment fraction, in [{MIN_TRIM}, 0.5)" in capsys.readouterr().out


def test_analyze_min_regime_obs_drops_short_regime_breaks(tmp_path):
    spec = {
        "seed": 31,
        "t": 1230,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": [
            {
                "fund_id": "F1",
                "benchmark_id": "B1",
                "regimes": [
                    {"length": 600, "beta_mkt": 1.0, "beta_smb": 0.5},
                    {"length": 30, "beta_mkt": 1.0, "beta_smb": -0.5},
                    {"length": 600, "beta_mkt": 1.0, "beta_smb": 0.5},
                ],
            }
        ],
    }
    out = simulate(tmp_path, spec)
    loose = tmp_path / "loose.json"
    strict = tmp_path / "strict.json"
    assert analyze(out, loose, "--trim", "0.02") == EXIT_OK
    assert analyze(out, strict, "--trim", "0.02", "--min-regime-obs", "500") == EXIT_OK
    m_loose = json.loads(loose.read_text(encoding="utf-8"))["funds"][0]["chosen_m"]
    m_strict = json.loads(strict.read_text(encoding="utf-8"))["funds"][0]["chosen_m"]
    assert m_loose == 2
    assert m_strict == 0


def test_analyze_report_compares_long_regimes_and_omits_short_ones(tmp_path):
    # At trim 0.05 the 55-day regime is detectable but shorter than the
    # 60 observations a comparison needs, so both breaks around it are
    # omitted and only the first break is compared.
    loads = [(0.6, 0.0), (-0.6, 0.0), (0.6, 0.5), (0.0, -0.5)]
    spec = {
        "seed": 1,
        "t": 1000,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": [
            {
                "fund_id": "F1",
                "benchmark_id": "B1",
                "regimes": [
                    {"length": length, "beta_mkt": 1.0, "beta_smb": smb, "beta_hml": hml}
                    for length, (smb, hml) in zip((400, 300, 55, 245), loads)
                ],
            }
        ],
    }
    out = simulate(tmp_path, spec)
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path, "--trim", "0.05") == EXIT_OK
    fund = json.loads(report_path.read_text(encoding="utf-8"))["funds"][0]
    assert fund["break_indices"] == [399, 699, 754]
    assert fund["omitted_comparisons"] == [699, 754]
    (cmp,) = fund["comparisons"]
    shift = fund["shifts"][0]
    for key in ("break_index", "break_date", "intensity", "style_from", "style_to"):
        assert cmp[key] == shift[key], key
    assert set(cmp["delta"]) == set(cmp["pre"]) - {"n_breaks"}
    for name, delta in cmp["delta"].items():
        assert delta == cmp["post"][name] - cmp["pre"][name], name
    assert cmp["pre"]["n_breaks"] == cmp["post"]["n_breaks"] == 3


def test_analyze_break_tables_stop_at_the_most_breaks_a_fund_holds(tmp_path):
    # Trim 0.001 would allow 999 breaks, but h never falls below k + 1 = 5,
    # so a 300-day fund holds at most 300 // 5 - 1 = 59.
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path, "--trim", "0.001") == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    fund = report["funds"][0]
    assert (fund["n_obs"], fund["h"]) == (300, 5)
    agg = report["aggregates"]
    assert [r["n_breaks"] for r in agg["break_histogram"]["rows"]] == list(range(60))
    groups = [r["group"] for r in agg["performance_by_breaks"]["rows"]]
    assert groups == [str(m) for m in range(60)] + ["all_with_breaks"]


def test_analyze_unmapped_fund_is_skipped(tmp_path):
    out = simulate(tmp_path, rotation_spec())
    orphan = out / "nav" / "F9.csv"
    orphan.write_text((out / "nav" / "F1.csv").read_text(encoding="utf-8"),
                      encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [f["fund_id"] for f in report["funds"]] == ["F1"]
    assert report["skipped"] == [{"fund_id": "F9", "reason": "no benchmark"}]


def test_analyze_bad_config_exits_2(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    assert analyze(out, tmp_path / "r.json", "--sig", "1.5") == EXIT_CONFIG
    assert "sig_level" in capsys.readouterr().err
    assert analyze(out, tmp_path / "r.json", "--jobs", "0") == EXIT_CONFIG


def test_analyze_max_breaks_above_bound_exits_2(tmp_path, capsys):
    # At trim 0.15 every regime holds 15% of the sample, so 5 breaks at most.
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "r.json"
    assert analyze(out, report_path, "--max-breaks", "6") == EXIT_CONFIG
    assert "max_breaks must be <= floor(1/trim) - 1 = 5 at trim 0.15, got 6" in (
        capsys.readouterr().err
    )
    assert analyze(out, report_path, "--trim", "0.2", "--max-breaks", "5") == EXIT_CONFIG
    assert "= 4 at trim 0.2, got 5" in capsys.readouterr().err
    assert not report_path.exists()
    assert analyze(out, report_path, "--max-breaks", "5") == EXIT_OK


def test_analyze_trim_with_overflowing_reciprocal_exits_2(tmp_path, capsys):
    # Both trims lie below the 0.001 floor; 1/1e-310 would also overflow.
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "r.json"
    for trim in ("1e-300", "1e-310"):
        assert analyze(out, report_path, "--trim", trim) == EXIT_CONFIG
        assert f"trim must lie in [0.001, 0.5), got {trim}" in capsys.readouterr().err
        assert not report_path.exists()


def test_analyze_trim_alone_caps_max_breaks_at_bound(tmp_path):
    # With no --max-breaks the cap is the bound itself, 4 at trim 0.2.
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "r.json"
    assert analyze(out, report_path, "--trim", "0.2") == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["config"]["max_breaks"] == 4
    rows = report["aggregates"]["break_histogram"]["rows"]
    assert [row["n_breaks"] for row in rows] == [0, 1, 2, 3, 4]


def test_analyze_malformed_factors_exits_2(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    (out / "factors.csv").write_text("date,wrong\n2006-01-02,1\n", encoding="utf-8")
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    assert "bad input file" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["factors.csv", "benchmark_map.csv"])
def test_analyze_non_utf8_input_file_exits_2(tmp_path, capsys, name):
    out = simulate(tmp_path, rotation_spec())
    append_non_utf8(out / name)
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"bad input file: {name}: not UTF-8 text" in err
    assert "Traceback" not in err


def test_analyze_non_finite_factor_exits_2(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    lines = (out / "factors.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[2] = "nan"
    lines[5] = ",".join(cells)
    (out / "factors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    assert "factor file: non-finite value 'nan'" in capsys.readouterr().err


def test_analyze_skips_fund_with_non_finite_nav(tmp_path):
    out = simulate(tmp_path, three_fund_spec())
    lines = (out / "nav" / "F2.csv").read_text(encoding="utf-8").splitlines()
    lines[7] = lines[7].split(",")[0] + ",inf"
    (out / "nav" / "F2.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [f["fund_id"] for f in report["funds"]] == ["F1", "F3"]
    assert report["skipped"] == [
        {"fund_id": "F2", "reason": "NAV file F2: non-finite value 'inf'"}
    ]


def widen_cell(path: Path) -> None:
    """Make the second cell of row 3 140,000 characters, above csv's field limit."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].split(",")[0] + "," + "1" * 140_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_analyze_skips_fund_with_nav_cell_over_the_csv_field_limit(tmp_path):
    out = simulate(tmp_path, three_fund_spec())
    widen_cell(out / "nav" / "F2.csv")
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [f["fund_id"] for f in report["funds"]] == ["F1", "F3"]
    assert report["skipped"] == [
        {"fund_id": "F2", "reason": "NAV file F2: field larger than field limit (131072)"}
    ]


@pytest.mark.parametrize(
    "name, context", [("factors.csv", "factor file"), ("benchmark_map.csv", "benchmark map")]
)
def test_analyze_input_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys, name, context):
    out = simulate(tmp_path, three_fund_spec())
    widen_cell(out / name)
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"bad input file: {context}: field larger than field limit" in err
    assert "Traceback" not in err


def test_analyze_rejects_benchmark_id_outside_bench_dir(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "X.csv").write_bytes((out / "bench_nav" / "B1.csv").read_bytes())
    (out / "benchmark_map.csv").write_text(
        "fund_id,benchmark_id\nF1,../../outside/X\n", encoding="utf-8"
    )
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    assert "not a plain file name" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_ids_with_separators_round_trip_from_simulate_to_analyze(tmp_path):
    spec = three_fund_spec()
    ids = ["F,1", "G|x", "Fund (G) & Co"]
    for fund, fund_id in zip(spec["funds"], ids):
        fund["fund_id"] = fund_id
    out = simulate(tmp_path, spec)
    assert (out / "benchmark_map.csv").read_text(encoding="utf-8") == (
        'fund_id,benchmark_id\n"F,1",B1\nFund (G) & Co,B1\nG|x,B1\n'
    )
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [f["fund_id"] for f in report["funds"]] == sorted(ids)
    assert report["skipped"] == []


@pytest.mark.parametrize("column", ["fund_id", "benchmark_id"])
@pytest.mark.parametrize("bad_id", BAD_IDS, ids=repr)
def test_analyze_map_with_bad_id_exits_2(tmp_path, capsys, bad_id, column):
    out = simulate(tmp_path, rotation_spec())
    row = (bad_id, "B1") if column == "fund_id" else ("F1", bad_id)
    with (out / "benchmark_map.csv").open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("fund_id", "benchmark_id"), row])
    assert analyze(out, tmp_path / "r.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bad input file" in err and "not a plain file name" in err
    assert not (tmp_path / "r.json").exists()


def test_analyze_carhart_needs_mom_column(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    # Rewrite the factor file without its momentum column.
    lines = (out / "factors.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name != "mom"]
    stripped = "\n".join(
        ",".join(line.split(",")[i] for i in keep) for line in lines
    ) + "\n"
    (out / "factors.csv").write_text(stripped, encoding="utf-8")
    assert analyze(out, tmp_path / "r.json", "--carhart") == EXIT_CONFIG
    assert "requires a mom column" in capsys.readouterr().err
    # Without the flag the stripped panel is perfectly usable.
    assert analyze(out, tmp_path / "r.json") == EXIT_OK


def test_analyze_missing_inputs_exit_3(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    code = main([
        "analyze",
        "--nav", str(out / "nav"),
        "--factors", str(out / "absent.csv"),
        "--bench-map", str(out / "benchmark_map.csv"),
        "--bench-nav", str(out / "bench_nav"),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_IO
    assert "cannot read input" in capsys.readouterr().err


def test_analyze_unwritable_report_exits_3(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    blocker = tmp_path / "blocker"
    blocker.write_text("file", encoding="utf-8")
    assert analyze(out, blocker / "report.json") == EXIT_IO
    assert "cannot write report" in capsys.readouterr().err


def test_analyze_streams_the_report_that_build_report_returns(tmp_path, monkeypatch):
    # The file is streamed from the report build_report returns, which
    # nothing cleans after it: the report is already clean, and its
    # serialisation with the CLI's settings is the file. The report is
    # captured as perfbench's traced run captures it.
    out = simulate(tmp_path, three_fund_spec())
    built = []
    build = cli.build_report

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_report", keep)
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    (report,) = built
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert report_path.read_text(encoding="utf-8") == text
    assert pipeline._clean(report) == report


def test_analyze_writes_a_non_finite_float_of_a_fund_entry_as_null(tmp_path, monkeypatch):
    out = simulate(tmp_path, three_fund_spec())
    entry_of = pipeline.fund_record_dict

    def non_finite(rec):
        entry = entry_of(rec)
        entry["metrics"]["sharpe_pa"] = math.inf
        entry["criterion"][-1]["bic"] = math.nan
        return entry

    monkeypatch.setattr(pipeline, "fund_record_dict", non_finite)
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    funds = json.loads(report_path.read_text(encoding="utf-8"))["funds"]
    assert [fund["metrics"]["sharpe_pa"] for fund in funds] == [None] * 3
    assert [fund["criterion"][-1]["bic"] for fund in funds] == [None] * 3


def test_analyze_report_failing_mid_stream_leaves_the_old_report_and_no_temp_file(
    tmp_path, monkeypatch
):
    # The last fund's entry cannot be encoded, so serialisation fails after
    # the others are streamed into the temp file. The error propagates,
    # the temp file goes, and the report already at --out keeps its bytes.
    out = simulate(tmp_path, three_fund_spec())
    entry_of = pipeline.fund_record_dict

    def unencodable_last(rec):
        entry = entry_of(rec)
        if rec.fund_id == "F3":
            entry["metrics"]["sharpe_pa"] = object()
        return entry

    monkeypatch.setattr(pipeline, "fund_record_dict", unencodable_last)
    report_path = tmp_path / "report.json"
    report_path.write_bytes(b"an older report\n")
    with pytest.raises(TypeError, match="not JSON serializable"):
        analyze(out, report_path)
    assert report_path.read_bytes() == b"an older report\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_analyze_empty_nav_dir_exits_4(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main([
        "analyze",
        "--nav", str(empty),
        "--factors", str(out / "factors.csv"),
        "--bench-map", str(out / "benchmark_map.csv"),
        "--bench-nav", str(out / "bench_nav"),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_EMPTY
    assert "no analyzable fund" in capsys.readouterr().err


def test_analyze_broken_benchmark_skips_dependents(tmp_path):
    out = simulate(tmp_path, rotation_spec())
    (out / "bench_nav" / "B1.csv").write_text("date,nav\ngarbage,100\n", encoding="utf-8")
    code = analyze(out, tmp_path / "r.json")
    assert code == EXIT_EMPTY  # the only fund depended on that benchmark


def test_analyze_non_utf8_benchmark_nav_skips_dependents(tmp_path, capsys):
    spec = three_fund_spec()
    spec["benchmarks"].append({"benchmark_id": "B2", "beta_mkt": 0.9})
    spec["funds"][1]["benchmark_id"] = "B2"
    out = simulate(tmp_path, spec)
    bench = out / "bench_nav" / "B2.csv"
    size = bench.stat().st_size
    append_non_utf8(bench)
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [f["fund_id"] for f in report["funds"]] == ["F1", "F3"]
    assert report["skipped"] == [{
        "fund_id": "F2",
        "reason": f"benchmark B2: B2.csv: not UTF-8 text (invalid start byte at byte {size})",
    }]
    assert "Traceback" not in capsys.readouterr().err


def test_analyze_logs_each_skipped_fund_once_and_reads_a_shared_benchmark_once(
    tmp_path, caplog, monkeypatch
):
    spec = three_fund_spec()
    spec["benchmarks"].append({"benchmark_id": "B2", "beta_mkt": 0.9})
    spec["funds"][1]["benchmark_id"] = spec["funds"][2]["benchmark_id"] = "B2"
    out = simulate(tmp_path, spec)
    append_non_utf8(out / "bench_nav" / "B2.csv")
    shutil.copy(out / "nav" / "F1.csv", out / "nav" / "F9.csv")  # no benchmark
    reads = []
    read_text = cli._read_text
    monkeypatch.setattr(cli, "_read_text", lambda path: reads.append(path.name) or read_text(path))
    caplog.set_level(logging.WARNING, logger="fundshift")
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    skipped = json.loads(report_path.read_text(encoding="utf-8"))["skipped"]
    reasons = {entry["fund_id"]: entry["reason"] for entry in skipped}
    assert sorted(reasons) == ["F2", "F3", "F9"]
    assert reasons["F9"] == "no benchmark"
    assert reasons["F2"] == reasons["F3"]
    assert reasons["F2"].startswith("benchmark B2: B2.csv: not UTF-8 text")
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert sorted(warnings) == [f"skipping {fund}: {reasons[fund]}" for fund in sorted(reasons)]
    assert reads.count("B2.csv") == 1


def overflowing_nav(path: Path, steps: int, jump: float) -> None:
    """Let a NAV fall ``steps`` times by x1e-10, jump to ``jump``, then move as before."""
    lines = path.read_text(encoding="utf-8").splitlines()
    dates = [line.split(",")[0] for line in lines[1:]]
    navs = [float(line.split(",")[1]) for line in lines[1:]]
    new = [navs[0] * 1e-10**i for i in range(steps + 1)]
    new += [jump * v / navs[steps + 1] for v in navs[steps + 1 :]]
    rows = [f"{d},{v!r}" for d, v in zip(dates, new)]
    path.write_text("\n".join([lines[0], *rows]) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "steps, jump", [(30, 1e300), (10, 1e100)], ids=["infinite-return", "square-overflows"]
)
def test_analyze_skips_a_fund_whose_returns_overflow(tmp_path, caplog, steps, jump):
    # An infinite return, or a finite one whose square overflows, left
    # every BIC and metric of the fund NaN (null in the report); the
    # full-sample fit now skips the fund with its reason.
    spec = rotation_spec()
    spec["funds"].append({**spec["funds"][0], "fund_id": "F2"})
    out = simulate(tmp_path, spec)
    alone = tmp_path / "alone"
    shutil.copytree(out, alone)
    (alone / "nav" / "F2.csv").unlink()
    assert analyze(alone, alone / "report.json") == EXIT_OK
    overflowing_nav(out / "nav" / "F2.csv", steps, jump)
    caplog.set_level(logging.WARNING, logger="fundshift")
    assert analyze(out, tmp_path / "report.json") == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    reason = "ff3: the dependent variable's sum of squares overflows"
    assert report["skipped"] == [{"fund_id": "F2", "reason": reason}]
    assert [r.getMessage() for r in caplog.records] == [f"skipping F2: {reason}"]
    (entry,) = report["funds"]
    (alone_entry,) = json.loads((alone / "report.json").read_text(encoding="utf-8"))["funds"]
    assert json.dumps(entry, sort_keys=True) == json.dumps(alone_entry, sort_keys=True)


def test_analyze_is_deterministic_and_jobs_invariant(tmp_path):
    out = simulate(tmp_path, three_fund_spec())
    r1, r2, r4 = (tmp_path / n for n in ("r1.json", "r2.json", "r4.json"))
    assert analyze(out, r1) == EXIT_OK
    assert analyze(out, r2) == EXIT_OK
    assert analyze(out, r4, "--jobs", "4") == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()
    assert r1.read_bytes() == r4.read_bytes()


def test_analyze_fund_entry_is_the_same_alone_or_in_a_cohort(tmp_path):
    # No state of one fund's analysis reaches the next: each fund's
    # entry is byte-identical whether its file is analysed alone or
    # after the other funds of the cohort.
    out = simulate(tmp_path, three_fund_spec())
    assert analyze(out, tmp_path / "cohort.json") == EXIT_OK
    cohort = json.loads((tmp_path / "cohort.json").read_text(encoding="utf-8"))["funds"]
    assert [fund["fund_id"] for fund in cohort] == ["F1", "F2", "F3"]
    for fund in cohort:
        alone = tmp_path / f"alone_{fund['fund_id']}"
        shutil.copytree(out, alone)
        for nav in (alone / "nav").iterdir():
            if nav.stem != fund["fund_id"]:
                nav.unlink()
        assert analyze(alone, alone / "report.json") == EXIT_OK
        (entry,) = json.loads((alone / "report.json").read_text(encoding="utf-8"))["funds"]
        assert json.dumps(entry, sort_keys=True) == json.dumps(fund, sort_keys=True)


def recording_search(monkeypatch, refuse: str = "") -> tuple[list, list]:
    """Patch the search so each table built and each sweep's funds are recorded.

    ``build_ssr_table`` raises for the fund ``refuse``. Returns the fund ids
    of the tables built, and the fund ids each ``select_break_count`` got.
    """
    built, searches, fund_of = [], [], {}
    build, select = pipeline.build_ssr_table, pipeline.select_break_count

    def building(sample, trim):
        built.append(sample.fund_id)
        if sample.fund_id == refuse:
            raise ValueError(f"{refuse}: refused")
        table = build(sample, trim)
        fund_of[id(table)] = sample.fund_id
        return table

    def recording(tables, max_breaks=None):
        searches.append([fund_of[id(table)] for table in tables])
        return select(tables, max_breaks)

    monkeypatch.setattr(pipeline, "build_ssr_table", building)
    monkeypatch.setattr(pipeline, "select_break_count", recording)
    return built, searches


def test_fund_entry_does_not_depend_on_its_search_group(tmp_path, monkeypatch):
    # Equal-length funds share one break search, in groups of at most
    # GROUP_FUND_DAYS fund-days, here two 300-day funds. A fund's entry is
    # byte-identical analysed alone, in a full group, in a cohort of mixed
    # lengths, and with the NAV files handed to the search in reverse.
    out = simulate(tmp_path, three_fund_spec())
    lines = (out / "nav" / "F3.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (out / "nav" / "F4.csv").write_text(lines[0] + "".join(lines[41:]), encoding="utf-8")
    with open(out / "benchmark_map.csv", "a", encoding="utf-8") as fh:
        fh.write("F4,B1\n")
    monkeypatch.setattr(pipeline, "GROUP_FUND_DAYS", 2 * 300)
    search = pipeline.search_breaks
    _, groups = recording_search(monkeypatch)

    def entries(fund_ids: str, reverse: bool = False) -> dict[str, str]:
        run = tmp_path / (fund_ids + ("-reversed" if reverse else ""))
        shutil.copytree(out, run)
        for nav in (run / "nav").iterdir():
            if nav.stem not in fund_ids.split("-"):
                nav.unlink()
        groups.clear()
        with monkeypatch.context() as m:
            if reverse:
                m.setattr(cli, "search_breaks", lambda samples, config: search(samples[::-1], config))
            assert analyze(run, run / "report.json") == EXIT_OK
        funds = json.loads((run / "report.json").read_text(encoding="utf-8"))["funds"]
        return {fund["fund_id"]: json.dumps(fund, sort_keys=True) for fund in funds}

    mixed = entries("F1-F2-F3-F4")
    assert groups == [["F1", "F2"], ["F3"], ["F4"]]
    assert entries("F1-F2-F3-F4", reverse=True) == mixed
    assert groups == [["F4"], ["F3", "F2"], ["F1"]]
    assert entries("F2-F3") == {key: mixed[key] for key in ("F2", "F3")}
    assert groups == [["F2", "F3"]]
    for fund_id in mixed:
        assert entries(fund_id) == {fund_id: mixed[fund_id]}
    assert [fund["n_obs"] for fund in map(json.loads, mixed.values())] == [300, 300, 300, 260]


def test_a_fund_whose_table_fails_is_skipped_alone_and_its_group_searched_once(
    tmp_path, caplog, monkeypatch
):
    out = simulate(tmp_path, three_fund_spec())
    alone = {}
    for fund_id in ("F1", "F3"):
        run = tmp_path / fund_id
        shutil.copytree(out, run)
        for nav in (run / "nav").iterdir():
            if nav.stem != fund_id:
                nav.unlink()
        assert analyze(run, run / "report.json") == EXIT_OK
        (alone[fund_id],) = json.loads((run / "report.json").read_text(encoding="utf-8"))["funds"]
    built, searches = recording_search(monkeypatch, refuse="F2")
    caplog.set_level(logging.WARNING, logger="fundshift")
    assert analyze(out, tmp_path / "report.json") == EXIT_OK
    assert built == ["F1", "F2", "F3"]
    assert searches == [["F1", "F3"]]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["skipped"] == [{"fund_id": "F2", "reason": "F2: refused"}]
    assert [r.getMessage() for r in caplog.records] == ["skipping F2: F2: refused"]
    assert {fund["fund_id"]: fund for fund in report["funds"]} == alone


def test_a_length_whose_every_table_fails_runs_no_search(tmp_path, caplog, monkeypatch):
    # At trim 0.499 a 61-day fund gets h = 31, too long for two segments.
    spec = rotation_spec()
    spec["t"] = 61
    spec["funds"] = [
        {"fund_id": fund_id, "benchmark_id": "B1",
         "regimes": [{"length": 61, "beta_mkt": 1.0, "beta_smb": beta}]}
        for fund_id, beta in (("F1", 0.8), ("F2", -0.4))
    ]
    out = simulate(tmp_path, spec)
    built, searches = recording_search(monkeypatch)
    caplog.set_level(logging.WARNING, logger="fundshift")
    assert analyze(out, tmp_path / "report.json", "--trim", "0.499") == EXIT_EMPTY
    assert built == ["F1", "F2"]
    assert searches == []
    reason = "ssr table: n=61 below 2h=62"
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [f"skipping {fund_id}: {reason}" for fund_id in ("F1", "F2")]


def test_report_self_consistency(tmp_path):
    # The stored aggregates must be recomputable from the per-fund
    # records alone.
    out = simulate(tmp_path, three_fund_spec())
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    funds = report["funds"]
    agg = report["aggregates"]

    for row in agg["break_histogram"]["rows"]:
        assert row["funds"] == sum(1 for f in funds if f["chosen_m"] == row["n_breaks"])
        assert row["breaks"] == row["n_breaks"] * row["funds"]
    assert agg["break_histogram"]["total_funds_with_breaks"] == sum(
        1 for f in funds if f["chosen_m"] >= 1
    )
    assert agg["break_histogram"]["total_breaks"] == sum(f["chosen_m"] for f in funds)

    assert agg["transitions"]["grand_total"] == sum(
        len(f["regimes"]) - 1 for f in funds
    )
    labels = agg["transitions"]["labels"]
    recounted = [[0] * 9 for _ in range(9)]
    for f in funds:
        styles = [r["style"] for r in f["regimes"]]
        for a, b in zip(styles, styles[1:]):
            recounted[labels.index(a)][labels.index(b)] += 1
    assert agg["transitions"]["counts"] == recounted

    by_group = {r["group"]: r for r in agg["performance_by_breaks"]["rows"]}
    for m in range(6):
        members = [f["metrics"] for f in funds if f["chosen_m"] == m]
        row = by_group[str(m)]
        assert row["funds"] == len(members)
        if members:
            assert row["excess_return_pa"] == pytest.approx(
                float(np.mean([x["excess_return_pa"] for x in members])), abs=1e-12
            )
        else:
            assert row["excess_return_pa"] is None


# ---------------------------------------------------------------- report


def fixture_report(tmp_path: Path) -> Path:
    # Aggregates-only report with hand-listed bucket counts.
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
    path = tmp_path / "fixture_report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    return path


def test_report_breaks_table_prints_bucket_totals(tmp_path, capsys):
    path = fixture_report(tmp_path)
    assert main(["report", "--in", str(path), "--table", "breaks"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_breaks,funds,breaks"
    assert lines[2] == "1,34,34"
    assert lines[-1] == "total,160,473"


def test_report_breaks_markdown_format(tmp_path, capsys):
    path = fixture_report(tmp_path)
    assert main(["report", "--in", str(path), "--table", "breaks",
                 "--format", "md"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| n_breaks | funds | breaks |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[-1] == "| total | 160 | 473 |"


def test_report_transitions_zero_matrix_with_labels(tmp_path, capsys):
    # A cohort with no breaks yields the fully labeled 9x9 zero matrix.
    spec = rotation_spec()
    spec["funds"][0]["regimes"] = [{"length": 300, "beta_mkt": 1.0, "beta_smb": 0.5}]
    out = simulate(tmp_path, spec)
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    assert main(["report", "--in", str(report_path), "--table", "transitions"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "style_t," + ",".join(STYLE_BOX_LABELS) + ",Total"
    assert len(lines) == 11
    for label, line in zip(STYLE_BOX_LABELS, lines[1:]):
        assert line == label + ",0,0,0,0,0,0,0,0,0,0"
    assert lines[-1] == "Total," + ",".join(["0"] * 9) + ",0"


def test_report_performance_header_matches_schema(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    assert main(["report", "--in", str(report_path), "--table", "performance"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(GROUP_COLUMNS)
    assert lines[-1].startswith("all_with_breaks,1,1,")


def test_report_deciles_small_cohort_message(tmp_path, capsys):
    out = simulate(tmp_path, rotation_spec())
    report_path = tmp_path / "report.json"
    assert analyze(out, report_path) == EXIT_OK
    assert main(["report", "--in", str(report_path), "--table", "deciles"]) == EXIT_OK
    assert capsys.readouterr().out == "no decile analysis (fewer than 10 funds)\n"


def test_report_invalid_file_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert main(["report", "--in", str(bad), "--table", "breaks"]) == EXIT_CONFIG
    assert main(["report", "--in", str(tmp_path / "absent.json"),
                 "--table", "breaks"]) == EXIT_IO
    capsys.readouterr()


def test_report_non_utf8_file_exits_2(tmp_path, capsys):
    path = fixture_report(tmp_path)
    append_non_utf8(path)
    assert main(["report", "--in", str(path), "--table", "breaks"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "invalid report file: fixture_report.json: not UTF-8 text" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "table, text",
    [
        # Fewer count rows than labels.
        ("transitions", json.dumps({"aggregates": {"transitions": {
            "labels": ["A", "B"], "counts": [[0, 0]], "grand_total": 0}}})),
        # A section that should map keys to counts given as a list.
        ("deciles", json.dumps({"aggregates": {"deciles": {
            "top_fund_ids": ["F1"], "bottom_fund_ids": ["F2"], "top_intensity": [],
            "bottom_intensity": {}, "top_destinations": {}, "bottom_destinations": {}}}})),
        # An integer literal longer than json.loads will convert.
        ("breaks", '{"aggregates": ' + "1" * 5000 + "}"),
        # Arrays nested past the recursion limit.
        ("breaks", "[" * 200_000),
    ],
    ids=["transitions-short-counts", "deciles-list-section", "integer-too-long",
         "nested-too-deep"],
)
def test_report_malformed_file_exits_2(tmp_path, capsys, table, text):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--in", str(path), "--table", table]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid report file" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize(
    "table, aggregates",
    [
        ("deciles", {"deciles": {
            "top_fund_ids": [1], "bottom_fund_ids": ["F2"], "top_intensity": {},
            "bottom_intensity": {}, "top_destinations": {}, "bottom_destinations": {}}}),
        ("transitions", {"transitions": {"labels": [1], "counts": [[0]], "grand_total": 0}}),
    ],
    ids=["deciles-int-fund-id", "transitions-int-label"],
)
def test_report_non_string_cell_exits_2_in_either_format(tmp_path, capsys, fmt, table,
                                                          aggregates):
    # A report fundshift writes holds ids and labels as strings; both
    # formats reject the same hand-edited file.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": aggregates}), encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", table, "--format", fmt])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid report file: table cell 1 is not a string" in captured.err
    assert captured.out == ""


def _deciles(**ids) -> dict:
    return {"deciles": {"top_fund_ids": ["F1"], "bottom_fund_ids": ["F2"], **ids,
                        "top_intensity": {}, "bottom_intensity": {},
                        "top_destinations": {}, "bottom_destinations": {}}}


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize(
    "table, aggregates",
    [
        ("transitions", {"transitions": {"labels": "ABCDEFGHI", "counts": [[0] * 9] * 9,
                                         "grand_total": 0}}),
        ("transitions", {"transitions": {"labels": {"A": 0}, "counts": [[0]], "grand_total": 0}}),
        ("deciles", _deciles(top_fund_ids="F1F2")),
        ("deciles", _deciles(bottom_fund_ids={"F2": 1})),
    ],
    ids=["transitions-string-labels", "transitions-dict-labels", "deciles-string-top-ids",
         "deciles-dict-bottom-ids"],
)
def test_report_column_that_is_not_a_list_exits_2_in_either_format(tmp_path, capsys, fmt, table,
                                                                   aggregates):
    # A string or a dict iterates too, as one label or fund per character
    # or key; both formats reject it before anything prints.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": aggregates}), encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", table, "--format", fmt])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid report file: table column" in captured.err
    assert "is not a list" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _performance_row(**cells) -> dict:
    row = {"group": "1", "funds": 1, "breaks": 1, **dict.fromkeys(GROUP_COLUMNS[3:], 0.5)}
    return {"performance_by_breaks": {"rows": [{**row, **cells}]}}


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize(
    "table, aggregates, reason",
    [
        ("transitions", {"transitions": {"labels": ["A", "B"], "counts": [[True, 1.5], [0, -3]],
                                         "grand_total": -0.5}}, "True is not a count"),
        ("performance", _performance_row(funds=[1, 2]), "[1, 2] is not a count"),
        ("performance", _performance_row(group={"m": 1}), "{'m': 1} is not a string"),
        ("performance", _performance_row(sharpe_pa="0.5"), "'0.5' is not a metric"),
        ("breaks", {"break_histogram": {"rows": [{"n_breaks": 0, "funds": 24, "breaks": 0}],
                                        "total_funds_with_breaks": 24, "total_breaks": None}},
         "None is not a count"),
        ("deciles", {"deciles": {
            "top_fund_ids": ["F1"], "bottom_fund_ids": ["F2"], "top_intensity": {"Mild": 2.5},
            "bottom_intensity": {}, "top_destinations": {}, "bottom_destinations": {}}},
         "2.5 is not a count"),
    ],
    ids=["transitions-bool-and-float-counts", "performance-list-funds", "performance-dict-group",
         "performance-string-metric", "breaks-null-total", "deciles-float-count"],
)
def test_report_cell_of_the_wrong_kind_exits_2_in_either_format(tmp_path, capsys, fmt, table,
                                                                 aggregates, reason):
    # Each cell is read by its column's kind: a count is an int >= 0 and not
    # a bool, a metric a float or null, a label or id a string.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": aggregates}), encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", table, "--format", fmt])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"invalid report file: table cell {reason}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize(
    "transitions, reason",
    [
        ({"labels": ["A"], "counts": [[0, 5]], "grand_total": 5}, "counts is not 1 x 1"),
        ({"labels": ["A"], "counts": [[5]], "grand_total": 99},
         "grand_total 99 is not the sum of the counts"),
    ],
    ids=["row-wider-than-labels", "grand-total-off"],
)
def test_report_transitions_shape_and_total_must_match_exit_2(tmp_path, capsys, fmt,
                                                               transitions, reason):
    # A ragged row would print more cells than the header names, and a
    # grand total off the counts would print a wrong Total cell.
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": {"transitions": transitions}}), encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", "transitions", "--format", fmt])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"invalid report file: transitions: {reason}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["csv", "md"])
@pytest.mark.parametrize(
    "rows, funds_with_breaks, breaks",
    [
        ([{"n_breaks": 0, "funds": 3, "breaks": 0}, {"n_breaks": 1, "funds": 2, "breaks": 3}],
         2, 3),
        ([{"n_breaks": 0, "funds": 3, "breaks": 0}, {"n_breaks": 1, "funds": 2, "breaks": 2}],
         7, 2),
        ([{"n_breaks": 0, "funds": 3, "breaks": 0}, {"n_breaks": 2, "funds": 1, "breaks": 2}],
         1, 2),
        ([{"n_breaks": 0, "funds": 1, "breaks": 5}], 7, 0),
    ],
    ids=["row-breaks-off", "totals-off", "n-breaks-out-of-sequence", "row-and-totals-off"],
)
def test_report_breaks_arithmetic_must_hold_exit_2(tmp_path, capsys, fmt, rows,
                                                   funds_with_breaks, breaks):
    # Each row's breaks are n_breaks x funds, n_breaks counts up from 0,
    # and the totals cover the rows with at least one break.
    histogram = {"rows": rows, "total_funds_with_breaks": funds_with_breaks,
                 "total_breaks": breaks}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": {"break_histogram": histogram}}),
                    encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", "breaks", "--format", fmt])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid report file: break_histogram: n_breaks, breaks or totals disagree" \
        in captured.err
    assert captured.out == ""


def test_report_markdown_header_escapes_a_pipe_in_a_label(tmp_path, capsys):
    aggregates = {"transitions": {"labels": ["A|B"], "counts": [[0]], "grand_total": 0}}
    expected = "| style_t | A\\|B | Total |\n| --- | --- | --- |\n" \
        "| A\\|B | 0 | 0 |\n| Total | 0 | 0 |\n"
    assert render_table(aggregates, "transitions", "md") == expected
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregates": aggregates}), encoding="utf-8")
    code = main(["report", "--in", str(path), "--table", "transitions", "--format", "md"])
    assert code == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", header)[1:-1]]
    assert cells == ["style_t", "A\\|B", "Total"]


@pytest.mark.parametrize("fmt", ["CSV", "markdown", ""])
def test_render_table_rejects_an_unknown_format(tmp_path, fmt):
    # Only "csv" and "md" render; any other format, "CSV" included, raises
    # before a table prints, even for deciles, which may have no rows.
    aggregates = json.loads(fixture_report(tmp_path).read_text(encoding="utf-8"))["aggregates"]
    for table, agg in (("breaks", aggregates), ("deciles", {"deciles": None})):
        with pytest.raises(ValueError, match="'csv' or 'md'"):
            render_table(agg, table, fmt)


def test_report_unknown_table_is_usage_error(tmp_path):
    path = fixture_report(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--in", str(path), "--table", "nonsense"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def run_cli(argv: list[str], log_level: str | None = None) -> subprocess.CompletedProcess:
    """``python -m fundshift.cli`` in a fresh process, ``FUNDSHIFT_LOG`` set or unset.

    ``logging`` is configured once a process, so each level needs its own.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("FUNDSHIFT_LOG", None)
    if log_level is not None:
        env["FUNDSHIFT_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "fundshift.cli", *argv], env=env,
                          capture_output=True, text=True)


def test_fundshift_log_info_logs_the_simulation_and_each_analyzed_fund(tmp_path):
    spec, out = write_spec(tmp_path, rotation_spec()), tmp_path / "sim"
    sim = run_cli(["simulate", "--spec", str(spec), "--out", str(out)], "INFO")
    assert sim.returncode == EXIT_OK
    assert sim.stderr == f"INFO fundshift: simulated 1 funds into {out}\n"
    run = run_cli(analyze_argv(out, tmp_path / "report.json"), "info")
    assert run.returncode == EXIT_OK
    assert run.stderr.splitlines() == [
        "INFO fundshift: analyzed F1: 1 break(s)",
        "INFO fundshift: analyzed 1 fund(s), skipped 0",
    ]


def test_a_clean_analyze_writes_nothing_to_stderr_with_fundshift_log_unset(tmp_path):
    run = run_cli(analyze_argv(simulate(tmp_path, rotation_spec()), tmp_path / "report.json"))
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, "", "")


def test_report_prints_the_same_under_fundshift_log_debug(tmp_path):
    report_path = tmp_path / "report.json"
    assert analyze(simulate(tmp_path, rotation_spec()), report_path) == EXIT_OK
    for table in REPORT_TABLES:
        argv = ["report", "--in", str(report_path), "--table", table, "--format", "md"]
        quiet, debug = run_cli(argv), run_cli(argv, "DEBUG")
        assert quiet.returncode == debug.returncode == EXIT_OK, table
        assert (debug.stdout, debug.stderr) == (quiet.stdout, ""), table
        assert quiet.stdout == render_table(
            json.loads(report_path.read_text(encoding="utf-8"))["aggregates"], table, "md"
        )


def test_report_of_a_non_utf8_file_exits_2_in_a_fresh_process(tmp_path):
    # ``report`` loads marketdata only to raise the decode error.
    path = fixture_report(tmp_path)
    append_non_utf8(path)
    run = run_cli(["report", "--in", str(path), "--table", "breaks"])
    assert (run.returncode, run.stdout) == (EXIT_CONFIG, "")
    size = path.stat().st_size - 2
    assert run.stderr == (
        "fundshift: error: invalid report file: fixture_report.json: "
        f"not UTF-8 text (invalid start byte at byte {size})\n"
    )
