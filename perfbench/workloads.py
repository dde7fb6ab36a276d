"""Workload definitions and input generation.

Every workload is a synthetic cohort rendered by ``fundshift simulate``
from a spec that this module derives from the benchmark seed. The same
seed gives byte-identical files; the program only ever sees the files.

Planted loadings are chosen so that recovery is decided by the data,
not by chance:

* every planted break moves the SMB loading by at least 0.5, with
  daily noise of 0.001 and regimes of 400 days or more, so break count
  and location come out right on every seed (at 0.002, about one break
  in fifty landed more than 20 days off);
* every workload runs with ``--sig 1e-6``. A planted zero loading (the
  insignificant side of a Drift) gives a t statistic that is standard
  normal whatever the noise; at the default 5% level it would read as
  significant on one draw in twenty and the planted intensity would
  be a coin toss. Planted nonzero loadings have |t| above 20, so they
  stay significant;
* HML loadings are never zero and never change, so their grade never
  outranks the SMB grade.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Daily noise of a noisy regime (about 1.6% a year).
NOISE = 0.001

#: NAV rows each ``long`` fund is missing.
LONG_GAPS = 5


def _spec_rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tag.encode()]))


def _regime(length: int, smb: float, hml: float) -> dict:
    return {
        "length": length,
        "beta_mkt": 1.0,
        "beta_smb": smb,
        "beta_hml": hml,
        "noise_sigma": NOISE,
    }


#: SMB paths of the ``long`` funds: Strengthen, Rotation and Drift breaks
#: in a different order per fund.
_LONG_SMB = (
    (0.5, 1.0, -0.6, 0.0),
    (0.0, 0.6, -0.6, -1.1),
    (-0.6, 0.6, 0.0, 0.5),
)
_LONG_HML = (0.4, -0.4, 0.5)


def long_spec(seed: int) -> dict:
    """3 funds x 5000 days, four regimes each, HAC/Carhart flags."""
    t = 5000
    rng = _spec_rng(seed, "long")
    funds = []
    for f, (path, hml) in enumerate(zip(_LONG_SMB, _LONG_HML)):
        shifts = rng.integers(-100, 101, size=3)
        lengths = [1250 + int(d) for d in shifts]
        lengths.append(t - sum(lengths))
        funds.append({
            "fund_id": f"L{f}",
            "benchmark_id": "B1",
            "regimes": [_regime(n, smb, hml) for n, smb in zip(lengths, path)],
        })
    return {
        "seed": seed,
        "t": t,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0, "beta_hml": 0.1}],
        "funds": funds,
    }


def wide_spec(seed: int) -> dict:
    """32 funds x 1000 days: 8 each of Rotation, Drift, Strengthen, no break."""
    t = 1000
    rng = _spec_rng(seed, "wide")
    hml_cycle = (0.5, -0.5, 0.4, -0.4)
    funds = []
    for i in range(8):
        hml = hml_cycle[i % 4]
        sign = 1.0 if i % 2 == 0 else -1.0
        kinds = {
            "R": (0.6 * sign, -0.6 * sign),
            "D": (0.6 * sign, 0.0) if i < 4 else (0.0, 0.6 * sign),
            "S": (0.5 * sign, 1.0 * sign),
        }
        for kind, (a, b) in kinds.items():
            cut = int(rng.integers(400, 601))
            funds.append({
                "fund_id": f"{kind}{i:02d}",
                "benchmark_id": "B1",
                "regimes": [_regime(cut, a, hml), _regime(t - cut, b, hml)],
            })
        funds.append({
            "fund_id": f"N{i:02d}",
            "benchmark_id": "B1",
            "regimes": [_regime(t, (0.4, -0.4, 0.8, -0.8)[i % 4], hml)],
        })
    return {
        "seed": seed,
        "t": t,
        "benchmarks": [{"benchmark_id": "B1", "beta_mkt": 1.0}],
        "funds": funds,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulation spec of the cohort, from the seed.
    spec: Callable[[int], dict]
    #: Extra ``fundshift analyze`` flags.
    analyze_flags: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long", long_spec, ("--sig", "1e-6", "--hac", "--carhart"),
            "3 funds x 5000 days, 3 breaks each, gapped calendars: SSR table and DP "
            "dominate and set peak RSS; HAC and Carhart paths on",
        ),
        Workload(
            "wide", wide_spec, ("--sig", "1e-6"),
            "32 funds x 1000 days on one calendar, --sig only: per-fund fixed costs and "
            "process start weigh more; deciles computed",
        ),
    )
}


def drop_nav_rows(nav_dir: Path, seed: int, count: int) -> dict[str, list[str]]:
    """Delete ``count`` interior rows from every NAV file, different per fund.

    Returns the removed dates per fund. The day-zero row and the last row
    stay, so every fund still spans the whole panel but no fund's
    calendar is a contiguous slice of it.
    """
    removed: dict[str, list[str]] = {}
    for path in sorted(nav_dir.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rng = _spec_rng(seed, "gaps-" + path.stem)
        # lines[0] is the header, lines[1] the day-zero row.
        drop = set(int(x) for x in rng.choice(np.arange(2, len(lines) - 1), count, replace=False))
        removed[path.stem] = sorted(lines[i].split(",", 1)[0] for i in drop)
        path.write_text("".join(l for i, l in enumerate(lines) if i not in drop), encoding="utf-8")
    return removed


def generate(workload: str, seed: int, out: Path, simulate) -> dict[str, list[str]]:
    """Write a workload's inputs under ``out``; return removed NAV dates.

    ``simulate`` is ``fundshift.cli.main`` (passed in so this module does
    not import the program). Files: ``spec.json``, ``nav/``,
    ``bench_nav/``, ``factors.csv``, ``benchmark_map.csv``,
    ``truth.json`` and ``gaps.json``.
    """
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(WORKLOADS[workload].spec(seed), indent=1), encoding="utf-8")
    code = simulate(["simulate", "--spec", str(spec_path), "--out", str(out),
                     "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"fundshift simulate exited {code}")
    removed = drop_nav_rows(out / "nav", seed, LONG_GAPS) if workload == "long" else {}
    (out / "gaps.json").write_text(json.dumps(removed, sort_keys=True), encoding="utf-8")
    return removed
