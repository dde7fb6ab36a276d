"""Correctness checks of the program's outputs against the planted truth."""

from __future__ import annotations

import bisect
import json
from pathlib import Path

#: A recovered break may sit this many aligned observations from the
#: planted one (the acceptance suite's tolerance).
BREAK_TOL = 20


def recovery_errors(report: dict, inputs: Path) -> dict[str, str]:
    """Per fund, why its analysis disagrees with ``truth.json`` ('' if it agrees).

    A fund agrees when it was analysed, its break count equals the planted
    one, every break lies within ``BREAK_TOL`` aligned observations of the
    planted break (planted indices count panel days; a removed NAV row
    before the break shifts it left), every break grades to the planted
    intensity and every regime lands in the planted style box.
    """
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    gaps = json.loads((inputs / "gaps.json").read_text(encoding="utf-8"))
    panel = [line.split(",", 1)[0] for line in
             (inputs / "factors.csv").read_text(encoding="utf-8").splitlines()[1:]]
    funds = {f["fund_id"]: f for f in report["funds"]}
    out: dict[str, str] = {}
    for t in truth["funds"]:
        fid = t["fund_id"]
        fund = funds.get(fid)
        if fund is None:
            out[fid] = "not analysed"
            continue
        removed = set(gaps.get(fid, ()))
        calendar = [d for d in panel if d not in removed]
        want = [bisect.bisect_right(calendar, panel[b]) - 1 for b in t["break_indices"]]
        got = fund["break_indices"]
        intensities = [s["intensity"] for s in fund["shifts"]]
        styles = [r["style"] for r in fund["regimes"]]
        if len(got) != len(want):
            out[fid] = f"{len(got)} breaks, planted {len(want)}"
        elif any(abs(g - w) > BREAK_TOL for g, w in zip(got, want)):
            out[fid] = f"breaks at {got}, planted at {want} (tolerance {BREAK_TOL})"
        elif intensities != t["intensities"]:
            out[fid] = f"intensities {intensities}, planted {t['intensities']}"
        elif styles != t["styles"]:
            out[fid] = f"styles {styles}, planted {t['styles']}"
        else:
            out[fid] = ""
    return out
