"""Every demo script runs to the end and prints its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: A header line each demo prints above its main table.
DEMO_HEADERS = {
    "01_detect_planted_breaks.py": "BIC by break count (chosen m minimizes):",
    "02_style_transitions.py": "style_t,Large Value,Large Blend,",
    "03_performance_by_breaks.py": "group,funds,breaks,excess_return_pa,",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_HEADERS)


@pytest.mark.parametrize("name", sorted(DEMO_HEADERS))
def test_demo_runs_and_prints_its_table(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMO_HEADERS[name] in proc.stdout
