"""Importing a module loads only what that module needs.

The package ``__init__`` holds ``__version__`` and nothing else, so
``import fundshift.<module>`` runs that module's own imports and no
more. Each check starts a fresh interpreter, because this test session
has already imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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
    return set(json.loads(out.stdout))


def test_package_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after("import fundshift")
    assert "fundshift" in loaded
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("fundshift.")) == []


def test_marketdata_import_loads_no_analysis_stack():
    loaded = modules_after("import fundshift.marketdata")
    assert "fundshift.marketdata" in loaded
    unwanted = {"scipy", "fundshift.breaks", "fundshift.regress", "fundshift.pipeline"}
    assert sorted(unwanted & loaded) == []
