"""What importing the command-line module loads, checked in a fresh interpreter."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marcox

# Import the CLI, record which scipy modules are loaded, then run one
# maximum-likelihood fit, which imports scipy.optimize on first use.
_SCRIPT = """
import json, sys
import marcox.cli
after_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from marcox.inference import mle_fit
from marcox.paths import load_path
res = mle_fit(load_path([0.5, 1.2, 2.0, 3.1], 4.0), (0.5, 0.7), degree=1, budget=40)
print(json.dumps({
    "after_import": after_import,
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "loglik": res.loglik,
    "n_evals": res.n_evals,
}))
"""


@pytest.fixture(scope="module")
def fresh_run():
    src = str(Path(marcox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_cli_import_loads_no_scipy(fresh_run):
    assert fresh_run["after_import"] == []


def test_mle_fit_runs_after_deferred_import(fresh_run):
    assert fresh_run["optimize_loaded"]
    assert math.isfinite(fresh_run["loglik"])
    assert 1 <= fresh_run["n_evals"] <= 40
