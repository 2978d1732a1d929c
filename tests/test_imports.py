"""What importing the command-line module loads, checked in a fresh interpreter."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marcox

# Import the CLI, record which scipy modules are loaded and whether
# numpy.polynomial is, then run one maximum-likelihood fit and record the
# scipy modules again, with the standard-library modules that only one rarely
# used function imports.
_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import marcox.cli
after_import = scipy_modules()
polynomial = "numpy.polynomial" in sys.modules
from marcox.inference import mle_fit
from marcox.paths import load_path
res = mle_fit(load_path([0.5, 1.2, 2.0, 3.1], 4.0), (0.5, 0.7), degree=1, budget=40)
print(json.dumps({
    "after_import": after_import,
    "polynomial": polynomial,
    "after_fit": scipy_modules(),
    "deferred": sorted(m for m in ("concurrent.futures", "csv") if m in sys.modules),
    "loglik": res.loglik,
    "n_evals": res.n_evals,
}))
"""


# With scipy made unimportable, run the fitting and checking commands through
# cli.main in the directory given as the first argument and print their exit
# codes.
_NO_SCIPY_SCRIPT = """
import contextlib, io, json, pathlib, sys
sys.modules["scipy"] = None
from marcox import cli
d = pathlib.Path(sys.argv[1])
model = {"T": 10.0, "beta0": 1.0, "w": 0.5}
(d / "model.json").write_text(json.dumps(dict(model, gamma={"type": "poly", "coeffs": [1.0, 0.1]})))
(d / "fit.json").write_text(json.dumps(dict(model, degree=1, start=[1.0, 0.1], budget=50)))
(d / "mcmc.json").write_text(json.dumps(dict(model, degree=1, iters=60, burnin=10, pilot_iters=20, seed=1)))
events = str(d / "events.csv")
argvs = [
    ["simulate", "--config", str(d / "model.json"), "--seed", "1", "--out", events],
    ["fit-mle", "--events", events, "--config", str(d / "fit.json")],
    ["fit-mcmc", "--events", events, "--config", str(d / "mcmc.json"), "--out", str(d / "chain.csv")],
    ["validate", "--events", events, "--config", str(d / "model.json"), "--mc-n", "2000"],
]
codes = {}
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = cli.main(argv)
print(json.dumps(codes))
"""


def run_fresh(script: str, *args: str) -> dict:
    """The JSON that script, run with args in a fresh interpreter, prints as its last line."""
    src = str(Path(marcox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fresh_run():
    return run_fresh(_SCRIPT)


def test_cli_import_loads_no_scipy(fresh_run):
    assert fresh_run["after_import"] == []


def test_cli_import_loads_no_numpy_polynomial(fresh_run):
    """The grid oracle's Gauss-Legendre nodes are built on first use."""
    assert fresh_run["polynomial"] is False


def test_mle_fit_loads_no_scipy(fresh_run):
    assert fresh_run["after_fit"] == []
    assert math.isfinite(fresh_run["loglik"])
    assert 1 <= fresh_run["n_evals"] <= 40


def test_cli_import_and_mle_fit_load_no_deferred_modules(fresh_run):
    """mc_marginal's thread pool and read_chain_csv's csv are imported where
    they are used."""
    assert fresh_run["deferred"] == []


def test_cli_runs_without_scipy(tmp_path):
    codes = run_fresh(_NO_SCIPY_SCRIPT, str(tmp_path))
    assert codes == {"simulate": 0, "fit-mle": 0, "fit-mcmc": 0, "validate": 0}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from marcox import *", namespace)
    assert set(marcox.__all__) <= set(namespace)
