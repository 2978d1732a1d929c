"""End-to-end tests of the command-line interface, run in-process."""

import json
import math
import sys

from marcox import cli
from marcox.intensity import PolyIntensity
from marcox.marginal import marginal_loglik
from marcox.paths import ModelParams, load_path, write_events_csv
from marcox.simulator import simulate


def write_config(path, T, beta0, w, coeffs):
    cfg = {"T": T, "beta0": beta0, "w": w, "gamma": {"type": "poly", "coeffs": list(coeffs)}}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_simulate_output_reads_back_into_loglik(tmp_path, capsys):
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0, 0.2))
    events = str(tmp_path / "events.csv")
    assert cli.main(["simulate", "--config", config, "--seed", "3", "--out", events]) == 0
    capsys.readouterr()
    assert cli.main(["loglik", "--events", events, "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    params = ModelParams(0.5, 0.7, PolyIntensity((1.0, 0.2)))
    x = simulate(params, 8.0, seed=3).x
    assert x.count > 0
    assert report["M"] == x.count
    assert report["loglik"] == marginal_loglik(x, params).loglik


def test_validate_beyond_double_range_exits_cleanly(tmp_path, capsys):
    """loglik ~ 785 > log(DBL_MAX): p(x) itself is not a double."""
    params = ModelParams(1.0, 0.5, PolyIntensity((2.0, 0.5)))
    times = simulate(params, 30.0, seed=4).x.jumps[:500]
    events = tmp_path / "events.csv"
    write_events_csv(events, times)
    config = write_config(tmp_path / "model.json", 30.0, 1.0, 0.5, (2.0, 0.5))
    rc = cli.main(["validate", "--events", str(events), "--config", config])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation-error:") and "oracles cannot represent" in err
    assert marginal_loglik(load_path(times, 30.0), params).loglik > math.log(sys.float_info.max)
