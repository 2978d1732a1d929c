"""End-to-end tests of the command-line interface, run in-process."""

import json
import math
import sys

import pytest

from marcox import cli
from marcox.intensity import PolyIntensity
from marcox.marginal import marginal_loglik
from marcox.paths import ModelParams, load_path, read_events_csv, write_events_csv
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


@pytest.mark.parametrize("command", ["simulate", "loglik", "validate"])
def test_non_numeric_model_config_is_a_config_error(tmp_path, capsys, command):
    config = tmp_path / "model.json"
    cfg = {"T": "abc", "beta0": 0.5, "w": 0.7, "gamma": {"type": "poly", "coeffs": [1.0]}}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events_csv(events, [1.0, 2.0])
    if command == "simulate":
        files = ["--out", str(tmp_path / "out.csv")]
    else:
        files = ["--events", str(events)]
    rc = cli.main([command, "--config", str(config)] + files)
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config-error:")


@pytest.mark.parametrize("budget", ["lots", 0])
def test_bad_mle_budget_is_a_config_error(tmp_path, capsys, budget):
    events = tmp_path / "events.csv"
    write_events_csv(events, [1.0, 2.0, 4.5])
    config = tmp_path / "fit.json"
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 0, "budget": budget}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["fit-mle", "--events", str(events), "--config", str(config)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config-error:")
    assert captured.out == ""


def test_malformed_chain_csv_is_a_validation_error(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n1,abc,-3.0,0\n", encoding="utf-8")
    out = str(tmp_path / "summary.csv")
    rc = cli.main(["summarize", "--chain", str(chain), "--grid", "0:1:3", "--out", out])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation-error:") and "line 3" in err


def strict_json(text):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_loglik_underflowing_kernel_factor(tmp_path, capsys):
    """e^{-w (T - t)} = e^{-990} at the only event; the log-likelihood is still exact."""
    events = tmp_path / "events.csv"
    write_events_csv(events, [1.0])
    config = write_config(tmp_path / "model.json", 100.0, 0.0, 10.0, (1.0,))
    assert cli.main(["loglik", "--events", str(events), "--config", config]) == 0
    report = strict_json(capsys.readouterr().out)
    want = -990.0 + math.log1p(-math.exp(-10.0)) - 99.9
    assert report["loglik"] == pytest.approx(want, abs=1e-9)


def test_impossible_path_prints_null(tmp_path, capsys):
    """beta0 = 0 and gamma = 0 cannot produce an event: log p = -inf is printed as null."""
    events = tmp_path / "events.csv"
    write_events_csv(events, [1.0])
    config = write_config(tmp_path / "model.json", 4.0, 0.0, 1.0, (0.0,))
    assert cli.main(["loglik", "--events", str(events), "--config", config]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] is None and report["poly_log"] is None
    assert report["exponent"] == 0.0


def test_fit_mle_reports_its_likelihood_passes(tmp_path, capsys):
    params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1)))
    events = tmp_path / "events.csv"
    write_events_csv(events, simulate(params, 10.0, seed=11).x.jumps)
    config = tmp_path / "fit.json"
    cfg = {"T": 10.0, "beta0": 1.0, "w": 0.5, "degree": 1, "start": [1.0, 0.1], "budget": 50}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["fit-mle", "--events", str(events), "--config", str(config)]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["converged"] is True
    assert 1 <= report["n_evals"] <= 50
    fitted = ModelParams(1.0, 0.5, PolyIntensity(tuple(report["coeffs"])))
    x = load_path(read_events_csv(events), 10.0)
    assert report["loglik"] == marginal_loglik(x, fitted).loglik
