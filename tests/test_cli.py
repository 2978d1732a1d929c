"""End-to-end tests of the command-line interface, run in-process."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from marcox import __version__, cli
from marcox.inference import FitConfig, chain_csv, mh_fit, read_chain_csv
from marcox.intensity import PolyIntensity
from marcox.marginal import MarginalResult, marginal_loglik
from marcox.paths import ModelParams, adapt_path, events_csv, load_path, read_events_csv, tune_w
from marcox.simulator import simulate


def write_config(path, T, beta0, w, coeffs):
    cfg = {"T": T, "beta0": beta0, "w": w, "gamma": {"type": "poly", "coeffs": list(coeffs)}}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def write_events(path, times):
    path.write_text(events_csv(times), encoding="utf-8")


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


def test_adapt_output_reads_back_into_loglik(tmp_path, capsys):
    """adapt writes adapt_path(x*, tune_w(x*)) with its manifest, and loglik
    reads the adapted CSV."""
    raw = tmp_path / "raw.csv"
    write_events(raw, [0.5, 1.25, 4.0, 4.5, 7.0, 9.5])
    adapted = tmp_path / "adapted.csv"
    assert cli.main(["adapt", "--events", str(raw), "--T", "10", "--out", str(adapted)]) == cli.EXIT_OK
    x_star = load_path(read_events_csv(raw), 10.0)
    want = adapt_path(x_star, tune_w(x_star))
    assert read_events_csv(adapted) == want.jumps.tolist()
    manifest = strict_json((tmp_path / "adapted.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["raw_events"] == manifest["adapted_events"] == 6
    capsys.readouterr()
    config = write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, (1.0, 0.1))
    assert cli.main(["loglik", "--events", str(adapted), "--config", config]) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] == marginal_loglik(want, ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1)))).loglik


def test_adapt_on_a_lone_event_at_the_horizon_is_a_validation_error(tmp_path, capsys):
    """Every event at T: the path's integral is 0, so tune_w has no scale."""
    events = tmp_path / "events.csv"
    events.write_text("time\n10.0\n", encoding="utf-8")
    out = tmp_path / "adapted.csv"
    assert cli.main(["adapt", "--events", str(events), "--T", "10", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "integral is 0" in capsys.readouterr().err
    assert not out.exists()


def test_adapt_on_an_empty_events_file_is_a_validation_error(tmp_path, capsys):
    """No events: tune_w has nothing to scale."""
    events = tmp_path / "events.csv"
    events.write_text("time\n", encoding="utf-8")
    out = tmp_path / "adapted.csv"
    assert cli.main(["adapt", "--events", str(events), "--T", "10", "--out", str(out)]) == cli.EXIT_VALIDATION
    assert "nonempty" in capsys.readouterr().err
    assert not out.exists()


def test_validate_beyond_double_range_exits_cleanly(tmp_path, capsys):
    """loglik ~ 749 > log(DBL_MAX): p(x) itself is not a double, and the
    grid still agrees to 1e-12 relative."""
    params = ModelParams(1.0, 0.5, PolyIntensity((2.0, 0.5)))
    times = simulate(params, 30.0, seed=4).x.jumps[:500]
    events = tmp_path / "events.csv"
    write_events(events, times)
    config = write_config(tmp_path / "model.json", 30.0, 1.0, 0.5, (2.0, 0.5))
    assert cli.main(["validate", "--events", str(events), "--config", config, "--mc-n", "200"]) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] == marginal_loglik(load_path(times, 30.0), params).loglik
    assert report["loglik"] > math.log(sys.float_info.max)
    grid, mc = report["grid"], report["mc"]
    assert set(grid) == {"log_value", "pass"} and grid["pass"] is True
    assert abs(grid["log_value"] - report["loglik"]) <= 1e-12 * report["loglik"]
    # 200 draws at M = 500: the weights' ESS is about 1, so Monte Carlo cannot decide.
    assert mc["n"] == 200 and mc["ess"] < 100 and mc["pass"] is None
    assert report["overall_pass"] is False


def test_validate_below_double_range_exits_cleanly(tmp_path, capsys):
    """Repro B, loglik ~ -991: p(x) underflows as a double, yet the report is
    finite in log space.  The grid agrees to 1e-12 relative; 2000 draws
    cannot decide, so no overall pass is claimed."""
    events = tmp_path / "events.csv"
    write_events(events, np.linspace(0.5, 99.5, 300))
    config = write_config(tmp_path / "model.json", 100.0, 1e-4, 1e-3, (0.1,))
    argv = ["validate", "--events", str(events), "--config", config, "--mc-n", "2000"]
    assert cli.main(argv) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] == pytest.approx(-991.31, abs=0.01)
    grid, mc = report["grid"], report["mc"]
    assert abs(grid["log_value"] - report["loglik"]) <= 1e-12 * abs(report["loglik"])
    assert all(math.isfinite(v) for v in (mc["log_estimate"], mc["se_log"]))
    assert grid["pass"] is True and mc["pass"] is None
    assert report["overall_pass"] is False


def _repro_a(tmp_path):
    """validate argv for the ROADMAP's repro A: 200 events, p(x) ~ 1e-70."""
    events = tmp_path / "events.csv"
    write_events(events, np.linspace(0.5, 99.5, 200))
    config = write_config(tmp_path / "model.json", 100.0, 0.01, 0.01, (1.0,))
    return ["validate", "--events", str(events), "--config", config, "--mc-n", "2000"]


def test_validate_grid_agrees_on_repro_a(tmp_path, capsys):
    """p(x) ~ 1e-70, where the linear-space grid value was 79 % off and still
    passed: the log value agrees with loglik to 1e-12 relative."""
    assert cli.main(_repro_a(tmp_path)) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] == pytest.approx(-161.139, abs=1e-3)
    assert abs(report["grid"]["log_value"] - report["loglik"]) <= 1e-12 * abs(report["loglik"])
    assert report["grid"]["pass"] is True


def test_validate_fails_a_likelihood_off_by_a_tenth_of_a_nat(tmp_path, capsys, monkeypatch):
    def shifted(x, params):
        res = marginal_loglik(x, params)
        return MarginalResult(res.loglik + 0.1, res.polynomial_term_log + 0.1, res.exponent_term)

    monkeypatch.setattr(cli, "marginal_loglik", shifted)
    assert cli.main(_repro_a(tmp_path)) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["grid"]["pass"] is False and report["overall_pass"] is False


@pytest.mark.parametrize("coeffs", [(1.0, 0.1), (0.25, -0.1, 0.01)], ids=["linear", "zero at t = 5"])
def test_validate_passes_a_simulated_path(tmp_path, capsys, coeffs):
    """The console-script check of CI: a simulated path of each of its two
    models at --mc-n 2000 passes both oracles."""
    config = write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, coeffs)
    events = str(tmp_path / "events.csv")
    assert cli.main(["simulate", "--config", config, "--seed", "1", "--out", events]) == 0
    argv = ["validate", "--events", events, "--config", config, "--mc-n", "2000"]
    assert cli.main(argv) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["grid"]["pass"] is True and report["mc"]["pass"] is True
    assert report["overall_pass"] is True


def test_validate_passes_ci_model_1_seed_3_with_default_flags(tmp_path, capsys):
    """The 26-event path on which the extrapolated lattice grid reported an
    error estimate of 1.6e-6 nats and missed loglik by 2.1e-6."""
    config = write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, (1.0, 0.1))
    events = str(tmp_path / "events.csv")
    assert cli.main(["simulate", "--config", config, "--seed", "3", "--out", events]) == 0
    assert cli.main(["validate", "--events", events, "--config", config]) == cli.EXIT_OK
    report = strict_json(capsys.readouterr().out)
    assert report["mc"]["n"] == 100_000
    assert report["grid"]["pass"] is True and report["overall_pass"] is True


def test_validate_refuses_an_impossible_path(tmp_path, capsys):
    """beta0 = 0 and gamma = 0 cannot produce an event: loglik = -inf, nothing to check."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0])
    config = write_config(tmp_path / "model.json", 4.0, 0.0, 1.0, (0.0,))
    assert cli.main(["validate", "--events", str(events), "--config", config]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation-error:") and "loglik = -inf" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "loglik", "validate"])
def test_non_numeric_model_config_is_a_config_error(tmp_path, capsys, command):
    config = tmp_path / "model.json"
    cfg = {"T": "abc", "beta0": 0.5, "w": 0.7, "gamma": {"type": "poly", "coeffs": [1.0]}}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    if command == "simulate":
        files = ["--out", str(tmp_path / "out.csv")]
    else:
        files = ["--events", str(events)]
    rc = cli.main([command, "--config", str(config)] + files)
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config-error:")


@pytest.mark.parametrize("command", ["simulate", "loglik"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("T", "10"),
        ("T", True),
        ("beta0", True),
        ("w", "0.5"),
        ("gamma", {"type": "poly", "coeffs": ["1.0", 0.1]}),
        ("gamma", {"type": "poly", "coeffs": [1.0, True]}),
    ],
)
def test_model_config_value_that_is_not_a_json_number_is_a_config_error(tmp_path, capsys, command, key, value):
    """T, beta0, w and gamma's coefficients must be JSON numbers: a string
    or a boolean is refused, not converted."""
    cfg = {"T": 10.0, "beta0": 1.0, "w": 0.5, "gamma": {"type": "poly", "coeffs": [1.0, 0.1]}}
    config = tmp_path / "model.json"
    config.write_text(json.dumps(dict(cfg, **{key: value})), encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    out = tmp_path / "out.csv"
    files = ["--out", str(out)] if command == "simulate" else ["--events", str(events)]
    assert cli.main([command, "--config", str(config)] + files) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config-error:") and "must be a number" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["simulate", "loglik", "validate"])
def test_coefficients_too_large_for_the_horizon_are_a_config_error(tmp_path, capsys, command):
    """At T = 1 the support's limit on the sum of |c| is 1e300.  Coefficients
    past it are refused before gamma is formed at the check times, where
    1e308 + 1e308 t would overflow (a RuntimeWarning fails the suite): one
    line on stderr and exit 65."""
    config = write_config(tmp_path / "model.json", 1.0, 1.0, 0.01, (1e308, 1e308))
    events = tmp_path / "events.csv"
    write_events(events, [0.2, 0.5])
    out = tmp_path / "out.csv"
    files = ["--out", str(out)] if command == "simulate" else ["--events", str(events)]
    assert cli.main([command, "--config", config] + files) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config-error: bad config: intensity coefficients too large for [0, 1.0]\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "T, beta0, w, coeffs, message",
    [
        (1.0, 1.0, 0.01, (1e200, 0.0), "the latent points: their mean count 1e+200 is"),
        (10.0, 1e20, 1.0, (1.0,), "the observed events: their mean count 1.0000000000000001e+21 is"),
    ],
)
def test_simulating_a_gamma_past_the_samplers_range_is_a_validation_error(tmp_path, capsys, T, beta0, w, coeffs, message):
    """gamma = 1e200 on [0, 1] is within the support, but no latent count
    of mean 1e200 can be drawn; at beta0 = 1e20 over T = 10 the latent
    count (mean 10) is drawn, but no observed count of mean 1e21 can be.
    Either is exit 2 with one line on stderr, and neither output nor any
    manifest is written."""
    config = write_config(tmp_path / "model.json", T, beta0, w, coeffs)
    argv = ["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv + ["--emit-latent", str(tmp_path / "latent.csv")]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation-error:") and captured.err.count("\n") == 1
    assert message in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_validating_a_gamma_past_the_grid_oracles_range_is_a_validation_error(tmp_path, capsys):
    """gamma = 1e200 on [0, 1] has a finite loglik, but a latent count of
    mean 1e200 is past the grid oracle's range: exit 2 with one line on
    stderr, not a traceback."""
    config = write_config(tmp_path / "model.json", 1.0, 1.0, 0.01, (1e200, 0.0))
    events = tmp_path / "events.csv"
    write_events(events, [0.2, 0.5])
    assert cli.main(["validate", "--events", str(events), "--config", config]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("validation-error:") and captured.err.count("\n") == 1
    assert "mean 1e+200" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["fit-mle", "fit-mcmc"])
def test_fitting_over_a_horizon_too_long_for_the_degree_is_a_validation_error(tmp_path, capsys, command):
    """At T = 1e200 and degree 2, T^3 is past the double range, so no
    coefficients lie in the support: exit 2 with one line on stderr that
    names the horizon, and no warning (a RuntimeWarning fails the suite)."""
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"T": 1e200, "beta0": 1.0, "w": 0.5, "degree": 2}), encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events(events, [1.0])
    out = tmp_path / "chain.csv"
    files = ["--out", str(out)] if command == "fit-mcmc" else []
    assert cli.main([command, "--events", str(events), "--config", str(config)] + files) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "validation-error: horizon T = 1e+200 is too long for degree 2: T^3 overflows\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command in ("simulate", "loglik") for key in ("T", "beta0", "w", "gamma")]
    + [(command, key) for command in ("fit-mcmc", "fit-mle") for key in ("degree", "T")],
)
def test_model_config_missing_a_key_is_a_config_error(tmp_path, capsys, command, key):
    """Every command names a missing key as the config spells it, a fit's
    degree among them."""
    own = {"degree": 1} if command.startswith("fit") else {"gamma": {"type": "poly", "coeffs": [1.0]}}
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, **own}
    config = tmp_path / "model.json"
    config.write_text(json.dumps({k: v for k, v in cfg.items() if k != key}), encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    out = tmp_path / "out.csv"
    files = [] if command == "simulate" else ["--events", str(events)]
    files += ["--out", str(out)] if command in ("simulate", "fit-mcmc") else []
    assert cli.main([command, "--config", str(config)] + files) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config-error: config missing key: {key}\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("{\"T\": 10.0,", "not valid JSON"), ("[10.0, 1.0, 0.5]", "must be a JSON object")],
    ids=["invalid", "array"],
)
def test_config_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys, text, message):
    config = tmp_path / "model.json"
    config.write_text(text, encoding="utf-8")
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    assert cli.main(["loglik", "--events", str(events), "--config", str(config)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and message in err


def test_unwritable_out_is_an_io_error_and_leaves_no_temp_file(tmp_path, capsys):
    """An --out that is a directory fails the atomic write's final rename:
    exit 74, and the temp file next to it is removed."""
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0, 0.2))
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["simulate", "--config", config, "--seed", "3", "--out", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("io-error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "out"]
    assert list(out.iterdir()) == []


def test_simulate_emit_latent_writes_the_latent_path_and_its_manifest(tmp_path):
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0, 0.2))
    events, latent = tmp_path / "events.csv", tmp_path / "latent.csv"
    argv = ["simulate", "--config", config, "--seed", "3", "--out", str(events), "--emit-latent", str(latent)]
    assert cli.main(argv) == cli.EXIT_OK
    want = simulate(ModelParams(0.5, 0.7, PolyIntensity((1.0, 0.2))), 8.0, seed=3)
    assert want.y.jumps.size > 0
    assert latent.read_text(encoding="utf-8") == events_csv(want.y.jumps, ["seed=3", "T=8.0"])
    assert read_events_csv(events) == want.x.jumps.tolist()
    manifest = strict_json((tmp_path / "latent.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate" and manifest["seed"] == 3
    assert manifest["config_hash"] == hashlib.sha256(Path(config).read_bytes()).hexdigest()


@pytest.mark.parametrize("latent", ["events.csv", "./sub/../events.csv"])
def test_simulate_refuses_emit_latent_on_the_out_file(tmp_path, capsys, monkeypatch, latent):
    """Else the latent points would overwrite the events under the same
    header: an --emit-latent naming the --out file is a usage error, refused
    with one stderr line before anything is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0, 0.2))
    argv = ["simulate", "--config", config, "--seed", "1", "--out", str(tmp_path / "events.csv"), "--emit-latent", latent]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "usage-error: --emit-latent names the same file as --out\n" and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "sub"]


@pytest.mark.parametrize(
    "out, latent, message",
    [
        ("G.csv", "G.csv.manifest.json", "--emit-latent names the same file as --out's manifest"),
        ("H.csv.manifest.json", "./sub/../H.csv", "--emit-latent's manifest names the same file as --out"),
    ],
)
def test_simulate_refuses_outputs_that_name_each_others_manifest(tmp_path, capsys, monkeypatch, out, latent, message):
    """Else one output's manifest would overwrite the other output (the
    latent CSV in G.csv's manifest, or a manifest over the events file
    H.csv.manifest.json): a usage error, refused with one stderr line
    before the config is read (it does not exist here) or anything is
    written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = ["simulate", "--config", "missing.json", "--seed", "1", "--out", out, "--emit-latent", latent]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage-error: {message}\n" and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["adapt", "--events", "events.csv", "--T", "10", "--out", "events.csv"], "--out names the same file as --events"),
        (
            ["adapt", "--events", "old.csv.manifest.json", "--T", "10", "--out", "./sub/../old.csv"],
            "--out's manifest names the same file as --events",
        ),
        (
            ["fit-mcmc", "--events", "events.csv", "--config", "fit.json", "--out", "events.csv"],
            "--out names the same file as --events",
        ),
        (
            ["fit-mcmc", "--events", "events.csv", "--config", "fit.json", "--out", "fit.json"],
            "--out names the same file as --config",
        ),
        (
            ["summarize", "--chain", "chain.csv", "--grid", "0:10:11", "--out", "chain.csv"],
            "--out names the same file as --chain",
        ),
        (["simulate", "--config", "model.json", "--out", "model.json"], "--out names the same file as --config"),
        (
            ["simulate", "--config", "model.json", "--out", "new.csv", "--emit-latent", "./sub/../model.json"],
            "--emit-latent names the same file as --config",
        ),
    ],
    ids=["adapt", "adapt-manifest", "fit-mcmc-events", "fit-mcmc-config", "summarize", "simulate", "simulate-latent"],
)
def test_an_output_that_names_an_input_is_refused(tmp_path, capsys, monkeypatch, argv, message):
    """Else the command would overwrite what it reads: an output, or its
    manifest, that resolves to an input of the command is a usage error,
    refused with one stderr line before anything is written, and every
    input is left byte-identical."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    write_events(tmp_path / "events.csv", [1.0, 2.0, 4.5])
    write_events(tmp_path / "old.csv.manifest.json", [0.5, 3.0])
    write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0, 0.2))
    fit = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 1, "iters": 20, "burnin": 5, "pilot_iters": 5}
    (tmp_path / "fit.json").write_text(json.dumps(fit), encoding="utf-8")
    (tmp_path / "chain.csv").write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage-error: {message}\n" and captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("spec", ["0:ten:3", "0:10:x", "0:10:2.5", "0:10", "0:1:2:3"])
def test_non_numeric_grid_field_is_a_config_error(tmp_path, capsys, spec):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    out = tmp_path / "bands.csv"
    rc = cli.main(["summarize", "--chain", str(chain), f"--grid={spec}", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "expected start:stop:count" in err
    assert not out.exists()


@pytest.mark.parametrize("budget", ["lots", 0, 2.5])
def test_bad_mle_budget_is_a_config_error(tmp_path, capsys, budget):
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    config = tmp_path / "fit.json"
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 0, "budget": budget}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    rc = cli.main(["fit-mle", "--events", str(events), "--config", str(config)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config-error:")
    assert captured.out == ""


# The keys of a fit config that fit-mle reads; fit-mcmc reads T, beta0, w
# and the fields of FitConfig.
MLE_KEYS = {"T", "beta0", "w", "degree", "start", "budget"}


@pytest.mark.parametrize("command", ["fit-mcmc", "fit-mle"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", -1),
        ("thin", 1.5),
        ("burnin", 0.5),
        ("pilot_iters", 2.5),
        ("adapt_proposals", "no"),
        ("burnin", False),
        ("degree", 9),
        ("degree", 3_000_000),
        ("prior_mean", math.nan),
        ("prior_sd", math.nan),
        ("proposal_sd", math.inf),
        ("proposal_sd", math.nan),
        ("w", -1),
        ("w", math.inf),
        ("T", -8),
        ("beta0", -0.5),
        ("beta0", None),
        ("T", "8"),
        ("beta0", True),
        ("w", "0.7"),
        ("prior_mean", "0.0"),
        ("prior_sd", True),
        ("proposal_sd", ["0.5"]),
        ("start", [math.nan]),
        ("start", [math.inf]),
        ("start", ["1.0"]),
        ("start", [True]),
    ],
)
def test_bad_fit_config_is_a_config_error(tmp_path, capsys, command, key, value):
    """Counts must be integers, the seed a nonnegative integer, flags booleans,
    the degree at most MAX_DEGREE, real values JSON numbers (not strings or
    booleans), prior_mean and start finite, prior_sd positive and
    proposal_sd finite and positive; json reads NaN and Infinity.  T, beta0
    and w follow the model config's rules, and beta0 is required (None here
    leaves it out).  Each command checks only the keys it reads: fit-mle
    reads none of the sampler's, so a bad one does not stop it."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    config = tmp_path / "fit.json"
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 0, "iters": 30, "burnin": 5, "pilot_iters": 5}
    cfg = {k: v for k, v in dict(cfg, **{key: value}).items() if v is not None}
    config.write_text(json.dumps(cfg), encoding="utf-8")
    files = ["--events", str(events), "--config", str(config)]
    if command == "fit-mcmc":
        files += ["--out", str(tmp_path / "chain.csv")]
    rc = cli.main([command] + files)
    captured = capsys.readouterr()
    if command == "fit-mle" and key not in MLE_KEYS:
        assert rc == cli.EXIT_OK and captured.err == ""
        assert strict_json(captured.out)["converged"] is True
        return
    assert rc == cli.EXIT_CONFIG
    assert captured.err.startswith("config-error:") and key in captured.err
    assert captured.out == ""
    assert not (tmp_path / "chain.csv").exists()


@pytest.mark.parametrize(
    "extra, bad_key, reader, other",
    [
        ({"iters": 50}, "iters", "fit-mcmc", "fit-mle"),
        ({"iters": 30, "burnin": 5, "pilot_iters": 5, "budget": 0}, "budget", "fit-mle", "fit-mcmc"),
    ],
    ids=["iters-below-the-default-burnin", "budget-0"],
)
def test_each_fit_command_checks_only_the_keys_it_reads(tmp_path, capsys, extra, bad_key, reader, other):
    """The same config is a config error (exit 65) for the command that
    reads the bad key and runs (exit 0) for the one that does not: fit-mle
    does not read iters, fit-mcmc does not read budget."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(dict({"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 0}, **extra)), encoding="utf-8")
    out = tmp_path / "chain.csv"
    argvs = {
        "fit-mle": ["fit-mle", "--events", str(events), "--config", str(config)],
        "fit-mcmc": ["fit-mcmc", "--events", str(events), "--config", str(config), "--out", str(out)],
    }
    assert cli.main(argvs[reader]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and bad_key in err
    assert not out.exists()
    assert cli.main(argvs[other]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert out.exists() == (other == "fit-mcmc")


def fit_mcmc_argv(tmp_path, **cfg):
    """fit-mcmc argv on the events 1, 2, 4.5 over T = 8, with config cfg."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(dict(cfg, T=8.0, beta0=0.5, w=0.7)), encoding="utf-8")
    return ["fit-mcmc", "--events", str(events), "--config", str(config), "--out", str(tmp_path / "chain.csv")]


def test_flat_prior_still_fits(tmp_path):
    """prior_sd = +inf is a flat prior: the chain moves and summarizes."""
    cfg = {"degree": 1, "iters": 200, "burnin": 50, "pilot_iters": 50, "seed": 1, "prior_sd": math.inf}
    assert cli.main(fit_mcmc_argv(tmp_path, **cfg)) == cli.EXIT_OK
    manifest = strict_json((tmp_path / "chain.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["accept_rate"] > 0 and manifest["diagnostics"] == []
    assert read_chain_csv(tmp_path / "chain.csv").shape == (150, 2)


def test_chain_that_never_moves_is_listed_in_the_manifest(tmp_path):
    """A chain that accepts nothing still exits 0, with no warning; the
    manifest's diagnostics say so."""
    msg = "chain never accepted a proposal; widen priors or shrink proposal_sd"
    cfg = {"degree": 1, "iters": 30, "burnin": 5, "adapt_proposals": False, "proposal_sd": 1e6, "seed": 1}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(fit_mcmc_argv(tmp_path, **cfg)) == cli.EXIT_OK
    manifest = strict_json((tmp_path / "chain.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["diagnostics"] == [msg] and manifest["accept_rate"] == 0.0
    assert (manifest["n_support_rejected"], manifest["n_bound_rejected"], manifest["n_evals"]) == (23, 7, 0)


# Arabic-Indic digits (which int() reads as 12), a superscript two, a sign
# and a leading space: an integer flag takes ASCII digits alone.
_NOT_ASCII_DIGITS = ["\u0661\u0662", "\u00b2", "+5", " 7"]


@pytest.mark.parametrize("seed", ["-1", "x"] + _NOT_ASCII_DIGITS)
@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_bad_seed_flag_is_a_usage_error(tmp_path, capsys, command, seed):
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0,))
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    if command == "simulate":
        files = ["--out", str(tmp_path / "out.csv")]
    else:
        files = ["--events", str(events), "--mc-n", "10"]
    with pytest.raises(SystemExit) as info:
        cli.main([command, "--config", config, "--seed", seed] + files)
    assert info.value.code == cli.EXIT_USAGE
    assert f"seed must be an integer >= 0, got {seed!r}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--mc-n", "0", "mc-n must be an integer >= 1"),
        *[("--mc-n", value, f"mc-n must be an integer >= 1, got {value!r}") for value in _NOT_ASCII_DIGITS],
        ("--jobs", "2", "unrecognized arguments: --jobs 2"),
    ],
)
def test_bad_validate_flag_is_a_usage_error(tmp_path, capsys, flag, value, message):
    config = write_config(tmp_path / "model.json", 8.0, 0.5, 0.7, (1.0,))
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0])
    argv = ["validate", "--config", config, "--events", str(events), "--mc-n", "10"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [flag, value])
    assert info.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_chain_thinned_past_its_length_still_summarizes(tmp_path, capsys):
    """thin > iters - burnin keeps the draw at iteration burnin, so the chain
    fit-mcmc writes is one that summarize reads."""
    events = tmp_path / "events.csv"
    write_events(events, simulate(ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1))), 10.0, seed=11).x.jumps)
    fit = {"degree": 1, "start": [1.0, 0.1], "iters": 30, "burnin": 10, "thin": 50, "pilot_iters": 10, "seed": 2}
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(dict(fit, T=10.0, beta0=1.0, w=0.5)), encoding="utf-8")
    chain = tmp_path / "chain.csv"
    argv = ["fit-mcmc", "--events", str(events), "--config", str(config), "--out", str(chain)]
    assert cli.main(argv) == cli.EXIT_OK
    assert read_chain_csv(chain).shape == (1, 2)
    out = tmp_path / "bands.csv"
    assert cli.main(["summarize", "--chain", str(chain), "--grid", "0:10:11", "--out", str(out)]) == cli.EXIT_OK
    assert len(out.read_text(encoding="utf-8").splitlines()) == 12


@pytest.mark.parametrize("spec", ["0:inf:3", "nan:1:3", "-inf:0:3", "0:nan:3"])
def test_non_finite_grid_bound_is_a_config_error(tmp_path, capsys, spec):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    out = tmp_path / "bands.csv"
    rc = cli.main(["summarize", "--chain", str(chain), f"--grid={spec}", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0:10:0", "0:10:-1"])
def test_grid_without_points_is_a_config_error(tmp_path, capsys, spec):
    """A COUNT below 1 would give a header-only bands file."""
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    out = tmp_path / "bands.csv"
    rc = cli.main(["summarize", "--chain", str(chain), f"--grid={spec}", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "count must be at least 1" in err
    assert not out.exists()
    assert not (tmp_path / "bands.csv.manifest.json").exists()


def test_malformed_chain_csv_is_a_validation_error(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n1,abc,-3.0,0\n", encoding="utf-8")
    out = str(tmp_path / "summary.csv")
    rc = cli.main(["summarize", "--chain", str(chain), "--grid", "0:1:3", "--out", out])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation-error:") and "line 3" in err


def test_non_finite_chain_coefficient_is_a_validation_error(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,c0,c1,loglik,accepted\n0,1.5,0.1,-3.0,1\n1,nan,0.1,-3.0,0\n", encoding="utf-8")
    out = tmp_path / "summary.csv"
    rc = cli.main(["summarize", "--chain", str(chain), "--grid", "0:1:3", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation-error:") and "line 3" in err and "finite" in err
    assert not out.exists()


def test_chain_without_coefficient_columns_is_not_a_chain(tmp_path, capsys):
    """A header of iter, loglik, accepted alone is refused when read, with one
    stderr line, not summarized as an empty chain."""
    chain = tmp_path / "chain.csv"
    chain.write_text("iter,loglik,accepted\n0,-3.0,1\n", encoding="utf-8")
    out = tmp_path / "summary.csv"
    rc = cli.main(["summarize", "--chain", str(chain), "--grid", "0:1:3", "--out", str(out)])
    assert rc == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == "validation-error: not a chain CSV: expected iter, c0.., loglik, accepted\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command, bad, code, message",
    [
        ("fit-mle", "fit.json", cli.EXIT_CONFIG, "config-error: config is not valid UTF-8: invalid start byte"),
        ("loglik", "events.csv", cli.EXIT_VALIDATION, "validation-error: events file {} is not valid UTF-8: invalid start byte"),
        ("summarize", "chain.csv", cli.EXIT_VALIDATION, "validation-error: chain CSV {} is not valid UTF-8: invalid start byte"),
    ],
    ids=["config", "events", "chain"],
)
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command, bad, code, message):
    """A byte 0xff in a config is a config error; in an events or chain CSV
    it is a validation error naming the file.  Either way stderr is one
    line, not a traceback."""
    write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, (1.0, 0.1))
    (tmp_path / "fit.json").write_text('{"T": 10.0, "beta0": 1.0, "w": 0.5, "degree": 1, "note": "?"}', encoding="utf-8")
    write_events(tmp_path / "events.csv", [1.0, 2.0, 4.5])
    (tmp_path / "chain.csv").write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    target = tmp_path / bad
    target.write_bytes(target.read_bytes().replace(b"?" if bad == "fit.json" else b"1.", b"\xff", 1))
    out = tmp_path / "bands.csv"
    argv = {
        "fit-mle": ["--events", str(tmp_path / "events.csv"), "--config", str(tmp_path / "fit.json")],
        "loglik": ["--events", str(tmp_path / "events.csv"), "--config", str(tmp_path / "model.json")],
        "summarize": ["--chain", str(tmp_path / "chain.csv"), "--grid", "0:1:3", "--out", str(out)],
    }[command]
    assert cli.main([command] + argv) == code
    captured = capsys.readouterr()
    assert captured.err == message.format(target) + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, target", [("loglik", "events.csv"), ("summarize", "chain.csv")])
def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command, target):
    """A spreadsheet's "CSV UTF-8" starts with a byte-order mark; an events or
    chain CSV reads the same with it as without it."""
    write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, (1.0, 0.1))
    write_events(tmp_path / "events.csv", [1.0, 2.0, 4.5])
    (tmp_path / "chain.csv").write_text("iter,c0,loglik,accepted\n0,1.5,-3.0,1\n", encoding="utf-8")
    out = tmp_path / "bands.csv"
    argv = {
        "loglik": ["--events", str(tmp_path / "events.csv"), "--config", str(tmp_path / "model.json")],
        "summarize": ["--chain", str(tmp_path / "chain.csv"), "--grid", "0:1:3", "--out", str(out)],
    }[command]

    def run():
        assert cli.main([command] + argv) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out, out.read_bytes() if out.exists() else b""

    plain = run()
    path = tmp_path / target
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run() == plain


def test_config_with_a_byte_order_mark_stays_a_config_error(tmp_path, capsys):
    """JSON forbids the mark, so a config that starts with one is refused
    with json's own message, which names it."""
    config = tmp_path / "model.json"
    write_config(config, 10.0, 1.0, 0.5, (1.0, 0.1))
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    write_events(tmp_path / "events.csv", [1.0, 2.0, 4.5])
    assert cli.main(["loglik", "--events", str(tmp_path / "events.csv"), "--config", str(config)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    want = "config-error: config is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
    assert captured.err == want and captured.out == ""


def strict_json(text):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_loglik_underflowing_kernel_factor(tmp_path, capsys):
    """e^{-w (T - t)} = e^{-990} at the only event; the log-likelihood is still exact."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0])
    config = write_config(tmp_path / "model.json", 100.0, 0.0, 10.0, (1.0,))
    assert cli.main(["loglik", "--events", str(events), "--config", config]) == 0
    report = strict_json(capsys.readouterr().out)
    want = -990.0 + math.log1p(-math.exp(-10.0)) - 99.9
    assert report["loglik"] == pytest.approx(want, abs=1e-9)


def test_impossible_path_prints_null(tmp_path, capsys):
    """beta0 = 0 and gamma = 0 cannot produce an event: log p = -inf is printed as null."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0])
    config = write_config(tmp_path / "model.json", 4.0, 0.0, 1.0, (0.0,))
    assert cli.main(["loglik", "--events", str(events), "--config", config]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["loglik"] is None and report["poly_log"] is None
    assert report["exponent"] == 0.0


def test_fit_mle_reports_its_likelihood_passes(tmp_path, capsys):
    params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1)))
    events = tmp_path / "events.csv"
    write_events(events, simulate(params, 10.0, seed=11).x.jumps)
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


def test_fit_mcmc_writes_chain_and_manifest(tmp_path):
    """The chain CSV holds mh_fit's draws, the manifest its documented fields,
    and the atomic writes leave no temp file behind."""
    params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1)))
    events = tmp_path / "events.csv"
    write_events(events, simulate(params, 10.0, seed=11).x.jumps)
    fit = {"degree": 1, "start": [1.0, 0.1], "iters": 60, "burnin": 10, "thin": 2, "pilot_iters": 20, "seed": 4}
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(dict(fit, T=10.0, beta0=1.0, w=0.5)), encoding="utf-8")
    out = tmp_path / "chain.csv"
    argv = ["fit-mcmc", "--events", str(events), "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 0

    x = load_path(read_events_csv(events), 10.0)
    want = mh_fit(x, (1.0, 0.5), FitConfig(**fit))
    assert want.draws.shape == (25, 2)
    assert out.read_bytes() == chain_csv(want).encode("utf-8")

    manifest = strict_json((tmp_path / "chain.csv.manifest.json").read_text(encoding="utf-8"))
    assert set(manifest) == {
        "command",
        "config_hash",
        "seed",
        "tool_version",
        "started_utc",
        "finished_utc",
        "accept_rate",
        "n_evals",
        "n_bound_rejected",
        "n_support_rejected",
        "diagnostics",
        "proposal_sd",
    }
    assert manifest["command"] == "fit-mcmc"
    assert manifest["config_hash"] == hashlib.sha256(config.read_bytes()).hexdigest()
    assert manifest["seed"] == 4 and manifest["tool_version"] == __version__
    started = datetime.fromisoformat(manifest["started_utc"])
    assert started.utcoffset().total_seconds() == 0
    assert started <= datetime.fromisoformat(manifest["finished_utc"])
    assert manifest["accept_rate"] == want.accept_rate
    assert manifest["n_evals"] == want.n_evals
    assert manifest["n_bound_rejected"] == want.n_bound_rejected
    assert manifest["n_support_rejected"] == want.n_support_rejected
    assert want.n_evals + want.n_bound_rejected + want.n_support_rejected == fit["iters"]
    assert manifest["diagnostics"] == list(want.diagnostics)
    assert manifest["proposal_sd"] == want.proposal_sd.tolist()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain.csv",
        "chain.csv.manifest.json",
        "events.csv",
        "fit.json",
    ]


@pytest.mark.parametrize("command, library", [("fit-mcmc", "mh_fit"), ("simulate", "simulate")])
def test_manifest_hashes_the_config_the_command_read(tmp_path, monkeypatch, command, library):
    """A config rewritten while the command runs does not change the
    manifest's hash: it is the sha256 of the bytes the command read."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    # One config for both commands: each reads only its own keys.
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 1, "iters": 30, "burnin": 5, "pilot_iters": 5, "seed": 1}
    cfg["gamma"] = {"type": "poly", "coeffs": [1.0, 0.2]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    original = config.read_bytes()
    run = getattr(cli, library)

    def run_then_edit(*args, **kwargs):
        result = run(*args, **kwargs)
        config.write_text(json.dumps(dict(cfg, seed=2)), encoding="utf-8")
        return result

    monkeypatch.setattr(cli, library, run_then_edit)
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert cli.main(argv + (["--events", str(events)] if command == "fit-mcmc" else [])) == cli.EXIT_OK
    assert config.read_bytes() != original
    manifest = strict_json((tmp_path / "out.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == hashlib.sha256(original).hexdigest()


@pytest.mark.parametrize("cfg_budget, passed", [(None, {}), (7, {"budget": 7})])
def test_fit_mle_passes_only_a_budget_the_config_sets(tmp_path, capsys, monkeypatch, cfg_budget, passed):
    """Without a budget key fit-mle leaves mle_fit's default in place."""
    events = tmp_path / "events.csv"
    write_events(events, [1.0, 2.0, 4.5])
    cfg = {"T": 8.0, "beta0": 0.5, "w": 0.7, "degree": 1}
    if cfg_budget is not None:
        cfg["budget"] = cfg_budget
    config = tmp_path / "fit.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    seen = []
    fit = cli.mle_fit

    def recording(*args, **kwargs):
        seen.append({k: v for k, v in kwargs.items() if k == "budget"})
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "mle_fit", recording)
    assert cli.main(["fit-mle", "--events", str(events), "--config", str(config)]) == cli.EXIT_OK
    assert seen == [passed]


def test_successive_calls_match_separate_processes(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process; a run of calls in one process,
    a usage error among them, prints and exits as each call does alone."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1)))
    events = tmp_path / "events.csv"
    write_events(events, simulate(params, 10.0, seed=11).x.jumps)
    model = write_config(tmp_path / "model.json", 10.0, 1.0, 0.5, (1.0, 0.1))
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"T": 10.0, "beta0": 1.0, "w": 0.5, "degree": 2}), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"T": 10.0, "beta0": 1.0, "w": 0.5, "degree": 1, "budget": 0}), encoding="utf-8")
    loglik = ["loglik", "--events", str(events), "--config", model]
    argvs = [
        loglik,
        ["simulate", "--config", model, "--seed", "x", "--out", str(tmp_path / "never.csv")],
        loglik,
        ["fit-mle", "--events", str(events), "--config", str(fit)],
        ["fit-mle", "--events", str(events), "--config", str(bad)],
        loglik,
    ]

    def in_process(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    together = [in_process(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = "import sys\nfrom marcox import cli\nsys.exit(cli.main(sys.argv[1:]))"
    alone = []
    for argv in argvs:
        run = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        alone.append((run.returncode, run.stdout, run.stderr))
    assert [code for code, _, _ in together] == [0, cli.EXIT_USAGE, 0, 0, cli.EXIT_CONFIG, 0]
    assert together == alone
    assert strict_json(together[3][1])["converged"] is True
