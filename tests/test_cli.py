"""End-to-end tests of the command-line interface, run in-process."""

import hashlib
import json
import math
import os
import subprocess
import sys
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
    ],
)
def test_bad_fit_config_is_a_config_error(tmp_path, capsys, command, key, value):
    """Counts must be integers, the seed a nonnegative integer, flags booleans,
    the degree at most MAX_DEGREE, prior_mean finite, prior_sd positive and
    proposal_sd finite and positive; json reads NaN and Infinity.  T, beta0
    and w follow the model config's rules, and beta0 is required (None here
    leaves it out)."""
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
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config-error:") and key in captured.err
    assert captured.out == ""
    assert not (tmp_path / "chain.csv").exists()


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
    """A chain that accepts nothing still exits 0; its warning is in the manifest."""
    msg = "chain never accepted a proposal; widen priors or shrink proposal_sd"
    cfg = {"degree": 1, "iters": 30, "burnin": 5, "adapt_proposals": False, "proposal_sd": 1e6, "seed": 1}
    with pytest.warns(RuntimeWarning, match=msg):
        assert cli.main(fit_mcmc_argv(tmp_path, **cfg)) == cli.EXIT_OK
    manifest = strict_json((tmp_path / "chain.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["diagnostics"] == [msg] and manifest["accept_rate"] == 0.0
    assert (manifest["n_support_rejected"], manifest["n_bound_rejected"], manifest["n_evals"]) == (23, 7, 0)


@pytest.mark.parametrize("seed", ["-1", "x"])
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
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--mc-n", "0", "mc-n must be an integer >= 1"),
        ("--jobs", "-3", "jobs must be an integer >= 1"),
        ("--jobs", "0", "jobs must be an integer >= 1"),
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
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain.csv",
        "chain.csv.manifest.json",
        "events.csv",
        "fit.json",
    ]


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
    bad.write_text(json.dumps({"T": 10.0, "beta0": 1.0, "w": 0.5, "degree": 1, "seed": -1}), encoding="utf-8")
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
