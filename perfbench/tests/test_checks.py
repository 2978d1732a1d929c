"""The checker flags wrong likelihoods and unreadable outputs."""

import json

import pytest

from checks import Checker, Outcome
from workloads import Inputs, write_events


@pytest.fixture
def inputs(tmp_path):
    return Inputs("validate", 5, tmp_path)


def _loglik_outcome(inputs, delta):
    p = inputs.small[0]
    op = inputs.loglik_op(p)
    ll = Checker().ref(p, p.regime.coeffs) + delta
    return Outcome(op, 0, None, json.dumps({"loglik": ll, "M": p.times.size}), 0.1)


def test_exact_loglik_passes(inputs):
    assert Checker().check(_loglik_outcome(inputs, 0.0)).ok


@pytest.mark.parametrize("delta", [1e-3, -1e-3, float("nan")])
def test_perturbed_loglik_fails(inputs, delta):
    v = Checker().check(_loglik_outcome(inputs, delta))
    assert not v.ok


def test_nonzero_exit_and_raise_fail(inputs):
    op = inputs.loglik_op(inputs.small[0])
    assert not Checker().check(Outcome(op, 2, None, "", 0.1)).ok
    assert not Checker().check(Outcome(op, None, "OverflowError: math range error", "", 0.1)).ok


def _sim_outcome(inputs, text):
    op = inputs.simulate(123)
    op.out.write_text(text, encoding="utf-8")
    return Outcome(op, 0, None, "", 0.1)


def test_simulate_readback(inputs):
    from marcox import ModelParams, PolyIntensity, simulate

    reg, T, seed = inputs.simulate(123).sim
    times = simulate(ModelParams(reg.beta0, reg.w, PolyIntensity(reg.coeffs)), T, seed=seed).x.jumps
    good = _sim_outcome(inputs, "")
    write_events(good.op.out, times)
    assert Checker().check(good).ok
    shifted = _sim_outcome(inputs, "")
    write_events(shifted.op.out, times * (1 + 1e-12))
    assert not Checker().check(shifted).ok


@pytest.mark.parametrize(
    "text",
    [
        "# seed=1\n# T=50.0\ntime\n1.5\n",  # header pushed past line 2 by comments
        "time\nnp.float64(1.5)\n",  # numpy scalar reprs
    ],
)
def test_unreadable_events_csv_fails(inputs, text):
    v = Checker().check(_sim_outcome(inputs, text))
    assert not v.ok and "unreadable" in v.reason
