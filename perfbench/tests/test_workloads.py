"""Workload inputs are a function of the seed alone."""

import numpy as np
import pytest

from workloads import FIT_M, FOCUS, HELD_OUT, LOGLIK_M, SMALL_M, WORKLOADS, Inputs


def _snapshot(inputs: Inputs):
    paths = inputs.small + inputs.fit + inputs.loglik
    ops = [(op.kind, op.argv) for r in range(3) for op in inputs.round_ops(r)]
    return [(p.name, p.T, p.times.tolist(), p.events.read_text()) for p in paths], ops


@pytest.mark.parametrize("workload", WORKLOADS + HELD_OUT)
def test_same_seed_same_inputs(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    paths_a, ops_a = _snapshot(Inputs(workload, 7, tmp_path / "a"))
    paths_b, ops_b = _snapshot(Inputs(workload, 7, tmp_path / "b"))
    assert paths_a == paths_b
    strip = lambda ops, d: [(k, tuple(a.replace(str(d), "") for a in argv)) for k, argv in ops]
    assert strip(ops_a, tmp_path / "a") == strip(ops_b, tmp_path / "b")


def test_other_seed_other_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = Inputs("mcmc", 1, tmp_path / "a")
    b = Inputs("mcmc", 2, tmp_path / "b")
    assert not np.array_equal(a.fit[0].times, b.fit[0].times)


def test_path_sizes(tmp_path):
    assert {p.times.size for p in Inputs("mle", 3, tmp_path).fit} == {FIT_M}
    assert {p.times.size for p in Inputs("validate", 3, tmp_path).small} == {SMALL_M}
    loglik = Inputs("loglik", 3, tmp_path)
    for p in loglik.loglik:
        assert p.times.size == LOGLIK_M and p.T == p.times[-1]
        assert np.all(np.diff(p.times) > 0)


@pytest.mark.parametrize("workload", WORKLOADS + HELD_OUT)
def test_rounds_run_the_focus_commands(workload, tmp_path):
    inputs = Inputs(workload, 0, tmp_path)
    assert {op.kind for r in range(3) for op in inputs.round_ops(r)} == set(FOCUS[workload])
