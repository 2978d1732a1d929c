"""Unit tests for the grid and Monte Carlo likelihood oracles."""

import math

import numpy as np
import pytest

from marcox.errors import ValidationError
from marcox.intensity import PolyIntensity
from marcox.marginal import marginal_loglik
from marcox.oracles import (
    GridSpec,
    McSpec,
    default_y_max,
    grid_coeff_marginal,
    grid_marginal,
    mc_marginal,
)
from marcox.paths import ModelParams, load_path

UNIT = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
P_EMPTY = 0.6922006275553464  # exp(-e^{-1})
P_ONE = 0.1651945232410606  # event at 0.5 under the unit parameters


class TestGridMarginal:
    def test_homogeneous_case_exact_per_step(self):
        """gamma = 0 keeps a single latent state; the filter telescopes to the
        plain Poisson density at any resolution."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        val = grid_marginal(x, params, GridSpec(n=2**14))
        assert val == pytest.approx(8.0 * math.exp(-2.0), rel=1e-10)

    def test_no_event_convergence_rate(self):
        """Error against the closed form shrinks like 1/n."""
        x = load_path([], 1.0)
        errs = []
        for n in (2**8, 2**10, 2**12, 2**14):
            errs.append(abs(grid_marginal(x, UNIT, GridSpec(n=n)) - P_EMPTY))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < coarse / 2.5  # quartering expected for 4x n
        assert errs[-1] < 2e-5

    def test_single_event_value(self):
        x = load_path([0.5], 1.0)
        val = grid_marginal(x, UNIT, GridSpec(n=2**14))
        assert val == pytest.approx(P_ONE, abs=2e-4)

    def test_truncation_level_invariance(self):
        x = load_path([0.5], 1.0)
        base_y = default_y_max(UNIT.gamma.cum(1.0))
        a = grid_marginal(x, UNIT, GridSpec(n=2**10, y_max=base_y))
        b = grid_marginal(x, UNIT, GridSpec(n=2**10, y_max=2 * base_y))
        assert b == pytest.approx(a, rel=1e-12)

    def test_step_size_guard(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((300.0,)))
        with pytest.raises(ValidationError, match="step size"):
            grid_marginal(load_path([0.5], 1.0), params, GridSpec(n=128))

    def test_event_collision_guard(self):
        with pytest.raises(ValidationError, match="grid too coarse"):
            grid_marginal(load_path([0.5001, 0.5002], 1.0), UNIT, GridSpec(n=128))


class TestGridCoeffMarginal:
    def test_no_event_matches_lattice_product(self):
        """M = 0 reduces to exp(-n beta0 h) * prod(1 - lambda_i h)."""
        params = ModelParams(beta0=0.5, w=1.0, gamma=PolyIntensity((1.0,)))
        n = 2**10
        h = 1.0 / n
        lam = [
            (1.0 - math.exp(-(n - i - 1) * 1.0 * h)) * 1.0 for i in range(n)
        ]
        expected = math.exp(-n * 0.5 * h) * math.prod(1.0 - l * h for l in lam[: n - 1])
        got = grid_coeff_marginal(load_path([], 1.0), params, n)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_single_event_value(self):
        val = grid_coeff_marginal(load_path([0.5], 1.0), UNIT, 2**14)
        assert val == pytest.approx(P_ONE, abs=2e-4)

    def test_difference_from_forward_filter_is_first_order(self):
        """The two lattice routes differ by the per-step remainder terms the
        coefficient algebra drops, so their gap shrinks like h."""
        params = ModelParams(beta0=1.0, w=0.5, gamma=PolyIntensity((1.0, 1.0)))
        x = load_path([0.3, 0.7], 1.0)
        gaps = []
        for n in (2**9, 2**10, 2**11):
            a = grid_marginal(x, params, GridSpec(n=n))
            b = grid_coeff_marginal(x, params, n)
            gaps.append(abs(a - b))
        assert gaps[2] < 0.6 * gaps[1] or gaps[2] < 1e-12
        assert gaps[1] < 0.6 * gaps[0] or gaps[1] < 1e-12

    def test_agreement_with_forward_filter_moderate_n(self):
        params = ModelParams(beta0=1.0, w=2.0, gamma=PolyIntensity((0.5, 1.0)))
        x = load_path([0.2, 0.9, 1.4], 1.5)
        a = grid_marginal(x, params, GridSpec(n=2**10))
        b = grid_coeff_marginal(x, params, 2**10)
        assert b == pytest.approx(a, rel=5e-3)


class TestMcMarginal:
    def test_degenerate_zero_variance(self):
        """gamma = 0 makes every replica identical: exact value, zero spread."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        est, se = mc_marginal(x, params, McSpec(N=500, seed=1))
        assert est == pytest.approx(8.0 * math.exp(-2.0), rel=1e-12)
        assert se == 0.0

    def test_no_event_case(self):
        est, se = mc_marginal(load_path([], 1.0), UNIT, McSpec(N=100_000, seed=2))
        assert abs(est - P_EMPTY) <= 3.0 * se

    def test_single_event_case(self):
        est, se = mc_marginal(load_path([0.5], 1.0), UNIT, McSpec(N=100_000, seed=3))
        assert abs(est - P_ONE) <= 3.0 * se

    def test_seeded_determinism_and_jobs_invariance(self):
        x = load_path([0.5], 1.0)
        a = mc_marginal(x, UNIT, McSpec(N=20_000, seed=11))
        b = mc_marginal(x, UNIT, McSpec(N=20_000, seed=11))
        c = mc_marginal(x, UNIT, McSpec(N=20_000, seed=11), jobs=4)
        assert a == b == c

    def test_unbiased_coverage_over_seeds(self):
        """The +/- 3 se band contains the closed-form value on >= 19/20 seeds."""
        x = load_path([0.5], 1.0)
        hits = 0
        for seed in range(20):
            est, se = mc_marginal(x, UNIT, McSpec(N=4000, seed=seed))
            hits += abs(est - P_ONE) <= 3.0 * se
        assert hits >= 19

    def test_impossible_path_gives_zero(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.0,)))
        est, se = mc_marginal(load_path([0.5], 1.0), params, McSpec(N=200, seed=5))
        assert est == 0.0


class TestSpecs:
    def test_grid_spec_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(n=1)
        with pytest.raises(ValidationError):
            GridSpec(n=16, y_max=0)

    def test_mc_spec_validation(self):
        with pytest.raises(ValidationError):
            McSpec(N=0)

    def test_default_y_max_tail(self):
        """The smallest k with Poisson upper-tail mass P(N > k) < 1e-12."""
        from scipy.stats import poisson

        means = np.logspace(-6, 4, 201)
        ks = np.array([default_y_max(float(m)) for m in means])
        assert np.all(poisson.sf(ks, means) < 1e-12)
        assert np.all(poisson.sf(ks - 1, means) >= 1e-12)
