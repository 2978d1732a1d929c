"""Unit tests for the grid and Monte Carlo likelihood oracles."""

import math

import numpy as np
import pytest

from marcox.errors import ValidationError
from marcox.intensity import PolyIntensity
from marcox.marginal import marginal_loglik
from marcox.oracles import (
    McSpec,
    _grid_filter,
    _mc_chunk,
    default_y_max,
    grid_check,
    grid_marginal,
    mc_check,
    mc_marginal,
)
from marcox.paths import ModelParams, load_path
from marcox.simulator import conditional_loglik, simulate_latent

from _oracles import dense_mc_chunk, grid_coeff_marginal
from _pinned import pinned_path

UNIT = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
P_EMPTY = 0.6922006275553464  # exp(-e^{-1})
P_ONE = 0.1651945232410606  # event at 0.5 under the unit parameters
# Regime of the ROADMAP repro A: 200 events on [0, 100], p(x) ~ 1e-70.
REPRO_A = ModelParams(beta0=0.01, w=0.01, gamma=PolyIntensity((1.0,)))


class TestGridMarginal:
    def test_homogeneous_case_exact_per_step(self):
        """gamma = 0 keeps a single latent state; the filter telescopes to the
        plain Poisson density at any resolution."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        val = grid_marginal(x, params, 2**14)
        assert val == pytest.approx(math.log(8.0) - 2.0, rel=1e-10)

    def test_no_event_convergence_rate(self):
        """Error against the closed form shrinks like 1/n."""
        x = load_path([], 1.0)
        errs = []
        for n in (2**8, 2**10, 2**12, 2**14):
            errs.append(abs(grid_marginal(x, UNIT, n) - math.log(P_EMPTY)))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < coarse / 2.5  # quartering expected for 4x n
        assert errs[-1] < 2e-5 / P_EMPTY  # 2e-5 in p, in nats

    def test_single_event_value(self):
        x = load_path([0.5], 1.0)
        val = grid_marginal(x, UNIT, 2**14)
        assert val == pytest.approx(math.log(P_ONE), abs=2e-4)

    def test_truncation_level_invariance(self):
        """The single-level filter at the prior's tail level and at twice it
        agree with grid_marginal, and the value does not fall with the level."""
        x = load_path([0.5], 1.0)
        base_y = default_y_max(UNIT.gamma.cum(1.0))
        a, b = (
            scale + math.log(row.sum())
            for row, scale in (_grid_filter(x, UNIT, 2**10, y) for y in (base_y, 2 * base_y))
        )
        assert b == pytest.approx(a, rel=1e-12) and b >= a
        assert grid_marginal(x, UNIT, 2**10) == pytest.approx(b, rel=1e-12)

    def test_truncation_level_follows_the_data(self):
        """1000 events where the prior expects 100 latent points: the prior's
        tail level holds almost none of p(x), and the doubling finds it."""
        x = load_path(np.linspace(0.05, 99.95, 1000), 100.0)
        row, scale = _grid_filter(x, REPRO_A, 2048, default_y_max(REPRO_A.gamma.cum(100.0)))
        assert grid_marginal(x, REPRO_A, 2048) > scale + math.log(row.sum()) + 100.0

    def test_step_size_guard(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((300.0,)))
        with pytest.raises(ValidationError, match="step size"):
            grid_marginal(load_path([0.5], 1.0), params, 128)

    def test_close_events_stay_on_the_lattice(self):
        """Two events 1e-4 apart inside one lattice step of 1/128 are both
        lattice nodes: the value is finite and within first order of the DP."""
        x = load_path([0.5001, 0.5002], 1.0)
        exact = marginal_loglik(x, UNIT).loglik
        errs = [grid_marginal(x, UNIT, n) - exact for n in (128, 256)]
        assert all(math.isfinite(e) and abs(e) < 1.0 / 128 for e in errs)
        assert 0.4 < errs[1] / errs[0] < 0.6


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
            a = math.exp(grid_marginal(x, params, n))
            b = grid_coeff_marginal(x, params, n)
            gaps.append(abs(a - b))
        assert gaps[2] < 0.6 * gaps[1] or gaps[2] < 1e-12
        assert gaps[1] < 0.6 * gaps[0] or gaps[1] < 1e-12

    def test_agreement_with_forward_filter_moderate_n(self):
        params = ModelParams(beta0=1.0, w=2.0, gamma=PolyIntensity((0.5, 1.0)))
        x = load_path([0.2, 0.9, 1.4], 1.5)
        a = math.exp(grid_marginal(x, params, 2**10))
        b = grid_coeff_marginal(x, params, 2**10)
        assert b == pytest.approx(a, rel=5e-3)


class TestMcMarginal:
    def test_degenerate_zero_variance(self):
        """gamma = 0 makes every replica identical: exact value, zero spread."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        est, se = mc_marginal(x, params, McSpec(N=500, seed=1))
        assert est == pytest.approx(math.log(8.0) - 2.0, rel=1e-12)
        assert se == 0.0

    def test_no_event_case(self):
        est, se = mc_marginal(load_path([], 1.0), UNIT, McSpec(N=100_000, seed=2))
        assert abs(est - math.log(P_EMPTY)) <= 3.0 * se

    def test_single_event_case(self):
        est, se = mc_marginal(load_path([0.5], 1.0), UNIT, McSpec(N=100_000, seed=3))
        assert abs(est - math.log(P_ONE)) <= 3.0 * se

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
            hits += abs(est - math.log(P_ONE)) <= 3.0 * se
        assert hits >= 19

    def test_impossible_path_gives_zero(self):
        """No draw can produce the event: the estimate of p is 0, log -inf."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.0,)))
        est, se = mc_marginal(load_path([0.5], 1.0), params, McSpec(N=200, seed=5))
        assert est == -math.inf and se == math.inf

    @pytest.mark.parametrize(
        "params, jumps, T, seed",
        [
            (UNIT, [0.2, 0.5, 0.9], 1.0, 0),
            (ModelParams(0.0, 0.5, PolyIntensity((1.0, 0.2))), [0.3, 1.0, 2.5, 4.0, 9.9], 10.0, 1),
            (ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.2))), list(np.linspace(0.25, 9.75, 40)), 10.0, 2),
            (REPRO_A, list(np.linspace(0.5, 99.5, 200)), 100.0, 3),
        ],
    )
    def test_log_weights_match_the_dense_count_table(self, params, jumps, T, seed):
        """Counting the latent points before each event by searchsorted gives
        the log weights of the dense comparison table, bit for bit."""
        x = load_path(jumps, T)
        sq = np.random.SeedSequence(seed)
        np.testing.assert_array_equal(_mc_chunk(x, params, 300, sq), dense_mc_chunk(x, params, 300, sq))

    @pytest.mark.parametrize("seed", range(5))
    def test_weight_is_the_simulators_density_on_the_simulators_path(self, seed):
        """A one-replica chunk is conditional_loglik on the simulate_latent path
        drawn from the same seed, bit for bit: p(x | Y) over the simulator's code."""
        params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.2)))
        x = load_path(np.linspace(0.25, 9.75, 40), 10.0)
        sq = np.random.SeedSequence(seed)
        y = simulate_latent(params.gamma, 10.0, np.random.default_rng(sq))
        assert y.count > 0
        assert _mc_chunk(x, params, 1, sq)[0] == conditional_loglik(x, y, params)


class TestChecks:
    def test_grid_check_passes_the_likelihood_and_fails_a_shift(self):
        """On a pinned path of about 45 events a 1e-3-nat error fails the check."""
        params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.2)))
        x = pinned_path(params, 10.0, 2)
        assert 40 <= x.count <= 55
        exact = marginal_loglik(x, params).loglik
        good = grid_check(x, params, 16384, exact)
        assert good["pass"] is True and abs(good["log_value"] - exact) <= good["err_nats"] < 1e-3
        assert grid_check(x, params, 16384, exact + 1e-3)["pass"] is False
        assert grid_check(x, params, 16384, exact - 1e-3)["pass"] is False

    def test_grid_check_cannot_decide_outside_the_asymptotic_range(self):
        """A 28-event path (a simulated one, rounded to 3 decimals) where at
        n = 1024 the Richardson differences have not settled: the second is
        19.6 times the first, which undershoots the error of log_value,
        |log_value - loglik| = 1.2 err_nats.  The lattice n/8 shows it, so
        the check cannot decide there.  At n = 16384 the ratio is 3.9, and
        the check passes."""
        params = ModelParams(2.0, 0.25, PolyIntensity((1.0,)))
        x = load_path(
            [0.551, 0.74, 1.164, 1.43, 1.513, 1.677, 1.779, 2.459, 3.177, 3.438, 4.063, 4.099, 4.146, 4.153,
             4.849, 5.906, 6.339, 6.443, 6.71, 7.496, 7.655, 8.075, 8.326, 8.509, 9.224, 9.386, 9.419, 9.491],
            10.0,
        )
        exact = marginal_loglik(x, params).loglik
        coarse = grid_check(x, params, 1024, exact)
        assert abs(coarse["log_value"] - exact) > coarse["err_nats"]
        assert coarse["pass"] is None
        assert grid_check(x, params, 16384, exact)["pass"] is True

    def test_grid_check_below_16_steps_cannot_decide(self):
        """n = 8 leaves no lattice n/8 to show the asymptotic range, even
        where every lattice gives the same value."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        assert grid_check(x, params, 8, marginal_loglik(x, params).loglik)["pass"] is None

    def test_homogeneous_case_passes_both(self):
        """gamma = 0: every lattice gives the same value and every weight is
        equal, so both checks pass on the relative floor alone."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        exact = marginal_loglik(x, params).loglik
        grid = grid_check(x, params, 64, exact)
        assert grid["err_nats"] < 1e-12 and grid["pass"] is True
        mc = mc_check(x, params, McSpec(N=200, seed=1), exact)
        assert mc["se_log"] == 0.0 and mc["ess"] == 200 and mc["pass"] is True

    def test_mc_ess_is_the_weights_ess(self):
        """N / (1 + (N - 1) se^2) equals (sum w)^2 / sum w^2 of the weights."""
        x = load_path([0.2, 0.5, 0.9], 1.0)
        exact = marginal_loglik(x, UNIT).loglik
        logs = _mc_chunk(x, UNIT, 3000, np.random.SeedSequence(4).spawn(1)[0])
        weights = np.exp(logs - logs.max())
        check = mc_check(x, UNIT, McSpec(N=3000, seed=4), exact)
        assert check["ess"] == pytest.approx(weights.sum() ** 2 / np.sum(weights**2), rel=1e-9)
        assert check["pass"] is True


class TestSpecs:
    def test_grid_spec_validation(self):
        with pytest.raises(ValidationError, match="at least 2"):
            grid_marginal(load_path([0.5], 1.0), UNIT, 1)

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
