"""Unit tests for the grid and Monte Carlo likelihood oracles."""

import math

import numpy as np
import pytest

from marcox import oracles
from marcox.errors import ValidationError
from marcox.intensity import PolyIntensity
from marcox.marginal import _logsumexp, marginal_loglik
from marcox.oracles import (
    McSpec,
    _gap_masses,
    _grid_filter,
    _mc_chunk,
    default_y_max,
    grid_check,
    grid_marginal,
    mc_check,
    mc_marginal,
)
from marcox.paths import ModelParams, load_path
from marcox.simulator import conditional_loglik, simulate, simulate_latent

from _oracles import adaptive_simpson, dense_mc_chunk
from _pinned import pinned_path

UNIT = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))
P_EMPTY = 0.6922006275553464  # exp(-e^{-1})
P_ONE = 0.1651945232410606  # event at 0.5 under the unit parameters
# Regime of the ROADMAP repro A: 200 events on [0, 100], p(x) ~ 1e-70.
REPRO_A = ModelParams(beta0=0.01, w=0.01, gamma=PolyIntensity((1.0,)))
# The exact filter's regimes: the two CI models (the second's gamma has a
# double root at t = 5), no baseline rate, a constant gamma and a steep kernel.
REGIMES = {
    "linear": ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.1))),
    "double root": ModelParams(1.0, 0.5, PolyIntensity((0.25, -0.1, 0.01))),
    "beta0 = 0": ModelParams(0.0, 0.5, PolyIntensity((1.0, 0.1))),
    "constant": ModelParams(1.0, 0.5, PolyIntensity((2.0,))),
    "w = 20": ModelParams(1.0, 20.0, PolyIntensity((1.0, 0.1))),
}


class TestGridMarginal:
    def test_homogeneous_case_exact_per_step(self):
        """gamma = 0 keeps a single latent state; the filter telescopes to the
        plain Poisson density."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        assert grid_marginal(x, params) == pytest.approx(math.log(8.0) - 2.0, rel=1e-12)

    def test_no_event_value(self):
        assert grid_marginal(load_path([], 1.0), UNIT) == pytest.approx(math.log(P_EMPTY), rel=1e-12)

    def test_single_event_value(self):
        assert grid_marginal(load_path([0.5], 1.0), UNIT) == pytest.approx(math.log(P_ONE), rel=1e-12)

    @pytest.mark.parametrize("params", REGIMES.values(), ids=REGIMES.keys())
    def test_agrees_with_the_likelihood_on_simulated_paths(self, params):
        """Seeds 1-20 on [0, 10] of each regime, to 1e-12 relative."""
        for seed in range(1, 21):
            x = simulate(params, 10.0, seed=seed).x
            exact = marginal_loglik(x, params).loglik
            assert abs(grid_marginal(x, params) - exact) <= 1e-12 * max(1.0, abs(exact)), seed

    @pytest.mark.parametrize(
        "params", [ModelParams(1.0, 0.5, PolyIntensity((2.0, 0.5))), ModelParams(0.25, 1.0, PolyIntensity((1.0, 0.25)))]
    )
    def test_agrees_with_the_likelihood_at_a_thousand_events(self, params):
        """The first 1000 events of a draw on [0, 30] (beta0 > w and beta0 < w),
        with the horizon at the last of them: log p(x) is about 3000."""
        times = simulate(params, 30.0, seed=1).x.jumps[:1000]
        assert times.size == 1000
        x = load_path(times, float(times[-1]))
        exact = marginal_loglik(x, params).loglik
        assert abs(grid_marginal(x, params) - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_truncation_level_invariance(self):
        """The filter at the prior's tail level and at twice it give the same
        value as grid_marginal, and the value does not fall with the level."""
        x = load_path([0.5], 1.0)
        base_y = default_y_max(UNIT.gamma.cum(1.0))
        a, b = (_logsumexp(_grid_filter(x, UNIT, y)) for y in (base_y, 2 * base_y))
        assert b == pytest.approx(a, rel=1e-12) and b >= a
        assert grid_marginal(x, UNIT) == pytest.approx(b, rel=1e-12)

    def test_truncation_level_follows_the_data(self):
        """1000 events where the prior expects 100 latent points: the prior's
        tail level holds almost none of p(x), and the doubling finds it."""
        x = load_path(np.linspace(0.05, 99.95, 1000), 100.0)
        at_prior_level = _logsumexp(_grid_filter(x, REPRO_A, default_y_max(REPRO_A.gamma.cum(100.0))))
        value = grid_marginal(x, REPRO_A)
        assert value > at_prior_level + 100.0
        assert value == pytest.approx(marginal_loglik(x, REPRO_A).loglik, rel=1e-12)

    def test_impossible_path_gives_minus_inf(self):
        """beta0 = 0 and gamma = 0 cannot produce an event: every state's
        weight is 0 after it, at every truncation level."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.0,)))
        assert grid_marginal(load_path([0.5], 1.0), params) == -math.inf


class TestGapMasses:
    @pytest.mark.parametrize("w", [0.01, 0.5, 20.0])
    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 0.1), (0.25, -0.1, 0.01), (0.5,) + (0.0,) * 7 + (1e-7,)])
    def test_agree_with_adaptive_simpson(self, w, coeffs):
        """Gamma_gap and A on gaps from 1e-4 to 5 long, so w h reaches 100."""
        params = ModelParams(1.0, w, PolyIntensity(coeffs))
        edges = np.array([0.0, 1e-4, 0.3, 2.5, 5.0, 10.0])
        gammas, masses = _gap_masses(edges, params)
        gamma = params.gamma.eval_many
        for a, b, got_gamma, got_mass in zip(edges, edges[1:], gammas, masses):
            want_gamma = adaptive_simpson(lambda s: float(gamma(s)), a, b)
            want_mass = adaptive_simpson(lambda s: float(gamma(s)) * math.exp(-w * (b - s)), a, b)
            assert got_gamma == pytest.approx(want_gamma, rel=1e-12)
            assert got_mass == pytest.approx(want_mass, rel=1e-12)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of each thread pool that ``mc_marginal`` opens."""
    import concurrent.futures

    sizes = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return sizes


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

    @pytest.mark.parametrize("M, N", [(1, 20_000), (300, 8000)])
    def test_seeded_determinism_and_cpu_count_invariance(self, monkeypatch, pool_sizes, M, N):
        """The same seed gives the same result, bit for bit, on a pool of one
        worker or of four: M = 1 has five 4096-replica chunks, M = 300
        three of up to 3495."""
        x = load_path(np.linspace(0.5, 9.5, M) if M > 1 else [0.5], 10.0 if M > 1 else 1.0)
        runs = []
        for cpus in (1, 4, 1):
            monkeypatch.setattr(oracles.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            runs.append(mc_marginal(x, UNIT, McSpec(N=N, seed=11)))
        assert pool_sizes == [1, 4, 1]
        assert runs[0] == runs[1] == runs[2]
        assert all(math.isfinite(v) for v in runs[0])

    def test_pool_falls_back_to_os_cpu_count(self, monkeypatch, pool_sizes):
        """Where the affinity call does not exist, the pool has a worker per
        CPU that ``os.cpu_count`` reports, or one when it reports none."""
        monkeypatch.delattr(oracles.os, "sched_getaffinity", raising=False)
        x = load_path([0.5], 1.0)
        for cpus in (3, None):
            monkeypatch.setattr(oracles.os, "cpu_count", lambda: cpus)
            mc_marginal(x, UNIT, McSpec(N=10, seed=1))
        assert pool_sizes == [3, 1]

    @pytest.mark.parametrize("M", [0, 256, 257, 3000])
    def test_chunks_hold_at_most_2_to_the_20_cells(self, monkeypatch, M):
        """A chunk holds min(4096, 2^20 // max(M, 1)) replicas, so its
        (replica, event) table stays at 2^20 cells or below, and M <= 256
        keeps the 4096-replica chunks whose random stream the oracle has
        always had."""
        sizes = []

        def record(x, params, n, seed):
            sizes.append(n)
            return np.zeros(n)

        monkeypatch.setattr(oracles, "_mc_chunk", record)
        x = load_path(np.linspace(0.5, 9.5, M), 10.0)
        N = 20_001
        assert mc_marginal(x, UNIT, McSpec(N=N, seed=1)) == (0.0, 0.0)
        assert sum(sizes) == N
        assert all(1 <= n <= 4096 and n * max(M, 1) <= 2**20 for n in sizes)
        assert len(sizes) == -(-N // min(4096, 2**20 // max(M, 1)))  # as few as the rule allows
        if M <= 256:
            assert sorted(sizes) == [N % 4096] + [4096] * (N // 4096)

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
        """On a pinned path of about 45 events an error of 1e-6 nats fails the check."""
        params = ModelParams(1.0, 0.5, PolyIntensity((1.0, 0.2)))
        x = pinned_path(params, 10.0, 2)
        assert 40 <= x.count <= 55
        exact = marginal_loglik(x, params).loglik
        good = grid_check(x, params, exact)
        assert good == {"log_value": good["log_value"], "pass": True}
        assert abs(good["log_value"] - exact) <= 1e-12 * max(1.0, abs(exact))
        assert grid_check(x, params, exact + 1e-6)["pass"] is False
        assert grid_check(x, params, exact - 1e-6)["pass"] is False

    def test_grid_check_passes_when_both_values_are_minus_inf(self):
        """beta0 = 0 and gamma = 0 leave the one event unexplained: the
        likelihood and the grid both give -inf, which agree, though their
        difference is NaN; a finite value against -inf still fails."""
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.5], 1.0)
        exact = marginal_loglik(x, params).loglik
        assert exact == -math.inf
        assert grid_check(x, params, exact) == {"log_value": -math.inf, "pass": True}
        assert grid_check(x, params, -1.0)["pass"] is False

    def test_homogeneous_case_passes_both(self):
        """gamma = 0: the filter is the Poisson density and every weight is
        equal, so both checks pass on the relative floor alone."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        x = load_path([0.1, 0.5, 0.9], 1.0)
        exact = marginal_loglik(x, params).loglik
        assert grid_check(x, params, exact)["pass"] is True
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
    def test_mc_spec_validation(self):
        with pytest.raises(ValidationError):
            McSpec(N=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"N": True}, "replica count N"),
            ({"N": 2.5}, "replica count N"),
            ({"N": 10, "seed": -1}, "seed"),
            ({"N": 10, "seed": 1.5}, "seed"),
            ({"N": 10, "seed": False}, "seed"),
        ],
    )
    def test_mc_spec_counts_follow_the_package_rule(self, kwargs, name):
        """N and seed are counts: an integer, not a bool, at least 1 (N) or
        0 (seed).  N = True once ran one replica, and seed = -1 failed
        inside ``SeedSequence``."""
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= "):
            McSpec(**kwargs)

    def test_mc_marginal_of_a_gamma_it_cannot_draw_is_a_validation_error(self):
        """gamma = 1e200 on [0, 1] passes ``validate_nonneg``, but the latent
        count's mean is past the sampler's range."""
        params = ModelParams(1.0, 0.01, PolyIntensity((1e200, 0.0)))
        with pytest.raises(ValidationError, match="mean count"):
            mc_marginal(load_path([0.5], 1.0), params, McSpec(N=10, seed=1))

    def test_default_y_max_tail(self):
        """The smallest k with Poisson upper-tail mass P(N > k) < 1e-12."""
        from scipy.stats import poisson

        means = np.logspace(-6, 4, 201)
        ks = np.array([default_y_max(float(m)) for m in means])
        assert np.all(poisson.sf(ks, means) < 1e-12)
        assert np.all(poisson.sf(ks - 1, means) >= 1e-12)

    def test_default_y_max_at_the_top_of_its_range(self):
        """At a mean of 1e8 the level lies about 7 standard deviations above it."""
        k = default_y_max(1e8)
        assert 6.5e4 < k - 1e8 < 7.5e4

    @pytest.mark.parametrize("mean", [math.nextafter(1e8, math.inf), 1e10, 1e200, math.inf, math.nan])
    def test_default_y_max_refuses_a_mean_past_its_range(self, mean):
        """Past 1e8 the tail sum is not vouched for (and grows slow, then
        wrong, then overflows): ``ValidationError``, not a level."""
        with pytest.raises(ValidationError, match="past the grid oracle's range"):
            default_y_max(mean)

    def test_grid_marginal_of_a_gamma_past_its_range_is_a_validation_error(self):
        """gamma = 1e200 on [0, 1] passes ``validate_nonneg`` and has a finite
        loglik, but Gamma(T) = 1e200 is past the grid oracle's range."""
        params = ModelParams(1.0, 0.01, PolyIntensity((1e200, 0.0)))
        x = load_path([0.2, 0.5], 1.0)
        assert math.isfinite(marginal_loglik(x, params).loglik)
        with pytest.raises(ValidationError, match="mean 1e\\+200"):
            grid_marginal(x, params)
