"""Unit tests for the marginal likelihood and its open-block recursion."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from marcox.errors import ValidationError
from marcox.intensity import PolyIntensity
from marcox.marginal import MarginalLikelihood, batch_loglik, marginal_loglik
from marcox.paths import ModelParams, load_path
from marcox.simulator import simulate

from _oracles import adaptive_simpson

UNIT = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((1.0,)))


def brute_coefficients(masses):
    """Plain-Python coefficient recursion over kernel masses in descending event order."""
    c = [1.0]
    for m, A in enumerate(masses, start=1):
        new = [1.0]
        for j in range(1, m + 1):
            s = sum(c[i] * math.comb(m - i - 1, j - i - 1) for i in range(j))
            new.append(s * A + (c[j] if j < m else 0.0))
        c = new
    return c


class TestComputeCoefficients:
    """The coefficient polynomial sum_j c_j w^j beta0^(M-j) of the closed form,
    read back as exp(polynomial_term_log) from marginal_loglik."""

    def test_single_event_closed_form(self):
        """p = A_1 e^{-e^{-1}} with A_1 = e^{-0.5} - e^{-1}, the kernel mass up to the event."""
        res = marginal_loglik(load_path([0.5], 1.0), UNIT)
        A1 = math.exp(-0.5) - math.exp(-1.0)
        assert res.polynomial_term_log == pytest.approx(math.log(A1), rel=1e-14)
        assert res.exponent_term == pytest.approx(-math.exp(-1.0), rel=1e-14)

    def test_two_event_closed_forms(self):
        """c_1 = A_2 + A_1 and c_2 = (A_1 + 1) A_2, with events in descending order."""
        x = load_path([0.25, 0.75], 1.0)
        A1 = math.exp(-0.25) - math.exp(-1.0)
        A2 = math.exp(-0.75) - math.exp(-1.0)
        for beta0 in (0.0, 0.5):
            params = ModelParams(beta0=beta0, w=1.0, gamma=PolyIntensity((1.0,)))
            poly = beta0**2 + beta0 * (A1 + A2) + (A1 + 1.0) * A2
            res = marginal_loglik(x, params)
            assert res.polynomial_term_log == pytest.approx(math.log(poly), rel=1e-13)

    def test_zero_intensity_collapses(self):
        """gamma = 0 leaves only c_0 = 1: the polynomial is beta0^M."""
        params = ModelParams(beta0=1.5, w=1.0, gamma=PolyIntensity((0.0,)))
        res = marginal_loglik(load_path([0.2, 0.5, 0.8], 1.0), params)
        assert res.polynomial_term_log == pytest.approx(3.0 * math.log(1.5), rel=1e-14)
        assert res.exponent_term == -1.5

    def test_matches_brute_force_recursion(self):
        rng = np.random.default_rng(3)
        gamma = PolyIntensity((1.2, 0.4))
        params = ModelParams(beta0=0.7, w=1.3, gamma=gamma)
        times = np.sort(rng.uniform(0.01, 1.99, size=9))
        masses = [
            adaptive_simpson(lambda s: math.exp(-params.w * (2.0 - s)) * gamma.eval(s), 0.0, t)
            for t in sorted(times, reverse=True)
        ]
        c = brute_coefficients(masses)
        M = len(c) - 1
        poly = sum(c[j] * params.w**j * params.beta0 ** (M - j) for j in range(M + 1))
        res = marginal_loglik(load_path(times, 2.0), params)
        assert math.exp(res.polynomial_term_log) == pytest.approx(poly, rel=1e-12)


def mp_moments(times, w, T, degree):
    """B_(m,p) = int_0^(t_m) e^{-w (T - s)} s^p ds and L_p = int_0^T (1 - e^{-w (T - s)}) s^p ds
    by mpmath quadrature over the gaps between events, not from the library's
    closed forms.  Call inside ``mpmath.workdps``."""
    w, T = mpmath.mpf(w), mpmath.mpf(T)
    powers = range(degree + 1)

    def pieces(a, b):
        # Both integrands vary on the scale 1/w next to b: refine there.
        return [a] + [b - k / w for k in (64, 16, 4, 1) if b - k / w > a] + [b]

    B, acc, prev = [], [mpmath.mpf(0)] * (degree + 1), mpmath.mpf(0)
    for t in times:
        t = mpmath.mpf(float(t))
        # Integrate e^{-w (t - s)} s^p, of order one, and scale it afterwards:
        # quad's absolute error test passes anything of order e^{-w T}.
        acc = [
            a
            + mpmath.exp(-w * (T - t))
            * mpmath.quad(lambda s: mpmath.exp(-w * (t - s)) * s**p, pieces(prev, t), method="gauss-legendre")
            for a, p in zip(acc, powers)
        ]
        B.append(acc)
        prev = t
    L = [mpmath.quad(lambda s: (1 - mpmath.exp(-w * (T - s))) * s**p, pieces(0, T)) for p in powers]
    return B, L


def mp_logp(moments, beta0, w, T, coeffs):
    """log p(x) by the open-block recursion at the current mpmath precision."""
    B, L = moments
    beta0, w, T = mpmath.mpf(beta0), mpmath.mpf(w), mpmath.mpf(T)
    stay = [beta0 + w * k for k in range(len(B) + 1)]
    f = [mpmath.mpf(1)]
    for row in B:
        wA = w * mpmath.fsum(c * b for c, b in zip(coeffs, row))
        f = (
            [stay[0] * f[0]]
            + [stay[k] * f[k] + wA * f[k - 1] for k in range(1, len(f))]
            + [wA * f[-1]]
        )
    return mpmath.log(mpmath.fsum(f)) - beta0 * T - mpmath.fsum(c * l for c, l in zip(coeffs, L))


def mp_loglik(times, beta0, w, coeffs, T, dps=50):
    """log p(x) in dps-digit arithmetic (``mp_moments``, ``mp_logp``)."""
    with mpmath.workdps(dps):
        moments = mp_moments(times, w, T, len(coeffs) - 1)
        return float(mp_logp(moments, beta0, w, T, [mpmath.mpf(c) for c in coeffs]))


def mp_gradient(times, beta0, w, coeffs, T, dps=50):
    """d log p / d coeffs by mpmath numerical differentiation of ``mp_logp``."""
    with mpmath.workdps(dps):
        moments = mp_moments(times, w, T, len(coeffs) - 1)
        base = [mpmath.mpf(c) for c in coeffs]

        def along(p):
            return lambda v: mp_logp(moments, beta0, w, T, base[:p] + [v] + base[p + 1 :])

        return np.array([float(mpmath.diff(along(p), base[p])) for p in range(len(base))])


class TestLongPaths:
    def test_500_events_match_high_precision(self):
        """beta0 > w at M = 500: terms far below the largest coefficient still carry
        the weight beta0^(M-j) w^j, so none may be dropped."""
        params = ModelParams(beta0=1.0, w=0.5, gamma=PolyIntensity((2.0, 0.5)))
        times = simulate(params, 30.0, seed=4).x.jumps[:500]
        got = marginal_loglik(load_path(times, 30.0), params).loglik
        ref = mp_loglik(times, 1.0, 0.5, (2.0, 0.5), 30.0)
        assert got == pytest.approx(ref, abs=1e-9)


class TestMarginalLikelihood:
    def test_reuse_matches_marginal_loglik(self):
        params = ModelParams(beta0=0.4, w=0.8, gamma=PolyIntensity((1.0, 0.3)))
        x = simulate(params, 6.0, seed=5).x
        lik = MarginalLikelihood(x, 0.4, 0.8, degree=1)
        for coeffs in [(1.0, 0.3), (0.2, 1.5), (3.0, 0.0)]:
            direct = marginal_loglik(x, ModelParams(0.4, 0.8, PolyIntensity(coeffs)))
            assert lik.loglik(coeffs) == direct

    @pytest.mark.parametrize("coeffs", [(-1.0,), (math.nan,), (math.inf,)])
    def test_negative_or_nonfinite_mass_raises(self, coeffs):
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.5, 1.0, degree=0)
        with pytest.raises(ValidationError):
            lik.loglik(coeffs)

    @pytest.mark.parametrize("coeffs", [(-1.0,), (math.nan,), (math.inf,), (0.0,), (0.5,)])
    def test_in_support_is_where_loglik_does_not_raise(self, coeffs):
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.5, 1.0, degree=0)
        try:
            lik.loglik(coeffs)
            raised = False
        except ValidationError:
            raised = True
        assert lik.in_support(coeffs) is not raised

    def test_wrong_coefficient_count_rejected(self):
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.5, 1.0, degree=1)
        with pytest.raises(ValidationError):
            lik.loglik((1.0,))

    def test_underflowing_kernel_factor_is_exact(self):
        """The only event sits where e^{-w (T - t)} = e^{-990} underflows a double.
        The factor is carried as a log offset, so beta0 = 0 still gives the exact
        -990 + log1p(-e^{-10}) - 99.9 instead of -inf."""
        params = ModelParams(beta0=0.0, w=10.0, gamma=PolyIntensity((1.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = marginal_loglik(load_path([1.0], 100.0), params)
        assert res.loglik == pytest.approx(mp_loglik([1.0], 0.0, 10.0, (1.0,), 100.0), abs=1e-9)
        assert res.loglik == pytest.approx(-990.0 + math.log1p(-math.exp(-10.0)) - 99.9, abs=1e-9)

    def test_large_w_times_T_is_finite(self):
        """w T = 1000 once made the closed-form integrals NaN."""
        params = ModelParams(beta0=0.5, w=10.0, gamma=PolyIntensity((1.0, 0.25)))
        times = [95.0, 99.0, 99.5]
        got = marginal_loglik(load_path(times, 100.0), params).loglik
        assert got == pytest.approx(mp_loglik(times, 0.5, 10.0, (1.0, 0.25), 100.0), abs=1e-10)


def _grad_case(name):
    """(path, beta0, w, coeffs) with 30 <= M <= 60 events."""
    if name == "degree 1":
        x = simulate(ModelParams(0.7, 1.3, PolyIntensity((1.2, 0.4))), 5.0, seed=1).x
        return x, 0.7, 1.3, (1.2, 0.4)
    if name == "beta0 = 0, w T = 1000":
        times = np.sort(np.random.default_rng(5).uniform(0.0, 100.0, 40))
        return load_path(times, 100.0), 0.0, 10.0, (0.5, 0.01)
    x = simulate(ModelParams(0.5, 0.8, PolyIntensity((0.5, 0.2, 0.05))), 7.0, seed=1).x
    return x, 0.5, 0.8, (0.5, 0.2, 0.05)


GRAD_CASES = ["degree 1", "beta0 = 0, w T = 1000", "degree 2"]


class TestLoglikGrad:
    @pytest.fixture(params=GRAD_CASES, scope="class")
    def case(self, request):
        x, beta0, w, coeffs = _grad_case(request.param)
        assert 30 <= x.count <= 60
        lik = MarginalLikelihood(x, beta0, w, len(coeffs) - 1)
        return lik, coeffs, lik.loglik_grad(coeffs)

    def test_value_is_loglik_exactly(self, case):
        lik, coeffs, (res, _) = case
        assert res == lik.loglik(coeffs)

    def test_matches_mpmath_derivative(self, case):
        lik, coeffs, (_, grad) = case
        ref = mp_gradient(lik.x.jumps, lik.beta0, lik.w, coeffs, lik.x.T)
        np.testing.assert_allclose(grad, ref, rtol=1e-8, atol=0.0)

    def test_matches_central_differences(self, case):
        lik, coeffs, (_, grad) = case
        for p in range(len(coeffs)):
            h = 1e-6 * max(abs(coeffs[p]), 1e-2)
            up, down = list(coeffs), list(coeffs)
            up[p] += h
            down[p] -= h
            diff = (lik.loglik(up).loglik - lik.loglik(down).loglik) / (2.0 * h)
            assert grad[p] == pytest.approx(diff, rel=1e-5)

    def test_no_events_leaves_minus_lambda_moments(self):
        lik = MarginalLikelihood(load_path([], 4.0), 0.5, 0.7, degree=2)
        res, grad = lik.loglik_grad((1.0, 0.5, 0.1))
        assert res.polynomial_term_log == 0.0
        np.testing.assert_array_equal(grad, -lik._L)

    def test_impossible_path_points_up(self):
        """beta0 = 0 and gamma = 0: log p = -inf, and raising c_0 makes the path possible."""
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.0, 1.0, degree=0)
        res, grad = lik.loglik_grad((0.0,))
        assert res.loglik == -math.inf
        assert grad[0] == math.inf


class TestMarginalLoglik:
    def test_no_event_closed_form(self):
        """p = exp(-e^{-1}) for the unit parameters and an empty path."""
        res = marginal_loglik(load_path([], 1.0), UNIT)
        assert math.exp(res.loglik) == pytest.approx(math.exp(-math.exp(-1.0)), rel=1e-13)
        assert res.polynomial_term_log == 0.0

    def test_single_event_value(self):
        """p = A_1 exp(-e^{-1}) ~ 0.165195 for an event at 0.5."""
        res = marginal_loglik(load_path([0.5], 1.0), UNIT)
        assert math.exp(res.loglik) == pytest.approx(0.1651945232410606, rel=1e-12)

    def test_homogeneous_reduction(self):
        """gamma = 0 gives the plain Poisson density beta0^M e^{-beta0 T}."""
        params = ModelParams(beta0=2.0, w=1.0, gamma=PolyIntensity((0.0,)))
        res = marginal_loglik(load_path([0.1, 0.5, 0.9], 1.0), params)
        assert math.exp(res.loglik) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-14)

    def test_zero_polynomial_sentinel(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.0,)))
        res = marginal_loglik(load_path([0.5], 1.0), params)
        assert res.loglik == -math.inf

    def test_result_decomposition(self):
        params = ModelParams(beta0=0.5, w=2.0, gamma=PolyIntensity((1.0, 1.0)))
        res = marginal_loglik(load_path([0.3, 0.6], 1.5), params)
        assert res.loglik == pytest.approx(
            res.polynomial_term_log + res.exponent_term, rel=1e-15
        )

    def test_event_order_irrelevant(self):
        """The density depends on the event set, not the supplied order."""
        params = ModelParams(beta0=0.3, w=1.0, gamma=PolyIntensity((1.0, 0.5)))
        times = [0.9, 0.2, 0.55, 0.4]
        a = marginal_loglik(load_path(times, 1.0), params)
        b = marginal_loglik(load_path(sorted(times, reverse=True), 1.0), params)
        assert a.loglik == b.loglik

    def test_boundary_event_admitted(self):
        res = marginal_loglik(load_path([1.0], 1.0), UNIT)
        assert math.isfinite(res.loglik)

    def test_negative_gamma_rejected(self):
        params = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.1, -1.0)))
        with pytest.raises(ValidationError):
            marginal_loglik(load_path([0.5], 1.0), params)

    def test_moderate_scale_stays_finite(self):
        params = ModelParams(beta0=1.0, w=1.0, gamma=PolyIntensity((2.0,)))
        sim = simulate(params, 14.0, seed=31)
        assert sim.x.count > 150
        res = marginal_loglik(sim.x, params)
        assert math.isfinite(res.loglik)


class TestBatchLoglik:
    def test_empty(self):
        assert batch_loglik([], UNIT) == []

    def test_singleton_matches_direct(self):
        x = load_path([0.5], 1.0)
        assert batch_loglik([x], UNIT)[0].loglik == marginal_loglik(x, UNIT).loglik

    def test_order_preserved_bitwise(self):
        xs = [load_path([0.2], 1.0), load_path([], 1.0), load_path([0.4, 0.7], 1.0)]
        got = batch_loglik(xs, UNIT)
        for x, r in zip(xs, got):
            assert r.loglik == marginal_loglik(x, UNIT).loglik

    def test_failure_reports_index(self):
        bad = ModelParams(beta0=0.0, w=1.0, gamma=PolyIntensity((0.1, -1.0)))
        xs = [load_path([0.5], 1.0)]
        with pytest.raises(ValidationError, match="path 0"):
            batch_loglik(xs, bad)
