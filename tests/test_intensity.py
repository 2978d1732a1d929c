"""Unit tests for the polynomial intensity and its kernel moments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marcox import intensity
from marcox.errors import ConvergenceError, ValidationError
from marcox.intensity import PolyIntensity, _cum_inverse_batch, grid_nonneg, kernel_moments, lambda_moments

from _oracles import adaptive_simpson, bisect_cum_inverse


def random_nonneg_poly(rng, max_degree=4, T=1.0):
    """Random polynomial guaranteed nonnegative on [0, T]: q(t)^2 + const."""
    deg = rng.integers(0, max_degree // 2 + 1)
    q = rng.uniform(-1.5, 1.5, size=deg + 1)
    sq = np.polynomial.polynomial.polymul(q, q)
    sq[0] += rng.uniform(0.0, 1.0)
    return PolyIntensity(tuple(sq))


class TestEval:
    def test_constant(self):
        assert PolyIntensity((2.0,)).eval_many(0.7) == 2.0

    def test_linear(self):
        assert PolyIntensity((0.0, 2.0)).eval_many(0.5) == 1.0

    def test_quadratic(self):
        assert PolyIntensity((1.0, -1.0, 1.0)).eval_many(2.0) == 3.0

    def test_matches_horner(self):
        gamma = PolyIntensity((0.3, -0.2, 0.1, 0.05))
        ts = np.linspace(0.0, 2.0, 17)
        horner = [0.3 + t * (-0.2 + t * (0.1 + t * 0.05)) for t in ts]
        np.testing.assert_allclose(gamma.eval_many(ts), horner)


class TestCum:
    def test_constant(self):
        assert PolyIntensity((2.0,)).cum(3.0) == 6.0

    def test_linear(self):
        assert PolyIntensity((0.0, 2.0)).cum(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic(self):
        # gamma = 1 + 3 t^2 integrates to t + t^3
        assert PolyIntensity((1.0, 0.0, 3.0)).cum(2.0) == pytest.approx(10.0, rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            PolyIntensity((1.0,)).cum(-0.1)


def square_times_power(T, root, k, offset):
    """gamma = (t - r)^2 t^k + offset with r = root T: a flat point at r inside [0, T]."""
    r = root * T
    coeffs = np.zeros(k + 3)
    coeffs[k:] = (r * r, -2.0 * r, 1.0)
    coeffs[0] += offset
    return PolyIntensity(tuple(coeffs)), r


def assert_inverse_matches_bisection(gamma, us, T):
    """Every t lies in [0, T], Gamma(t) - u is at rounding size, and where
    gamma is not nearly flat t is the bisection reference within 1e-9 T."""
    got = _cum_inverse_batch(gamma, us, T)
    assert np.all((got >= 0.0) & (got <= T))
    top = float(gamma.eval_many(np.linspace(0.0, T, 1025)).max())
    # Rounding of Gamma(t) scales with its terms' magnitudes sum_p |c_p| t^(p+1) / (p+1).
    terms = np.abs(gamma.coeffs) / np.arange(1, gamma.degree + 2)
    scale = np.polynomial.polynomial.polyval(got, terms) * got
    assert np.all(np.abs(gamma.cum_many(got) - us) <= 2e-12 * T * top + 1e-13 * scale)
    ref = bisect_cum_inverse(gamma, us, T)
    steep = gamma.eval_many(ref) >= 1e-3 * top
    assert np.all(np.abs(got - ref)[steep] <= 1e-9 * T)


def random_round_trips():
    """25 random polynomials nonnegative on [0, 1], each at one time in
    [0.05, 0.95] where gamma >= 1e-6."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        gamma, t = random_nonneg_poly(rng), rng.uniform(0.05, 0.95)
        if gamma.eval_many(t) >= 1e-6:
            yield gamma, 1.0, np.array([t])


# (gamma, T, times) to invert at Gamma(times): Gamma(t) = t^2, whose inverse
# is sqrt(u); a constant rate 2, whose inverse is u / 2; random polynomials.
ROUND_TRIPS = {
    "sqrt": [(PolyIntensity((0.0, 2.0)), 1.0, np.array([0.5]))],
    "constant": [(PolyIntensity((2.0,)), 10.0, np.array([3.0]))],
    "random": list(random_round_trips()),
}


class TestCumInverseBatch:
    @settings(max_examples=150, deadline=None)
    # gamma = (t - r)^2 t^6 with r = 1e-12: at Gamma(r) = 4e-111 Newton
    # converges only linearly, by a factor 8/9 per step; the halving rule
    # keeps the inversion within the iteration cap.
    @example(T=1.0, root=1e-12, k=6, offset=0.0, seed=0)
    @given(
        T=st.floats(0.1, 50.0),
        root=st.floats(0.0, 1.0),
        k=st.integers(0, 6),
        offset=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_bisection(self, T, root, k, offset, seed):
        """Degree up to 8, gamma(0) = 0 included; the masses include Gamma(T),
        the flat point Gamma(r) and 1e-15 Gamma(T)."""
        gamma, r = square_times_power(T, root, k, offset)
        total = gamma.cum(T)
        edges = [0.0, 1e-15 * total, min(gamma.cum(r), total), total]
        us = np.sort(np.concatenate([np.random.default_rng(seed).uniform(0.0, total, 200), edges]))
        assert_inverse_matches_bisection(gamma, us, T)

    @pytest.mark.parametrize(
        "T, root, k, offset",
        [(10.0, 0.7, 3, 0.01), (10.0, 0.95, 5, 0.16), (25.0, 0.8, 0, 0.01), (25.0, 0.35, 3, 0.16)],
    )
    def test_newton_cycle_at_the_flat_point(self, T, root, k, offset):
        """Cases where unguarded Newton steps cycle around Gamma(r) and never
        converge: only steps of at most half the previous step are taken."""
        gamma, r = square_times_power(T, root, k, offset)
        assert_inverse_matches_bisection(gamma, np.array([gamma.cum(r)]), T)

    @pytest.mark.parametrize("cases", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_round_trip(self, cases):
        """Inverting Gamma(t) gives t back within 1e-10 and matches bisection."""
        for gamma, T, times in cases:
            us = gamma.cum_many(times)
            np.testing.assert_allclose(_cum_inverse_batch(gamma, us, T), times, rtol=0.0, atol=1e-10)
            assert_inverse_matches_bisection(gamma, us, T)

    def test_empty_and_zero_rate(self):
        assert _cum_inverse_batch(PolyIntensity((1.0, 2.0)), np.empty(0), 3.0).size == 0
        np.testing.assert_array_equal(_cum_inverse_batch(PolyIntensity((0.0,)), np.zeros(3), 2.0), 0.0)

    def test_blocks_give_the_one_pass_result(self, monkeypatch):
        """Every element iterates on its own, so cutting the masses into blocks
        changes no bit."""
        gamma = PolyIntensity((1.0, -0.5, 0.1))
        us = np.sort(np.random.default_rng(3).uniform(0.0, gamma.cum(4.0), 1000))
        whole = _cum_inverse_batch(gamma, us, 4.0)
        monkeypatch.setattr(intensity, "_INVERSE_BLOCK", 7)
        np.testing.assert_array_equal(_cum_inverse_batch(gamma, us, 4.0), whole)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(intensity, "_INVERSE_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            _cum_inverse_batch(PolyIntensity((1.0, 2.0)), np.array([0.3, 5.0]), 3.0)


def alpha(gamma, w, T, b):
    """int_0^b e^{-w (T - t)} gamma(t) dt from the kernel-moment row of b."""
    row = kernel_moments(w, np.array([b]), gamma.degree)[0]
    return float(row @ np.asarray(gamma.coeffs)) * math.exp(-w * (T - b))


def lam_integral(gamma, w, T):
    """int_0^T (1 - e^{-w (T - t)}) gamma(t) dt from ``lambda_moments``."""
    return float(lambda_moments(w, T, gamma.degree) @ np.asarray(gamma.coeffs))


class TestAlphaIntegral:
    """The discounted kernel mass int_0^b e^{-w (T - t)} gamma(t) dt."""

    def test_half_interval(self):
        # int_0^0.5 e^{-(1-t)} dt = e^{-0.5} - e^{-1}
        val = alpha(PolyIntensity((1.0,)), 1.0, 1.0, 0.5)
        assert val == pytest.approx(math.exp(-0.5) - math.exp(-1.0), rel=1e-14)

    def test_empty_interval(self):
        """A row at t = 0 is zero."""
        np.testing.assert_array_equal(kernel_moments(1.0, np.array([0.0]), 3), 0.0)
        assert alpha(PolyIntensity((1.0,)), 1.0, 1.0, 0.0) == 0.0

    def test_zero_intensity(self):
        assert alpha(PolyIntensity((0.0,)), 2.0, 5.0, 3.0) == 0.0

    def test_against_adaptive_simpson_randomized(self):
        """Closed form vs quadrature on 100 random polynomial/interval cases."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            gamma = random_nonneg_poly(rng, max_degree=6)
            T = rng.uniform(0.5, 3.0)
            w = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.0, T)
            exact = alpha(gamma, w, T, b)
            quad = adaptive_simpson(lambda t: math.exp(-w * (T - t)) * gamma.eval_many(t), 0.0, b)
            assert exact == pytest.approx(quad, rel=1e-10, abs=1e-13)


class TestLambdaIntegral:
    def test_unit_case(self):
        # int_0^1 (1 - e^{-(1-t)}) dt = e^{-1}
        val = lam_integral(PolyIntensity((1.0,)), 1.0, 1.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_zero_intensity(self):
        assert lam_integral(PolyIntensity((0.0,)), 1.0, 5.0) == 0.0

    def test_linear_in_gamma(self):
        val = lam_integral(PolyIntensity((2.0,)), 1.0, 1.0)
        assert val == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_bounded_by_total_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gamma = random_nonneg_poly(rng)
            T = rng.uniform(0.5, 3.0)
            w = rng.uniform(0.2, 3.0)
            lam = lam_integral(gamma, w, T)
            assert -1e-12 <= lam <= gamma.cum(T) * (1.0 + 1e-12) + 1e-12


def discounted(gamma, w, T):
    return lambda t: math.exp(-w * (T - t)) * gamma.eval_many(t)


def undiscounted(gamma, w, T):
    return lambda t: -math.expm1(-w * (T - t)) * gamma.eval_many(t)


def decay_quadrature(f, w, b):
    """adaptive_simpson of ``f`` over [0, b], split at b - 2^k / w.

    e^{-w (b - t)} puts its mass within a few 1/w of b. If gamma vanishes at
    b, all five samples of a single Simpson panel over [0, b] can miss that
    mass and the recursion accepts a near-zero estimate at once: for
    gamma = (t - 1)^2 with w = 100 on [0, 1] it returned 3e-13 for 2e-6.
    Panels that double in width away from b each hold a resolved share.
    """
    cuts = [b]
    h = 1.0 / w
    while b - h > 0.0:
        cuts.append(b - h)
        h *= 2.0
    cuts.append(0.0)
    return math.fsum(adaptive_simpson(f, lo, hi) for hi, lo in zip(cuts, cuts[1:]))


def abs_poly(gamma):
    """|c_0| + |c_1| t + ...: bounds the rounding of any monomial-basis evaluation."""
    return PolyIntensity(tuple(abs(c) for c in gamma.coeffs))


class TestLargeAndSmallDecay:
    @pytest.mark.parametrize("w, T", [(5.0, 200.0), (10.0, 100.0)])
    def test_large_w_T_matches_quadrature(self, w, T):
        """w T = 1000 once overflowed e^{w (b - a)} into NaN."""
        gamma = PolyIntensity((1.0, 0.25))
        for b in (T, 0.5 * T):
            got = alpha(gamma, w, T, b)
            assert math.isfinite(got)
            assert got == pytest.approx(adaptive_simpson(discounted(gamma, w, T), 0.0, b), rel=1e-12)
        lam = lam_integral(gamma, w, T)
        assert math.isfinite(lam)
        assert lam == pytest.approx(adaptive_simpson(undiscounted(gamma, w, T), 0.0, T), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        log_wT=st.floats(-6.0, 4.0),
        T=st.floats(0.5, 50.0),
        root=st.floats(0.0, 1.0),
        offset=st.floats(0.0, 1.0),
        end=st.floats(0.0, 1.0),
    )
    @example(log_wT=2.0, T=1.0, root=1.0, offset=0.0, end=1.0)
    @example(log_wT=2.0, T=1.0, root=1.0, offset=0.0, end=0.0)
    def test_matches_quadrature_over_w_T(self, log_wT, T, root, offset, end):
        """Mixed-sign coefficients of a nonnegative gamma = (t - r)^2 + offset
        (for instance (t - 5)^2 on [0, 10]) across w T in [1e-6, 1e4].

        The error allowance scales with the integral of |c_0| + |c_1| t + ...,
        the condition of the monomial basis that gamma.eval_many shares.
        """
        w = 10.0**log_wT / T
        r = root * T
        gamma = PolyIntensity((r * r + offset, -2.0 * r, 1.0))
        b = end * T
        got = alpha(gamma, w, T, b)
        scale = decay_quadrature(discounted(abs_poly(gamma), w, T), w, b)
        want = decay_quadrature(discounted(gamma, w, T), w, b)
        assert abs(got - want) <= 1e-10 * scale + 1e-12
        lam = lam_integral(gamma, w, T)
        scale = decay_quadrature(undiscounted(abs_poly(gamma), w, T), w, T)
        want = decay_quadrature(undiscounted(gamma, w, T), w, T)
        assert abs(lam - want) <= 1e-10 * scale + 1e-12

    def test_square_with_root_inside(self):
        """gamma = (t - 5)^2 on [0, 10]: alternating coefficients, nonnegative values."""
        gamma = PolyIntensity((25.0, -10.0, 1.0))
        for w in (1e-7, 0.3, 40.0):
            want = adaptive_simpson(discounted(gamma, w, 10.0), 0.0, 10.0)
            assert alpha(gamma, w, 10.0, 10.0) == pytest.approx(want, rel=1e-11)
            want = adaptive_simpson(undiscounted(gamma, w, 10.0), 0.0, 10.0)
            assert lam_integral(gamma, w, 10.0) == pytest.approx(want, rel=1e-11)


class TestValidation:
    def test_nonneg_accepts_positive(self):
        PolyIntensity((1.0, 0.5)).validate_nonneg(2.0)

    def test_nonneg_rejects_dipping(self):
        with pytest.raises(ValidationError):
            PolyIntensity((0.1, -1.0)).validate_nonneg(1.0)

    def test_monotone_cum_when_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gamma = random_nonneg_poly(rng)
            ts = np.linspace(0.0, 1.0, 64)
            vals = [gamma.cum(t) for t in ts]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            PolyIntensity(tuple([1.0] * 10))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            PolyIntensity((1.0, math.nan))

    def test_config_roundtrip(self):
        gamma = PolyIntensity((1.0, 0.25))
        assert PolyIntensity.from_config(gamma.to_config()) == gamma


def documented_nonneg(vals):
    """``grid_nonneg``'s rule as its docstring states it, value by value: no
    NaN, and none below -1e-12 times the larger of 1 and the largest magnitude."""
    if any(math.isnan(v) for v in vals):
        return False
    tol = 1e-12 * max([1.0] + [abs(v) for v in vals])
    return all(v >= -tol for v in vals)


EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1e-12, 1e-12, 1e308, -1e308, 5e-324, -5e-324]


class TestGridNonneg:
    @settings(max_examples=400, deadline=None)
    @given(
        vals=st.lists(
            st.one_of(st.floats(), st.floats(-1e3, 1e3), st.sampled_from(EDGE_VALUES)), min_size=1, max_size=40
        ),
        edge=st.sampled_from([None, "below", "at", "above"]),
        pos=st.integers(0, 40),
    )
    @example(vals=[1.0, -1e-12], edge=None, pos=0)
    @example(vals=[-0.0, 0.0, -0.0], edge=None, pos=0)
    @example(vals=[1e308, -1e296], edge=None, pos=0)
    @example(vals=[math.inf, -1e300], edge=None, pos=0)
    @example(vals=[-math.inf, 2.0], edge=None, pos=0)
    @example(vals=[math.inf, math.nan], edge=None, pos=0)
    @example(vals=[-math.nan], edge=None, pos=0)
    @example(vals=[250.0, 0.5], edge="at", pos=1)
    @example(vals=[250.0, 0.5], edge="below", pos=1)
    def test_is_the_documented_rule(self, vals, edge, pos):
        """Optionally with one more entry at -1e-12 max(1, max |v|), or the
        float just below or above it; the entry does not change the maximum."""
        if edge is not None:
            scale = max([1.0] + [abs(v) for v in vals if not math.isnan(v)])
            at = -1e-12 * scale
            vals.insert(pos % (len(vals) + 1), {"below": np.nextafter(at, -math.inf), "at": at, "above": np.nextafter(at, 0.0)}[edge])
        assert grid_nonneg(np.array(vals)) is documented_nonneg(vals)
