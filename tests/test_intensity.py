"""Unit tests for the polynomial intensity and its kernel moments."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from marcox.errors import ValidationError
from marcox.intensity import (
    MAX_DEGREE,
    PolyIntensity,
    grid_nonneg,
    kernel_moments,
    lambda_moments,
    nonneg_matrix,
    support_limit,
)

from _oracles import adaptive_simpson


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


@st.composite
def nonneg_polys(draw):
    """(gamma, T): a product of nonnegative factors on [0, T] (t, T - t,
    (t - r)^2 + e, any root r) times a scale, plus an offset, of degree 0..8,
    kept when it passes ``validate_nonneg``: rounding in the expanded
    coefficients can push a value below its tolerance."""
    T = draw(st.floats(0.1, 50.0))
    degree = draw(st.integers(0, 8))
    poly = np.array([draw(st.floats(1e-3, 1e3))])
    while poly.size <= degree:
        kind = draw(st.sampled_from(["t", "T - t", "square"] if poly.size < degree else ["t", "T - t"]))
        if kind == "square":
            r, e = draw(st.floats(-0.5, 1.5)) * T, draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) * T * T
            factor = (r * r + e, -2.0 * r, 1.0)
        else:
            factor = (0.0, 1.0) if kind == "t" else (T, -1.0)
        poly = np.polynomial.polynomial.polymul(poly, factor)
    poly[0] += draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))) * abs(poly).max()
    gamma = PolyIntensity(tuple(poly))
    assume(grid_nonneg(nonneg_matrix(T, gamma.degree) @ np.asarray(gamma.coeffs)))
    return gamma, T


def dense_values(gamma, T):
    """gamma at 10^5 evenly spaced times on [0, T], and the rounding scale
    |c_0| + |c_1| T + ... of any monomial-basis evaluation there."""
    vals = gamma.eval_many(np.linspace(0.0, T, 100_000))
    return vals, float(abs_poly(gamma).eval_many(T))


@st.composite
def attained_bounds(draw):
    """(gamma, T) from the families whose Bernstein bound is gamma's largest
    value: constants, monotone linear gamma, c t^d and (t - a)^d with d even
    or a <= 0, each of degree 0..8 and nonnegative on [0, T]."""
    T = draw(st.floats(0.1, 50.0))
    c = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["constant", "linear", "monomial", "shifted power"]))
    if kind == "constant":
        coeffs = (c,)
    elif kind == "linear":
        coeffs = (c, draw(st.floats(-1.0, 1.0)) * c / T)
    elif kind == "monomial":
        coeffs = (0.0,) * draw(st.integers(1, 8)) + (c,)
    else:
        d = draw(st.integers(1, 8))
        a = draw(st.floats(-1.0, 1.5 if d % 2 == 0 else 0.0)) * T
        coeffs = tuple(c * np.polynomial.polynomial.polypow((-a, 1.0), d))
    gamma = PolyIntensity(coeffs)
    assume(grid_nonneg(nonneg_matrix(T, gamma.degree) @ np.asarray(gamma.coeffs)))
    return gamma, T


class TestUpperBound:
    @settings(max_examples=200, deadline=None)
    @given(case=nonneg_polys())
    def test_bounds_gamma(self, case):
        """The largest Bernstein coefficient bounds gamma at 10^5 dense times,
        to 1e-12 of the rounding scale."""
        gamma, T = case
        vals, scale = dense_values(gamma, T)
        bound = gamma.upper_bound(T)
        assert bound >= 0.0
        assert np.all(vals <= bound + 1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(case=attained_bounds())
    @example(case=(PolyIntensity((2.5,)), 10.0))
    @example(case=(PolyIntensity((0.0,) * 8 + (0.37,)), 10.0))
    @example(case=(PolyIntensity(tuple(np.polynomial.polynomial.polypow((-7.0, 1.0), 8))), 10.0))
    def test_is_attained(self, case):
        """Where the bound is attained it equals gamma's largest value at the
        dense times, gamma(0) or gamma(T), to 1e-12 of the rounding scale."""
        gamma, T = case
        vals, scale = dense_values(gamma, T)
        assert abs(gamma.upper_bound(T) - vals.max()) <= 1e-12 * scale
        assert vals.max() == max(vals[0], vals[-1])

    def test_zero_and_negative_clamp(self):
        assert PolyIntensity((0.0, 0.0)).upper_bound(3.0) == 0.0
        assert PolyIntensity((-1.0,)).upper_bound(3.0) == 0.0


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
            quad = adaptive_simpson(discounted(gamma, w, T), 0.0, b)
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


def gamma_at(gamma, t):
    """gamma(t) at one scalar t by a Python Horner loop, the same operations as
    ``eval_many`` without a numpy call per quadrature point."""
    acc = 0.0
    for c in reversed(gamma.coeffs):
        acc = acc * t + c
    return acc


def discounted(gamma, w, T):
    return lambda t: math.exp(-w * (T - t)) * gamma_at(gamma, t)


def undiscounted(gamma, w, T):
    return lambda t: -math.expm1(-w * (T - t)) * gamma_at(gamma, t)


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

    @pytest.mark.parametrize("coeffs", [(1e308, 1e308), (1e300, 0.0)])
    def test_coefficients_past_the_support_limit_are_refused_quietly(self, coeffs):
        """At T = 1 the limit is 1e300, and both sums are at or past it.  They
        are refused before gamma is formed at the check times, where the
        first would overflow: the suite turns a RuntimeWarning into an error."""
        with pytest.raises(ValidationError, match=r"^intensity coefficients too large for \[0, 1.0\]$"):
            PolyIntensity(coeffs).validate_nonneg(1.0)

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

    @pytest.mark.parametrize("coeffs", [("1.0",), (1.0, True), (1.0, None)])
    def test_coefficient_that_is_not_a_number_rejected(self, coeffs):
        with pytest.raises(ValidationError, match="^intensity coefficient must be a number"):
            PolyIntensity(coeffs)

    def test_no_coefficients_rejected(self):
        with pytest.raises(ValidationError, match="at least one coefficient"):
            PolyIntensity(())

    @pytest.mark.parametrize("cfg", [{"type": "spline", "coeffs": [1.0]}, {"coeffs": [1.0]}, [1.0]])
    def test_config_that_is_not_poly_rejected(self, cfg):
        with pytest.raises(ValidationError, match="intensity config must be"):
            PolyIntensity.from_config(cfg)

    def test_from_config(self):
        assert PolyIntensity.from_config({"type": "poly", "coeffs": [1.0, 0.25]}) == PolyIntensity((1.0, 0.25))


class TestSupportLimit:
    @pytest.mark.parametrize(
        "T, degree, limit",
        [(1e-3, 8, 1e300), (1.0, 0, 1e300), (10.0, 1, 1e298), (15.0, 2, 1e300 / 3375.0), (1e3, 2, 1e291)],
    )
    def test_is_1e300_over_the_power_of_the_horizon(self, T, degree, limit):
        assert support_limit(T, degree) == pytest.approx(limit, rel=1e-15)

    def test_is_zero_where_the_power_leaves_the_double_range(self):
        """(1e200)^3 is not a double: no coefficients lie below the limit,
        not even gamma = 0, and the check says so instead of overflowing."""
        assert support_limit(1e200, 2) == 0.0
        with pytest.raises(ValidationError, match="too large"):
            PolyIntensity((0.0, 0.0, 0.0)).validate_nonneg(1e200)

    @settings(max_examples=300, deadline=None)
    @given(
        T=st.floats(1e-3, 1e3),
        w=st.floats(1e-6, 1e4),
        degree=st.integers(0, MAX_DEGREE),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    def test_every_table_entry_is_at_most_the_power_of_the_horizon(self, T, w, degree, fractions):
        """The limit's premise: every entry of ``kernel_moments`` at times in
        [0, T] (T among them), ``lambda_moments`` and ``nonneg_matrix`` is at
        most max(1, T)^(degree + 1), whatever w."""
        top = max(1.0, T) ** (degree + 1)
        times = np.array(fractions + [1.0]) * T
        assert kernel_moments(w, times, degree).max() <= top
        assert lambda_moments(w, T, degree).max() <= top
        assert nonneg_matrix(T, degree).max() <= top


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
