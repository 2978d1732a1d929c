"""Unit tests for the marginal likelihood and its open-block recursion."""

import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from marcox import marginal
from marcox.errors import ValidationError
from marcox.intensity import MAX_DEGREE, PolyIntensity, grid_nonneg, nonneg_matrix, support_limit
from marcox.marginal import MarginalLikelihood, MarginalResult, marginal_loglik
from marcox.paths import ModelParams, load_path
from marcox.simulator import simulate

from _oracles import adaptive_simpson, per_step_run, three_reduction_masses
from _pinned import pinned_path

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
            adaptive_simpson(lambda s: math.exp(-params.w * (2.0 - s)) * gamma.eval_many(s), 0.0, t)
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

    def test_1000_events_match_high_precision_with_and_without_the_window(self, monkeypatch):
        """At M = 1000 every block certifies a step, so no row is dropped.
        With a certified range of 10 nats a block at about step 585
        certifies none, and from there every block starts with the window,
        which never holds a quarter of the M + 1 rows.  Either way the
        loglik is mpmath's within 1e-10."""
        params = ModelParams(beta0=1.0, w=0.5, gamma=PolyIntensity((2.0, 0.5)))
        times = simulate(params, 30.0, seed=4).x.jumps[:1000]
        ref = mp_loglik(times, 1.0, 0.5, (2.0, 0.5), 30.0, dps=30)
        runs = spy_pass(monkeypatch)
        for narrow in (False, True):
            if narrow:
                small_blocks(monkeypatch, marginal._CELLS, 10.0)
            runs.clear()
            got = marginal_loglik(load_path(times, 30.0), params).loglik
            assert got == pytest.approx(ref, abs=1e-10)
            windows = [run for run in runs if run[0] == "window"]
            if not narrow:
                assert windows == []
            else:
                assert any(after < before for _, before, after in windows)
                assert max(after for _, _, after in windows) < 1001 // 4


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

    @pytest.mark.parametrize(
        "coeffs",
        [
            (-1.0,),
            (math.nan,),
            (math.inf,),
            (0.0,),
            (0.5,),
            # gamma = 1 - 1.5 t is negative on (2/3, 1], though its kernel mass
            # and lambda integral are positive; 1 - t touches 0 at t = 1.
            (1.0, -1.5),
            (1.0, -1.0),
            (0.0, 1.0),
            (-0.1, 1.0),
            # (t - 0.5)^2, and the same less 0.01, which dips below 0 between the
            # events yet keeps every mass and int lambda positive.
            (0.25, -1.0, 1.0),
            (0.24, -1.0, 1.0),
            (-1.0, 0.0, 0.0),
        ],
    )
    def test_in_support_is_where_loglik_does_not_raise(self, coeffs):
        """The support check and each evaluation agree both ways, for
        constant, linear and quadratic gamma: ``loglik``, ``loglik_grad``
        and ``loglik_bound`` raise ``ValidationError`` exactly where
        ``in_support`` is False, and give a value (the bound against a kept
        pass at gamma = 1) where it is True."""
        lik = MarginalLikelihood(load_path([0.25, 0.5], 1.0), 0.5, 1.0, degree=len(coeffs) - 1)
        lik.loglik(np.eye(len(coeffs))[0])
        support = lik.in_support(coeffs)
        for evaluate in (lik.loglik, lik.loglik_grad, lik.loglik_bound):
            try:
                evaluate(coeffs)
                raised = False
            except ValidationError:
                raised = True
            assert support is not raised, evaluate.__name__
        if coeffs in [(1.0, -1.5), (0.24, -1.0, 1.0)]:
            assert not support and float(lik._L @ coeffs) > 0.0 and (lik._B @ coeffs).min() > 0.0

    @pytest.mark.parametrize(
        "coeffs",
        [
            (math.nan, 0.1),
            (1.0, math.inf),
            (-math.inf, 0.1),
            (math.inf, -math.inf),
            (1.0, 0.0, math.nan),
            (1e308, 1e308),
            (-1e308, -1e308),
            (0.0, 1.7e308),
            (0.0, 0.0, 1e308),
        ],
    )
    def test_nonfinite_or_overflowing_coefficients_are_refused_quietly(self, coeffs):
        """Non-finite coefficients, and finite ones whose masses overflow, are
        outside the support, and a pass refuses them, without a RuntimeWarning
        from the products that give the masses."""
        lik = MarginalLikelihood(load_path([0.5, 2.0, 3.5], 4.0), 0.5, 1.0, degree=len(coeffs) - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if all(math.isfinite(c) for c in coeffs):
                with np.errstate(over="ignore", invalid="ignore"):
                    assert not np.isfinite(lik._B @ np.asarray(coeffs)).all()
            assert lik.in_support(coeffs) is False
            with pytest.raises(ValidationError, match="finite"):
                lik.loglik(coeffs)
            with pytest.raises(ValidationError, match="finite"):
                lik.loglik_grad(coeffs)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=MAX_DEGREE + 1),
        T=st.floats(0.1, 50.0),
        nudge=st.sampled_from([-1e-9, -1.01e-12, -1e-12, -0.99e-12, -1e-15, 0.0, 1e-15]),
    )
    def test_validate_nonneg_agrees_with_in_support_grid(self, coeffs, T, nudge):
        """Coefficients pushed onto the edge of the tolerance:
        ``validate_nonneg`` and the grid part of ``in_support`` evaluate gamma
        as the same V c, so they decide alike (a Horner evaluation differs in
        the last bits)."""
        lik = MarginalLikelihood(load_path([0.5 * T], T), 0.5, 1.0, degree=len(coeffs) - 1)
        c = np.array(coeffs)
        vals = lik.V @ c
        c[0] += nudge * max(1.0, float(np.abs(vals).max())) - vals.min()
        on_grid = grid_nonneg(lik.V @ c)
        if on_grid:
            PolyIntensity(tuple(c)).validate_nonneg(T)
        else:
            with pytest.raises(ValidationError, match="negative"):
                PolyIntensity(tuple(c)).validate_nonneg(T)
        assert on_grid or not lik.in_support(c)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=MAX_DEGREE + 1),
        T=st.floats(0.1, 50.0),
        ratio=st.floats(0.5, 2.0),
    )
    @example(coeffs=[1.0, 0.1], T=15.0, ratio=1.0)
    @example(coeffs=[0.3, -0.7, 0.2], T=0.5, ratio=1.0)
    def test_validate_nonneg_refuses_exactly_past_the_support_limit(self, coeffs, T, ratio):
        """Coefficients rescaled to a sum of |c| at ratio times the support's
        limit: ``validate_nonneg`` refuses them as too large exactly where
        the sum is not below the likelihood's limit, and neither warns."""
        lik = MarginalLikelihood(load_path([0.5 * T], T), 0.5, 1.0, degree=len(coeffs) - 1)
        c = np.array(coeffs)
        c = c / float(np.abs(c).sum()) * (ratio * lik._support_coeff_limit)
        past = not sum(map(abs, c.tolist())) < lik._support_coeff_limit
        try:
            PolyIntensity(tuple(c)).validate_nonneg(T)
            too_large = False
        except ValidationError as exc:
            too_large = "too large" in str(exc)
        assert too_large is past
        assert not (past and lik.in_support(c))

    @pytest.mark.parametrize("T, degree", [(0.5, 1), (15.0, 1), (15.0, 2), (80.0, MAX_DEGREE)])
    def test_support_limit_depends_on_the_horizon_and_degree_alone(self, T, degree):
        """Two likelihoods on [0, T] with different events and w share the
        limit ``support_limit(T, degree)``."""
        one = MarginalLikelihood(load_path([0.1 * T], T), 1.0, 0.01, degree)
        many = MarginalLikelihood(load_path(np.linspace(0.2, 1.0, 40) * T, T), 0.0, 50.0, degree)
        assert one._support_coeff_limit == many._support_coeff_limit == support_limit(T, degree)

    @pytest.mark.parametrize("T, degree", [(1e200, 1), (1e200, 2), (1e40, MAX_DEGREE), (1e308, 1)])
    def test_horizon_too_long_for_the_degree_is_refused_before_any_table(self, T, degree, monkeypatch):
        """Where max(1, T)^(degree + 1) overflows, ``support_limit`` is 0 and
        no coefficients lie in the support: the constructor raises
        ``ValidationError`` naming the horizon, and builds no table (each
        would warn of an overflow, which fails the suite)."""
        assert support_limit(T, degree) == 0.0
        for name in ("kernel_moments", "lambda_moments", "nonneg_matrix"):
            monkeypatch.setattr(marginal, name, lambda *args: pytest.fail("a table was built"))
        with pytest.raises(ValidationError, match=re.escape(f"horizon T = {T!r} is too long for degree {degree}")):
            MarginalLikelihood(load_path([1.0], T), 1.0, 0.5, degree)

    @pytest.mark.parametrize("T, degree", [(1e308, 0), (1e100, 1), (1e34, MAX_DEGREE)])
    def test_longest_horizons_below_the_limit_still_build(self, T, degree):
        """Where max(1, T)^(degree + 1) is a double, the tables are built
        without a warning, and a constant gamma at half the limit is in the
        support."""
        limit = support_limit(T, degree)
        assert limit > 0.0
        lik = MarginalLikelihood(load_path([1.0], T), 1.0, 0.5, degree)
        assert lik.in_support(np.eye(degree + 1)[0] * (0.5 * limit))

    def test_wrong_coefficient_count_rejected(self):
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.5, 1.0, degree=1)
        with pytest.raises(ValidationError):
            lik.loglik((1.0,))

    @pytest.mark.parametrize("coeffs", [np.array([[1.0], [0.1]]), np.array([[1.0, 0.1]]), (1.0, 0.1, 0.0)])
    def test_wrong_coefficient_shape_is_named(self, coeffs):
        """Two coefficients in a (2, 1) column are rejected with their shape,
        not with a count that matches the expected one."""
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.5, 1.0, degree=1)
        shape = np.shape(coeffs)
        with pytest.raises(ValidationError, match=re.escape(f"expected coefficients of shape (2,), got shape {shape}")):
            lik.loglik(coeffs)

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
        x = pinned_path(ModelParams(0.7, 1.3, PolyIntensity((1.2, 0.4))), 5.0, 1)
        return x, 0.7, 1.3, (1.2, 0.4)
    if name == "beta0 = 0, w T = 1000":
        times = np.sort(np.random.default_rng(5).uniform(0.0, 100.0, 40))
        return load_path(times, 100.0), 0.0, 10.0, (0.5, 0.01)
    x = pinned_path(ModelParams(0.5, 0.8, PolyIntensity((0.5, 0.2, 0.05))), 7.0, 1)
    return x, 0.5, 0.8, (0.5, 0.2, 0.05)


GRAD_CASES = ["degree 1", "beta0 = 0, w T = 1000", "degree 2"]


# gamma = (t - 5)^2 on [0, 10], whose zero sits on events at large w; and
# (t - 5.004)^2 - 1e-6, which dips below 0 between the check times 5 and
# 5 + 10/1024, with an event in the dip.
_SQUARE = (25.0, -10.0, 1.0)
_DIP = (5.004**2 - 1e-6, -2.0 * 5.004, 1.0)
_NEAR_FIVE = 5.0 + np.spacing(5.0) * np.arange(-200, 201)


class TestOneSupportRule:
    """The support is gamma's alone: the limit on the sum of |c| and the
    grid, the rule ``PolyIntensity.validate_nonneg`` applies, whatever the
    events and w."""

    @settings(max_examples=150, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=MAX_DEGREE + 1),
        T=st.floats(0.1, 50.0),
        nudge=st.sampled_from([-1e-9, -1.01e-12, -1e-12, -0.99e-12, -1e-15, 0.0, 1e-15]),
        ratio=st.one_of(st.none(), st.sampled_from([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0]), st.floats(0.5, 2.0)),
        sizes=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        seed=st.integers(0, 2**32 - 1),
        ws=st.tuples(*[st.floats(-3.0, 10.0).map(lambda e: 10.0**e)] * 2),
    )
    @example(coeffs=list(_SQUARE), T=10.0, nudge=0.0, ratio=None, sizes=(3, 40), seed=0, ws=(1.0, 1e10))
    def test_in_support_is_validate_nonneg_on_any_path_and_w(self, coeffs, T, nudge, ratio, sizes, seed, ws):
        """c is nudged onto the edge of the grid's tolerance (as in
        ``test_validate_nonneg_agrees_with_in_support_grid``) and, with
        ratio, rescaled to that multiple of the support's limit.  On two
        random paths, each at two values of w, ``in_support`` is True
        exactly where ``validate_nonneg`` does not raise."""
        degree = len(coeffs) - 1
        c = np.array(coeffs)
        vals = nonneg_matrix(T, degree) @ c
        c[0] += nudge * max(1.0, float(np.abs(vals).max())) - vals.min()
        total = float(np.abs(c).sum())
        if ratio is not None and total > 0.0:
            c = c / total * (ratio * support_limit(T, degree))
        try:
            PolyIntensity(tuple(c)).validate_nonneg(T)
            valid = True
        except ValidationError:
            valid = False
        rng = np.random.default_rng(seed)
        verdicts = [
            MarginalLikelihood(load_path(np.unique(rng.uniform(0.0, T, M)), T), 0.5, w, degree).in_support(c)
            for M in sizes
            for w in ws
        ]
        assert verdicts == [valid] * 4

    @pytest.mark.parametrize(
        "times, w, coeffs",
        [
            ([1.0, 5.000000001, 8.0], 1e10, _SQUARE),
            (_NEAR_FIVE, 1e8, _SQUARE),
        ],
    )
    def test_a_mass_that_rounds_below_zero_reads_as_zero(self, times, w, coeffs):
        """gamma passes the grid, but a kernel mass B~_m c rounds below 0
        where gamma's zero sits on an event (on 50 of the 401 events within
        200 ulps of t = 5).  The likelihood is finite and is the limit of
        the one at gamma + eps, whose masses are positive: loglik changes
        by -eps L_0 (to 1e-3 of it), as the polynomial term is far below
        the double range."""
        lik = MarginalLikelihood(load_path(times, 10.0), 1.0, w, 2)
        c = np.array(coeffs)
        PolyIntensity(coeffs).validate_nonneg(10.0)
        assert (lik._B @ c).min() < 0.0 and lik.in_support(c)
        ll = lik.loglik(c).loglik
        res, grad = lik.loglik_grad(c)
        assert math.isfinite(ll) and res.loglik == ll and np.isfinite(grad).all()
        for eps in (1e-4, 1e-6, 1e-8):
            shifted = c + [eps, 0.0, 0.0]
            assert (lik._B @ shifted).min() > 0.0
            change = lik.loglik(shifted).loglik - ll
            assert abs(change + eps * lik._L[0]) <= 1e-3 * eps * lik._L[0]

    def test_the_dip_changes_loglik_by_its_lambda_integral(self):
        """At w = 1e8 the dip gives -93.33348308373311 and (t - 5.004)^2
        -93.33349308373309: the two differ by the change in int lambda,
        1e-6 L_0 = 1.0e-5, alone.  The mass at the event t = 5.004 is below
        0 from w = 1e4 on (it was outside the support there) and positive at
        w = 1; the dip is in the support, with a finite loglik, at each."""
        path = load_path([1.0, 5.004, 8.0], 10.0)
        lik = MarginalLikelihood(path, 1.0, 1e8, 2)
        dip = lik.loglik(_DIP).loglik
        touch = lik.loglik((5.004**2, -2.0 * 5.004, 1.0)).loglik
        assert dip == -93.33348308373311 and touch == -93.33349308373309
        assert dip - touch == pytest.approx(1e-6 * lik._L[0], rel=1e-9)
        for w, negative in ((1.0, False), (1e4, True), (1e8, True)):
            lik = MarginalLikelihood(path, 1.0, w, 2)
            assert bool((lik._B @ np.array(_DIP)).min() < 0.0) is negative
            assert lik.in_support(_DIP) and math.isfinite(lik.loglik(_DIP).loglik)


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


def assert_agrees_with_per_step(lik, coeffs):
    """loglik, pi(k) and loglik_grad agree with the per-step log-space loop:
    the loglik within 1e-12 max(1, |loglik|), pi(k) within 1e-12, each
    gradient component within 1e-10 of the larger of its own size and L_p
    (where the pass's ratio and L_p cancel, the gradient is their small
    difference), and loglik_grad's value is loglik's bit for bit."""
    (want, want_poly, _), _, want_row = per_step_run(lik, coeffs, last_row=True)
    res = lik.loglik(coeffs)
    if want == -math.inf:
        assert res.loglik == -math.inf and res.log_k is None
    else:
        assert abs(res.loglik - want) <= 1e-12 * max(1.0, abs(want))
        np.testing.assert_allclose(np.exp(res.log_k), np.exp(want_row - want_poly), rtol=0.0, atol=1e-12)
    _, want_grad = per_step_run(lik, coeffs, grad=True)
    res_grad, grad = lik.loglik_grad(coeffs)
    assert np.array([res_grad.loglik, res_grad.polynomial_term_log, res_grad.exponent_term]).tobytes() == (
        np.array([res.loglik, res.polynomial_term_log, res.exponent_term]).tobytes()
    )
    finite = np.isfinite(want_grad)
    np.testing.assert_array_equal(grad[~finite], want_grad[~finite])
    grad, want_grad = grad[finite], want_grad[finite]
    assert np.all(np.abs(grad - want_grad) <= 1e-10 * np.maximum(np.abs(want_grad), np.abs(lik._L[finite])))


def small_blocks(mp, cells, nats):
    """Make blocks short: tables of at most cells factors and a certified
    growth of at most nats (``marginal``'s _CELLS and _RANGE)."""
    mp.setattr(marginal, "_CELLS", cells)
    mp.setattr(marginal, "_RANGE", nats)


def spy_pass(mp):
    """Record what the pass runs, in order: ("block", lo, n) per ``_block``
    call, ("log", m) per ``_log_step`` and ("window", before, after) per
    ``_window``, with the number of rows that hold weight before and after
    it."""
    runs = []
    block, log_step, window = MarginalLikelihood._block, MarginalLikelihood._log_step, MarginalLikelihood._window

    def spy_block(self, rows, la, log_mass, lo, *args):
        runs.append(("block", lo, block(self, rows, la, log_mass, lo, *args)))
        return runs[-1][2]

    def spy_log_step(self, rows, la, m, *args):
        runs.append(("log", m))
        return log_step(self, rows, la, m, *args)

    def spy_window(self, rows, f, b, top, *args):
        kept = window(self, rows, f, b, top, *args)
        runs.append(("window", top - b + 1, kept[1] - kept[0] + 1))
        return kept

    mp.setattr(MarginalLikelihood, "_block", spy_block)
    mp.setattr(MarginalLikelihood, "_log_step", spy_log_step)
    mp.setattr(MarginalLikelihood, "_window", spy_window)
    return runs


def log_steps(runs):
    """The steps ``spy_pass`` saw run in log space."""
    return [run[1] for run in runs if run[0] == "log"]


class TestLinearBlocks:
    """The pass runs in linear-space blocks, whose arithmetic differs from the
    log-space loop it replaced; each value, pi(k) and gradient agrees with
    that loop, kept as ``per_step_run``, to the tolerances of
    ``assert_agrees_with_per_step``."""

    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("beta0", [0.0, 0.7])
    @pytest.mark.parametrize("M", [0, 1, 2, 40, 300, 600])
    def test_paths_of_one_to_several_blocks(self, M, beta0, degree):
        """At M = 300 and 600 a block spans at most 217 and 109 steps."""
        times = np.sort(np.random.default_rng(M).uniform(0.0, 10.0, M))
        lik = MarginalLikelihood(load_path(times, 10.0), beta0, 0.8, degree)
        assert lik._span == marginal._CELLS // (M + 1)
        assert_agrees_with_per_step(lik, (1.0, 0.3, 0.05)[: degree + 1])

    @settings(max_examples=150, deadline=None)
    @given(
        M=st.integers(0, 150),
        beta0=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        w=st.floats(1e-3, 20.0),
        T=st.floats(1.0, 100.0),
        coeffs=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        cells=st.sampled_from([2**6, 2**10, marginal._CELLS]),
        nats=st.sampled_from([20.0, 60.0, marginal._RANGE]),
    )
    def test_agrees_with_per_step_loop(self, M, beta0, w, T, coeffs, seed, cells, nats):
        """Blocks cut short by the cell cap or a smaller certified range
        (down to blocks of one step, windows once a block certifies no step,
        and single steps in log space where even the window cannot) change
        no value beyond the tolerances."""
        times = np.sort(np.random.default_rng(seed).uniform(0.0, T, M))
        with pytest.MonkeyPatch.context() as mp:
            small_blocks(mp, cells, nats)
            lik = MarginalLikelihood(load_path(times, T), beta0, w, len(coeffs) - 1)
            assert_agrees_with_per_step(lik, coeffs)

    def test_blocks_shorten_and_no_step_runs_in_log_space(self, monkeypatch):
        """With a range of 60 nats on 120 events at w T = 15, the masses
        spread as the path goes on and the second block is shorter than the
        first.  Each block still certifies a step, so no step runs in log
        space, and the pass agrees with the per-step loop."""
        small_blocks(monkeypatch, marginal._CELLS, 60.0)
        runs = spy_pass(monkeypatch)
        times = np.sort(np.random.default_rng(9).uniform(0.0, 30.0, 120))
        lik = MarginalLikelihood(load_path(times, 30.0), 0.5, 0.5, 1)
        lik.loglik((1.0, 0.2))
        blocks = [run[2] for run in runs if run[0] == "block" and run[2]]
        assert len(blocks) > 2 and blocks[1] < blocks[0] and sum(blocks) == 120
        assert log_steps(runs) == []
        assert_agrees_with_per_step(lik, (1.0, 0.2))


class TestWindow:
    """The window's certificate (``marginal``'s module docstring): a row it
    drops at a step carries at most e^-tau of the likelihood."""

    @pytest.mark.parametrize(
        "M, beta0, w, T, coeffs",
        [
            (40, 1.0, 0.5, 20.0, (1.0, 0.1)),
            (60, 0.5, 2.0, 10.0, (1.0, 0.3)),
            (60, 0.0, 1.0, 10.0, (0.5, 0.2)),
            (80, 0.2, 5.0, 5.0, (2.0,)),
            (80, 1.0, 0.8, 40.0, (1.0, 0.2, 0.01)),
        ],
    )
    def test_dropped_rows_cost_at_most_their_certificate(self, monkeypatch, M, beta0, w, T, coeffs):
        """With tau = 5 nats and a certified range of 10, so that blocks
        certify no step and windows drop rows that carry weight: the loglik
        never exceeds the one with no row dropped (tau = inf) beyond
        rounding, and falls below it by at most (rows dropped) e^-5
        relative."""
        small_blocks(monkeypatch, marginal._CELLS, 10.0)
        times = np.sort(np.random.default_rng(M).uniform(0.0, T, M))
        lik = MarginalLikelihood(load_path(times, T), beta0, w, len(coeffs) - 1)
        monkeypatch.setattr(marginal, "_window_nats", lambda M: math.inf)
        full = lik.loglik(coeffs).loglik
        monkeypatch.setattr(marginal, "_window_nats", lambda M: 5.0)
        runs = spy_pass(monkeypatch)
        got = lik.loglik(coeffs).loglik
        dropped = sum(run[1] - run[2] for run in runs if run[0] == "window")
        assert dropped > 0
        assert got <= full + 1e-12 * max(1.0, abs(full))
        assert -math.expm1(got - full) <= dropped * math.exp(-5.0)

    @pytest.mark.parametrize(
        "M, beta0, w, T, degree", [(69, 1.0, 1.0, 11.0, 2), (40, 0.5, 2.0, 20.0, 1), (30, 1.0, 5.0, 10.0, 0)]
    )
    def test_gradient_shares_the_window_at_tiny_coefficients(self, monkeypatch, M, beta0, w, T, degree):
        """gamma about 1e-200: a path's sensitivity is about 1e200 times its
        weight, so rows far below the top carry the gradient.  The cut's
        margin, log(M rho_p / L_p), keeps them, and the pass agrees with the
        per-step loop while the window drops rows."""
        small_blocks(monkeypatch, marginal._CELLS, 10.0)
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0.0, T, M))
        lik = MarginalLikelihood(load_path(times, T), beta0, w, degree)
        coeffs = 1e-200 * rng.uniform(0.5, 2.0, degree + 1) / T ** np.arange(degree + 1)
        assert lik._dropped(lik.loglik(coeffs).log_k)
        assert_agrees_with_per_step(lik, coeffs)


class TestPassEdges:
    """Edges of the pass, with the values and flags the log-space loop gave."""

    def test_beta0_zero(self, monkeypatch):
        """Row 0 has a stay factor of 0: the first step runs in log space, in
        both passes, and the blocks start at row 1, as row 0 holds no weight
        from then on; pi(0) is 0, and the loglik is the log-space loop's."""
        runs = spy_pass(monkeypatch)
        lik = MarginalLikelihood(load_path([1.5, 2.5, 4.0, 7.25, 9.0], 10.0), 0.0, 0.5, 1)
        res = lik.loglik((1.0, 0.1))
        lik.loglik_grad((1.0, 0.1))
        assert log_steps(runs) == [0, 0]
        assert res.loglik == pytest.approx(-16.859341437119017, rel=1e-12, abs=0.0)
        assert res.log_k[0] == -math.inf and np.all(res.log_k[1:] > -math.inf)
        assert_agrees_with_per_step(lik, (1.0, 0.1))

    def test_zero_coefficients(self, monkeypatch):
        """c = 0: every mass is 0 and the record's tilt NaN, so every step
        from the first mass of 0 on, here all five, runs in log space: the
        result is the log-space loop's, bit for bit, with the polynomial
        beta0^M alone."""
        runs = spy_pass(monkeypatch)
        lik = MarginalLikelihood(load_path([0.5, 1.5, 2.0, 3.5, 3.9], 4.0), 0.5, 0.7, 1)
        assert math.isnan(lik._masses((0.0, 0.0)).tilt)
        res, grad = lik.loglik_grad((0.0, 0.0))
        assert log_steps(runs) == [0, 1, 2, 3, 4] and len(runs) == 5
        value, want_grad = per_step_run(lik, (0.0, 0.0), grad=True)
        assert (res.loglik, res.polynomial_term_log, res.exponent_term) == value
        assert res.polynomial_term_log == pytest.approx(5.0 * math.log(0.5), rel=1e-15)
        np.testing.assert_array_equal(res.log_k, [0.0] + [-math.inf] * 5)
        assert grad.tobytes() == want_grad.tobytes()
        assert np.all(grad > -lik._L)  # raising either coefficient adds a latent point

    def test_minus_inf_sentinel(self):
        """beta0 = 0 and c = 0: no latent configuration produces the path; the
        loglik is -inf, there is no pi(k), and every gradient component is
        +inf, as raising any coefficient makes the path possible."""
        lik = MarginalLikelihood(load_path([0.5, 1.5, 2.0, 3.5], 4.0), 0.0, 0.7, 2)
        res, grad = lik.loglik_grad((0.0, 0.0, 0.0))
        assert res.loglik == -math.inf and res.log_k is None and res.log_dk is None
        np.testing.assert_array_equal(grad, [math.inf] * 3)
        assert lik.loglik((0.0, 0.0, 0.0)) == res

    def test_no_events(self):
        lik = MarginalLikelihood(load_path([], 4.0), 0.5, 0.7, 1)
        res, grad = lik.loglik_grad((1.0, 0.5))
        assert res.polynomial_term_log == 0.0
        assert res.loglik == res.exponent_term == -0.5 * 4.0 - float(lik._L @ np.array([1.0, 0.5]))
        np.testing.assert_array_equal(res.log_k, [0.0])
        np.testing.assert_array_equal(grad, -lik._L)

    @pytest.mark.parametrize("beta0", [0.0, 0.5])
    def test_one_event(self, beta0):
        """f_1 = (beta0, w A_1): the polynomial is beta0 + w A_1."""
        lik = MarginalLikelihood(load_path([1.0], 4.0), beta0, 0.7, 1)
        wA = math.exp(float(lik._log_kernel[0]) + math.log(float(lik._B[0] @ np.array([1.0, 0.5]))))
        res = lik.loglik((1.0, 0.5))
        assert res.polynomial_term_log == pytest.approx(math.log(beta0 + wA), rel=1e-15)
        assert_agrees_with_per_step(lik, (1.0, 0.5))

    def test_far_masses_collapse_the_window_to_one_row(self, monkeypatch):
        """Events at 1, 2, 1000 and 1999 on [0, 2000] with w = 1: the masses of
        the last two are e^1000 and e^1999 times those of the first, more
        than a block can carry from the rows the first two reach: a block
        over rows 0..2 certifies no step.  Those rows carry no weight, so
        the window at steps 2 and 3 holds row 0 alone, and no step runs in
        log space, in either pass.  The loglik is the log-space loop's and
        mpmath's."""
        runs = spy_pass(monkeypatch)
        times = [1.0, 2.0, 1000.0, 1999.0]
        lik = MarginalLikelihood(load_path(times, 2000.0), 1.0, 1.0, 0)
        res = lik.loglik((1.0,))
        lik.loglik_grad((1.0,))
        one_pass = [
            ("block", 0, 2),
            ("block", 2, 0),
            ("window", 3, 1),
            ("block", 2, 1),
            ("window", 2, 1),
            ("block", 3, 1),
        ]
        assert runs == one_pass * 2
        assert res.loglik == pytest.approx(-3998.686738312482, rel=1e-12, abs=0.0)
        assert res.loglik == pytest.approx(mp_loglik(times, 1.0, 1.0, (1.0,), 2000.0), rel=1e-12, abs=0.0)
        assert_agrees_with_per_step(lik, (1.0,))

    def test_a_step_past_the_range_runs_in_log_space(self, monkeypatch):
        """beta0 = 0.5, w = 1, T = 1100: ten events on [0, 1], whose masses are
        about e^-1100, then 1000 on [1000, 1100].  At step 10 the window
        keeps row 1, about 1090 nats below row 0, as (s(1) / s(0))^1000 =
        3^1000 could still lift it, so the step's own bound is past _RANGE
        and it runs in log space.  So do the steps after it, until the top
        row, whose paths all take one of those ten masses, falls out of the
        window at step 41.  The same steps run so in both passes, and the
        pass agrees with the per-step loop."""
        rng = np.random.default_rng(0)
        times = np.concatenate((rng.uniform(0.0, 1.0, 10), rng.uniform(1000.0, 1100.0, 1000)))
        lik = MarginalLikelihood(load_path(np.sort(times), 1100.0), 0.5, 1.0, 0)
        runs = spy_pass(monkeypatch)
        lik.loglik((1.0,))
        assert log_steps(runs) == list(range(10, 41))
        runs.clear()
        lik.loglik_grad((1.0,))
        assert log_steps(runs) == list(range(10, 41))
        monkeypatch.undo()
        assert_agrees_with_per_step(lik, (1.0,))


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


def bound_case(M, beta0, w, T, degree, seed):
    """A MarginalLikelihood on M uniform event times in [0, T] and a pass at
    nonnegative coefficients drawn from seed."""
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, T, M))
    lik = MarginalLikelihood(load_path(times, T), beta0, w, degree)
    ref_coeffs = rng.uniform(0.0, 2.0, degree + 1) / T ** np.arange(degree + 1)
    return lik, ref_coeffs, lik.loglik(ref_coeffs)


def fresh(lik):
    """A new MarginalLikelihood of lik's path, rates and degree, with no passes kept."""
    return MarginalLikelihood(lik.x, lik.beta0, lik.w, lik.degree)


def one_reference(lik, ref_coeffs):
    """A fresh likelihood of lik's path whose one pass is at ref_coeffs, and
    that pass: the likelihood that bounds against it alone."""
    one = fresh(lik)
    return one, one.loglik(ref_coeffs)


def single_reference_bound(lik, coeffs, ref_coeffs, ref):
    """The bound from the one reference ref, the pass at ref_coeffs, computed
    step for step as loglik_bound computed it before it chose among several
    references; the reference's masses come from a fresh record."""
    if ref.log_k is None or not math.isfinite(ref.loglik):
        return math.inf
    rec = lik._admissible(coeffs)
    with np.errstate(invalid="ignore"):
        log_ratio = rec.log - lik._masses(ref_coeffs).log
    log_ratio.sort()
    if log_ratio.size and not log_ratio[-1] < math.inf:
        return math.inf
    gain = log_ratio[::-1].cumsum()
    log_sum = float(np.logaddexp.reduce(ref.log_k[1:] + gain, initial=ref.log_k[0]))
    return ref.polynomial_term_log + log_sum + (-lik.beta0 * lik.x.T - rec.lam)


class TestLoglikBound:
    """loglik_bound bounds loglik from above through the posterior of k,
    against the likelihood's own recent passes."""

    @settings(max_examples=100, deadline=None)
    @given(
        M=st.integers(0, 120),
        beta0=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        w=st.floats(1e-2, 5.0),
        T=st.floats(1.0, 50.0),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.lists(st.floats(-1.5, 1.0), min_size=4, max_size=4), min_size=2, max_size=6),
    )
    def test_every_reference_bounds_loglik(self, M, beta0, w, T, degree, seed, steps):
        """Each of several passes, kept alone, bounds loglik and gives the
        single-reference bound bit for bit; kept together they give the
        bound of the one whose tilt is nearest the proposal's, the most
        recent on a tie."""
        lik, ref_coeffs, _ = bound_case(M, beta0, w, T, degree, seed)
        coeffs, *others = (ref_coeffs * (1.0 + np.array(step[: degree + 1])) for step in steps)
        points = [ref_coeffs] + [c for c in others if lik.in_support(c)]
        assume(lik.in_support(coeffs))
        for c in points[1:]:
            lik.loglik(c)
        got = fresh(lik).loglik(coeffs)
        refs, bounds = [], []
        for c in points:
            one, r = one_reference(lik, c)
            bound = one.loglik_bound(coeffs)
            assert bound.hex() == single_reference_bound(one, coeffs, c, r).hex()
            slack = 1e-12 * (1.0 + abs(r.polynomial_term_log) + abs(got.exponent_term))
            assert got.loglik <= bound + slack
            refs.append(r)
            bounds.append(bound)
        log = lik._masses(coeffs).log
        tilt = float(log[-1]) - float(log[0]) if M else 0.0
        ref_tilts = [lik._masses(c).tilt for c in points]
        usable = [i for i in reversed(range(len(refs))) if math.isfinite(ref_tilts[i])]  # most recent first
        gaps = [abs(ref_tilts[i] - tilt) if math.isfinite(tilt) else 0.0 for i in usable]
        nearest = usable[gaps.index(min(gaps))] if usable else None
        want = bounds[nearest] if usable else math.inf
        assert lik.loglik_bound(coeffs).hex() == want.hex()

    def test_nearest_tilt_tightens_the_bound(self):
        """A kept pass of the proposal's tilt (coefficients in the same
        ratio) bounds it exactly at degree 1, where a pass at the current
        state leaves slack; the likelihood picks the former, also when the
        current state's pass is the more recent."""
        lik, ref_coeffs, _ = bound_case(80, 1.0, 0.5, 15.0, 1, 3)
        coeffs = ref_coeffs * np.array([1.0, 1.4])
        exact = fresh(lik).loglik(coeffs)
        assert lik.loglik_bound(coeffs) > exact.loglik + 1e-3
        lik.loglik(0.8 * coeffs)
        lik.loglik(ref_coeffs)
        assert lik._masses(0.8 * coeffs).tilt == pytest.approx(lik._masses(coeffs).tilt, rel=1e-12)
        assert lik.loglik_bound(coeffs) == pytest.approx(exact.loglik, rel=0, abs=1e-10)
        assert lik.loglik_bound(coeffs) == one_reference(lik, 0.8 * coeffs)[0].loglik_bound(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(
        M=st.integers(0, 150),
        beta0=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        w=st.floats(1e-2, 5.0),
        T=st.floats(1.0, 50.0),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        step=st.one_of(
            st.just(None),
            st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        ),
    )
    def test_bounds_loglik(self, M, beta0, w, T, degree, seed, step):
        """At a proposal in the support; step None is gamma = 0, which sets
        every mass to 0."""
        lik, ref_coeffs, ref = bound_case(M, beta0, w, T, degree, seed)
        if step is None:
            coeffs = np.zeros(degree + 1)
        else:
            coeffs = ref_coeffs * (1.0 + np.array(step[: degree + 1]))
        assume(lik.in_support(coeffs))
        bound = lik.loglik_bound(coeffs)
        assert bound < math.inf  # every reference mass is positive
        got = lik.loglik(coeffs)
        slack = 1e-12 * (1.0 + abs(ref.polynomial_term_log) + abs(got.exponent_term))
        assert got.loglik <= bound + slack

    @pytest.mark.parametrize("beta0", [0.0, 0.7])
    @pytest.mark.parametrize("scale", [1e-3, 0.5, 1.0, 3.0])
    def test_exact_for_a_common_ratio(self, beta0, scale):
        """c' = s c scales every mass by s, where the bound is the likelihood."""
        lik, ref_coeffs, ref = bound_case(120, beta0, 0.8, 20.0, 2, 5)
        coeffs = scale * ref_coeffs
        assert lik.in_support(coeffs)
        assert lik.loglik_bound(coeffs) == pytest.approx(fresh(lik).loglik(coeffs).loglik, rel=0, abs=1e-12)

    @pytest.mark.parametrize("beta0", [0.0, 0.7])
    def test_posterior_of_k_sums_to_one(self, beta0):
        lik, _, ref = bound_case(150, beta0, 0.8, 20.0, 1, 6)
        assert ref.log_k.shape == (151,)
        assert float(np.sum(np.exp(ref.log_k))) == pytest.approx(1.0, rel=1e-13)
        assert lik.loglik_grad(np.array([1.0, 0.1]))[0].log_k.shape == (151,)

    def test_single_event_posterior(self):
        """f_1 = (beta0, w A_1): P(K = 1) = w A_1 / (beta0 + w A_1)."""
        params = ModelParams(beta0=0.7, w=1.0, gamma=PolyIntensity((1.0,)))
        res = marginal_loglik(load_path([0.5], 1.0), params)
        A1 = math.exp(-0.5) - math.exp(-1.0)
        assert math.exp(res.log_k[1]) == pytest.approx(A1 / (0.7 + A1), rel=1e-14)

    def test_sentinel_has_no_posterior_and_no_bound(self):
        """At the -inf sentinel log_k is unset, without a RuntimeWarning.
        The sentinel is not kept, so the bound is +inf, and rejects
        nothing, until a kept pass exists."""
        lik = MarginalLikelihood(load_path([0.5], 1.0), 0.0, 1.0, 0)
        assert lik.loglik_bound((1.0,)) == math.inf  # no pass yet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = lik.loglik((0.0,))
        assert ref.loglik == -math.inf and ref.log_k is None and math.isnan(lik._masses((0.0,)).tilt)
        assert lik.in_support((1.0,))
        assert lik.loglik_bound((1.0,)) == math.inf
        lik.loglik((2.0,))
        assert lik.loglik_bound((1.0,)) < math.inf

    @pytest.mark.parametrize("checked", [True, False], ids=["after-in_support", "bound-only"])
    @pytest.mark.parametrize("grad", [False, True], ids=["loglik", "loglik_grad"])
    def test_pass_after_the_bound_is_a_fresh_pass(self, checked, grad):
        """The pass right after loglik_bound at the same bytes reuses the kept
        record, and gives what a fresh MarginalLikelihood gives, log_k and
        gradient included, from the log masses of a fresh record; so does a
        pass at the reference."""
        lik, ref_coeffs, ref = bound_case(90, 0.7, 0.8, 20.0, 2, 7)
        coeffs = ref_coeffs * np.array([1.1, 0.9, 1.05])
        if checked:
            assert lik.in_support(coeffs)
        assert lik.loglik_bound(coeffs) < math.inf
        other = fresh(lik)
        run = "loglik_grad" if grad else "loglik"
        for c in (coeffs, ref_coeffs):
            got, want = getattr(lik, run)(c), getattr(other, run)(c)
            if grad:
                (got, got_grad), (want, want_grad) = got, want
                assert got_grad.tobytes() == want_grad.tobytes()
            assert got == want
            assert got.log_k.tobytes() == want.log_k.tobytes()
            assert lik._kept.log.tobytes() == other._masses(c).log.tobytes()

    def test_reference_outlives_the_kept_record(self):
        """A kept pass keeps its own record: after support checks at other
        coefficients have replaced the kept record, its bound is the one a
        fresh MarginalLikelihood with that one pass gives, bit for bit."""
        lik, ref_coeffs, ref = bound_case(90, 0.7, 0.8, 20.0, 2, 8)
        coeffs = ref_coeffs * np.array([1.1, 0.9, 1.05])
        for other in (2.0 * ref_coeffs, 0.5 * coeffs):
            assert lik.in_support(other)
        assert lik._kept.key != (ref_coeffs.shape, ref_coeffs.tobytes())
        want = one_reference(lik, ref_coeffs)[0].loglik_bound(coeffs)
        assert lik.loglik_bound(coeffs).hex() == want.hex()
        [(rec, kept)] = lik._refs
        assert kept is ref and rec.log.tobytes() == np.log(lik._B @ ref_coeffs).tobytes()

    def test_log_masses_are_read_only(self):
        """A kept reference's log masses are read-only in its record, which
        the kept record shares, so writing to them raises instead of
        changing the next bound or pass; a result holds no masses."""
        lik, ref_coeffs, ref = bound_case(90, 0.7, 0.8, 20.0, 2, 9)
        [(rec, kept)] = lik._refs
        assert kept is ref and rec is lik._kept
        with pytest.raises(ValueError, match="read-only"):
            rec.log[0] = 0.0
        assert rec.log.tobytes() == fresh(lik)._masses(ref_coeffs).log.tobytes()
        names = [f.name for f in dataclasses.fields(MarginalResult)]
        assert names == ["loglik", "polynomial_term_log", "exponent_term", "log_k", "log_dk"]

    @pytest.mark.parametrize("grad", [False, True], ids=["loglik", "loglik_grad"])
    def test_log_k_is_read_only(self, grad):
        """The likelihood keeps value passes as references, which their
        callers also hold, so writing to log_k raises instead of changing
        the next bound; a gradient pass's log_k is read-only too."""
        lik, ref_coeffs, ref = bound_case(90, 0.7, 0.8, 20.0, 2, 9)
        res = lik.loglik_grad(ref_coeffs)[0] if grad else ref
        with pytest.raises(ValueError, match="read-only"):
            res.log_k[0] = 0.0
        coeffs = ref_coeffs * np.array([1.1, 0.9, 1.05])
        assert lik.loglik_bound(coeffs).hex() == one_reference(lik, ref_coeffs)[0].loglik_bound(coeffs).hex()

    def test_a_reference_with_dropped_rows_still_bounds(self, monkeypatch):
        """With a range of 10 nats a block certifies no step, so the window
        drops rows of the reference's pass, row 0 among them.  At gamma = 0
        only row 0 holds weight, where pi(k) alone bounds -inf: the
        allowance for the dropped rows keeps the bound above loglik there
        and at c' = s c."""
        small_blocks(monkeypatch, marginal._CELLS, 10.0)
        lik, ref_coeffs, ref = bound_case(69, 1.0, 1.0, 11.0, 2, 0)
        assert ref.log_k[0] == -math.inf and lik._dropped(ref.log_k)
        for coeffs in (np.zeros(3), 1e-3 * ref_coeffs, 3.0 * ref_coeffs):
            got = fresh(lik).loglik(coeffs)
            assert got.loglik <= lik.loglik_bound(coeffs) + 1e-12 * (1.0 + abs(got.loglik))
        assert fresh(lik).loglik(np.zeros(3)).loglik == -11.0

    def test_zero_reference_mass_bounds_nothing(self):
        """A pass with a mass of 0 is not kept: the bound is +inf until a pass
        with every mass > 0 exists, also where the proposal's mass is 0 too,
        and a later pass with a mass of 0 does not displace that one."""
        lik = MarginalLikelihood(load_path([0.5, 0.8], 1.0), 0.7, 1.0, 0)
        ref = lik.loglik((0.0,))
        assert math.isfinite(ref.loglik) and math.isnan(lik._masses((0.0,)).tilt)
        assert lik.in_support((1.0,))
        assert lik.loglik_bound((1.0,)) == math.inf
        assert lik.loglik_bound((0.0,)) == math.inf
        lik.loglik((2.0,))
        lik.loglik((0.0,))
        want = one_reference(lik, (2.0,))[0].loglik_bound((1.0,))
        assert lik.loglik_bound((1.0,)) == want < math.inf

    def test_gradient_pass_is_not_a_reference(self):
        """loglik_grad results are not kept: after gradient passes alone the
        bound is +inf, and a value pass then serves as the one reference."""
        lik = fresh(bound_case(90, 0.7, 0.8, 20.0, 2, 10)[0])
        ref_coeffs = np.array([1.0, 0.1, 0.01])
        coeffs = ref_coeffs * np.array([1.1, 0.9, 1.05])
        for c in (ref_coeffs, 2.0 * ref_coeffs):
            lik.loglik_grad(c)
        assert len(lik._refs) == 0 and lik.loglik_bound(coeffs) == math.inf
        lik.loglik(ref_coeffs)
        lik.loglik_grad(coeffs)
        assert lik.loglik_bound(coeffs).hex() == one_reference(lik, ref_coeffs)[0].loglik_bound(coeffs).hex()

    def test_window_holds_the_last_ring_plus_one_kept_passes(self):
        """The references are the last _RING + 1 passes with every mass > 0,
        most recent first; passes with a mass of 0 take no place among them."""
        lik = MarginalLikelihood(load_path([0.5, 0.8], 1.0), 0.7, 1.0, 0)
        kept = []
        for i in range(marginal._RING + 10):
            kept.append(lik.loglik((1.0 + i,)))
            lik.loglik((0.0,))
        want = kept[::-1][: marginal._RING + 1]
        assert len(lik._refs) == marginal._RING + 1
        assert all(got is res for (_, got), res in zip(lik._refs, want))

    def test_a_ring_of_zero_bounds_against_the_latest_kept_pass(self, monkeypatch):
        """With _RING = 0 the one reference is the latest kept pass, even
        where an older one has the proposal's tilt."""
        monkeypatch.setattr(marginal, "_RING", 0)
        lik, ref_coeffs, _ = bound_case(80, 1.0, 0.5, 15.0, 1, 3)
        coeffs = ref_coeffs * np.array([1.0, 1.4])
        lik.loglik(0.8 * coeffs)
        lik.loglik(ref_coeffs)
        assert len(lik._refs) == 1
        assert lik.loglik_bound(coeffs) == one_reference(lik, ref_coeffs)[0].loglik_bound(coeffs)

    @settings(max_examples=100, deadline=None)
    @given(
        M=st.integers(0, 120),
        beta0=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        w=st.floats(1e-2, 5.0),
        T=st.floats(1.0, 50.0),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        # None is gamma = 0; near 1e-322 the smallest masses round to 0 and the others do not.
        log10_scale=st.one_of(st.none(), st.floats(-324.0, 2.0), st.floats(-324.0, -318.0)),
    )
    def test_tilt_is_nan_exactly_at_a_zero_mass(self, M, beta0, w, T, degree, seed, log10_scale):
        """The record's tilt is NaN exactly where a mass is 0, and a pass
        whose masses are all > 0 has a finite loglik: f_M(M) = prod_m w A_m
        > 0, so no pass with a finite tilt is the -inf sentinel."""
        lik, ref_coeffs, _ = bound_case(M, beta0, w, T, degree, seed)
        coeffs = 0.0 * ref_coeffs if log10_scale is None else ref_coeffs * 10.0**log10_scale
        res, rec = lik.loglik(coeffs), lik._masses(coeffs)
        zero_mass = bool((rec.log == -math.inf).any())
        assert math.isnan(rec.tilt) is zero_mass
        if not zero_mass:
            assert math.isfinite(res.loglik)
            assert rec.tilt == (float(rec.log[-1] - rec.log[0]) if M else 0.0)

    @pytest.mark.parametrize("beta0", [0.0, 0.7])
    def test_a_first_mass_of_zero_bounds_against_the_first_usable_reference(self, beta0):
        """A first mass that rounds to 0 under a later positive one gives a
        NaN tilt, and the bound takes the first kept reference, the most
        recent pass with every mass > 0; later passes with a mass of 0 are
        not kept."""
        lik = MarginalLikelihood(load_path([1e-300, 0.5], 1.0), beta0, 1.0, 0)
        res, rec = lik.loglik((1e-30,)), lik._masses((1e-30,))
        assert rec.log[0] == -math.inf < rec.log[1] and math.isnan(rec.tilt)
        assert math.isfinite(res.loglik) is (beta0 > 0.0)
        for c in (0.0, 2.0, 0.5, 1e-30, 0.0):
            lik.loglik((c,))
        assert lik.loglik_bound((1e-30,)) == one_reference(lik, (0.5,))[0].loglik_bound((1e-30,))


# A coefficient: 0, +-1e-300 to +-1e300, +-inf or NaN.
_coefficient = st.builds(
    lambda sign, magnitude: sign * magnitude,
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.just(math.inf), st.just(math.nan)),
)


class TestMassesRecord:
    """The record of one coefficient vector is the one the three-reduction
    rule gives (``_oracles.three_reduction_masses``), and building it never
    warns: the suite turns a RuntimeWarning into an error."""

    @settings(max_examples=300, deadline=None)
    @given(
        M=st.sampled_from([0, 1, 80]),
        w=st.floats(1e-2, 5.0),
        T=st.floats(1.0, 50.0),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        coeffs=st.lists(_coefficient, min_size=4, max_size=4),
        first_zero=st.booleans(),
        quiet_ratio=st.one_of(st.none(), st.floats(0.5, 2.0)),
    )
    # Just below and just above the support's limit on the sum of |c|; a first mass of exactly
    # 0 under positive ones; no masses at all; late masses that overflow to
    # inf while int lambda (small w T) stays finite.
    @example(M=80, w=0.5, T=15.0, degree=1, seed=3, coeffs=[1.0, 0.1, 0.0, 0.0], first_zero=False, quiet_ratio=0.999)
    @example(M=80, w=0.5, T=15.0, degree=1, seed=3, coeffs=[1.0, 0.1, 0.0, 0.0], first_zero=False, quiet_ratio=1.001)
    @example(M=80, w=0.5, T=15.0, degree=2, seed=3, coeffs=[1.0, 0.1, 0.0, 0.0], first_zero=True, quiet_ratio=None)
    @example(M=0, w=0.5, T=15.0, degree=1, seed=3, coeffs=[math.inf, 0.1, 0.0, 0.0], first_zero=False, quiet_ratio=None)
    @example(M=80, w=0.01, T=10.0, degree=0, seed=3, coeffs=[1e308, 0.0, 0.0, 0.0], first_zero=False, quiet_ratio=None)
    # A positive mass and int lambda, but gamma = 1 - 0.1 t < 0 on (10, 15]: outside the support.
    @example(M=1, w=0.5, T=15.0, degree=1, seed=0, coeffs=[1.0, -0.1, 0.0, 0.0], first_zero=False, quiet_ratio=None)
    def test_record_matches_the_three_reduction_rule(self, M, w, T, degree, seed, coeffs, first_zero, quiet_ratio):
        """quiet_ratio rescales finite coefficients to that multiple of
        ``_support_coeff_limit``; first_zero puts the first event at 1e-200 and
        sets c_0 = 0, so that the first mass is exactly 0."""
        times = np.sort(np.random.default_rng(seed).uniform(0.0, T, M))
        c = np.array(coeffs[: degree + 1])
        if first_zero and M:
            times[0], c[0] = 1e-200, 0.0  # B~_(1,p) = 0 for p >= 1, and c_0 B~_(1,0) = 0
        lik = MarginalLikelihood(load_path(times, T), 1.0, w, degree)
        total = float(np.abs(c).sum())
        if quiet_ratio is not None and 0.0 < total < math.inf:
            c = c / total * (quiet_ratio * lik._support_coeff_limit)
        rec = lik._masses(c)
        lam, log, tilt = three_reduction_masses(lik, c)
        assert rec.lam.hex() == lam.hex()
        assert (None if rec.log is None else rec.log.tobytes()) == log
        assert lik.in_support(c) is (log is not None)
        assert rec.tilt.hex() == tilt.hex()

    @pytest.mark.parametrize("coeffs", [[1e308, 1e308], [1e308, 8e307], [1e308, -1e308], [-1e308, 1e308]])
    def test_gamma_at_the_check_times_overflows_quietly(self, coeffs):
        """At w T = 0.01 the masses and int lambda would stay finite where
        gamma at the check times (V c) overflows to inf (the first two
        cases).  These sums of |c| are past the support's limit, so the
        record is the refusal (NaN, None, NaN), made without a product:
        neither it, the support check nor a pass warns."""
        lik = MarginalLikelihood(load_path([0.2, 0.5], 1.0), 1.0, 0.01, 1)
        assert sum(map(abs, coeffs)) >= lik._support_coeff_limit
        rec = lik._masses(coeffs)
        lam, log, tilt = three_reduction_masses(lik, coeffs)
        assert math.isnan(rec.lam) and math.isnan(lam) and rec.log is log is None
        assert math.isnan(rec.tilt) and math.isnan(tilt)
        assert lik.in_support(coeffs) is False
        with pytest.raises(ValidationError, match="not finite or too large"):
            lik.loglik(coeffs)


    def test_sum_below_the_largest_table_entry_limit_is_outside_the_support(self):
        """At T = 15 and degree 1 the limit is 1e300 / 225 = 4.44e297, while
        1e300 over the largest entry of the path's tables is about 1.2e298.
        A sum of 5e297 lies between the two: every product with the tables
        is finite, yet the coefficients are outside the support, for the
        likelihood and for ``validate_nonneg`` alike."""
        T, c = 15.0, np.array([5e297, 0.0])
        lik = MarginalLikelihood(load_path([1.0, 7.5, 14.0], T), 1.0, 0.5, 1)
        assert lik._support_coeff_limit < 5e297 < 1e300 / max(lik._B.max(), lik._L.max(), lik.V.max())
        assert np.isfinite(lik._B @ c).all() and np.isfinite(lik.V @ c).all() and math.isfinite(lik._L @ c)
        assert lik.in_support(c) is False
        with pytest.raises(ValidationError, match="too large"):
            lik.loglik(c)
        with pytest.raises(ValidationError, match="too large"):
            PolyIntensity(tuple(c)).validate_nonneg(T)


class TestRay:
    """ray: the log-likelihood and its gradient along the ray {s c} from the
    last row of one gradient pass at c, and the ray's best point."""

    @pytest.mark.parametrize("M", [1, 80])
    @pytest.mark.parametrize("beta0", [0.0, 1.0])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("scale", [0.25, 1.0, 4.0])
    def test_matches_a_fresh_pass(self, M, beta0, degree, scale):
        """At s = 1 the value is the pass's own, bit for bit.  Only the
        gradient pass carries the sensitivity row."""
        lik, coeffs, value_res = bound_case(M, beta0, 0.5, 15.0, degree, seed=M + degree)
        res = lik.loglik_grad(coeffs)[0]
        assert res.log_dk.shape == (M + 1, degree + 1) and value_res.log_dk is None
        u, loglik, grad = lik.ray(coeffs, res, math.log(scale))
        fresh = MarginalLikelihood(lik.x, beta0, lik.w, degree)
        want, want_grad = fresh.loglik_grad(scale * coeffs)
        assert u == math.log(scale)
        assert loglik == pytest.approx(want.loglik, rel=1e-12)
        if scale == 1.0:
            assert loglik == res.loglik
        # d loglik / d c_p = sum_k D_p f_M(k) / sum_k f_M(k) - L_p: the ratios
        # agree to rtol 1e-12, and the difference with L_p can cancel digits.
        np.testing.assert_allclose(grad + lik._L, want_grad + lik._L, rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        M=st.integers(1, 120),
        beta0=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        w=st.floats(1e-2, 5.0),
        T=st.floats(1.0, 50.0),
        degree=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_finds_the_best_point_on_the_ray(self, M, beta0, w, T, degree, seed, log_scale):
        """The maximizer is stationary along the ray and no point of a grid
        in u is higher; where there is none, loglik falls from s = 0 on.  A
        move there never lowers loglik and stays in the support."""
        lik, ref_coeffs, _ = bound_case(M, beta0, w, T, degree, seed)
        coeffs = math.exp(log_scale) * ref_coeffs
        res = lik.loglik_grad(coeffs)[0]
        assume(math.isfinite(res.loglik))
        grid = np.array([lik.ray(coeffs, res, u)[1] for u in np.linspace(-10.0, 10.0, 201)])
        tol = 1e-10 * (1.0 + abs(res.loglik))
        best = lik.ray(coeffs, res)
        if best is None:
            assert (np.diff(grid) <= tol).all()
            return
        u, loglik, grad = best
        assert loglik >= grid.max() - tol and loglik >= res.loglik
        moved = math.exp(u) * coeffs
        assert abs(float(grad @ moved)) <= 1e-9 * (1.0 + M)
        assert lik.in_support(moved)
        assert lik.loglik(moved).loglik >= res.loglik - tol

    def test_no_interior_maximum_without_events(self):
        """Without events loglik = -beta0 T - s L c falls from s = 0 on: the
        best point is the end s = 0, where loglik is -beta0 T and the
        gradient -L."""
        lik = MarginalLikelihood(load_path([], 4.0), 0.5, 0.7, degree=1)
        u, loglik, grad = lik.ray((1.0, 0.5), lik.loglik_grad((1.0, 0.5))[0])
        assert u == -math.inf and loglik == pytest.approx(-2.0, rel=1e-15)
        np.testing.assert_array_equal(grad, -lik._L)

    @pytest.mark.parametrize("times", [[1.8, 2.0, 3.0, 3.7, 4.5], []], ids=["5-events", "no-events"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_the_end_at_zero_matches_a_pass_at_zero(self, times, degree):
        """Where loglik falls from s = 0 on (beta0 = 1 explains these events
        alone), ray's best point is the end s = 0, u = -inf; its value and
        gradient are those of a pass at gamma = 0, and none is NaN."""
        lik = MarginalLikelihood(load_path(times, 5.0), 1.0, 0.5, degree)
        coeffs = np.zeros(degree + 1)
        coeffs[:2] = (1.0, 0.1)[: degree + 1]
        u, loglik, grad = lik.ray(coeffs, lik.loglik_grad(coeffs)[0])
        at_zero, want_grad = lik.loglik_grad(np.zeros(degree + 1))
        assert u == -math.inf
        assert loglik == pytest.approx(at_zero.loglik, rel=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12)

    def test_no_maximum_past_the_double_range(self):
        """At gamma = 1e-310 the best s is about 1e310: no move, and no
        RuntimeWarning.  At 1e-300 the move reaches the maximum."""
        lik = MarginalLikelihood(load_path([0.5, 2.0, 3.0], 4.0), 0.0, 0.7, degree=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lik.ray((1e-310,), lik.loglik_grad((1e-310,))[0]) is None
            _, loglik, _ = lik.ray((1e-300,), lik.loglik_grad((1e-300,))[0])
        assert loglik == pytest.approx(lik.ray((1.0,), lik.loglik_grad((1.0,))[0])[1], rel=1e-12)

    def test_an_overdispersed_row_steps_down_to_its_root(self, monkeypatch):
        """A Poisson-binomial pi has Var <= E, so only rounding gives phi < 0
        with slope >= 0 where the bracket has no lower end yet.  A synthetic
        overdispersed log pi, with mass at k = 0, 1 and M, does: at u = 0,
        E[k] < L c < Var[k], so the search steps down from its upper end,
        twice as far each time, and still ends at the root of E_u[k] =
        e^u L c.  Capped at one iteration it returns that first step, u = -1."""
        M, lc = 100, 5.0
        lik = MarginalLikelihood(load_path(np.linspace(0.1, 9.9, M), 10.0), 1.0, 0.5, degree=0)
        pi = np.zeros(M + 1)
        pi[[0, 1, M]] = 0.05, 0.94, 0.01
        with np.errstate(divide="ignore"):
            log_k = np.log(pi)
        ks = lik._ks
        mean = float(pi @ ks)
        assert pi[1] / pi[0] > lc and mean < lc < float(pi @ ks**2) - mean**2
        u = lik._ray_max(log_k, lc)
        weight = np.exp(log_k + ks * u)
        assert u < -1.0 and float(weight @ ks) / float(weight.sum()) == pytest.approx(math.exp(u) * lc, rel=1e-12)
        monkeypatch.setattr(marginal, "_RAY_ITERS", 1)
        assert lik._ray_max(log_k, lc) == -1.0

    def test_no_ray_where_the_window_dropped_rows(self, monkeypatch):
        """The last row lacks the rows the window dropped, which other points
        of the ray may need, so there is no ray; with every row there is."""
        lik, coeffs, _ = bound_case(69, 1.0, 1.0, 11.0, 2, 0)
        assert lik.ray(coeffs, lik.loglik_grad(coeffs)[0]) is not None
        small_blocks(monkeypatch, marginal._CELLS, 10.0)
        res, _ = lik.loglik_grad(coeffs)
        assert lik._dropped(res.log_k) and lik.ray(coeffs, res) is None

    def test_no_ray_where_the_lambda_integral_is_zero(self):
        """At gamma = 0 with beta0 > 0 the pass is finite, but L c = 0: the
        ray {s c} is the one point 0, and ray gives None."""
        lik = MarginalLikelihood(load_path([0.5, 2.0], 4.0), 1.0, 0.7, degree=1)
        res = lik.loglik_grad((0.0, 0.0))[0]
        assert math.isfinite(res.loglik) and res.log_dk is not None
        assert lik.ray((0.0, 0.0), res) is None

    def test_no_interior_maximum_at_the_sentinel(self):
        lik = MarginalLikelihood(load_path([0.5, 2.0], 4.0), 0.0, 0.7, degree=1)
        res = lik.loglik_grad((0.0, 0.0))[0]
        assert res.loglik == -math.inf and res.log_dk is None
        assert lik.ray((0.0, 0.0), res) is None
