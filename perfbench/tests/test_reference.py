"""The reference likelihood against a 50-digit brute force, and the ESS estimator."""

import math

import mpmath
import numpy as np
import pytest

import reference
from workloads import SMALL, draw_path, rng_for


def brute_force_loglik(coeffs, beta0, w, T, times):
    """Descending-order coefficient recursion in 50-digit arithmetic.

    c_j^(m) = A_m sum_{i<j} c_i^(m-1) C(m-i-1, j-i-1) + c_j^(m-1), with the
    kernel masses A_m from mpmath quadrature.
    """
    with mpmath.workdps(50):
        gamma = lambda s: sum(mpmath.mpf(c) * s**k for k, c in enumerate(coeffs))
        w_, T_ = mpmath.mpf(w), mpmath.mpf(T)
        masses = [
            mpmath.quad(lambda s: mpmath.exp(-w_ * (T_ - s)) * gamma(s), [0, mpmath.mpf(t)])
            for t in sorted(times, reverse=True)
        ]
        c = [mpmath.mpf(1)]
        for m, A in enumerate(masses, start=1):
            new = [c[0]]
            for j in range(1, m + 1):
                s = sum(c[i] * mpmath.binomial(m - i - 1, j - i - 1) for i in range(j))
                new.append(A * s + (c[j] if j < m else 0))
            c = new
        M = len(masses)
        poly = sum(c[j] * w_**j * mpmath.mpf(beta0) ** (M - j) for j in range(M + 1))
        lam = mpmath.quad(lambda s: (1 - mpmath.exp(-w_ * (T_ - s))) * gamma(s), [0, T_])
        return float(mpmath.log(poly) - mpmath.mpf(beta0) * T_ - lam)


@pytest.mark.parametrize(
    "coeffs, beta0, w, T, seed",
    [
        ((1.0, 0.2), 1.0, 0.5, 4.0, 0),
        ((1.0, 0.25), 0.25, 1.0, 3.0, 1),
        ((0.5, 0.0, 0.3), 2.0, 0.3, 2.5, 2),
        ((0.8,), 0.0, 0.7, 3.0, 3),
    ],
)
def test_dp_matches_brute_force(coeffs, beta0, w, T, seed):
    from workloads import Regime

    rng = rng_for(seed, 99)
    times = draw_path(Regime(beta0, w, coeffs, T), rng)
    while not 2 <= times.size <= 12:
        times = draw_path(Regime(beta0, w, coeffs, T), rng)
    got = reference.loglik(coeffs, beta0, w, T, times)
    assert got == pytest.approx(brute_force_loglik(coeffs, beta0, w, T, times), abs=1e-11)


def test_kernel_masses_match_closed_form_for_constant_rate():
    times = np.array([0.5, 1.5, 4.0, 9.9])
    w, T, g = 0.7, 10.0, 1.3
    exact = g / w * (np.exp(-w * (T - times)) - math.exp(-w * T))
    np.testing.assert_allclose(reference.kernel_masses((g,), w, T, times), exact, rtol=1e-13)


def test_dp_agrees_with_program_where_it_is_accurate():
    from marcox import ModelParams, PolyIntensity, marginal_loglik
    from marcox.paths import CountPath

    times = draw_path(SMALL, rng_for(5, 99))
    params = ModelParams(SMALL.beta0, SMALL.w, PolyIntensity(SMALL.coeffs))
    prog = marginal_loglik(CountPath(T=SMALL.T, jumps=times), params).loglik
    ref = reference.loglik(SMALL.coeffs, SMALL.beta0, SMALL.w, SMALL.T, times)
    assert abs(prog - ref) < 1e-9


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_on_ar1(phi):
    n = 40_000
    rng = np.random.default_rng(11)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1 - phi**2)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    expected = n * (1 - phi) / (1 + phi)
    assert reference.ess(x) == pytest.approx(expected, rel=0.15)


def test_ess_of_constant_chain_is_one():
    assert reference.ess(np.full(100, 2.5)) == 1.0
