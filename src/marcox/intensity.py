"""Polynomial intensity functions and the exponential-kernel moments.

The latent jump rate gamma(t) is a polynomial with nonnegative values on the
working interval [0, T].  The simulator needs only gamma's values and the
bound ``PolyIntensity.upper_bound`` on them, under which it thins.  What the
likelihood needs from gamma reduces to two integrals in closed form:

    A(t)        int_0^t e^{-w (T - s)} gamma(s) ds   (the kernel mass)
    int lambda  int_0^T (1 - e^{-w (T - s)}) gamma(s) ds

Both are linear in the coefficients c of gamma.  ``kernel_moments``
and ``lambda_moments`` give their values on the monomials s^p, so a caller
that keeps w and the times fixed (the likelihood of one path) computes them
once and then needs one dot product per gamma.  ``kernel_moments`` discounts
each row to its own time t rather than to T, so its rows never underflow:
A(t) = e^{-w (T - t)} (kernel_moments(w, t, degree) @ c), and the factor
e^{-w (T - t)} is left to the caller.  Both are built from moments of the
bounded kernel e^{-z (1 - u)} on [0, 1], never quadrature, and stay finite
for any w T.

Nonnegativity on [0, T] is decided at 1025 evenly spaced times, always from
the values V c of ``nonneg_matrix`` and with the tolerance of
``grid_nonneg``, so every caller draws the same line.

Before any of these products, the sum of |c| must lie below the support's
limit on gamma's coefficients, ``support_limit(T, degree)``: 1e300 over
max(1, T)^(degree + 1).  Every entry of ``kernel_moments`` (t <= T),
``lambda_moments`` and ``nonneg_matrix`` is at most t^(p+1) / (p+1) or T^p,
so at most max(1, T)^(degree + 1), whatever the events and w: below the
limit no product of c with those tables overflows.  A sum at or past it,
NaN and inf among them, is outside the support, and no product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count, check_horizon, check_real

MAX_DEGREE = 8

# Nonnegativity is checked by dense sampling rather than root isolation.
_NONNEG_SAMPLES = 1024


def support_limit(T: float, degree: int) -> float:
    """The support's limit on the sum of |coefficients| of a gamma of this
    degree on [0, T] (module docstring); 0 where max(1, T)^(degree + 1) is
    past the double range, so that no coefficients lie below it."""
    try:
        return 1e300 / max(1.0, T) ** (degree + 1)
    except OverflowError:
        return 0.0


def check_degree(degree) -> None:
    """Raise ``ValidationError`` unless degree is an integer (not a bool) in
    0..``MAX_DEGREE``: the one rule for a polynomial degree, wherever it is
    given."""
    check_count(degree, "degree", 0)
    if degree > MAX_DEGREE:
        raise ValidationError(f"degree must be at most {MAX_DEGREE}, got {degree!r}")


@dataclass(frozen=True)
class PolyIntensity:
    """Polynomial rate gamma(t) = sum_k coeffs[k] t^k, degree-0 coefficient first.

    The horizon is not stored; nonnegativity is validated against a horizon
    supplied per call (``validate_nonneg``).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(check_real(c, "intensity coefficient") for c in self.coeffs)
        if len(coeffs) == 0:
            raise ValidationError("intensity needs at least one coefficient")
        check_degree(len(coeffs) - 1)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValidationError("intensity coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(ts, np.asarray(self.coeffs))

    def cum(self, t: float) -> float:
        """Cumulative mass Gamma(t) = int_0^t gamma(s) ds, exact antiderivative."""
        if t < 0:
            raise ValidationError("cumulative mass requires t >= 0")
        acc = 0.0
        for k in range(self.degree, -1, -1):
            acc = acc * t + self.coeffs[k] / (k + 1)
        return acc * t

    def validate_nonneg(self, T: float) -> None:
        """Raise ``ValidationError`` unless the sum of |coeffs| is below
        ``support_limit`` and gamma is nonnegative on [0, T]: ``grid_nonneg``
        of the values ``nonneg_matrix`` gives."""
        T = check_horizon(T)
        if not sum(map(abs, self.coeffs)) < support_limit(T, self.degree):
            raise ValidationError(f"intensity coefficients too large for [0, {T}]")
        if not grid_nonneg(nonneg_matrix(T, self.degree) @ np.asarray(self.coeffs)):
            raise ValidationError(f"intensity is negative somewhere on [0, {T}]")

    def upper_bound(self, T: float) -> float:
        """A bound max_k b_k >= gamma on [0, T], clamped at >= 0, from gamma's
        Bernstein coefficients b_k = sum_(j<=k) C(k, j) / C(d, j) c_j T^j.

        gamma is the Bernstein combination of the b_k, whose weights are
        nonnegative and sum to 1 on [0, T], so no value exceeds the largest
        b_k.  The bound is attained for constants, monotone linear gamma,
        c t^d and any (t - a)^d nonnegative on [0, T]: there the largest b_k
        is gamma(0) or gamma(T).
        """
        d = self.degree
        scaled = [c * T**j / math.comb(d, j) for j, c in enumerate(self.coeffs)]
        top = max(math.fsum(math.comb(k, j) * scaled[j] for j in range(k + 1)) for k in range(d + 1))
        return max(top, 0.0)

    @classmethod
    def from_config(cls, cfg: dict) -> "PolyIntensity":
        if not isinstance(cfg, dict) or cfg.get("type") != "poly":
            raise ValidationError('intensity config must be {"type": "poly", "coeffs": [...]}')
        return cls(tuple(cfg["coeffs"]))


def nonneg_matrix(T: float, degree: int) -> np.ndarray:
    """V with V @ c = gamma(t_i) for gamma(t) = sum_p c_p t^p, at the check times
    t_i = i T / 1024, i = 0..1024.

    Row i holds the monomials t_i^p, p = 0..degree.  Every nonnegativity
    decision evaluates gamma as this product, so
    ``PolyIntensity.validate_nonneg``, ``MarginalLikelihood.in_support`` and
    the constraints of ``mle_fit`` see the same values, rounding included.
    """
    return np.vander(np.linspace(0.0, T, _NONNEG_SAMPLES + 1), degree + 1, increasing=True)


def grid_nonneg(vals: np.ndarray) -> bool:
    """Whether gamma's values at the check times count as nonnegative: none lies
    below -1e-12 times the larger of 1 and their largest magnitude, and none
    is NaN.

    Only the smallest value lo and, when lo < 0, the largest hi are read:
    the largest magnitude is then max(-lo, hi).  A NaN makes lo NaN, which
    fails both comparisons."""
    lo = float(vals.min())
    return lo >= 0.0 or lo >= -1e-12 * max(1.0, -lo, float(vals.max()))


def _decay_moments(z: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of mu_j(z) = int_0^1 u^j e^{-z (1 - u)} du and nu_j(z) = 1/(j + 1) - mu_j(z).

    One row per entry of the 1-d array z >= 0, columns j = 0..degree.  Both
    integrands lie in [0, 1], so no e^{+z} is ever formed.  Below
    z = 2 (degree + 1) the positive series

        mu_j = e^{-z} sum_{n>=0} z^n / (n! (j + n + 1))
        nu_j = e^{-z} sum_{n>=1} z^n / ((n - 1)! (j + 1) (j + n + 1))

    give both to full relative precision.  Above it the upward recurrence
    mu_j = (1 - j mu_(j-1)) / z from mu_0 = -expm1(-z) / z is stable: each
    step scales the inherited error by j / z < 1/2, and mu_j <= 1/z keeps
    nu_j >= 1 / (2 (j + 1)) clear of cancellation.
    """
    j = np.arange(degree + 1)
    mu = np.empty((z.size, degree + 1))
    nu = np.empty_like(mu)
    big = z >= 2.0 * (degree + 1)
    if np.any(big):
        zb = z[big]
        m = -np.expm1(-zb) / zb
        cols = [m]
        for k in range(1, degree + 1):
            m = (1.0 - k * m) / zb
            cols.append(m)
        mu[big] = np.column_stack(cols)
        nu[big] = 1.0 / (j + 1) - mu[big]
    small = ~big
    if np.any(small):
        zs = z[small]
        # Terms n = 0..N with z^N / N! <= 1e-20 z; z^(N-1) / N! grows with z,
        # so the largest z sets N for all.
        top, term, N = float(zs.max()), 1.0, 0
        while term > 1e-20 * top:
            N += 1
            term *= top / N
        n = np.arange(N + 1)
        terms = np.cumprod(np.where(n > 0, zs[:, None] / np.maximum(n, 1), 1.0), axis=1)
        denom = j + n[:, None] + 1.0
        decay = np.exp(-zs)[:, None]
        mu[small] = decay * (terms @ (1.0 / denom))
        nu[small] = decay * (terms @ (n[:, None] / denom)) / (j + 1)
    return mu, nu


def kernel_moments(w: float, t: np.ndarray, degree: int) -> np.ndarray:
    """int_0^(t_i) e^{-w (t_i - s)} s^p ds = t_i^(p+1) mu_p(w t_i) for p = 0..degree,
    one row per time.

    Each row is discounted to its own time t_i, not to T, so no row
    underflows however far t_i lies from T.  A row is one decay moment
    (``_decay_moments``) times a power of t_i, so it is nonnegative,
    cancellation-free, and overflows only through t_i^(p+1).  Requires
    w > 0 and t_i >= 0.
    """
    t = np.asarray(t, dtype=float)
    mu, _ = _decay_moments(w * t, degree)
    return mu * t[:, None] ** np.arange(1, degree + 2)


def lambda_moments(w: float, T: float, degree: int) -> np.ndarray:
    """int_0^T (1 - e^{-w (T - s)}) s^p ds = T^(p+1) nu_p(w T) for p = 0..degree."""
    _, nu = _decay_moments(np.array([w * T]), degree)
    return nu[0] * float(T) ** np.arange(1, degree + 2)
