"""Polynomial intensity functions and the exponential-kernel integrals.

The latent jump rate gamma(t) is a polynomial with nonnegative values on the
working interval [0, T].  Everything the likelihood needs from gamma reduces
to three integrals, all available in closed form:

    cum(t)                      Gamma(t) = int_0^t gamma(s) ds
    alpha_integral(w, T, a, b)  int_a^b exp(-w (T - t)) gamma(t) dt
    lambda_integral(w, T)       int_0^T (1 - exp(-w (T - t))) gamma(t) dt

The last two are linear in the coefficients of gamma.  ``gap_moments`` and
``lambda_moments`` give their values on the monomials t^p, so a caller that
keeps w and the intervals fixed (the likelihood of one path) computes them
once and then needs one dot product per gamma.  ``gap_moments`` discounts
each interval to its own right end rather than to T, so its rows never
underflow; the factor e^{-w (T - b)} is left to the caller.  Both are built
from moments of the bounded kernel e^{-z (1 - u)} on [0, 1], never
quadrature, and stay finite for any w T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

MAX_DEGREE = 8

# Nonnegativity is checked by dense sampling rather than root isolation.
_NONNEG_SAMPLES = 1024
_INVERSE_TOL = 1e-12
_INVERSE_MAX_ITER = 200


@dataclass(frozen=True)
class PolyIntensity:
    """Polynomial rate gamma(t) = sum_k coeffs[k] t^k, degree-0 coefficient first.

    The horizon is not stored; nonnegativity is validated against a horizon
    supplied per call (``validate_nonneg``).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise ValidationError("intensity needs at least one coefficient")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise ValidationError(
                f"polynomial degree {len(coeffs) - 1} exceeds maximum {MAX_DEGREE}"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValidationError("intensity coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t: float) -> float:
        """Rate at time t (Horner evaluation)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

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

    def cum_many(self, ts: np.ndarray) -> np.ndarray:
        anti = np.asarray(self.coeffs) / np.arange(1, len(self.coeffs) + 1)
        return np.polynomial.polynomial.polyval(ts, anti) * ts

    def cum_inverse(self, u: float, T: float) -> float:
        """Smallest t in [0, T] with Gamma(t) = u, or inf when u > Gamma(T).

        Gamma is monotone on [0, T] once nonnegativity holds, so bisection is
        safe; Newton steps accelerate it.  Absolute tolerance 1e-12 in t.
        """
        if u < 0:
            raise ValidationError("cumulative mass is nonnegative")
        if u == 0.0:
            return 0.0
        total = self.cum(T)
        if u > total:
            return math.inf
        lo, hi = 0.0, float(T)
        t = 0.5 * (lo + hi)
        for _ in range(_INVERSE_MAX_ITER):
            f = self.cum(t) - u
            if f >= 0.0:
                hi = t
            else:
                lo = t
            if hi - lo <= _INVERSE_TOL:
                return hi
            slope = self.eval(t)
            if slope > 0.0:
                step = t - f / slope
                t = step if lo < step < hi else 0.5 * (lo + hi)
            else:
                t = 0.5 * (lo + hi)
        raise ConvergenceError("cumulative-mass inversion did not converge")

    def is_nonneg(self, T: float) -> bool:
        """Dense-sampling nonnegativity check for gamma on [0, T] (``nonneg_grid``)."""
        vals = self.eval_many(nonneg_grid(T))
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
        return bool(np.all(vals >= -tol))

    def validate_nonneg(self, T: float) -> None:
        if not (math.isfinite(T) and T > 0):
            raise ValidationError("horizon T must be finite and positive")
        if not self.is_nonneg(T):
            raise ValidationError(f"intensity is negative somewhere on [0, {T}]")

    def to_config(self) -> dict:
        return {"type": "poly", "coeffs": list(self.coeffs)}

    @classmethod
    def from_config(cls, cfg: dict) -> "PolyIntensity":
        if not isinstance(cfg, dict) or cfg.get("type") != "poly":
            raise ValidationError('intensity config must be {"type": "poly", "coeffs": [...]}')
        return cls(tuple(cfg["coeffs"]))


def nonneg_grid(T: float) -> np.ndarray:
    """The times in [0, T] at which ``PolyIntensity.is_nonneg`` samples gamma."""
    return np.linspace(0.0, T, _NONNEG_SAMPLES + 1)


def _cum_inverse_batch(gamma: PolyIntensity, us: np.ndarray, T: float) -> np.ndarray:
    """Vectorized cum_inverse for sorted masses us, all <= Gamma(T)."""
    us = np.asarray(us, dtype=float)
    lo = np.zeros_like(us)
    hi = np.full_like(us, float(T))
    # Bisection alone: 60 halvings push the bracket width below 1e-12 * T.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = gamma.cum_many(mid) >= us
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return hi


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


def gap_moments(w: float, T: float, a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    """int_(a_i)^(b_i) e^{-w (b_i - s)} s^p ds for p = 0..degree, one row per interval.

    Each interval is discounted to its own right end, so no row underflows
    however far b_i lies from T.  With h = b - a, z = w h and s = a + h u the
    integrand becomes e^{-z (1 - u)} T^p (a/T + (h/T) u)^p.  The binomial
    expansion of the last factor has only nonnegative terms, each a decay
    moment mu_j(z) (``_decay_moments``) times factors at most 1, so the rows
    are positive, cancellation-free and overflow only through T^p.  Requires
    w > 0, T > 0 and 0 <= a <= b <= T elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = b - a
    mu, _ = _decay_moments(w * h, degree)
    p = np.arange(degree + 1)
    a_pow = (a / T)[:, None] ** p
    h_mu = mu * (h / T)[:, None] ** p
    out = np.empty_like(mu)
    for q in range(degree + 1):
        binom = np.array([math.comb(q, i) for i in range(q + 1)], dtype=float)
        out[:, q] = (binom * a_pow[:, q::-1] * h_mu[:, : q + 1]).sum(axis=1)
    return out * h[:, None] * float(T) ** p


def lambda_moments(w: float, T: float, degree: int) -> np.ndarray:
    """int_0^T (1 - e^{-w (T - s)}) s^p ds = T^(p+1) nu_p(w T) for p = 0..degree."""
    _, nu = _decay_moments(np.array([w * T]), degree)
    return nu[0] * float(T) ** np.arange(1, degree + 2)


def alpha_integral(gamma: PolyIntensity, w: float, T: float, a: float, b: float) -> float:
    """int_a^b exp(-w (T - t)) gamma(t) dt in closed form (``gap_moments``).

    Requires 0 <= a <= b <= T and w > 0.
    """
    if not w > 0:
        raise ValidationError("jump weight w must be positive")
    if not (0.0 <= a <= b <= T):
        raise ValidationError("integral bounds must satisfy 0 <= a <= b <= T")
    if a == b:
        return 0.0
    row = gap_moments(w, T, np.array([a]), np.array([b]), gamma.degree)[0]
    return float(row @ np.asarray(gamma.coeffs)) * math.exp(-w * (T - b))


def lambda_integral(gamma: PolyIntensity, w: float, T: float) -> float:
    """int_0^T (1 - exp(-w (T - t))) gamma(t) dt (``lambda_moments``); nonnegative when gamma is."""
    if not w > 0:
        raise ValidationError("jump weight w must be positive")
    if not T >= 0.0:
        raise ValidationError("horizon T must be nonnegative")
    return float(lambda_moments(w, T, gamma.degree) @ np.asarray(gamma.coeffs))
