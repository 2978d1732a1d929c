"""Exact marginal likelihood of the observed count path.

Expanding prod_m (beta0 + w Y(t_m-)) and integrating the latent points out
with the Mecke (Campbell) formula gives

    p(x) = ( sum_k f_M(k) ) * exp(-beta0 T - int_0^T lambda),
    lambda(t) = (1 - e^{-w (T - t)}) gamma(t),

where f runs over the events in ascending order (t_1 < t_2 < ... < t_M):

    f_0 = [1],   f_m(k) = (beta0 + w k) f_(m-1)(k) + w A_m f_(m-1)(k - 1).

Here k counts the distinct latent points the first m events have attached
to, and A_m = int_0^{t_m} e^{-w (T - t)} gamma(t) dt is the discounted
kernel mass up to event m.  The sum over k equals the coefficient polynomial
sum_j c_j w^j beta0^(M-j) of the closed form.  Rows are kept in log space
(``np.logaddexp``), so no term is lost at any M; the whole path costs
O(M^2).

A_m and int lambda are linear in the coefficients of gamma: A = B c and
int lambda = L c, with moment tables B (M x (degree + 1)) and L that depend
only on the path, w and the degree.  ``MarginalLikelihood`` builds them once,
so one evaluation costs two small matrix-vector products and the DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intensity import MAX_DEGREE, discounted_moments, lambda_moments
from .paths import CountPath, ModelParams


@dataclass(frozen=True)
class MarginalResult:
    """loglik = polynomial_term_log + exponent_term."""

    loglik: float
    polynomial_term_log: float
    exponent_term: float


class MarginalLikelihood:
    """The marginal likelihood of one path as a function of gamma's coefficients.

    beta0, w and the polynomial degree are fixed at construction, which
    computes everything that does not depend on the coefficients.
    ``loglik`` does not check that gamma is nonnegative on [0, T]; callers
    do (``ModelParams.validate``, ``PolyIntensity.is_nonneg``).  It raises
    ``ValidationError`` when a dip between the checked points still makes a
    kernel mass or the lambda integral negative.
    """

    def __init__(self, x: CountPath, beta0: float, w: float, degree: int) -> None:
        beta0, w = float(beta0), float(w)
        if not (math.isfinite(beta0) and beta0 >= 0.0):
            raise ValidationError("baseline rate beta0 must be finite and >= 0")
        if not (math.isfinite(w) and w > 0.0):
            raise ValidationError("jump weight w must be finite and positive")
        if not 0 <= degree <= MAX_DEGREE:
            raise ValidationError(f"polynomial degree must lie in 0..{MAX_DEGREE}")
        self.x = x
        self.beta0 = beta0
        self.w = w
        self.degree = degree
        starts = np.concatenate(([0.0], x.jumps))[:-1]
        self._B = np.cumsum(discounted_moments(w, x.T, starts, x.jumps, degree), axis=0)
        self._L = lambda_moments(w, x.T, degree)
        with np.errstate(divide="ignore"):
            self._log_stay = np.log(beta0 + w * np.arange(x.count + 1))
        self._log_w = math.log(w)

    def loglik(self, coeffs) -> MarginalResult:
        """Log marginal likelihood at gamma(t) = sum_p coeffs[p] t^p.

        A kernel mass that underflows to 0 contributes log 0 = -inf; a path
        no latent configuration can produce yields the -inf sentinel.
        """
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.degree + 1,):
            raise ValidationError(f"expected {self.degree + 1} coefficients, got {c.size}")
        A = self._B @ c
        lam = float(self._L @ c)
        if not (np.all(np.isfinite(A)) and A.min(initial=0.0) >= 0.0 and 0.0 <= lam < math.inf):
            raise ValidationError(
                "kernel masses must be finite and >= 0: gamma dips below zero on "
                "[0, T] or has non-finite coefficients"
            )
        with np.errstate(divide="ignore"):
            log_new = self._log_w + np.log(A)
        log_stay = self._log_stay
        M = A.size
        f = np.full(M + 1, -math.inf)  # f[: m + 1] holds row m
        f[0] = 0.0
        grown = np.empty(M)
        add, logaddexp = np.add, np.logaddexp
        # In-place ufuncs on views: the per-row cost is three ufunc calls.
        for m, ln in enumerate(log_new.tolist()):
            row, g = f[: m + 1], grown[: m + 1]
            add(row, ln, out=g)
            add(row, log_stay[: m + 1], out=row)
            shifted = f[1 : m + 2]
            logaddexp(shifted, g, out=shifted)
        top = float(f.max())
        poly_log = top + math.log(float(np.sum(np.exp(f - top)))) if top > -math.inf else top
        exponent = -self.beta0 * self.x.T - lam
        return MarginalResult(
            loglik=poly_log + exponent,
            polynomial_term_log=poly_log,
            exponent_term=exponent,
        )


def marginal_loglik(x: CountPath, params: ModelParams) -> MarginalResult:
    """Log marginal likelihood of x under params: one ``MarginalLikelihood`` evaluation.

    At beta0 = 0 every event must be explained by latent points; when none
    can be (a polynomial factor of exactly zero) the result is the -inf
    sentinel.
    """
    params.validate(x.T)
    gamma = params.gamma
    return MarginalLikelihood(x, params.beta0, params.w, gamma.degree).loglik(gamma.coeffs)


def batch_loglik(paths: list[CountPath], params: ModelParams) -> list[MarginalResult]:
    """Element-wise marginal_loglik; the first failing element is reported."""
    out: list[MarginalResult] = []
    for i, path in enumerate(paths):
        try:
            out.append(marginal_loglik(path, params))
        except (ValidationError, ValueError) as exc:
            raise ValidationError(f"path {i}: {exc}") from exc
    return out
