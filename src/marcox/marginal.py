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

A_m and int lambda are linear in the coefficients c of gamma: A = B c and
int lambda = L c, with moment tables B (M x (degree + 1)) and L that depend
only on the path, w and the degree.  ``MarginalLikelihood`` builds them once,
so one evaluation costs two small matrix-vector products and the DP.  B is
stored as B~_m = e^{w (T - t_m)} B_m, built by the discounted running sum
B~_m = e^{-w (t_m - t_(m-1))} B~_(m-1) + int_(t_(m-1))^(t_m) e^{-w (t_m - s)} s^p ds,
and -w (T - t_m) is added to log A_m as a log offset, so a mass whose
factor e^{-w (T - t_m)} is below the double range is still exact.

The gradient comes from the same pass.  The sensitivity rows
D_p f_m(k) = d f_m(k) / d c_p follow the recurrence of f plus a source term,

    D_p f_m(k) = (beta0 + w k) D_p f_(m-1)(k) + w A_m D_p f_(m-1)(k - 1)
                 + w B_(m,p) f_(m-1)(k - 1),

and every term is nonnegative, so they stay in log space as extra columns
next to f (memory O(M (degree + 2)), no O(M^2) table).  Then
d log p / d c_p = sum_k D_p f_M(k) / sum_k f_M(k) - L_p.  The value-only
pass runs the same loop on f alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intensity import MAX_DEGREE, gap_moments, lambda_moments
from .paths import CountPath, ModelParams


@dataclass(frozen=True)
class MarginalResult:
    """loglik = polynomial_term_log + exponent_term."""

    loglik: float
    polynomial_term_log: float
    exponent_term: float


def _logsumexp(v: np.ndarray) -> float:
    top = float(v.max())
    return top + math.log(float(np.sum(np.exp(v - top)))) if top > -math.inf else top


# Span, in units of 1/w, of one block of ``_discounted_sums``: weights up to
# e^500 stay far from overflow.
_BLOCK_SPAN = 500.0


def _discounted_sums(w: float, T: float, times: np.ndarray, degree: int) -> np.ndarray:
    """B~_m = int_0^(t_m) e^{-w (t_m - s)} s^p ds for ascending event times.

    This is the running sum B~_m = e^{-w (t_m - t_(m-1))} B~_(m-1) + G_m over
    the gap moments G_m (``gap_moments``).  Within a block of events that
    starts at t_i and spans at most _BLOCK_SPAN / w it equals
    e^{-w (t_m - t_i)} (e^{-w (t_i - t_(i-1))} B~_(i-1) + sum_(j=i..m) e^{w (t_j - t_i)} G_j),
    a sum of positive terms, so one numpy pass per block replaces a Python
    loop per event.
    """
    starts = np.concatenate(([0.0], times))[:-1]
    gaps = gap_moments(w, T, starts, times, degree)
    out = np.empty_like(gaps)
    carry = np.zeros(degree + 1)
    i = 0
    while i < times.size:
        j = int(np.searchsorted(times, times[i] + _BLOCK_SPAN / w, side="right"))
        lag = w * (times[i:j] - times[i])
        block = np.cumsum(np.exp(lag)[:, None] * gaps[i:j], axis=0)
        block += carry * math.exp(-w * (times[i] - starts[i]))
        out[i:j] = block * np.exp(-lag)[:, None]
        carry = out[j - 1]
        i = j
    return out


class MarginalLikelihood:
    """The marginal likelihood of one path as a function of gamma's coefficients.

    beta0, w and the polynomial degree are fixed at construction, which
    computes everything that does not depend on the coefficients.
    ``loglik`` and ``loglik_grad`` do not check that gamma is nonnegative on
    [0, T]; callers do (``ModelParams.validate``, ``PolyIntensity.is_nonneg``).
    They raise ``ValidationError`` when a dip between the checked points
    still makes a kernel mass or the lambda integral negative.
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
        times = x.jumps
        self._B = _discounted_sums(w, x.T, times, degree)
        self._L = lambda_moments(w, x.T, degree)
        with np.errstate(divide="ignore"):
            self._log_stay = np.log(beta0 + w * np.arange(x.count + 1))
            # log w - w (T - t_m): turns log B~_m c into log (w A_m).
            self._log_kernel = math.log(w) - w * (x.T - times)
            # log (w B_(m,p)) in columns 1.., after a column of log 0 that
            # leaves f's own column unchanged under logaddexp.
            self._log_source = np.concatenate(
                (np.full((x.count, 1), -math.inf), self._log_kernel[:, None] + np.log(self._B)), axis=1
            )

    def loglik(self, coeffs) -> MarginalResult:
        """Log marginal likelihood at gamma(t) = sum_p coeffs[p] t^p.

        A path no latent configuration can produce yields the -inf sentinel.
        """
        return self._run(coeffs, grad=False)

    def loglik_grad(self, coeffs) -> tuple[MarginalResult, np.ndarray]:
        """``loglik`` (the same value, bit for bit) and d loglik / d coeffs.

        One forward pass carries the degree + 1 sensitivity columns next to
        the likelihood's own.  At the -inf sentinel a component is +inf when
        raising that coefficient makes the path possible, and -L_p otherwise.
        """
        return self._run(coeffs, grad=True)

    def in_support(self, coeffs) -> bool:
        """Whether every kernel mass and the lambda integral at coeffs are
        finite and >= 0: exactly the points where ``loglik`` does not raise."""
        return self._masses(coeffs)[2]

    def _masses(self, coeffs) -> tuple[np.ndarray, float, bool]:
        """(A_m e^{w (T - t_m)} for all m, int lambda, whether both are admissible)."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.degree + 1,):
            raise ValidationError(f"expected {self.degree + 1} coefficients, got {c.size}")
        scaled = self._B @ c
        lam = float(self._L @ c)
        ok = bool(np.all(np.isfinite(scaled)) and scaled.min(initial=0.0) >= 0.0 and 0.0 <= lam < math.inf)
        return scaled, lam, ok

    def _run(self, coeffs, grad: bool):
        scaled, lam, ok = self._masses(coeffs)
        if not ok:
            raise ValidationError(
                "kernel masses must be finite and >= 0: gamma dips below zero on "
                "[0, T] or has non-finite coefficients"
            )
        with np.errstate(divide="ignore"):
            log_new = self._log_kernel + np.log(scaled)
        M = scaled.size
        # Row k of rows[: m + 1] holds step m at k: log f_m(k) alone, or
        # log f_m(k) in column 0 followed by the sensitivities log D_p f_m(k).
        if grad:
            width = self.degree + 2
            rows = np.full((M + 1, width), -math.inf)
            f = rows[:, 0]
            log_stay = np.repeat(self._log_stay[:, None], width, axis=1)
            source = np.empty((M, width))
        else:
            rows = f = np.full(M + 1, -math.inf)
            log_stay = self._log_stay
        f[0] = 0.0
        grown = np.empty_like(rows[1:])
        log_source = self._log_source
        add, logaddexp = np.add, np.logaddexp
        # In-place ufuncs on contiguous views: the per-step cost is three
        # ufunc calls, plus two for the sensitivity sources.
        for m, ln in enumerate(log_new.tolist()):
            row, g = rows[: m + 1], grown[: m + 1]
            add(row, ln, out=g)
            if grad:
                s = source[: m + 1]
                add(row[:, :1], log_source[m], out=s)
                logaddexp(g, s, out=g)
            add(row, log_stay[: m + 1], out=row)
            shifted = rows[1 : m + 2]
            logaddexp(shifted, g, out=shifted)
        poly_log = _logsumexp(f)
        exponent = -self.beta0 * self.x.T - lam
        result = MarginalResult(
            loglik=poly_log + exponent,
            polynomial_term_log=poly_log,
            exponent_term=exponent,
        )
        if not grad:
            return result
        sens = np.array([_logsumexp(rows[:, p]) for p in range(1, self.degree + 2)])
        if poly_log == -math.inf:
            ratio = np.where(sens > -math.inf, math.inf, 0.0)
        else:
            with np.errstate(over="ignore"):
                ratio = np.exp(sens - poly_log)
        return result, ratio - self._L


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
