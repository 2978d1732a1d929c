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
stored as B~_m = e^{w (T - t_m)} B_m = int_0^(t_m) e^{-w (t_m - s)} s^p ds
= t_m^(p+1) mu_p(w t_m) (``kernel_moments``), one decay moment with no sum
and so no cancellation.  -w (T - t_m) is added to log A_m as a log offset,
so a mass whose factor e^{-w (T - t_m)} is below the double range is still
exact.

The gradient comes from the same pass.  The sensitivity rows
D_p f_m(k) = d f_m(k) / d c_p follow the recurrence of f plus a source term,

    D_p f_m(k) = (beta0 + w k) D_p f_(m-1)(k) + w A_m D_p f_(m-1)(k - 1)
                 + w B_(m,p) f_(m-1)(k - 1),

and every term is nonnegative, so they stay in log space as extra columns
next to f (memory O(M (degree + 2)), no O(M^2) table).  Then
d log p / d c_p = sum_k D_p f_M(k) / sum_k f_M(k) - L_p.  The value-only
pass runs the same loop on f alone.

The last row also gives pi(k) = f_M(k) / sum_j f_M(j), the posterior of
the number of latent points the events attach to (``MarginalResult.log_k``),
and with it a bound on the likelihood at other coefficients without a pass.
Unrolled, f_M(k) = sum_{|S| = k} h(S) prod_{m in S} A_m over the sets S of
events that attach to a new latent point, with weights h(S) >= 0 that do not
depend on A.  If new coefficients scale the masses by r_m = A'_m / A_m
(= B~_m c' / B~_m c), every product over S grows by at most the product of
the |S| largest ratios, r_(1) r_(2) ... r_(|S|) with r_(1) >= r_(2) >= ...,
so

    log sum_k f'_M(k) <= log sum_k f_M(k) + log sum_k pi(k) prod_(j<=k) r_(j),

with equality when all r_m are equal.  The exponent -beta0 T - L c' is
computed exactly, so ``MarginalLikelihood.loglik_bound`` costs a sort of M
ratios and one log-sum-exp.  ``mh_fit`` uses it to reject a proposal before
its pass when even the bound fails the Metropolis test.

Any pass of the same likelihood can serve as the reference, and the bound's
slack grows with the spread of the ratios r_m.  ``loglik_bound`` takes
several passes and bounds against one: the pass whose tilt log A_M - log A_1
(``MarginalResult.log_tilt``) is closest to that of the masses at c'.  Two
tilts differ by log r_M - log r_1, so equal tilts give equal end ratios.  At
degree 1, r_m = (c'_0 + c'_1 u_m) / (c_0 + c_1 u_m) with u_m = B_(m,1) /
B_(m,0) increasing in m, so equal end ratios make every ratio equal and the
bound exact; at higher degrees the tilt matches the ends only.  One float
per reference is compared, far cheaper than a bound against each: the least
of those bounds rejects a few more proposals but costs more than the passes
it saves.

The last rows also give the likelihood along the ray {s c, s > 0} without
another pass.  Each term of f_M(k) holds k masses, each linear in c, so
f_M(k) is homogeneous of degree k in c and D_p f_M(k) of degree k - 1,
while int lambda = L c is linear.  With u = log s,

    log p(s c) = log sum_k f_M(k) e^(k u) - beta0 T - s L c,
    d log p / d c_p (s c) = sum_k D_p f_M(k) e^((k - 1) u) / sum_k f_M(k) e^(k u) - L_p,

from the pass at c alone, in O(M (degree + 1)) (``MarginalLikelihood.ray``,
from ``MarginalResult.log_k`` and ``log_dk``).  A step of the recurrence
maps P(x) = sum_k f(k) x^k to (beta0 + w A_m x) P + w x P', which keeps P
real-rooted with its roots in (-inf, 0].  So log P(s) - s L c is concave in
s, and the ray has at most one best point: where E_u[k] = s L c, E_u the
mean of k under pi_u(k) ~ f_M(k) e^(k u).  There is none inside the ray when
the slope at s = 0, f_M(1) / f_M(0) - L c, is <= 0.  ``mle_fit`` moves each
point it evaluates to that best point.

What one coefficient vector gives is one record (``_Masses``), keyed by its
shape and bytes: int lambda and, when it and the masses B~ c are
admissible, the masses' logs, read-only.  A ``MarginalLikelihood`` keeps
the record of the last coefficients given, so a proposal takes its masses
once for its support check, bound and pass; a pass's result carries the log
masses it used (``MarginalResult.log_masses``) and their tilt, where
``loglik_bound`` finds its references'.  The record saves work only: every
value is the one a fresh ``MarginalLikelihood`` gives, bit for bit.

A step is three in-place ufunc calls on whole rows (five with the
gradient), so at M in the hundreds a pass costs interpreter overhead per
call, not arithmetic.  The views those calls take are cut once per block of
``_BLOCK`` steps, at the block's last step, instead of at every step.  The
earlier steps of a block then also run over the entries past their own
step; those are -inf and stay -inf (-inf plus a finite log or -inf is -inf,
and logaddexp(-inf, -inf) is -inf without a warning), so every value and
gradient is the same, bit for bit, as with views cut per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .intensity import check_degree, grid_nonneg, kernel_moments, lambda_moments, nonneg_matrix
from .paths import CountPath, ModelParams, check_rates

# Steps of the DP per block of shared views (see ``MarginalLikelihood._run``).
# Passes at M = 80 and M = 1000 ran within noise of each other from 8 to 64.
_BLOCK = 16
# ``MarginalLikelihood._ray_max``: Newton steps at most, and the change in u
# that ends the search.
_RAY_ITERS = 64
_RAY_UTOL = 1e-12


@dataclass(frozen=True)
class MarginalResult:
    """loglik = polynomial_term_log + exponent_term.

    ``log_k`` is log pi(k), the posterior of the number of latent points the
    events attach to, for k = 0..M (the DP's last row less
    polynomial_term_log); None at the -inf sentinel and when not computed.
    ``log_dk`` is log D_p f_M(k) less polynomial_term_log, the last
    sensitivity row, shape (M + 1, degree + 1), which ``ray`` reads; set by
    ``loglik_grad`` only, and None at the -inf sentinel.
    ``log_masses`` is log (A_m e^{w (T - t_m)}), m = 1..M, the log kernel
    masses the pass used (-inf for a mass of 0), read-only; None when not
    computed.  ``log_tilt`` is log A_M - log A_1 (0 at M = 0), by which
    ``loglik_bound`` picks its reference; NaN when the result cannot serve
    as one (a mass of 0, the -inf sentinel) or was not computed.
    """

    loglik: float
    polynomial_term_log: float
    exponent_term: float
    log_k: np.ndarray | None = field(default=None, compare=False, repr=False)
    log_masses: np.ndarray | None = field(default=None, compare=False, repr=False)
    log_dk: np.ndarray | None = field(default=None, compare=False, repr=False)
    log_tilt: float = field(default=math.nan, compare=False, repr=False)


def _logsumexp(v: np.ndarray) -> float:
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum())) if top > -math.inf else top


def _nearest(refs: Sequence[MarginalResult], tilt: float) -> MarginalResult | None:
    """The result in refs with a finite ``log_tilt`` closest to tilt: the
    first on a tie, and the first such when tilt is not finite."""
    best, gap = None, math.inf
    for ref in refs:
        d = abs(ref.log_tilt - tilt)  # NaN when either tilt is NaN
        if d < gap or best is None and not math.isnan(ref.log_tilt):
            best, gap = ref, d
    return best


@dataclass(eq=False, slots=True)
class _Masses:
    """The record of one coefficient vector (module docstring)."""

    key: tuple  # the coefficients' shape and bytes
    lam: float  # int lambda
    log: np.ndarray | None  # log A_m e^{w (T - t_m)}, read-only; None unless admissible


class MarginalLikelihood:
    """The marginal likelihood of one path as a function of gamma's coefficients.

    beta0, w and the polynomial degree are fixed at construction, which
    computes everything that does not depend on the coefficients: the
    moment tables and ``V`` (``nonneg_matrix``), whose product with the
    coefficients gives gamma at the times nonnegativity is checked.
    ``in_support`` is the support check of the fitters; where it holds,
    ``loglik`` and ``loglik_grad`` do not raise.  They do not check the
    grid themselves and raise ``ValidationError`` only when a kernel mass or
    the lambda integral is negative or not finite, so a gamma that dips
    below zero without making either negative still gets a value.
    """

    def __init__(self, x: CountPath, beta0: float, w: float, degree: int) -> None:
        beta0, w = check_rates(beta0, w)
        check_degree(degree)
        self.x = x
        self.beta0 = beta0
        self.w = w
        self.degree = degree
        times = x.jumps
        self._B = kernel_moments(w, times, degree)
        self._L = lambda_moments(w, x.T, degree)
        self.V = nonneg_matrix(x.T, degree)
        self._ks = np.arange(x.count + 1.0)  # k = 0..M, the index of the DP's rows
        self._ks2 = self._ks * self._ks
        with np.errstate(divide="ignore"):
            self._log_stay = np.log(beta0 + w * self._ks)
            # log w - w (T - t_m): turns log B~_m c into log (w A_m).
            self._log_kernel = math.log(w) - w * (x.T - times)
            # log (w B_(m,p)) in columns 1.., after a column of log 0 that
            # leaves f's own column unchanged under logaddexp.
            self._log_source = np.concatenate(
                (np.full((x.count, 1), -math.inf), self._log_kernel[:, None] + np.log(self._B)), axis=1
            )
        # Below this sum of |coefficients| the products with B and L can
        # neither overflow nor meet an inf (see _masses).
        self._quiet_coeff_sum = 1e300 / max(1.0, self._B.max(initial=0.0), self._L.max())
        # The _Masses of the last coefficients given (module docstring).
        self._kept: _Masses | None = None
        self._log_stay_wide: np.ndarray | None = None  # built at the first gradient pass

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
        """Whether gamma = sum_p coeffs[p] t^p lies in the model's support: every
        kernel mass and the lambda integral are finite and >= 0, and gamma
        passes ``grid_nonneg`` at the check times (``V @ coeffs``).  Where it
        holds, ``loglik`` does not raise.  The masses go into the kept record
        (module docstring), so the next ``loglik_bound``, ``loglik`` or
        ``loglik_grad`` at the same coefficients (the same bytes) does not
        compute them again."""
        c = np.asarray(coeffs, dtype=float)
        return self._record(c).log is not None and grid_nonneg(self.V @ c)

    def loglik_bound(self, coeffs, refs: Sequence[MarginalResult]) -> float:
        """An upper bound on ``loglik(coeffs).loglik`` from one of ``refs``,
        results of passes of this likelihood, in O(M log M + len(refs)) and
        without a pass.

        The reference is the result whose ``log_tilt`` is closest to the
        tilt log A'_M - log A'_1 of the masses at coeffs (module docstring):
        the first on a tie, and the first with a finite tilt when coeffs'
        tilt is not finite.  Results whose tilt is NaN (a mass of 0, a
        loglik of -inf) are skipped, so the bound is +inf, and rejects
        nothing, when no result can serve.  With one reference,

            log p(coeffs) <= ref.polynomial_term_log + log sum_k pi(k)
                             prod_(j<=k) r_(j) - beta0 T - L coeffs,

        where r_(1) >= r_(2) >= ... are the mass ratios A'_m / A_m in
        decreasing order and pi = exp(ref.log_k); equality holds when every
        ratio is the same.  The masses at coeffs come from the kept record,
        those of the reference from ``ref.log_masses``.
        """
        rec = self._admissible(coeffs)
        # Python floats: a zero first and last mass give NaN without a warning.
        tilt = float(rec.log[-1]) - float(rec.log[0]) if rec.log.size else 0.0
        ref = _nearest(refs, tilt)
        if ref is None:
            return math.inf
        # Every mass of ref is positive; a mass of 0 at coeffs gives -inf.
        log_ratio = rec.log - ref.log_masses
        log_ratio.sort()
        # gain[k - 1] = sum of the k largest log ratios; -inf (a mass of 0 at coeffs) comes last.
        gain = log_ratio[::-1].cumsum()
        log_sum = float(np.logaddexp.reduce(ref.log_k[1:] + gain, initial=ref.log_k[0]))
        return ref.polynomial_term_log + log_sum + (-self.beta0 * self.x.T - rec.lam)

    def ray(self, coeffs, res: MarginalResult, u: float | None = None) -> tuple[float, float, np.ndarray] | None:
        """(u, loglik, gradient) at e^u coeffs from ``res``, the
        ``loglik_grad`` result at coeffs, in O(M (degree + 1)) and without a
        pass (module docstring).

        With u None, u is the maximizer of the log-likelihood along the ray
        {s coeffs, s > 0}: the root of E_u[k] = e^u L coeffs, the mean of k
        under pi_u(k) ~ f_M(k) e^(k u), found by Newton's method in u within
        a bracket that every step narrows (bisection when a Newton step
        leaves it).  The log-likelihood is concave in s, so the root is
        unique.  None when the ray has no interior maximum: at M = 0, where
        L coeffs = 0, where the log-likelihood falls from s = 0 on, and at
        the -inf sentinel (``res.log_dk`` None); and where L coeffs is so
        small (below M e^-709) that the maximizer could leave the double
        range.  At u = 0 the loglik is ``res.loglik`` itself.
        """
        if res.log_dk is None:
            return None
        c = np.asarray(coeffs, dtype=float)
        lc = float(self._L @ c)
        if u is None:
            u = self._ray_max(res.log_k, lc)
            if u is None:
                return None
        ks = self._ks
        lse = _logsumexp(res.log_k + ks * u)
        loglik = res.loglik + (lse - _logsumexp(res.log_k)) - math.expm1(u) * lc
        # Column p: log sum_k D_p f_M(k) e^(k u), less polynomial_term_log.
        z = res.log_dk + (ks * u)[:, None]
        top = z.max(axis=0)
        top[top == -math.inf] = 0.0  # M = 0: every sensitivity is 0
        with np.errstate(divide="ignore"):
            sens = top + np.log(np.exp(z - top).sum(axis=0))
        return u, loglik, np.exp(sens - u - lse) - self._L

    def _ray_max(self, log_k: np.ndarray, lc: float) -> float | None:
        """The u of ``ray``'s maximum, from the last row's log pi(k) and
        L c; None when the ray has no interior maximum."""
        M = log_k.size - 1
        if M == 0 or not lc > 0.0:
            return None
        # E_u[k] lies in [k_min, M], so the root lies in [log(k_min / Lc), log(M / Lc)].
        k_min = int(np.argmax(log_k > -math.inf))
        if k_min == 0 and not log_k[1] - log_k[0] > math.log(lc):
            return None  # d loglik / ds = f_M(1) / f_M(0) - L c <= 0 at s = 0
        lo, hi = (math.log(k_min / lc) if k_min else -math.inf), math.log(M / lc)
        if not hi < 709.0:
            return None  # s = e^u up to M / L c, which may leave the double range
        ks, ks2 = self._ks, self._ks2
        u, width = min(max(0.0, lo), hi), 1.0
        for _ in range(_RAY_ITERS):
            z = log_k + ks * u
            weight = np.exp(z - z.max())  # pi_u, not normalized
            total = float(weight.sum())
            mean = float(weight @ ks) / total
            scaled_lc = math.exp(u) * lc
            # phi = d loglik / du = E_u[k] - s L c; slope = d phi / du =
            # Var_u[k] - s L c, negative at the root.
            phi, slope = mean - scaled_lc, float(weight @ ks2) / total - mean * mean - scaled_lc
            if phi == 0.0:
                return u
            if phi > 0.0:
                lo = u
            else:
                hi = u
            new_u = u - phi / slope if slope < 0.0 else math.nan
            if not lo < new_u < hi:
                if lo > -math.inf:
                    new_u = 0.5 * (lo + hi)
                else:  # no lower end yet: step down, twice as far each time
                    new_u, width = hi - width, 2.0 * width
            if abs(new_u - u) <= _RAY_UTOL * max(1.0, abs(u)):
                return new_u
            u = new_u
        return u

    def _masses(self, coeffs) -> _Masses:
        """A new record of coeffs (module docstring), not kept."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.degree + 1,):
            raise ValidationError(f"expected coefficients of shape ({self.degree + 1},), got shape {c.shape}")
        if sum(map(abs, c.tolist())) < self._quiet_coeff_sum:
            scaled, lam = self._B @ c, float(self._L @ c)
        else:
            # Huge, infinite or NaN coefficients can overflow or form inf - inf
            # in the products; the test below refuses whatever they give.
            with np.errstate(over="ignore", invalid="ignore"):
                scaled, lam = self._B @ c, float(self._L @ c)
        log = None
        if 0.0 <= lam < math.inf and scaled.min(initial=0.0) >= 0.0 and scaled.max(initial=0.0) < math.inf:
            with np.errstate(divide="ignore"):
                log = np.log(scaled)
            # Results share it (MarginalResult.log_masses), so none may write to it.
            log.flags.writeable = False
        return _Masses((c.shape, c.tobytes()), lam, log)

    def _record(self, coeffs) -> _Masses:
        """The kept record when its bytes are coeffs', else a new one, kept instead."""
        c = np.asarray(coeffs, dtype=float)
        if self._kept is None or self._kept.key != (c.shape, c.tobytes()):
            self._kept = self._masses(c)
        return self._kept

    def _admissible(self, coeffs) -> _Masses:
        """``_record``, raising ``ValidationError`` unless admissible."""
        rec = self._record(coeffs)
        if rec.log is None:
            raise ValidationError(
                "kernel masses must be finite and >= 0: gamma dips below zero on "
                "[0, T] or has non-finite coefficients"
            )
        return rec

    def _run(self, coeffs, grad: bool):
        rec = self._admissible(coeffs)
        log_new = self._log_kernel + rec.log
        M = rec.log.size
        # Row k of rows[: m + 1] holds step m at k: log f_m(k) alone, or
        # log f_m(k) in column 0 followed by the sensitivities log D_p f_m(k).
        if grad:
            width = self.degree + 2
            rows = np.full((M + 1, width), -math.inf)
            f = rows[:, 0]
            if self._log_stay_wide is None:
                self._log_stay_wide = np.repeat(self._log_stay[:, None], width, axis=1)
            log_stay = self._log_stay_wide
            source = np.empty((M, width))
        else:
            rows = f = np.full(M + 1, -math.inf)
            log_stay = self._log_stay
        f[0] = 0.0
        grown = np.empty_like(rows[1:])
        log_source = self._log_source
        lns = log_new.tolist()
        add, logaddexp = np.add, np.logaddexp
        # Step m needs rows[: m + 1]: three in-place ufunc calls, plus two for
        # the sensitivity sources.  Cutting four views per step would cost
        # about a third of a step, so each block of _BLOCK steps shares views
        # cut at its last step; the rows past m that the earlier steps also
        # touch are -inf and stay -inf (module docstring).
        for lo in range(0, M, _BLOCK):
            hi = min(lo + _BLOCK, M)
            row, g, stay, shifted = rows[:hi], grown[:hi], log_stay[:hi], rows[1 : hi + 1]
            if grad:
                f_col, s = rows[:hi, :1], source[:hi]
                for ln, src in zip(lns[lo:hi], log_source[lo:hi]):
                    add(row, ln, g)
                    add(f_col, src, s)
                    logaddexp(g, s, g)
                    add(row, stay, row)
                    logaddexp(shifted, g, shifted)
            else:
                for ln in lns[lo:hi]:
                    add(row, ln, g)
                    add(row, stay, row)
                    logaddexp(shifted, g, shifted)
        poly_log = _logsumexp(f)
        exponent = -self.beta0 * self.x.T - rec.lam
        # NaN unless this pass can serve loglik_bound as a reference.
        tilt = math.nan
        if poly_log > -math.inf and rec.log.min(initial=0.0) > -math.inf:
            tilt = float(rec.log[-1] - rec.log[0]) if M else 0.0
        possible = poly_log > -math.inf
        result = MarginalResult(
            loglik=poly_log + exponent,
            polynomial_term_log=poly_log,
            exponent_term=exponent,
            log_k=f - poly_log if possible else None,
            log_masses=rec.log,
            log_dk=rows[:, 1:] - poly_log if grad and possible else None,
            log_tilt=tilt,
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
