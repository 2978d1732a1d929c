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
between blocks of steps, and in linear space against a gauge within a
block (below), so no term underflows at any M; the whole path costs O(M^2).

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

and every term is nonnegative, so they are kept as extra columns next to
f, in the same form (memory O(M (degree + 2)), no O(M^2) table).  Then
d log p / d c_p = sum_k D_p f_M(k) / sum_k f_M(k) - L_p.  The value-only
pass runs the same step loop on f alone, without the source term.

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

with equality when all r_m are equal (and the window dropped no row,
below).  The exponent -beta0 T - L c' is computed exactly, so
``MarginalLikelihood.loglik_bound`` costs a sort of M ratios and one
log-sum-exp.  ``mh_fit`` uses it to reject a proposal before
its pass when even the bound fails the Metropolis test.

Any pass of the same likelihood can serve as the reference; the bound's
slack grows with the spread of the ratios r_m.  A ``MarginalLikelihood``
keeps its last ``_RING`` + 1 ``loglik`` passes of finite tilt log A_M -
log A_1 (every mass > 0), each as its record (below) and result, most
recent first; not ``loglik_grad``'s, as ``mle_fit`` never bounds.
``loglik_bound`` bounds against the one whose tilt is closest to that of
the masses at c': the most recent on a tie and when the tilt at c' is NaN.
Two tilts differ by log r_M - log r_1, so equal tilts give equal end
ratios.  At degree 1, r_m = (c'_0 + c'_1 u_m) / (c_0 + c_1 u_m) with
u_m = B_(m,1) / B_(m,0) increasing in m, so equal end ratios make every
ratio equal and the bound exact; at higher degrees the tilt matches the
ends only.  One float per reference is compared, far cheaper than a bound
against each: the least of those bounds rejects a few more proposals but
costs more than the passes it saves.

The last rows also give the likelihood along the ray {s c, s >= 0} without
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
mean of k under pi_u(k) ~ f_M(k) e^(k u).  When the slope at s = 0,
f_M(1) / f_M(0) - L c, is <= 0 the best point is the end s = 0 (u = -inf),
where only f_M(0) and D_p f_M(1) remain.  ``mle_fit`` moves each point it
evaluates to that best point.

What one coefficient vector gives is one record (``_Masses``), keyed by its
shape and bytes: int lambda; the masses' logs, read-only, exactly when the
vector lies in the support (``in_support``); and the tilt log A_M - log A_1,
NaN unless every mass is > 0.  Every mass > 0 makes f_M(M) = prod_m w A_m
> 0, so a pass with a finite tilt is possible.  The support is a property
of gamma alone, the rule ``PolyIntensity.validate_nonneg`` applies: the sum
of |c| below the support's limit on [0, T] (``intensity``'s module
docstring), then gamma at the check times (``V @ c``) passing
``grid_nonneg``.  It reads no event and no w.  Past the limit no product is
formed; below it gamma at the check times, int lambda and every mass are
finite.  Outside the support the record holds no masses (int lambda NaN);
in it the masses and int lambda are computed, and one below 0 reads as 0.
For a gamma in the support such a value comes only from rounding (B~_m c
cancels at an event on a zero of gamma) or from a dip between the check
times, which the grid's tolerance admits anyway.  The tilt is finite where
the masses' min is > 0; the log of a mass of 0 is -inf, so ``np.errstate``
is entered only where that min is not > 0.  ``loglik``, ``loglik_grad``
and ``loglik_bound`` raise ``ValidationError`` exactly where the record
holds no logs, so every value they give is a likelihood of the model.  A
``MarginalLikelihood`` keeps the record of the last coefficients given, so
a proposal takes its masses, verdict and tilt once for its support check,
bound and pass; a kept reference holds its pass's record, where
``loglik_bound`` reads its log masses and tilt, so a ``MarginalResult``
holds none.  The record saves work only: every value is the one a fresh
``MarginalLikelihood`` gives, bit for bit.

Both passes run the recursion in blocks of steps, each in linear space
against a gauge of its own, over the rows b..r that hold weight at its
first step lo.  The gauge after j steps is G_j(k) = P(k) + j log s(k),
s(k) = beta0 + w k: P(k) is log f_lo(k) up to row r and, for a row r + i
the block newly reaches, the weight of the path that moves from row r at
the block's first i steps and then stays, less its stays.  Each gauge value
is the weight of one lattice path, so every reachable y = f / e^G is >= 1
and nothing underflows.  A stay multiplies f(k) and e^G(k) alike, so a
value step is y[1:] += F_j y[:-1], two whole-row calls, with F_j(k) = w A_j
e^(G_(j-1)(k - 1) - G_j(k)) read from one (steps x rows) table per block.
The sensitivity columns are kept in f's gauge too, each divided by a bound
on how far it can outgrow y in the block, so their source is the ratio
B~_(m,p) / B~_m c times y, and a step is one small matrix product (which
adds that source) and two calls.  At the block's end the rows go back to
log space, log f = G + log y.  Both passes take the same blocks and the
same arithmetic for f, so their values agree bit for bit.

A step grows every y by a factor of at most 1 + max_k F_j(k).  So a block
ends before the sum of log(1 + max_k F_j(k)) over its steps would pass
_RANGE nats (each step's term bounded from the rows at lo and the masses,
``_block``), or before its table would pass _CELLS factors.  Where the
masses spread far, a new mass can outweigh the top rows by more than that:
a block certifies no step, and from there on each block starts with the
window.  With k* the row of the largest log f_m, it drops to -inf the rows
k < k* with log f_m(k) < log f_m(k*) - tau and the rows k > k* with
log f_m(k) + (M - m) log(s(k) / s(k*)) < log f_m(k*) - tau.  This is safe:
p = sum_k f_m(k) G_m(k), G_m(k) the weight of the paths from row k at step
m on, and shifting a path up keeps its moves' factors and raises each
stay's by at most s(k) / s(k*), so G_m(k) <= G_m(k*) below k* and <= (s(k)
/ s(k*))^(M - m) G_m(k*) above.  A dropped cell loses at most e^-tau of p,
and at tau >= _LOST + 2 log(M + 1) (``_window_nats``) all M (M + 1) cells
at most e^-_LOST.  A path's sensitivity to c_p is at most M rho_p times
its weight, rho_p = max_m B~_(m,p) / B~_m c, so tau adds log(M rho_p / L_p)
where > 0, and a gradient component is off by at most 3 e^-_LOST of the
larger of its size and L_p.  The last row lacks the dropped rows, which
other coefficients can lift: ``loglik_bound`` allows for them and ``ray``
gives None, which is why the window waits for a block that certifies no
step.  A step no block takes runs in log space (``_log_step``): the first
at beta0 = 0 (row 0 has no stay factor), every step of a pass with a mass
of 0, and one whose own term passes _RANGE.  Blocks run only where the
tilt is finite: in the support a mass is 0 only where gamma = 0, where it
underflows (at the earliest events), or where rounding (at an event on a
zero of gamma) or a dip between the check times takes it to 0 or below
(read as 0), so a pass rarely gives up its blocks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .intensity import check_degree, grid_nonneg, kernel_moments, lambda_moments, nonneg_matrix, support_limit
from .paths import CountPath, ModelParams, check_rates

# Factors in one block's table (steps x rows) at most: a block spans at most
# _CELLS // (M + 1) steps.  At M = 1000 and 3000, passes with 2^16 ran
# within 10 % of those with 2^17 and 2^18, and 2^15 took 15-100 % longer;
# 2^16 keeps a value pass's table at 512 kB.
_CELLS = 2**16
# A block's certified growth, in nats, at most: every weight and scaled
# sensitivity it holds stays below e^_RANGE < DBL_MAX ~ e^709.8.
_RANGE = 700.0
# The window's certificate: the rows it drops hold at most e^-_LOST of the
# likelihood (module docstring).
_LOST = 40.0
# ``MarginalLikelihood._ray_max``: Newton steps at most, and the change in u
# that ends the search.
_RAY_ITERS = 64
_RAY_UTOL = 1e-12
# A MarginalLikelihood keeps _RING + 1 bound references, (_RING + 1)(2M + 1)
# floats.  On the 128 M = 80 degree-1 chains of ``inference``'s module
# docstring, 8, 16, 32 and 64 left 64, 59, 56 and 55 main-run passes each.
_RING = 32


@dataclass(frozen=True)
class MarginalResult:
    """loglik = polynomial_term_log + exponent_term.

    ``log_k`` is log pi(k), the posterior of the number of latent points the
    events attach to, for k = 0..M (the DP's last row less
    polynomial_term_log), read-only; None at the -inf sentinel or not computed.
    The states the window dropped read -inf (module docstring).
    ``log_dk`` is log D_p f_M(k) less polynomial_term_log, the last
    sensitivity row, shape (M + 1, degree + 1), which ``ray`` reads; set by
    ``loglik_grad`` only, and None at the -inf sentinel.  The masses the
    pass used stay in the likelihood's record (module docstring).
    """

    loglik: float
    polynomial_term_log: float
    exponent_term: float
    log_k: np.ndarray | None = field(default=None, compare=False, repr=False)
    log_dk: np.ndarray | None = field(default=None, compare=False, repr=False)


def _window_nats(M: int) -> float:
    """tau, the window's cut in nats below its top row at M events (module docstring)."""
    return _LOST + 2.0 * math.log(M + 1)


def _logsumexp(v: np.ndarray) -> float:
    top = float(v.max())
    return top + math.log(float(np.exp(v - top).sum())) if top > -math.inf else top


@dataclass(eq=False, slots=True)
class _Masses:
    """The record of one coefficient vector (module docstring)."""

    key: tuple  # the coefficients' shape and bytes
    lam: float  # int lambda, 0 where it falls below 0; NaN outside the support
    log: np.ndarray | None  # log A_m e^{w (T - t_m)}, read-only; None outside the support
    tilt: float  # log A_M - log A_1 (0 at M = 0); NaN unless every mass is > 0


class MarginalLikelihood:
    """The marginal likelihood of one path as a function of gamma's coefficients.

    beta0, w and the polynomial degree are fixed at construction, which
    computes everything that does not depend on the coefficients: the
    moment tables and ``V`` (``nonneg_matrix``), whose product with the
    coefficients gives gamma at the times nonnegativity is checked.
    ``in_support`` is the support check of the fitters, and the one domain
    of ``loglik``, ``loglik_grad`` and ``loglik_bound``: each raises
    ``ValidationError`` exactly where it is False, so a gamma that dips
    below zero at a check time gets no value even where its kernel masses
    and lambda integral are positive, and a gamma that passes the check
    gets one even where rounding makes a mass negative.  The support is
    gamma's alone: no event and no w enters it.  A horizon where the
    support's limit (``intensity.support_limit``) is 0 (no gamma in the
    support) raises before any table.
    """

    def __init__(self, x: CountPath, beta0: float, w: float, degree: int) -> None:
        beta0, w = check_rates(beta0, w)
        check_degree(degree)
        self._support_coeff_limit = support_limit(x.T, degree)
        if self._support_coeff_limit == 0.0:
            raise ValidationError(f"horizon T = {x.T!r} is too long for degree {degree}: T^{degree + 1} overflows")
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
            self._log_moments = np.log(self._B)
            self._log_L = np.log(self._L)
        # dls[k - 1] = log s(k - 1) - log s(k), s(k) = beta0 + w k (-inf at
        # k = 1 when beta0 = 0); steps per block at most; and, in a block's
        # table past its top row, -_RANGE where a step has not reached the row yet.
        self._dls = self._log_stay[:-1] - self._log_stay[1:]
        self._span = max(1, _CELLS // (x.count + 1))
        size = min(self._span, x.count)
        self._unreached = np.where(np.triu(np.ones((size, size), dtype=bool), 1), -_RANGE, math.inf)
        # The _Masses of the last coefficients given, and the bound's references (module docstring).
        self._kept: _Masses | None = None
        self._refs: deque[tuple[_Masses, MarginalResult]] = deque(maxlen=_RING + 1)

    def loglik(self, coeffs) -> MarginalResult:
        """Log marginal likelihood at gamma(t) = sum_p coeffs[p] t^p.

        Raises ``ValidationError`` exactly where ``in_support`` is False.  A
        path no latent configuration can produce yields the -inf sentinel.
        A pass of finite tilt (every mass > 0) is kept for ``loglik_bound``.
        """
        rec = self._admissible(coeffs)
        res = self._run(rec, grad=False)
        if math.isfinite(rec.tilt):
            self._refs.appendleft((rec, res))
        return res

    def loglik_grad(self, coeffs) -> tuple[MarginalResult, np.ndarray]:
        """``loglik`` (the same value, bit for bit) and d loglik / d coeffs.

        One forward pass carries the degree + 1 sensitivity columns next to
        the likelihood's own.  At the -inf sentinel a component is +inf when
        raising that coefficient makes the path possible, and -L_p otherwise.
        """
        return self._run(self._admissible(coeffs), grad=True)

    def in_support(self, coeffs) -> bool:
        """Whether gamma = sum_p coeffs[p] t^p lies in the model's support: the
        sum of |coeffs| is below ``intensity.support_limit`` and gamma passes
        ``grid_nonneg`` at the check times (``V @ coeffs``), the rule of
        ``PolyIntensity.validate_nonneg``; it reads no event and no w.
        ``loglik``, ``loglik_grad`` and ``loglik_bound`` raise exactly where
        it does not hold.  The verdict is whether the kept record (module
        docstring) holds the masses' logs; it also holds their tilt, so
        another ``in_support``, ``loglik_bound``, ``loglik`` or
        ``loglik_grad`` at the same coefficients (the same bytes) computes
        none of them again."""
        return self._record(coeffs).log is not None

    def loglik_bound(self, coeffs) -> float:
        """An upper bound on ``loglik(coeffs).loglik`` from a kept pass, in
        O(M log M + ``_RING``) and without a pass; like ``loglik``, it raises
        ``ValidationError`` exactly where ``in_support`` is False.

        The reference is the kept pass whose record's tilt is closest to
        the tilt log A'_M - log A'_1 of the masses at coeffs (module
        docstring): the most recent on a tie, and the most recent when
        coeffs' tilt is NaN.  Only ``loglik`` passes of finite tilt are
        kept, so the bound is +inf, and rejects nothing, until such a pass
        exists.  With the reference's result ref,

            log p(coeffs) <= ref.polynomial_term_log + log sum_k pi(k)
                             prod_(j<=k) r_(j) - beta0 T - L coeffs,

        where r_(1) >= r_(2) >= ... are the mass ratios A'_m / A_m in
        decreasing order and pi = exp(ref.log_k); equality holds when every
        ratio is the same, unless the window dropped rows of ref, for which
        e^-_LOST max_k prod_(j<=k) r_(j) is added to the sum.  The masses at
        coeffs and their tilt come from the kept record, those of the
        reference from its own record.
        """
        rec = self._admissible(coeffs)
        # The first (most recent) of least |tilt gap|, and of all at a NaN tilt; faster than min(key=).
        best, gap, tilt = None, math.inf, rec.tilt
        for r in self._refs:
            if (g := abs(r[0].tilt - tilt)) < gap or best is None:
                best, gap = r, g
        if best is None:
            return math.inf
        ref_rec, ref = best
        # Every mass of ref is positive; a mass of 0 at coeffs gives -inf.
        log_ratio = rec.log - ref_rec.log
        log_ratio.sort()
        # gain[k - 1] = sum of the k largest log ratios; -inf (a mass of 0 at coeffs) comes last.
        gain = log_ratio[::-1].cumsum()
        log_sum = float(np.logaddexp.reduce(ref.log_k[1:] + gain, initial=ref.log_k[0]))
        if self._dropped(ref.log_k):  # they held at most e^-_LOST of ref
            log_sum = float(np.logaddexp(log_sum, gain.max(initial=0.0) - _LOST))
        return ref.polynomial_term_log + log_sum + (-self.beta0 * self.x.T - rec.lam)

    def ray(self, coeffs, res: MarginalResult, u: float | None = None) -> tuple[float, float, np.ndarray] | None:
        """(u, loglik, gradient) at e^u coeffs from ``res``, the
        ``loglik_grad`` result at coeffs, in O(M (degree + 1)) and without a
        pass (module docstring).

        With u None, u is the maximizer of the log-likelihood along the
        closed ray {s coeffs, s >= 0}: the root of E_u[k] = e^u L coeffs,
        the mean of k under pi_u(k) ~ f_M(k) e^(k u), found by Newton's
        method in u within a bracket that every step narrows (bisection when
        a Newton step leaves it), or -inf, the end s = 0, where the
        log-likelihood falls from s = 0 on (at M = 0 among them).  It is
        concave in s, so the maximizer is unique.  None where L coeffs <= 0,
        at the -inf sentinel (``res.log_dk`` None), where the window dropped
        rows of the pass (module docstring), and where L coeffs is so
        small (below M e^-709) that the maximizer could leave the double
        range.  At u = 0 the loglik is ``res.loglik`` itself; at u = -inf
        only f_M(0) and D_p f_M(1) remain (module docstring).
        """
        c = np.asarray(coeffs, dtype=float)
        if res.log_dk is None or math.isfinite(self._record(c).tilt) and self._dropped(res.log_k):
            return None
        lc = float(self._L @ c)
        if u is None:
            u = self._ray_max(res.log_k, lc)
            if u is None:
                return None
        if u == -math.inf:  # s = 0: no 0 * (-inf) from k u at k = 0
            loglik = res.loglik + (float(res.log_k[0]) - _logsumexp(res.log_k)) + lc
            ratio = np.exp(res.log_dk[1] - res.log_k[0]) if res.log_k.size > 1 else 0.0
            return u, loglik, ratio - self._L
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
        L c: -inf at the end s = 0, None when the ray has no maximum."""
        if not lc > 0.0:
            return None
        M = log_k.size - 1
        # E_u[k] lies in [k_min, M], so the root lies in [log(k_min / Lc), log(M / Lc)].
        k_min = int(np.argmax(log_k > -math.inf))
        if k_min == 0 and (M == 0 or not log_k[1] - log_k[0] > math.log(lc)):
            return -math.inf  # d loglik / ds = f_M(1) / f_M(0) - L c <= 0 at s = 0
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

    def _dropped(self, log_k: np.ndarray) -> bool:
        """Whether the window dropped rows of a pass of finite tilt: its last
        row's top or lowest row (row 1 at beta0 = 0) reads -inf."""
        return log_k[-1] == -math.inf or log_k[1 if self.beta0 == 0.0 and log_k.size > 1 else 0] == -math.inf

    def _masses(self, coeffs) -> _Masses:
        """A new record of coeffs (module docstring), not kept."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.degree + 1,):
            raise ValidationError(f"expected coefficients of shape ({self.degree + 1},), got shape {c.shape}")
        key = (c.shape, c.tobytes())
        # The limit first (NaN and inf too): below it gamma at the check times is finite.
        if not (sum(map(abs, c.tolist())) < self._support_coeff_limit and grid_nonneg(self.V @ c)):
            return _Masses(key, math.nan, None, math.nan)
        scaled, lam = self._B @ c, max(0.0, float(self._L @ c))  # finite below the limit
        if scaled.min(initial=math.inf) > 0.0:  # every mass > 0 (or none, at M = 0)
            log = np.log(scaled)
            tilt = float(log[-1]) - float(log[0]) if log.size else 0.0
        else:  # a mass of 0, whose log is -inf; one below 0 reads as 0 (module docstring)
            with np.errstate(divide="ignore"):
                log = np.log(np.maximum(scaled, 0.0, out=scaled))
            tilt = math.nan
        # The kept record and the bound's references share it, so none may write to it.
        log.flags.writeable = False
        return _Masses(key, lam, log, tilt)

    def _record(self, coeffs) -> _Masses:
        """The kept record when its bytes are coeffs', else a new one, kept instead."""
        c = np.asarray(coeffs, dtype=float)
        if self._kept is None or self._kept.key != (c.shape, c.tobytes()):
            self._kept = self._masses(c)
        return self._kept

    def _admissible(self, coeffs) -> _Masses:
        """``_record``, raising ``ValidationError`` outside the support."""
        rec = self._record(coeffs)
        if rec.log is None:
            raise ValidationError(
                "gamma lies outside the support: it dips below zero at a check time on [0, T], "
                "or its coefficients are not finite or too large"
            )
        return rec

    def _block(
        self, rows: np.ndarray, la: np.ndarray, log_mass: np.ndarray, lo: int, span: int, b: int, r: int, grad: bool
    ) -> int:
        """Run the longest certified block of at most span steps from step lo
        in linear space over rows b..r, which hold the weight at lo, and
        return its length: 0, running nothing, where the bound of its first
        step alone is past _RANGE (module docstring).  Row b's stay factor
        and the block's masses are > 0."""
        ls = self._log_stay
        f = rows[:, 0] if grad else rows
        top = r - b  # row r's place among rows b..
        lf = f[b : r + 1]
        lab = la[lo : lo + span]
        # The certificate: y_j <= prod_(i<=j) (1 + max_k F_i(k)), so a block
        # of n steps keeps every weight below e^_RANGE where the sum of
        # log(1 + max_k F_j(k)) over its steps is at most _RANGE.  With
        # log F_j(k) = log w A_j + log f_lo(k - 1) - log f_lo(k) - log s(k)
        # + (j - 1) dls(k) up to row r, and log w A_j - log w A_i +
        # (j - i) dls(k) at row k = r + i <= r + j, and every dls <= 0,
        # the largest log factor of step j is at most bound_j.
        down = float((lf[:-1] - lf[1:] - ls[b + 1 : r + 1]).max()) if r > b else -math.inf
        bound = lab - np.minimum(np.minimum.accumulate(lab), -down)
        n = int(np.logaddexp(0.0, bound).cumsum().searchsorted(_RANGE, side="right"))
        if not n:
            return 0
        hi = r + n
        lab = lab[:n]
        # The gauge G_j(k) = P(k) + j log s(k), rows k = b..hi: P(k) is log
        # f_lo(k) up to row r, and past it the weight of the path that moves
        # from row r to row k and then stays, less its stays.
        P = np.empty(hi - b + 1)
        P[: top + 1] = lf
        past = P[top + 1 :]
        np.add.accumulate(lab, out=past)
        past -= self._ks[1 : n + 1] * ls[r + 1 : hi + 1]
        past += P[top]
        # log F_j(k) = log w A_j + G_(j-1)(k - 1) - G_j(k) = j dls(k) + log w A_j
        # + c(k), c(k) = P(k - 1) - P(k) - log s(k - 1): one (n x 3) @ (3 x
        # targets) product for the targets k = b + 1..hi.
        by_step = np.empty((n, 3))
        by_step[:, 0] = self._ks[1 : n + 1]
        by_step[:, 1] = lab
        by_step[:, 2] = 1.0
        by_row = np.empty((3, hi - b))
        by_row[0] = self._dls[b:hi]
        by_row[1] = 1.0
        np.subtract(P[:-1], P[1:], out=by_row[2])
        by_row[2] -= ls[b:hi]
        log_F = by_step @ by_row
        # A target row past r + j is not reached by step j: its factor only
        # multiplies 0, so any finite one will do, and e^-_RANGE is neither
        # large nor 0 (an exp of -inf or of an underflow runs slowly).
        new = log_F[:, top:]
        np.minimum(new, self._unreached[:n, :n], out=new)
        F = np.exp(log_F, out=log_F)
        # The gauge at the block's end, rows b..hi.
        G = ls[b : hi + 1] * n
        G += P
        multiply, add = np.multiply, np.add
        if not grad:
            y = np.zeros(hi - b + 1)
            y[: top + 1] = 1.0
            tmp = np.empty(hi - b)
            src, dst = y[:-1], y[1:]
            for F_j in F:
                multiply(F_j, src, tmp)
                add(dst, tmp, dst)
            np.log(y, out=y)
            add(G, y, f[b : hi + 1])
            return n
        # Sensitivities in f's gauge, z = D f / e^G, each column divided by
        # sigma_p = Z_p + n rho_p, with Z_p its largest z at lo and rho_p the
        # block's largest ratio B~_(m,p) / B~_m c: after j steps z_p <=
        # (Z_p + j rho_p) max y, so z_p / sigma_p stays within y's bound.
        rel = rows[b : r + 1, 1:] - P[: top + 1, None]
        log_ratio = self._log_moments[lo : lo + n] - log_mass[lo : lo + n, None]
        log_sigma = np.logaddexp(rel.max(axis=0), log_ratio.max(axis=0) + math.log(n))
        np.maximum(log_sigma, -_RANGE, out=log_sigma)
        Y = np.zeros((hi - b + 1, self.degree + 2))
        Y[: top + 1, 0] = 1.0
        np.exp(rel - log_sigma, out=Y[: top + 1, 1:])
        # mix_j is the identity with row 0 [1, r_j / sigma]: Y @ mix_j holds y
        # and z_p + r_(j,p) y / sigma_p, one small product per step.
        mix = np.repeat(np.eye(self.degree + 2)[None], n, axis=0)
        np.exp(log_ratio - log_sigma, out=mix[:, 0, 1:])
        # F_j(k) in every column, so that no call of the loop broadcasts.
        F_wide = np.repeat(F[:, :, None], self.degree + 2, axis=2)
        tmp = np.empty((hi - b, self.degree + 2))
        src, dst, dot = Y[:-1], Y[1:], np.dot
        for F_j, mix_j in zip(F_wide, mix):
            dot(src, mix_j, tmp)
            multiply(tmp, F_j, tmp)
            add(dst, tmp, dst)
        with np.errstate(divide="ignore"):  # a sensitivity of 0
            np.log(Y, out=Y)
        Y[:, 1:] += log_sigma
        add(Y, G[:, None], rows[b : hi + 1])
        return n

    def _window(self, rows: np.ndarray, f: np.ndarray, b: int, top: int, left: int, nats: float) -> tuple[int, int]:
        """The window (b, top) at a step with left steps to go and a cut of
        nats, from the rows b..top that hold weight (module docstring)."""
        lf = f[b : top + 1]
        i = int(lf.argmax())
        cut, ls = lf.item(i) - nats, self._log_stay[b + i : top + 1]
        # The first row kept below k* = b + i, and the last above it; the rows dropped read -inf.
        new_b = b + int(np.argmax(lf[: i + 1] > cut))
        new_top = top - int(np.argmax((lf[i:] + left * (ls - ls.item(0)) > cut)[::-1]))
        rows[b:new_b] = rows[new_top + 1 : top + 1] = -math.inf
        return new_b, new_top

    def _log_step(self, rows: np.ndarray, la: np.ndarray, m: int, b: int, top: int, grad: bool) -> None:
        """Step m in log space over rows b..top, which hold the weight at m."""
        row, shifted = rows[b : top + 1], rows[b + 1 : top + 2]
        grown = row + la.item(m)
        if grad:  # the source w B_(m,p) f_m(k - 1) of each sensitivity, log 0 in f's own column
            source = np.append(-math.inf, self._log_kernel.item(m) + self._log_moments[m])
            np.logaddexp(grown, row[:, :1] + source, grown)
        row += self._log_stay[b : top + 1, None] if grad else self._log_stay[b : top + 1]
        np.logaddexp(shifted, grown, shifted)

    def _run(self, rec: _Masses, grad: bool):
        la = self._log_kernel + rec.log  # log w A_m
        M = la.size
        # Row k of rows holds log f_m(k) alone, or log f_m(k) in column 0
        # followed by the sensitivities log D_p f_m(k), at the last step run.
        if grad:
            rows = np.full((M + 1, self.degree + 2), -math.inf)
            f = rows[:, 0]
        else:
            rows = f = np.full(M + 1, -math.inf)
        f[0] = 0.0
        # One loop for both passes; rows b..top hold the weight at step m.  A
        # block needs row b's stay factor and every mass to be > 0 (a finite tilt).
        blocks = math.isfinite(rec.tilt)
        b = top = m = 0
        narrow, nats = False, math.inf
        while m < M:
            n = 0
            if blocks:
                b += f.item(b) == -math.inf  # row 0 at beta0 = 0 holds no weight from step 1 on
                if narrow:
                    b, top = self._window(rows, f, b, top, M - m, nats)
                if self._log_stay.item(b) > -math.inf:
                    n = self._block(rows, la, rec.log, m, min(M - m, self._span), b, top, grad)
                if not n and m and not narrow:
                    # From here on every block starts with the window, cut at tau plus
                    # log(M rho_p / L_p) where > 0.
                    log_rho = (self._log_moments - rec.log[:, None]).max(axis=0) - self._log_L
                    narrow, nats = True, _window_nats(M) + max(0.0, float(log_rho.max()) + math.log(M))
                    continue
            if not n:
                self._log_step(rows, la, m, b, top, grad)
                n = 1
            m += n
            top += n
        poly_log = _logsumexp(f)
        exponent = -self.beta0 * self.x.T - rec.lam
        possible = poly_log > -math.inf
        log_k = f - poly_log if possible else None
        if possible:  # read-only: the result may be kept as a bound reference, which callers share
            log_k.flags.writeable = False
        result = MarginalResult(
            loglik=poly_log + exponent,
            polynomial_term_log=poly_log,
            exponent_term=exponent,
            log_k=log_k,
            log_dk=rows[:, 1:] - poly_log if grad and possible else None,
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
    gamma = params.gamma
    return MarginalLikelihood(x, params.beta0, params.w, gamma.degree).loglik(gamma.coeffs)
