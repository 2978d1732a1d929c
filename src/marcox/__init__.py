"""Marginalized Cox process toolkit.

A counting process whose conditional rate is beta0 + w Y(t), with Y itself a
non-homogeneous Poisson process, admits a closed-form marginal likelihood
once Y is integrated out.  The likelihood needs gamma only through the
kernel masses A_m = int_0^{t_m} e^{-w (T - t)} gamma(t) dt at the events and
int_0^T (1 - e^{-w (T - t)}) gamma(t) dt, both linear in gamma's
coefficients and in closed form (``intensity.kernel_moments`` and
``intensity.lambda_moments``).  This package provides exact simulation of
the pair (X, Y), the closed-form likelihood via an O(M^2) recursion over
the events, run in certified linear-space blocks (``MarginalLikelihood``,
bound to one path), independent validation oracles, and posterior /
maximum-likelihood fitting of the latent polynomial rate.
"""

__version__ = "0.1.0"

from .errors import ValidationError
from .inference import Chain, ChainSummary, FitConfig, MleResult, mh_fit, mle_fit, summarize
from .intensity import PolyIntensity
from .marginal import MarginalLikelihood, MarginalResult, marginal_loglik
from .oracles import McSpec, grid_check, grid_marginal, mc_check, mc_marginal
from .paths import CountPath, ModelParams, adapt_path, load_path, tune_w
from .simulator import LatentPath, SimResult, conditional_loglik, simulate, simulate_latent

__all__ = [
    "Chain",
    "ChainSummary",
    "CountPath",
    "FitConfig",
    "LatentPath",
    "MarginalLikelihood",
    "MarginalResult",
    "McSpec",
    "MleResult",
    "ModelParams",
    "PolyIntensity",
    "SimResult",
    "ValidationError",
    "adapt_path",
    "conditional_loglik",
    "grid_check",
    "grid_marginal",
    "load_path",
    "marginal_loglik",
    "mc_check",
    "mc_marginal",
    "mh_fit",
    "mle_fit",
    "simulate",
    "simulate_latent",
    "summarize",
    "tune_w",
]
