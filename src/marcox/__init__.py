"""Marginalized Cox process toolkit.

A counting process whose conditional rate is beta0 + w Y(t), with Y itself a
non-homogeneous Poisson process, admits a closed-form marginal likelihood
once Y is integrated out.  This package provides exact simulation of the
pair (X, Y), the closed-form likelihood via an O(M^2) log-space recursion
over the events (``MarginalLikelihood``, bound to one path), independent
validation oracles, and posterior / maximum-likelihood fitting of the latent
polynomial rate.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, ValidationError
from .inference import Chain, ChainSummary, FitConfig, MleResult, mh_fit, mle_fit, summarize
from .intensity import PolyIntensity, alpha_integral, lambda_integral
from .marginal import MarginalLikelihood, MarginalResult, batch_loglik, marginal_loglik
from .oracles import GridSpec, McSpec, grid_check, grid_marginal, mc_check, mc_marginal
from .paths import CountPath, ModelParams, adapt_path, load_path, tune_w
from .simulator import LatentPath, SimResult, conditional_loglik, simulate, simulate_latent

__all__ = [
    "Chain",
    "ChainSummary",
    "ConvergenceError",
    "CountPath",
    "FitConfig",
    "GridSpec",
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
    "alpha_integral",
    "batch_loglik",
    "conditional_loglik",
    "grid_check",
    "grid_marginal",
    "lambda_integral",
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
