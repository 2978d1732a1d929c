"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; a test keeps the two in step.
Layer metrics that count or time work are per round of the traced phase.
"""

from __future__ import annotations

import re

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen.  Every workload reports every one of them.
# Times get the largest bound allowed: even calibrated, their spread across
# seeds on a shared 2-vCPU host reaches 0.1-0.15 (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_MODULES = ("cli", "inference", "marginal", "intensity", "paths")

PER_LAYER = (
    ("intensity.alpha_integral.calls", "count", "lower"),
    ("intensity.alpha_integral.self_s", "s", "lower"),
    ("intensity.lambda_integral.self_s", "s", "lower"),
    ("intensity.is_nonneg.calls", "count", "lower"),
    ("intensity.is_nonneg.self_s", "s", "lower"),
    ("marginal.compute_coefficients.self_s", "s", "lower"),
    ("marginal.rows_per_s", "1/s", "higher"),
    ("marginal.marginal_loglik.self_s", "s", "lower"),
    ("marginal.max_err_nats", "nats", "lower"),
    ("inference.mh_fit.self_s", "s", "lower"),
    ("inference.overhead_us_per_proposal", "us", "lower"),
    ("inference.accept_rate", "ratio", "higher"),
    ("inference.support_reject_ratio", "ratio", "lower"),
    ("inference.ess", "draws", "higher"),
    ("inference.ess_per_s", "1/s", "higher"),
    ("inference.ess_per_s_spread", "ratio", "lower"),
    ("inference.mle_fit.nfev", "count", "lower"),
    ("inference.mle_fit.self_s", "s", "lower"),
    ("paths.read_events_csv.self_s", "s", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in _MODULES),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Layers only the held-out workloads (``workloads.HELD_OUT``) reach; their
# traced runs print these after ``PER_LAYER``.
HELD_OUT_LAYER = (
    ("intensity.cum_inverse.calls", "count", "lower"),
    ("intensity.cum_inverse.self_s", "s", "lower"),
    ("simulator.simulate.self_s", "s", "lower"),
    ("simulator.events_per_s", "1/s", "higher"),
    ("oracles.grid_marginal.self_s", "s", "lower"),
    ("oracles.mc_marginal.self_s", "s", "lower"),
    ("oracles.mc_replicas_per_s", "1/s", "higher"),
    ("oracles.validate_pass_ratio", "ratio", "higher"),
    ("simulator.self_s", "s", "lower"),
    ("oracles.self_s", "s", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + HELD_OUT_LAYER}
