"""Correctness checks for every operation the benchmark runs.

An operation fails when it exits nonzero or raises, when its output cannot
be read or holds a non-finite number, when a log-likelihood it reports is
more than ``TOL_NATS`` from the reference, or when a ``simulate`` output does
not read back through ``marcox.paths.read_events_csv`` to the times the
library ``simulate`` returns for that seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import reference
from workloads import Op, PathInput

TOL_NATS = 1e-6
# Distinct chain states whose reported loglik is checked per fit-mcmc output.
CHAIN_CHECKS = 8


@dataclass
class Outcome:
    """What one CLI call did: exit code or exception, stdout, duration."""

    op: Op
    rc: int | None
    error: str | None
    stdout: str
    seconds: float
    cal_index: int = -1  # calibration sample taken just before the call
    speed: float = 1.0  # relative machine speed around the call (calibration.py)


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    err_nats: float | None = None
    info: dict = field(default_factory=dict)


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in vals)


class Checker:
    """Checks outcomes; caches reference log-likelihoods per (path, coeffs)."""

    def __init__(self) -> None:
        self._refs: dict[tuple, float] = {}

    def ref(self, p: PathInput, coeffs) -> float:
        key = (p.name, tuple(float(c) for c in coeffs))
        if key not in self._refs:
            reg = p.regime
            self._refs[key] = reference.loglik(key[1], reg.beta0, reg.w, p.T, p.times)
        return self._refs[key]

    def check(self, out: Outcome) -> Verdict:
        if out.error is not None:
            return Verdict(False, f"raised {out.error}")
        if out.rc != 0:
            return Verdict(False, f"exit {out.rc}")
        try:
            return getattr(self, "_" + out.op.kind.replace("-", "_"))(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")

    def _loglik_verdict(self, ll, p: PathInput, coeffs, info: dict | None = None) -> Verdict:
        if not _finite(ll):
            return Verdict(False, "non-finite loglik", info=info or {})
        err = abs(ll - self.ref(p, coeffs))
        ok = err <= TOL_NATS
        return Verdict(ok, "" if ok else f"loglik off by {err:.3g} nats", err, info or {})

    def _simulate(self, out: Outcome) -> Verdict:
        from marcox import ModelParams, PolyIntensity, simulate
        from marcox.paths import read_events_csv

        reg, T, seed = out.op.sim
        times = read_events_csv(out.op.out)
        params = ModelParams(reg.beta0, reg.w, PolyIntensity(reg.coeffs))
        expected = simulate(params, T, seed=seed).x.jumps
        info = {"events": len(times)}
        if not np.array_equal(np.asarray(times, dtype=float), expected):
            return Verdict(False, "simulate output differs from library simulate", info=info)
        return Verdict(True, info=info)

    def _loglik(self, out: Outcome) -> Verdict:
        rep = json.loads(out.stdout)
        p = out.op.path
        if rep["M"] != p.times.size:
            return Verdict(False, f"M = {rep['M']}, expected {p.times.size}")
        return self._loglik_verdict(rep["loglik"], p, p.regime.coeffs)

    def _validate(self, out: Outcome) -> Verdict:
        rep = json.loads(out.stdout)
        info = {"pass": bool(rep["overall_pass"]), "mc_n": rep["mc"]["n"]}
        if not _finite(rep["p_exact"], rep["grid"]["value"], rep["mc"]["estimate"], rep["mc"]["se"]):
            return Verdict(False, "non-finite validate report", info=info)
        return self._loglik_verdict(rep["loglik"], out.op.path, out.op.path.regime.coeffs, info)

    def _fit_mle(self, out: Outcome) -> Verdict:
        rep = json.loads(out.stdout)
        p = out.op.path
        coeffs = rep["coeffs"]
        if len(coeffs) != len(p.regime.coeffs) or not _finite(*coeffs):
            return Verdict(False, "bad MLE coefficients")
        v = self._loglik_verdict(rep["loglik"], p, coeffs)
        # The optimizer starts at the simulating coefficients; its best point
        # cannot score worse than its start.
        if v.ok and rep["loglik"] < self.ref(p, p.regime.coeffs) - TOL_NATS:
            return Verdict(False, "MLE scores below its starting point", v.err_nats)
        return v

    def _fit_mcmc(self, out: Outcome) -> Verdict:
        p = out.op.path
        rows = list(csv.reader(io.StringIO(out.op.out.read_text(encoding="utf-8"))))
        header, body = rows[0], [r for r in rows[1:] if r]
        d = len(p.regime.coeffs)
        if header != ["iter"] + [f"c{i}" for i in range(d)] + ["loglik", "accepted"] or not body:
            return Verdict(False, "not a chain CSV")
        table = np.array([[float(v) for v in r[1 : d + 2]] for r in body])
        if not np.all(np.isfinite(table)):
            return Verdict(False, "non-finite chain entry")
        draws, lls = table[:, :d], table[:, d]
        info = {"ess": min(reference.ess(draws[:, j]) for j in range(d)), "kept": len(body)}
        _, first = np.unique(draws, axis=0, return_index=True)
        picks = np.sort(first)[np.linspace(0, first.size - 1, min(CHAIN_CHECKS, first.size)).astype(int)]
        worst = Verdict(True, err_nats=0.0, info=info)
        for i in picks:
            v = self._loglik_verdict(lls[i], p, draws[i], info)
            if not v.ok:
                return v
            worst.err_nats = max(worst.err_nats, v.err_nats)
        return worst
