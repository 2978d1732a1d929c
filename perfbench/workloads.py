"""Workload inputs and the operations each round of a workload runs.

Inputs are drawn by the benchmark's own simulator from the ``--seed``
argument, so they do not change when the program's simulator changes.  Paths
of the fitting and ``validate`` workloads are conditioned on an exact event
count (redraw until the count matches): the cost of every operation depends
on M, and a fixed M keeps runs with different seeds comparable.

``WORKLOADS`` are the workloads of record (``BENCHMARK.json``): every
operation of theirs gives a correct answer on the current program.
``HELD_OUT`` workloads run and check their operations the same way, but
the program fails some of them today (README.md, "Known defects"), so they
are not part of the record until it is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Regime:
    """Model beta0 + w Y(t) with latent rate gamma(t) = sum_k coeffs[k] t^k."""

    beta0: float
    w: float
    coeffs: tuple[float, ...]
    T: float

    def model_config(self, T: float | None = None) -> dict:
        return {
            "T": self.T if T is None else T,
            "beta0": self.beta0,
            "w": self.w,
            "gamma": {"type": "poly", "coeffs": list(self.coeffs)},
        }


# Degree-1 fitting problem; paths conditioned on M = FIT_M events.
FIT = Regime(1.0, 0.5, (1.0, 0.1), 15.0)
FIT_M = 80
# The two loglik regimes (beta0 > w and beta0 < w); paths cut at event LOGLIK_M.
LOGLIK_A = Regime(1.0, 0.5, (2.0, 0.5), 30.0)
LOGLIK_B = Regime(0.25, 1.0, (1.0, 0.25), 30.0)
LOGLIK_M = 1000
# Long-horizon simulate (about 55k observed events).
SIM_LONG = Regime(1.0, 0.5, (2.0, 0.05), 200.0)
# validate's regime; paths conditioned on M = SMALL_M.
SMALL = Regime(1.0, 0.5, (1.0, 0.2), 10.0)
SMALL_M = 45

# Enough paths that a run puts nearly every op on a path of its own: the cost
# of a fit differs from path to path by up to 40 %.
N_FIT_PATHS = 64
N_SMALL_PATHS = 24

# Chains are short so that a run holds many of them: the cost of one chain
# depends on how many of its proposals the support check rejects cheaply.
FIT_MCMC = {"degree": 1, "pilot_iters": 50, "iters": 250, "burnin": 50}
# Nelder-Mead needs 130-220 evaluations to converge on these paths; a fixed
# budget makes every fit-mle call the same amount of work.
FIT_MLE = {"degree": 1, "budget": 100}
# validate keeps the default grid (16384) and jobs (1) but draws 25000 Monte
# Carlo replicas instead of 100000: a default call takes ~12 s, so a run held
# two of them; mc_marginal is still ~90 % of a 25000-replica call.
VALIDATE_MC_N = 25000
FOCUS = {
    "mcmc": ("fit-mcmc",),
    "mle": ("fit-mle",),
    "loglik": ("loglik",),
    "validate": ("simulate", "validate"),
}
WORKLOADS = ("mcmc", "mle")
HELD_OUT = ("loglik", "validate")


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def seed_for(seed: int, *stream: int) -> int:
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def draw_path(reg: Regime, rng: np.random.Generator, T: float | None = None) -> np.ndarray:
    """Observed event times of one (X, Y) draw on [0, T], ascending.

    Latent points by thinning a homogeneous process whose rate bounds gamma
    on [0, T]; between latent points X is homogeneous with rate beta0 + w y.
    """
    T = reg.T if T is None else T
    bound = sum(abs(c) * T**k for k, c in enumerate(reg.coeffs))
    cand = np.sort(rng.uniform(0.0, T, rng.poisson(bound * T)))
    gam = np.polynomial.polynomial.polyval(cand, reg.coeffs)
    latent = cand[rng.uniform(0.0, bound, cand.size) < gam]
    edges = np.concatenate(([0.0], latent, [T]))
    rates = reg.beta0 + reg.w * np.arange(edges.size - 1)
    counts = rng.poisson(rates * np.diff(edges))
    starts = np.repeat(edges[:-1], counts)
    widths = np.repeat(np.diff(edges), counts)
    return np.sort(starts + widths * rng.uniform(0.0, 1.0, starts.size))


def conditioned_path(reg: Regime, M: int, rng: np.random.Generator) -> np.ndarray:
    """A draw on [0, reg.T] with exactly M events (rejection)."""
    while True:
        x = draw_path(reg, rng)
        if x.size == M:
            return x


def cut_path(reg: Regime, M: int, rng: np.random.Generator) -> np.ndarray:
    """The first M events of a draw on [0, reg.T]; the horizon becomes t_M."""
    while True:
        x = draw_path(reg, rng)
        if x.size >= M:
            return x[:M]


@dataclass(frozen=True)
class PathInput:
    """One event path with the regime and horizon it is scored under."""

    name: str
    regime: Regime
    T: float
    times: np.ndarray
    events: Path
    config: Path


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``alternatives`` are tried in order until one exits 0."""

    kind: str
    argv: tuple[str, ...]
    path: PathInput | None = None
    out: Path | None = None
    sim: tuple[Regime, float, int] | None = None  # (regime, T, seed) of a simulate
    alternatives: tuple["Op", ...] = field(default=())


def write_events(dest: Path, times: np.ndarray) -> None:
    dest.write_text("time\n" + "".join(f"{float(t)!r}\n" for t in times), encoding="utf-8")


def _write_json(dest: Path, obj: dict) -> Path:
    dest.write_text(json.dumps(obj), encoding="utf-8")
    return dest


class Inputs:
    """Everything a run's operations read, written into ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in FOCUS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.dir = workdir
        self.fit: list[PathInput] = []
        self.loglik: list[PathInput] = []
        self.small: list[PathInput] = []
        if workload in ("mcmc", "mle"):
            self.fit = [
                self._path(f"fit{i}", FIT, conditioned_path(FIT, FIT_M, rng_for(seed, 2, i)))
                for i in range(N_FIT_PATHS)
            ]
        if workload == "loglik":
            for i, reg in enumerate((LOGLIK_A, LOGLIK_B)):
                times = cut_path(reg, LOGLIK_M, rng_for(seed, 3, i))
                self.loglik.append(self._path(f"loglik{i}", reg, times, T=float(times[-1])))
        if workload == "validate":
            self.small = [
                self._path(f"small{i}", SMALL, conditioned_path(SMALL, SMALL_M, rng_for(seed, 1, i)))
                for i in range(N_SMALL_PATHS)
            ]
        self.sim_config = _write_json(self.dir / "sim.json", SIM_LONG.model_config())
        self._n_out = 0
        self._small_cursor = 0

    def _path(self, name: str, reg: Regime, times: np.ndarray, T: float | None = None) -> PathInput:
        T = reg.T if T is None else T
        events = self.dir / f"{name}.csv"
        write_events(events, times)
        config = _write_json(self.dir / f"{name}.json", reg.model_config(T))
        return PathInput(name, reg, T, times, events, config)

    def _out(self, stem: str) -> Path:
        self._n_out += 1
        return self.dir / f"out{self._n_out}_{stem}"

    def _fit_config(self, p: PathInput, spec: dict, seed: int) -> Path:
        cfg = dict(p.regime.model_config(p.T), **spec, start=list(p.regime.coeffs), seed=seed)
        return _write_json(self._out("fit.json"), cfg)

    # Operation builders ------------------------------------------------

    def simulate(self, seed: int) -> Op:
        out = self._out("sim.csv")
        argv = ("simulate", "--config", str(self.sim_config), "--seed", str(seed), "--out", str(out))
        return Op("simulate", argv, out=out, sim=(SIM_LONG, SIM_LONG.T, seed))

    def loglik_op(self, p: PathInput) -> Op:
        return Op("loglik", ("loglik", "--events", str(p.events), "--config", str(p.config)), path=p)

    def fit_mcmc(self, p: PathInput, spec: dict, seed: int) -> Op:
        out = self._out("chain.csv")
        cfg = self._fit_config(p, spec, seed)
        argv = ("fit-mcmc", "--events", str(p.events), "--config", str(cfg), "--out", str(out))
        return Op("fit-mcmc", argv, path=p, out=out)

    def fit_mle(self, p: PathInput, spec: dict) -> Op:
        cfg = self._fit_config(p, spec, 0)
        return Op("fit-mle", ("fit-mle", "--events", str(p.events), "--config", str(cfg)), path=p)

    def validate(self, extra: tuple[str, ...]) -> Op:
        """validate on successive small paths until one is accepted."""
        start = self._small_cursor
        self._small_cursor += 1
        alts = []
        for i in range(len(self.small)):
            p = self.small[(start + i) % len(self.small)]
            argv = ("validate", "--events", str(p.events), "--config", str(p.config)) + extra
            alts.append(Op("validate", argv, path=p))
        return Op("validate", alts[0].argv, path=alts[0].path, alternatives=tuple(alts))

    def round_ops(self, r: int) -> list[Op]:
        """The operations of round r."""
        if self.workload == "mcmc":
            return [self.fit_mcmc(self.fit[r % len(self.fit)], FIT_MCMC, seed_for(self.seed, 4, r))]
        if self.workload == "mle":
            return [self.fit_mle(self.fit[r % len(self.fit)], FIT_MLE)]
        if self.workload == "loglik":
            return [self.loglik_op(p) for p in self.loglik]
        sims = [self.simulate(seed_for(self.seed, 5, r, j)) for j in range(3)]
        return sims + [self.validate(("--mc-n", str(VALIDATE_MC_N)))]

