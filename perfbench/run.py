"""Benchmark of record for the ``marcox`` CLI.

Usage::

    python3 perfbench/run.py --workload {mcmc,mle,loglik,validate} --seed N \\
        --seconds S --trace {0,1} [--detail PATH]

Run from the root of a checkout.  One process and one thread drive
``marcox.cli.main(argv)`` in-process as a closed loop with one client: the
operations of a round run back to back, and rounds repeat until ``--seconds``
have passed.  Every operation is timed from outside and its output is checked
against ``reference.py`` after the timed phase (see ``checks.py``).
``mcmc`` and ``mle`` are the workloads of record; ``loglik`` and
``validate`` are held out (``workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` splits the time
into an untraced half and a traced half and reports the per-layer metrics of
the traced half (``tracing.py``).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit and
sample count.  ``--detail`` also writes those rows, with the failure reasons,
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: without this OpenBLAS starts a worker per core, and
# the float kernel's matrix-vector products then compete with whatever else
# runs on the other core.  Set before numpy loads; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import calibration  # noqa: E402
from checks import Checker, Outcome  # noqa: E402
from metrics import END_TO_END, HELD_OUT_LAYER, PER_LAYER, UNITS  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import HELD_OUT, WORKLOADS, Inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters per run, each importing marcox.cli, for setup_s.
N_COLD = 10
COLD_TIMEOUT_S = 60


def _spread(xs):
    """Interquartile distance as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        import marcox.cli

        self.cli = marcox.cli
        self.inputs = Inputs(workload, seed, workdir)
        self.checker = Checker()
        for p in self.inputs.fit + self.inputs.loglik + self.inputs.small:
            self.checker.ref(p, p.regime.coeffs)
        self.outcomes: list[tuple[str, object]] = []  # (phase, Outcome)
        self.next_round = 0
        self.cal_samples: list[float] = []
        self.cal_seconds = 0.0

    def call(self, op, phase: str) -> Outcome:
        c0 = time.perf_counter()
        self.cal_samples.append(calibration.sample())
        self.cal_seconds += time.perf_counter() - c0
        buf = io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising command is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        out = Outcome(op, rc, error, buf.getvalue(), time.perf_counter() - t0, len(self.cal_samples) - 1)
        self.outcomes.append((phase, out))
        return out

    def execute(self, op, phase: str) -> None:
        for alt in op.alternatives or (op,):
            out = self.call(alt, phase)
            if out.rc == 0 and out.error is None:
                return

    def phase(self, seconds: float, label: str) -> tuple[float, int]:
        """Whole rounds back to back until ``seconds`` have passed.

        Returns the phase's wall time without the calibration samples, and
        the number of rounds.
        """
        t0 = time.perf_counter()
        cal0 = self.cal_seconds
        rounds = 0
        while True:
            for op in self.inputs.round_ops(self.next_round):
                self.execute(op, label)
            self.next_round += 1
            rounds += 1
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0 - (self.cal_seconds - cal0), rounds

    def verdicts(self):
        """Check every outcome, and give each in-process call its calibrated speed."""
        self.cal_samples.append(calibration.sample())
        speed = calibration.speeds(self.cal_samples)
        for _, out in self.outcomes:
            out.speed = speed[out.cal_index]
        return [(phase, out, self.checker.check(out)) for phase, out in self.outcomes]


def cold_starts() -> list[tuple[float, float]]:
    """(seconds, speed) of the import of marcox.cli, per fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    setups = []
    for _ in range(N_COLD):
        # The import is calibrated by the speed just before it (here) and
        # just after it (in the child): either alone tracks it worse.
        before = statistics.fmean(calibration.sample() for _ in range(3))
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), repr(spawned)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=COLD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-500:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append((rep["imported_at"] - spawned, (before + rep["import_speed"]) / 2))
    return setups


def _ok(out) -> bool:
    return out.rc == 0 and out.error is None


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    setups = cold_starts()
    runner.execute(runner.inputs.round_ops(0)[0], "warmup")
    wall, rounds = runner.phase(seconds, "timed")
    checked = runner.verdicts()
    timed = [out for phase, out, _ in checked if phase == "timed"]
    done = [out for out in timed if _ok(out)] or timed
    values = {
        "setup_s": (statistics.median([t / v for t, v in setups]), len(setups)),
        "op_s": (statistics.fmean(o.seconds / o.speed for o in done), len(done)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    raw = {
        "setup_s": statistics.median([t for t, _ in setups]),
        "op_s": statistics.fmean(o.seconds for o in done),
        "wall_s_per_round": wall / rounds,
    }
    ops = [(o.op.kind, o.seconds, o.speed) for o in timed]
    detail = {"mean_speed": statistics.fmean(o.speed for o in timed), "raw": raw, "ops": ops, "setups": setups}
    return values, checked, detail


def _config_of(op) -> Path:
    return Path(op.argv[op.argv.index("--config") + 1])


def _hooks() -> dict:
    def mh(args, kwargs, chain):
        cfg = args[2]
        per_iter = cfg.degree + 1 if cfg.per_coordinate else 1
        pilot = cfg.pilot_iters if cfg.adapt_proposals else 0
        return {
            "proposals": (pilot + cfg.iters) * per_iter,
            "main_iters": cfg.iters,
            "accepted": chain.accept_rate * cfg.iters,
            "support_rejected": chain.n_support_rejected,
        }

    return {
        "marginal.compute_coefficients": lambda a, k, r: {"rows": a[0].count},
        "inference.mh_fit": mh,
        "inference.mle_fit": lambda a, k, r: {"nfev": r.n_evals},
        "simulator.simulate": lambda a, k, r: {"sim_events": r.x.count + r.y.count},
        "oracles.mc_marginal": lambda a, k, r: {"mc_replicas": a[2].N},
    }


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    runner.execute(runner.inputs.round_ops(0)[0], "warmup")
    wall_u, rounds_u = runner.phase(seconds / 2, "untraced")
    tracer = Tracer(_hooks())
    tracer.install()
    try:
        wall_t, rounds_t = runner.phase(seconds / 2, "traced")
    finally:
        tracer.uninstall()
    checked = runner.verdicts()
    S = tracer.summary()
    C = tracer.counters
    R = rounds_t

    def tot(name, key="self_s"):
        return S.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced = [(out, v) for phase, out, v in checked if phase == "traced"]
    chains = [(out, v) for phase, out, v in checked if phase == "untraced" and out.op.kind == "fit-mcmc" and v.ok]
    ess = [v.info["ess"] for _, v in chains]
    ess_rate = [v.info["ess"] / out.seconds for out, v in chains]
    errs = [v.err_nats for _, _, v in checked if v.err_nats is not None]
    passes = [v.info["pass"] for out, v in traced if "pass" in v.info]
    module_self = {m: sum(row["self_s"] for n, row in S.items() if n.startswith(m + ".")) for m in MODULES}
    v = {
        "marginal.rows_per_s": (ratio(C.get("rows", 0), tot("marginal.compute_coefficients")), R),
        "marginal.max_err_nats": (max(errs, default=0.0), len(errs)),
        "inference.overhead_us_per_proposal": (1e6 * ratio(tot("inference.mh_fit"), C.get("proposals", 0)), R),
        "inference.accept_rate": (ratio(C.get("accepted", 0), C.get("main_iters", 0)), R),
        "inference.support_reject_ratio": (ratio(C.get("support_rejected", 0), C.get("main_iters", 0)), R),
        "inference.ess": (statistics.median(ess) if ess else 0.0, len(ess)),
        "inference.ess_per_s": (ratio(sum(ess), sum(out.seconds for out, _ in chains)), len(ess)),
        "inference.ess_per_s_spread": (_spread(ess_rate), len(ess)),
        "inference.mle_fit.nfev": (ratio(C.get("nfev", 0), tot("inference.mle_fit", "calls")), R),
        "simulator.events_per_s": (ratio(C.get("sim_events", 0), tot("simulator.simulate", "incl_s")), R),
        "oracles.mc_replicas_per_s": (ratio(C.get("mc_replicas", 0), tot("oracles.mc_marginal", "incl_s")), R),
        "oracles.validate_pass_ratio": (ratio(sum(passes), len(passes)), len(passes)),
        "bench.self_s": ((wall_t - tracer.root_seconds()) / R, R),
        "trace.wall_s": (wall_t / R, R),
        "trace.self_sum_frac": (sum(module_self.values()) / wall_t, R),
        "trace.overhead_frac": ((wall_t / R) / (wall_u / rounds_u) - 1.0, R),
    }
    for m, s in module_self.items():
        v[f"{m}.self_s"] = (s / R, R)
    for name, _, _ in PER_LAYER:
        if name not in v:
            layer, _, stat = name.rpartition(".")
            v[name] = (tot(layer, stat) / R, R)
    return v, checked, {}


def _label(op) -> str:
    return op.path.name if op.path else _config_of(op).name


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    runner = Runner(workload, seed, workdir)
    values, checked, extra = (per_layer if trace else end_to_end)(runner, seconds)
    names = [n for n, *_ in (PER_LAYER + (HELD_OUT_LAYER if workload in HELD_OUT else ()) if trace else END_TO_END)]
    failures = [f"{o.op.kind} {_label(o.op)}: {v.reason}" for _, o, v in checked if not v.ok]
    rows = [{"name": n, "value": values[n][0], "unit": UNITS[n], "n": values[n][1]} for n in names]
    return {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "rows": rows,
        "failures": failures,
        "calibration": extra,
    }


class Terminated(BaseException):
    """SIGTERM.  Not an ``Exception``, so the handlers around a CLI call let
    it through; ``subprocess.run`` kills the cold-start child it waits on."""


def _terminate(*_):
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None, help="write metric rows and failures as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "marcox" / "cli.py").is_file():
        print(f"perfbench: no marcox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS + HELD_OUT:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS + HELD_OUT)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Terminated:
        return 143
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for row in res["rows"]:
        print(f"{row['name']:40s} {row['value']:>16.6g} {row['unit']:8s} n={row['n']}")
    print(f"attempted={res['attempted']} failed={res['failed']}")
    for line in sorted(set(res["failures"])):
        print(f"  fail: {line}")
    if args.detail:
        args.detail.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    metrics = {r["name"]: {"value": r["value"], "unit": r["unit"]} for r in res["rows"]}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
