"""Command-line interface: simulate / loglik / validate / fit-mcmc / fit-mle /
adapt / summarize.

Every subcommand is a thin adapter over the library: it parses files and
flags, calls one library entry point, and writes results.  Event and chain
data travel as CSV, configs and reports as strict JSON (a -inf
log-likelihood is written as null).  File outputs are written atomically
(temp file + rename) and accompanied by a ``<out>.manifest.json`` recording
command, config hash, seed, version, and timestamps.

Exit codes: 0 success, 2 input validation, 64 usage, 65 bad config, 74 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .inference import (
    Chain,
    FitConfig,
    mh_fit,
    mle_fit,
    read_chain_csv,
    summarize,
    write_chain_csv,
)
from .intensity import PolyIntensity
from .marginal import marginal_loglik
from .oracles import GridSpec, McSpec, grid_marginal, mc_marginal
from .paths import (
    CountPath,
    ModelParams,
    adapt_path,
    load_path,
    read_events_csv,
    tune_w,
    write_events_csv,
)
from .simulator import simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_IO = 74


class ConfigError(ValueError):
    """Configuration file is malformed or violates parameter invariants."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(
    out: Path, command: str, config_path: Path | None, seed, started: str, extra: dict | None = None
) -> None:
    manifest = {
        "command": command,
        "config_hash": _sha256(config_path) if config_path else None,
        "seed": seed,
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": _utcnow(),
    }
    if extra:
        manifest.update(extra)
    _atomic_write(Path(str(out) + ".manifest.json"), _json(manifest, indent=2) + "\n")


def _json(obj, indent: int | None = None) -> str:
    """Strict JSON: a non-finite float (the -inf log-likelihood sentinel) becomes null."""

    def clean(v):
        if isinstance(v, float) and not math.isfinite(v):
            return None
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        return v

    return json.dumps(clean(obj), indent=indent, allow_nan=False)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _load_model_config(path: str) -> tuple[float, ModelParams]:
    cfg = _load_json(path)
    try:
        T = float(cfg["T"])
        params = ModelParams(
            beta0=float(cfg["beta0"]),
            w=float(cfg["w"]),
            gamma=PolyIntensity.from_config(cfg["gamma"]),
        )
        params.validate(T)
    except KeyError as exc:
        raise ConfigError(f"config missing key: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc
    return T, params


def _load_events(path: str, T: float) -> CountPath:
    times = read_events_csv(path)
    return load_path(times, T)


def _events_text(times, comments) -> str:
    import io

    buf = io.StringIO()
    write_events_csv(buf, times, comments)
    return buf.getvalue()


def _cmd_simulate(args) -> int:
    started = _utcnow()
    T, params = _load_model_config(args.config)
    result = simulate(params, T, seed=args.seed)
    out = Path(args.out)
    _atomic_write(out, _events_text(result.x.jumps, [f"seed={args.seed}", f"T={T!r}"]))
    _write_manifest(out, "simulate", Path(args.config), args.seed, started)
    if args.emit_latent:
        latent = Path(args.emit_latent)
        _atomic_write(latent, _events_text(result.y.jumps, [f"seed={args.seed}", f"T={T!r}"]))
        _write_manifest(latent, "simulate", Path(args.config), args.seed, started)
    return EXIT_OK


def _cmd_loglik(args) -> int:
    T, params = _load_model_config(args.config)
    x = _load_events(args.events, T)
    res = marginal_loglik(x, params)
    print(
        _json(
            {
                "loglik": res.loglik,
                "M": x.count,
                "poly_log": res.polynomial_term_log,
                "exponent": res.exponent_term,
            }
        )
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    T, params = _load_model_config(args.config)
    x = _load_events(args.events, T)
    res = marginal_loglik(x, params)
    try:
        exact = math.exp(res.loglik)
    except OverflowError:
        raise ValidationError(
            f"loglik {res.loglik:.6g} puts p(x) beyond the double range; "
            "the linear-space oracles cannot represent this path"
        ) from None

    n = args.grid_n
    grid_fine = grid_marginal(x, params, GridSpec(n=n))
    grid_half = grid_marginal(x, params, GridSpec(n=n // 2))
    err_fine = abs(grid_fine - exact)
    err_half = abs(grid_half - exact)
    floor = 1e-12 * max(1.0, exact)
    grid_ok = err_fine <= max(0.75 * err_half, floor)

    est, se = mc_marginal(x, params, McSpec(N=args.mc_n, seed=args.seed), jobs=args.jobs)
    z = (est - exact) / se if se > 0 else 0.0
    mc_ok = abs(est - exact) <= 3.0 * se or se == 0.0 and est == exact

    report = {
        "loglik": res.loglik,
        "p_exact": exact,
        "grid": {
            "n": n,
            "value": grid_fine,
            "abs_err": err_fine,
            "halving_ok": bool(grid_ok),
        },
        "mc": {"n": args.mc_n, "estimate": est, "se": se, "z": z, "pass": bool(mc_ok)},
        "overall_pass": bool(grid_ok and mc_ok),
    }
    print(_json(report))
    return EXIT_OK


def _fit_inputs(args) -> tuple[CountPath, tuple[float, float], FitConfig, int]:
    """Path, fixed (beta0, w), sampler config and the fit-mle evaluation budget."""
    cfg = _load_json(args.config)
    try:
        T = float(cfg["T"])
        beta0 = float(cfg.get("beta0", 0.0))
        w = float(cfg["w"])
        budget = int(cfg.get("budget", 2000))
        if budget < 1:
            raise ValidationError("budget must be at least 1")
        known = {
            "degree",
            "prior_mean",
            "prior_sd",
            "proposal_sd",
            "iters",
            "burnin",
            "thin",
            "seed",
            "adapt_proposals",
            "pilot_iters",
            "start",
            "per_coordinate",
        }
        fit_kwargs = {k: v for k, v in cfg.items() if k in known}
        fit = FitConfig(**fit_kwargs)
    except KeyError as exc:
        raise ConfigError(f"config missing key: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad fit config: {exc}") from exc
    x = _load_events(args.events, T)
    return x, (beta0, w), fit, budget


def _cmd_fit_mcmc(args) -> int:
    started = _utcnow()
    x, fixed, fit, _ = _fit_inputs(args)
    chain = mh_fit(x, fixed, fit)
    out = Path(args.out)
    import io

    buf = io.StringIO()
    write_chain_csv(buf, chain)
    _atomic_write(out, buf.getvalue())
    _write_manifest(
        out,
        "fit-mcmc",
        Path(args.config),
        fit.seed,
        started,
        extra={
            "accept_rate": chain.accept_rate,
            "n_evals": chain.n_evals,
            "diagnostics": list(chain.diagnostics),
        },
    )
    return EXIT_OK


def _cmd_fit_mle(args) -> int:
    x, fixed, fit, budget = _fit_inputs(args)
    res = mle_fit(x, fixed, degree=fit.degree, start=fit.start, budget=budget)
    print(
        _json(
            {
                "coeffs": [float(c) for c in res.coeffs],
                "loglik": res.loglik,
                "converged": res.converged,
                "n_evals": res.n_evals,
            }
        )
    )
    return EXIT_OK


def _cmd_adapt(args) -> int:
    started = _utcnow()
    times = read_events_csv(args.events)
    raw = load_path(times, args.T)
    w = tune_w(raw)
    adapted = adapt_path(raw, w)
    out = Path(args.out)
    _atomic_write(out, _events_text(adapted.jumps, [f"adapted_w={w!r}", f"T={args.T!r}"]))
    _write_manifest(
        out,
        "adapt",
        None,
        None,
        started,
        extra={"w": w, "raw_events": raw.count, "adapted_events": adapted.count},
    )
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; expected start:stop:count") from exc


def _cmd_summarize(args) -> int:
    started = _utcnow()
    chain = read_chain_csv(args.chain)
    grid = _parse_grid(args.grid)
    summary = summarize(chain, t_grid=grid)
    lines = ["t,mean,lo,hi,cum_mean,cum_lo,cum_hi"]
    for i, t in enumerate(summary.grid):
        lines.append(
            ",".join(
                repr(float(v))
                for v in (
                    t,
                    summary.gamma_mean[i],
                    summary.gamma_lo[i],
                    summary.gamma_hi[i],
                    summary.cum_mean[i],
                    summary.cum_lo[i],
                    summary.cum_hi[i],
                )
            )
        )
    out = Path(args.out)
    _atomic_write(out, "\n".join(lines) + "\n")
    _write_manifest(out, "summarize", None, None, started)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="marcox", description=__doc__)
    parser.add_argument("--version", action="version", version=f"marcox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="draw one observed path and write its event CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-latent", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("loglik", help="exact marginal log-likelihood of an event CSV")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("validate", help="cross-check the likelihood against both oracles")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--grid-n", type=int, default=16384)
    p.add_argument("--mc-n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit-mcmc", help="posterior sampling of the rate coefficients")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_mcmc)

    p = sub.add_parser("fit-mle", help="maximum-likelihood rate coefficients")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_fit_mle)

    p = sub.add_parser("adapt", help="transform a raw count series for fitting")
    p.add_argument("--events", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("summarize", help="posterior bands for the rate from a chain CSV")
    p.add_argument("--chain", required=True)
    p.add_argument("--grid", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"validation-error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
