"""Command-line interface: simulate / loglik / validate / fit-mcmc / fit-mle /
adapt / summarize.

Every subcommand is a thin adapter over the library: it parses files and
flags, calls one library entry point, and writes results.  Event and chain
data travel as CSV, configs and reports as strict JSON (a -inf
log-likelihood is written as null).  The library renders each output file's
text; one function here, ``_write_output``, writes it and then its
``<out>.manifest.json`` (command, config hash, seed, version, timestamps),
each atomically (temp file + rename).  One function, ``_read_config``,
reads every config and turns each error in it into exit 65; it reads the
file's bytes once, and the manifest hashes those bytes, so a config edited
while a command runs does not change the hash of the config that ran.

Exit codes: 0 success, 2 input validation, 64 usage, 65 bad config, 74 I/O.
Before a command runs, one rule (``_clash``) refuses with 64 an output, or
its manifest, that would overwrite a file the command reads or another
output or its manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError, check_count, check_horizon
from .inference import (
    FitConfig,
    bands_csv,
    chain_csv,
    mh_fit,
    mle_fit,
    read_chain_csv,
    summarize,
)
from .intensity import PolyIntensity
from .marginal import marginal_loglik
from .oracles import McSpec, grid_check, mc_check
from .paths import (
    ModelParams,
    adapt_path,
    check_rates,
    events_csv,
    load_path,
    read_events_csv,
    tune_w,
)
from .simulator import simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_IO = 74


class ConfigError(ValueError):
    """Configuration file is malformed or violates parameter invariants."""


def _int_at_least(low: int, name: str):
    """argparse type of an integer flag that must be at least ``low``,
    written in ASCII digits alone (the rule of ``read_chain_csv``'s iter)."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < low:
            raise argparse.ArgumentTypeError(f"{name} must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


_seed = _int_at_least(0, "seed")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 64
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _atomic_write(path: Path, text: str) -> None:
    """Write exactly ``text`` to ``path``: no newline translation, and the
    file appears whole or not at all."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_output(
    out: str, text: str, command: str, config: bytes | None, seed, started: str, extra: dict | None = None
) -> None:
    """Write ``text`` to ``out``, then its manifest ``<out>.manifest.json``,
    whose hash is of ``config``, the bytes ``_read_config`` read."""
    _atomic_write(Path(out), text)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(config).hexdigest() if config is not None else None,
        "seed": seed,
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": _utcnow(),
    }
    if extra:
        manifest.update(extra)
    _atomic_write(Path(out + ".manifest.json"), _json(manifest, indent=2) + "\n")


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


def _read_config(path: str, read):
    """The file's bytes, T, (beta0, w) and ``read(cfg, T)`` from the JSON
    object at ``path``.

    The bytes are read once and then parsed; ``_write_output`` hashes them.
    T, beta0 and w are required and checked by the library's rules; ``read``
    takes the command's own keys from ``cfg``, and only those.  A missing
    key or a bad value is a ``ConfigError``.
    """
    raw = Path(path).read_bytes()
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc.reason}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    try:
        T = check_horizon(cfg["T"])
        return raw, T, check_rates(cfg["beta0"], cfg["w"]), read(cfg, T)
    except KeyError as exc:
        raise ConfigError(f"config missing key: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _gamma(cfg: dict, T: float) -> PolyIntensity:
    """A model config's own key: gamma, nonnegative on [0, T]."""
    gamma = PolyIntensity.from_config(cfg["gamma"])
    gamma.validate_nonneg(T)
    return gamma


# The flags that name a file a command reads, and those that name one it writes.
_INPUTS = ("events", "config", "chain")
_OUTPUTS = ("out", "emit_latent")


def _clash(args) -> str | None:
    """Why the command would write over a file it uses, or None: each
    output and its ``<out>.manifest.json`` must resolve to neither a file
    the command reads nor another output or its manifest."""
    outputs = [(name, out) for name in _OUTPUTS if (out := getattr(args, name, None)) is not None]
    if not outputs:  # nothing to resolve for a command that writes no file
        return None
    # Resolved path -> the flag that names it, or whose manifest it is.
    seen: dict[Path, str] = {}
    for name in _INPUTS:
        if (path := getattr(args, name, None)) is not None:
            seen.setdefault(Path(path).resolve(), f"--{name}")
    for name, out in outputs:
        flag = "--" + name.replace("_", "-")
        own = {Path(out).resolve(): flag, Path(out + ".manifest.json").resolve(): f"{flag}'s manifest"}
        for path, what in own.items():
            if path in seen:
                return f"{what} names the same file as {seen[path]}"
        seen.update(own)
    return None


def _cmd_simulate(args) -> int:
    started = _utcnow()
    raw, T, rates, gamma = _read_config(args.config, _gamma)
    params = ModelParams(*rates, gamma)
    result = simulate(params, T, seed=args.seed)
    comments = [f"seed={args.seed}", f"T={T!r}"]
    _write_output(args.out, events_csv(result.x.jumps, comments), "simulate", raw, args.seed, started)
    if args.emit_latent:
        latent = events_csv(result.y.jumps, comments)
        _write_output(args.emit_latent, latent, "simulate", raw, args.seed, started)
    return EXIT_OK


def _cmd_loglik(args) -> int:
    _, T, rates, gamma = _read_config(args.config, _gamma)
    params = ModelParams(*rates, gamma)
    x = load_path(read_events_csv(args.events), T)
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
    _, T, rates, gamma = _read_config(args.config, _gamma)
    params = ModelParams(*rates, gamma)
    x = load_path(read_events_csv(args.events), T)
    loglik = marginal_loglik(x, params).loglik
    if loglik == -math.inf:
        raise ValidationError("the model cannot produce this path (loglik = -inf); there is nothing to check")
    grid = grid_check(x, params, loglik)
    mc = mc_check(x, params, McSpec(N=args.mc_n, seed=args.seed), loglik)
    overall = grid["pass"] is True and mc["pass"] is True
    print(_json({"loglik": loglik, "grid": grid, "mc": mc, "overall_pass": overall}))
    return EXIT_OK


def _cmd_fit_mcmc(args) -> int:
    started = _utcnow()
    # fit-mcmc's own keys: degree, and any other field of FitConfig.
    others = {f.name for f in fields(FitConfig)} - {"degree"}
    raw, T, fixed, fit = _read_config(
        args.config, lambda cfg, T: FitConfig(degree=cfg["degree"], **{k: v for k, v in cfg.items() if k in others})
    )
    chain = mh_fit(load_path(read_events_csv(args.events), T), fixed, fit)
    _write_output(
        args.out,
        chain_csv(chain),
        "fit-mcmc",
        raw,
        fit.seed,
        started,
        extra={
            "accept_rate": chain.accept_rate,
            "n_evals": chain.n_evals,
            "n_bound_rejected": chain.n_bound_rejected,
            "n_support_rejected": chain.n_support_rejected,
            "diagnostics": list(chain.diagnostics),
            "proposal_sd": chain.proposal_sd.tolist(),
        },
    )
    return EXIT_OK


def _cmd_fit_mle(args) -> int:
    def read(cfg: dict, T: float) -> tuple[FitConfig, dict]:
        """fit-mle's own keys: degree and start, checked by ``FitConfig``'s
        rules (its sampler fields keep their defaults), and the pass budget,
        checked here when given and ``mle_fit``'s default otherwise."""
        budget = {}
        if "budget" in cfg:
            check_count(cfg["budget"], "budget", 1)
            budget["budget"] = cfg["budget"]
        return FitConfig(degree=cfg["degree"], start=cfg.get("start")), budget

    _, T, fixed, (fit, budget) = _read_config(args.config, read)
    x = load_path(read_events_csv(args.events), T)
    res = mle_fit(x, fixed, degree=fit.degree, start=fit.start, **budget)
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
    raw = load_path(read_events_csv(args.events), args.T)
    w = tune_w(raw)
    adapted = adapt_path(raw, w)
    _write_output(
        args.out,
        events_csv(adapted.jumps, [f"adapted_w={w!r}", f"T={args.T!r}"]),
        "adapt",
        None,
        None,
        started,
        extra={"w": w, "raw_events": raw.count, "adapted_events": adapted.count},
    )
    return EXIT_OK


def _parse_grid(spec: str) -> np.ndarray:
    """START:STOP:COUNT as COUNT evenly spaced times; START and STOP must be
    finite and COUNT at least 1."""
    try:
        start, stop, count = spec.split(":")
        bounds, n = (float(start), float(stop)), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; expected start:stop:count") from exc
    if not all(map(math.isfinite, bounds)):
        raise ConfigError(f"bad grid spec {spec!r}: start and stop must be finite")
    if n < 1:
        raise ConfigError(f"bad grid spec {spec!r}: count must be at least 1")
    return np.linspace(*bounds, n)


def _cmd_summarize(args) -> int:
    started = _utcnow()
    draws = read_chain_csv(args.chain)
    grid = _parse_grid(args.grid)
    _write_output(args.out, bands_csv(summarize(draws, t_grid=grid)), "summarize", None, None, started)
    return EXIT_OK


_VALIDATE_HELP = (
    "check the log-likelihood against two log-space oracles: a filter over the latent count, "
    "exact per gap between events, must agree to 1e-9 relative, and Monte Carlo over MC_N "
    "latent draws within three standard errors (pass null when its draws cannot decide); "
    "overall_pass needs both"
)


@functools.cache  # built at the first main call, then reused by every later one
def _build_parser() -> _Parser:
    parser = _Parser(prog="marcox", description=__doc__)
    parser.add_argument("--version", action="version", version=f"marcox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="draw one observed path and write its event CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-latent", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("loglik", help="exact marginal log-likelihood of an event CSV")
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("validate", help=_VALIDATE_HELP, description=_VALIDATE_HELP)
    p.add_argument("--events", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mc-n", type=_int_at_least(1, "mc-n"), default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
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
        if (clash := _clash(args)) is not None:
            print(f"usage-error: {clash}", file=sys.stderr)
            return EXIT_USAGE
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
