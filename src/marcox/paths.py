"""Count paths, model parameters, and the adaptation transform.

A count path records the jump times of a unit-jump counting process on
[0, T].  ``adapt_path`` converts an arbitrary count series into one whose
conditional intensity is non-decreasing: integrate the raw step path, scale
by w, read off the times where the scaled integral crosses each integer, and
place one jump per crossing so that the area under the adapted path matches
the area under the scaled integral at every crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_horizon, check_real
from .intensity import PolyIntensity


@dataclass(frozen=True)
class CountPath:
    """Ordered event times in (0, T] with horizon T."""

    T: float
    jumps: np.ndarray

    def __post_init__(self) -> None:
        T = check_horizon(self.T)
        jumps = np.asarray(self.jumps, dtype=float)
        if jumps.ndim != 1:
            raise ValidationError("event times must be one-dimensional")
        if jumps.size and not np.all(np.isfinite(jumps)):
            raise ValidationError("event times must be finite")
        if jumps.size and (jumps[0] <= 0.0 or jumps[-1] > T):
            raise ValidationError(f"event times must lie in (0, {T}]")
        if jumps.size > 1 and np.any(np.diff(jumps) <= 0.0):
            if np.any(np.diff(jumps) == 0.0):
                raise ValidationError("duplicate event time")
            raise ValidationError("event times must be strictly increasing")
        jumps.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "jumps", jumps)

    @property
    def count(self) -> int:
        return int(self.jumps.size)

    def integral(self, t: float) -> float:
        """int_0^t x(s) ds for the step path, exact from the jump structure."""
        upto = self.jumps[self.jumps <= t]
        return float(upto.size * t - upto.sum())


def check_rates(beta0, w) -> tuple[float, float]:
    """(beta0, w) as floats; raises ``ValidationError`` unless both are numbers,
    the baseline rate beta0 finite and >= 0 and the jump weight w finite and positive."""
    beta0, w = check_real(beta0, "baseline rate beta0"), check_real(w, "jump weight w")
    if not (math.isfinite(beta0) and beta0 >= 0.0):
        raise ValidationError("baseline rate beta0 must be finite and >= 0")
    if not (math.isfinite(w) and w > 0.0):
        raise ValidationError("jump weight w must be finite and positive")
    return beta0, w


@dataclass(frozen=True)
class ModelParams:
    """Conditional intensity beta(t, y) = beta0 + w y with latent rate gamma."""

    beta0: float
    w: float
    gamma: PolyIntensity

    def __post_init__(self) -> None:
        beta0, w = check_rates(self.beta0, self.w)
        object.__setattr__(self, "beta0", beta0)
        object.__setattr__(self, "w", w)


def load_path(events: Iterable[float], T: float) -> CountPath:
    """Sort event times ascending and validate containment in (0, T]."""
    arr = np.sort(np.asarray(list(events), dtype=float))
    return CountPath(T=T, jumps=arr)


def adapt_path(x_star: CountPath, w: float) -> CountPath:
    """Transform a raw count path into one compatible with a non-decreasing rate.

    Let xt(t) = w * int_0^t x*(s) ds (piecewise linear, slope w * x*(t)).  For
    each integer level i = 1..floor(xt(T)), the crossing time is
    t_i = inf{t : xt(t) = i}, and the adapted jump u_i in (t_{i-1}, t_i) is
    fixed by matching areas on [t_{i-1}, t_i]:

        (i-1)(u_i - t_{i-1}) + i (t_i - u_i) = int xt  on that interval,

    a linear equation giving u_i = i t_i - (i-1) t_{i-1} - (that integral).
    """
    w = check_real(w, "adaptation scale w")
    if not (math.isfinite(w) and w > 0):
        raise ValidationError("adaptation scale w must be finite and positive")
    if x_star.count == 0:
        raise ValidationError("adaptation needs a nonempty path")
    T = x_star.T
    # Piecewise description of xt: nodes at 0, jump times, T; between nodes
    # the slope is w * (number of events so far).
    nodes = np.concatenate(([0.0], x_star.jumps, [T] if x_star.jumps[-1] < T else []))
    levels = np.arange(nodes.size)  # x*(t) on [nodes[k], nodes[k+1]) is levels[k]
    xt_nodes = np.concatenate(([0.0], np.cumsum(w * levels[:-1] * np.diff(nodes))))

    total = xt_nodes[-1]
    M = int(math.floor(total))
    if M == 0:
        raise ValidationError("adaptation scale too small: no events after transform")

    # Prefix areas under xt at the nodes; xt is linear between them, so each
    # segment contributes a trapezoid and partial segments are exact too.
    seg_areas = 0.5 * (xt_nodes[:-1] + xt_nodes[1:]) * np.diff(nodes)
    prefix = np.concatenate(([0.0], np.cumsum(seg_areas)))

    # Crossing time of each integer level: invert the linear piece containing
    # it.  xt is flat only before the first event, where it is 0, so every
    # level is crossed on a piece k >= 1 of slope w k > 0.
    i = np.arange(1, M + 1)
    k = np.searchsorted(xt_nodes, i, side="left") - 1
    crossings = nodes[k] + (i - xt_nodes[k]) / (w * levels[k])

    # Area under xt up to each crossing, from the piece that holds it.
    k = np.clip(np.searchsorted(nodes, crossings, side="right") - 1, 0, nodes.size - 2)
    dt = crossings - nodes[k]
    v = xt_nodes[k] + w * levels[k] * dt
    areas = prefix[k] + 0.5 * (xt_nodes[k] + v) * dt
    prev = np.concatenate(([0.0], crossings[:-1]))
    jumps = i * crossings - (i - 1) * prev - np.diff(areas, prepend=0.0)
    return CountPath(T=T, jumps=jumps)


def tune_w(x_star: CountPath) -> float:
    """Scale for ``adapt_path`` so the adapted path has exactly x_star.count jumps.

    w = M* / int_0^T x*(s) ds nudged up by 1e-9 relative, so the scaled
    integral ends strictly above M* instead of on the integer boundary where
    floating-point could tip the floor either way.  A path whose events all
    sit at T has integral 0 and no scale; it raises ``ValidationError``.
    """
    if x_star.count == 0:
        raise ValidationError("tuning needs a nonempty path")
    area = x_star.integral(x_star.T)
    if area <= 0.0:
        raise ValidationError("tuning needs an event before T: the path's integral is 0")
    return x_star.count / area * (1.0 + 1e-9)


def read_events_csv(path: str | Path) -> list[float]:
    """Event times from the file at ``path``: one per line; '#' lines are
    comments; the first other line may be a 'time' header; one leading
    byte-order mark is skipped.  Non-UTF-8 raises ``ValidationError``."""
    times: list[float] = []
    first = True
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if first:
                    first = False
                    if line.lower() == "time":
                        continue
                try:
                    times.append(float(line))
                except ValueError as exc:
                    raise ValidationError(f"bad event time on line {lineno}: {line!r}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"events file {path} is not valid UTF-8: {exc.reason}") from exc
    return times


def events_csv(times: Sequence[float], comments: Sequence[str] = ()) -> str:
    """The text of an event CSV: a '# ' line per comment, the 'time' header,
    then each time's repr, every line ended by LF; ``read_events_csv`` reads
    it back to the same floats."""
    lines = [f"# {c}" for c in comments] + ["time"] + [repr(float(t)) for t in times]
    return "\n".join(lines) + "\n"
