"""Observed paths pinned by (regime, T, seed) in ``data/pinned_paths.json``.

Some tests assert outcomes of one particular path: an optimum on the
boundary of the support, a path length inside a window, a number of passes.
Those paths were drawn by an earlier event-by-event form of ``simulate`` and
are kept here bit for bit, so the tests keep their exact inputs whatever
stream the current simulator draws from a seed.  Tests that only need some
path call ``simulate``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from marcox.paths import CountPath, ModelParams, load_path

_FIXTURE = Path(__file__).parent / "data" / "pinned_paths.json"


@functools.cache
def _paths() -> dict:
    entries = json.loads(_FIXTURE.read_text(encoding="utf-8"))["paths"]
    return {(e["beta0"], e["w"], tuple(e["coeffs"]), e["T"], e["seed"]): e["jumps"] for e in entries}


def pinned_path(params: ModelParams, T: float, seed: int) -> CountPath:
    """The pinned observed path of the regime ``params`` on [0, T] for ``seed``."""
    jumps = _paths()[(params.beta0, params.w, params.gamma.coeffs, float(T), seed)]
    return load_path(jumps, T)
