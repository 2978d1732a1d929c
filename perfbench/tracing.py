"""Spans around the public functions of each ``marcox`` module.

``Tracer.install`` wraps every public function, and every public plain method
of a public class, defined in the traced modules.  Modules import these
functions by name (``from .intensity import alpha_integral``), so each
wrapper replaces the original at every import site inside the package, not
only in the defining module.  Spans live in flat arrays (name id, start,
end, parent) and are reduced to per-name call counts, inclusive time and
self time once the traced phase is over.  Hooks may turn a call's
arguments and result into extra counters (rows recursed, events simulated).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable

MODULES = ("cli", "inference", "marginal", "intensity", "simulator", "oracles", "paths")

Hook = Callable[[tuple, dict, object], dict]


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans are recorded in start order by one thread, so children nest
    inside their parent and never overlap each other.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, par in enumerate(parents):
        if par >= 0:
            out[par] -= ends[i] - starts[i]
    return out


class Tracer:
    def __init__(self, hooks: dict[str, Hook] | None = None) -> None:
        self.hooks = hooks or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        hook = self.hooks.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0.0) + inc
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public callables of ``marcox.<module>`` everywhere in the package."""
        replaced: dict[int, object] = {}
        for mod_name in MODULES:
            mod = importlib.import_module(f"marcox.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{mod_name}.{attr}", obj)
                    self._set(mod, attr, replaced[id(obj)])
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{mod_name}.{meth}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "marcox" or mod_name.startswith("marcox."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and obj is not replaced[id(obj)]:
                        self._set(mod, attr, replaced[id(obj)])

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for n in self.names}
        for nid, s, e, sf in zip(self.name_id, self.start, self.end, selfs):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_s"] += e - s
            row["self_s"] += sf
        return out

    def root_seconds(self) -> float:
        """Time covered by top-level spans."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)
