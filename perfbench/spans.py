"""In-memory span tracing of pinchsim's layers, installed from outside ``src/``.

Every public function defined in a layer module (``pinchsim.channel``,
``pinchsim.placement``, ...) is replaced by a timing wrapper at every place
it is bound: its own module (so calls inside that module are seen too), the
package namespace and each module that imported it by name. The program's
source is never edited; :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, run)``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span (-1 for
none) and ``run`` the id of the CLI invocation it belongs to. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("scenario_io", "scenario", "channel", "beamforming", "placement",
          "access", "experiments", "cli")


def _public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans and exact counters while installed; one per traced run."""

    def __init__(self, run_id: int):
        self.spans: list = []
        self.failed: dict = defaultdict(int)
        self.counters: dict = defaultdict(float)
        self.run_id = run_id
        self._stack: list = []
        self._patched: list = []

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"pinchsim.{layer}"]
            for name, fn in _public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        sites = [m for n, m in list(sys.modules.items())
                 if n == "pinchsim" or n.startswith("pinchsim.")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper


def _count_descent(counters, args, kwargs, solution):
    counters["placement.optimize_multi_waveguide.cycles"] += solution.iterations
    counters["placement.optimize_multi_waveguide.accepted_steps"] += len(solution.trace) - 1
    counters["placement.optimize_multi_waveguide.converged"] += bool(solution.converged)


def _count_csv(counters, args, kwargs, path):
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    counters["experiments.write_csv.rows"] += len(rows)
    counters["experiments.write_csv.bytes"] += os.path.getsize(path)


_COUNTERS = {
    "placement.optimize_multi_waveguide": _count_descent,
    "experiments.write_csv": _count_csv,
}


def summarize(spans) -> dict:
    """Per-name call count, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out
