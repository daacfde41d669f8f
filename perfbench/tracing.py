"""Layer tracing for the benchmark, installed from outside the package.

The layers are the package's modules. `Tracer.install` wraps every public
function defined in each module, plus the kernel and Hawkes-count methods the
sweeps call, and rebinds every name that refers to the original, including
copies made by ``from .x import y`` (``harness.simulate``,
``hawkes.sample_poisson``, ...). Each wrapped call records a span (name,
start, end, parent) and bumps counters; a layer's self time is its duration
minus the time its traced children cover, accumulated on a call stack.

Spans and counters stay in memory and are written once, by `write`, when the
run ends. The wrappers are bound only between `install` and `uninstall`, so
the benchmark can leave warm-ups and correctness probes out of the per-layer
numbers and time the same calls untraced.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "configurations", "mc", "kernels", "hawkes", "branching",
    "expansion", "malliavin", "harness",
)
# (module, class, method, span name): methods called inside the sweeps
METHODS = (
    ("kernels", "Kernel", "__call__", "kernels.Kernel.call"),
    ("hawkes", "HawkesCount", "__call__", "hawkes.HawkesCount.call"),
    ("hawkes", "HawkesCount", "eval_packed", "hawkes.HawkesCount.eval_packed"),
)


# work counters kept besides each layer's calls and self time
COUNTERS = (
    "configurations.atoms", "kernels.Kernel.call.elements", "kernels.build_ladder.nodes",
    "hawkes.events", "hawkes.atoms_swept", "hawkes.overflow_paths",
    "hawkes.HawkesCount.eval_packed.rows", "branching.jumps", "branching.jumps_ge2",
    "expansion.reconstruct.subsets", "expansion.reconstruct.exact",
    "expansion.hawkes_coefficient.subsets", "harness.artifacts.bytes", "harness.budget_skips",
)


def _artifact_bytes(result) -> int:
    return sum(Path(p).stat().st_size for p in result.artifacts)


def _count_results(counts: Counter, name: str, args, kwargs, result) -> None:
    """Work counters read off a layer's arguments and results."""
    if name == "configurations.sample_poisson":
        counts["configurations.atoms"] += len(result)
    elif name == "kernels.Kernel.call":
        counts["kernels.Kernel.call.elements"] += int(np.size(args[1]))
    elif name == "kernels.build_ladder":
        counts["kernels.build_ladder.nodes"] += len(result.grid)
    elif name == "hawkes.solve_path":
        counts["hawkes.events"] += result.event_count
        counts["hawkes.atoms_swept"] += len(result.source)
        counts["hawkes.overflow_paths"] += int(result.overflow)
    elif name == "hawkes.HawkesCount.eval_packed":
        counts["hawkes.HawkesCount.eval_packed.rows"] += int(args[1].shape[0])
    elif name == "branching.branching_path":
        sizes = result.jump_sizes
        counts["branching.jumps"] += len(sizes)
        counts["branching.jumps_ge2"] += int((sizes >= 2).sum())
    elif name == "expansion.reconstruct":
        counts["expansion.reconstruct.subsets"] += 1 << len(result.source)
        counts["expansion.reconstruct.exact"] += int(result.exact_match)
    elif name == "expansion.hawkes_coefficient":
        points = args[1] if len(args) > 1 else kwargs["points"]
        counts["expansion.hawkes_coefficient.subsets"] += 1 << (len(points) - 1)
    elif name == "harness.run_experiment":
        counts["harness.artifacts.bytes"] += _artifact_bytes(result)
        audit = result.extra.get("audit")
        if audit is not None:
            counts["harness.budget_skips"] += audit.n_skipped_budget


class Tracer:
    """Wrappers for every layer function, bound into the package only between
    `install` and `uninstall`, so untraced code runs the originals."""

    def __init__(self, package, max_spans: int = 2_000_000):
        self.package = package
        self.max_spans = max_spans
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self._stack: list[list] = []     # frames: [child seconds, span index or -1]
        self._wrappers: dict[int, object] = {}   # id(original function) -> wrapper
        self._methods: list[tuple] = []          # (class, method, original, wrapper)
        self._originals: list = []               # keeps the ids above valid
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._originals.append(obj)
                    self._wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[method]
            self._methods.append((cls, method, original, self._wrap(name, original)))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            slot = len(self.span_start)
            if slot < self.max_spans:
                self.span_name.append(name_id)
                self.span_parent.append(parent)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                slot = -1
                self.dropped += 1
            frame = [0.0, slot]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                if slot >= 0:
                    self.span_start[slot] = start
                    self.span_end[slot] = end
            _count_results(self.counts, name, args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if name == prefix or name.startswith(prefix + ".")]

    def install(self) -> None:
        """Bind the wrappers in place of every name that refers to an
        original, including the copies made by `from .x import y`."""
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(module, attr, wrapper)
        for cls, method, _, wrapper in self._methods:
            setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and hasattr(obj, "__wrapped_original__"):
                    setattr(module, attr, obj.__wrapped_original__)
        for cls, method, original, _ in self._methods:
            setattr(cls, method, original)

    def missed_bindings(self) -> list[str]:
        """Names in the package that stay bound to an original while the
        wrappers are installed."""
        self.install()
        try:
            missed = [f"{module.__name__}.{attr}" for module in self._modules()
                      for attr, obj in vars(module).items() if id(obj) in self._wrappers]
            missed += [f"{cls.__name__}.{method}" for cls, method, _, wrapper in self._methods
                       if cls.__dict__[method] is not wrapper]
        finally:
            self.uninstall()
        return missed

    # -- results --------------------------------------------------------------

    def snapshot(self) -> Counter:
        """Calls and counters merged, for before/after differences."""
        merged = Counter({f"{k}.calls": v for k, v in self.calls.items()})
        merged.update(self.counts)
        return merged

    def layer_metrics(self) -> dict:
        values: dict = {}
        for name in self.names:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
        values.update(self.counts)
        swept = values["hawkes.atoms_swept"]
        values["hawkes.accept_ratio"] = values["hawkes.events"] / swept if swept else 0.0
        return values

    def write(self, path: Path) -> None:
        """Spans as arrays (name id, parent span index, start, end) plus the
        name table; span i's parent is span parent[i], -1 at the top."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
            dropped=np.array(self.dropped),
        )
