"""Per-layer tracing of dpnet from outside the package.

A Tracer replaces each traced public function with a wrapper at every
place the function is bound: its defining module and every dpnet module
that imported it by name (``from .network import forward_batch`` binds a
separate name in ``pipeline`` and ``training``). Wrappers record spans
in memory: name, thread id, wall start and end, and process CPU time at
both ends. Functions called once per row are counted instead, and their
time is charged to the innermost open span on the calling thread so that
self times stay right. ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _flops(model, rows: int) -> int:
    """Multiply-adds of a dense forward pass, counted as two flops each."""
    sizes = model.layer_sizes
    return rows * sum(2 * i * o for i, o in zip(sizes[:-1], sizes[1:]))


# traced function -> quantities summed over calls, from (args, result)
SPANS = {
    "data.load_csv": lambda a, r: {"rows": len(r), "bytes": os.path.getsize(a[0])},
    "data.save_csv": lambda a, r: {"rows": len(a[1]), "bytes": os.path.getsize(a[0])},
    "network.forward_batch": lambda a, r: {"rows": r.shape[0], "flops": _flops(a[0], r.shape[0])},
    "network.load_checkpoint": None,
    "dirichlet.digamma": lambda a, r: {"values": int(np.size(r))},
    "pipeline.score_set": lambda a, r: {"rows": int(r.size)},
    "pipeline.calibrate_threshold": None,
    "pipeline.discard_and_rescore": None,
    "losses.objective_batch": lambda a, r: {"rows": len(a[1]) + sum(len(b) for b in a[3])},
    "training.train": None,
    "training.evaluate_accuracy": None,
    "config.load_config": None,
    "cli.main": None,
    "cli.cmd_gen": None,
    "cli.cmd_train": None,
    "cli.cmd_screen": lambda a, r: {"bytes": os.path.getsize(Path(a[3]) / "decisions.csv")},
    "cli.cmd_eval": None,
}
COUNTED = ("pipeline.route_decision",)  # called once per screened row


class Tracer:
    def __init__(self):
        self.spans = []  # [name, thread id, t0, t1, cpu0, cpu1, counted_s, quantities]
        self.counts = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self._local = threading.local()
        self._patches = []  # (module, attribute, original)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dpnet" or n.startswith("dpnet.")]
        for name in (*SPANS, *COUNTED):
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"dpnet.{module_name}"], func_name)
            wrapper = self._span(name, original) if name in SPANS else self._count(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, func):
        measure = SPANS[name]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, threading.get_ident(), 0.0, 0.0, time.process_time(), 0.0, 0.0, None]
            stack = self._stack()
            stack.append(record)
            record[2] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                record[5] = time.process_time()
                stack.pop()
                self.spans.append(record)
            if measure is not None:
                record[7] = measure(args, result)
            return result

        return wrapper

    def _count(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counter = self.counts[name]
                counter[0] += 1
                counter[1] += dt
                stack = self._stack()
                if stack:
                    stack[-1][6] += dt

        return wrapper

    def summary(self) -> dict[str, float]:
        """``<module>.<function>.<quantity>`` totals over every recorded call.

        ``s`` is busy wall time summed over calls (threads add up),
        ``cpu_s`` is process CPU time over the same spans, and ``self_s``
        is wall time minus the union of contained spans on any thread
        and minus counted calls made directly inside the span.
        """
        out: dict[str, float] = defaultdict(float)
        for name, (calls, seconds) in self.counts.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        if not self.spans:
            return dict(out)
        order = sorted(range(len(self.spans)), key=lambda i: self.spans[i][2])
        spans = [self.spans[i] for i in order]
        starts = np.array([s[2] for s in spans])
        ends = np.array([s[3] for s in spans])
        for i, (name, _, t0, t1, c0, c1, counted, quantities) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.cpu_s"] += c1 - c0
            for key, value in (quantities or {}).items():
                out[f"{name}.{key}"] += value
            lo, hi = i + 1, int(np.searchsorted(starts, t1, side="right"))
            inside = np.nonzero(ends[lo:hi] <= t1)[0] + lo
            out[f"{name}.self_s"] += t1 - t0 - _union(starts[inside], ends[inside]) - counted
        return dict(out)


def _union(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by intervals given in ascending start order."""
    if starts.size == 0:
        return 0.0
    reach = np.maximum.accumulate(ends)
    before = np.concatenate([[-np.inf], reach[:-1]])
    return float(np.maximum(0.0, ends - np.maximum(starts, before)).sum())
