"""In-memory spans around the calls into each sbcpmu layer.

The wrappers are installed from the benchmark's side; nothing under ``src/``
knows about them.  A wrapper must replace the name where the *caller* looks
it up: ``sbcpmu.mc`` and ``sbcpmu.cli`` bind ``acquire``, ``fourier_phasor``,
``write_run`` and the rest into their own namespaces at import time, so
patching ``sbcpmu.blocks.acquire`` alone would record nothing for the Monte
Carlo.  PATCH_POINTS lists every (module, attribute) pair that is wrapped and
the layer name its spans carry.

This module imports only the standard library, so the traced CLI runner can
time ``import sbcpmu`` without this file's imports inside the interval.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

_READERS = ("read_sweep_csv", "read_counter_csv", "read_delay_csv")
_FITTERS = ("ols_fit", "one_counter_estimate", "delay_statistics", "variance_decomposition")

PATCH_POINTS = (
    [
        ("sbcpmu.cli", "main", "cli.main"),
        ("sbcpmu.cli", "cmd_simulate", "cli.cmd_simulate"),
        ("sbcpmu.cli", "cmd_characterize", "cli.cmd_characterize"),
        ("sbcpmu.cli", "cmd_report", "cli.cmd_report"),
        ("sbcpmu.cli", "monte_carlo", "mc.monte_carlo"),
        ("sbcpmu.cli", "write_run", "mc.write_run"),
        ("sbcpmu.cli", "load_profile", "blocks.load_profile"),
        ("sbcpmu.cli", "save_profile", "blocks.save_profile"),
        ("sbcpmu", "monte_carlo", "mc.monte_carlo"),
        ("sbcpmu.mc", "run_trial", "mc.run_trial"),
        ("sbcpmu.mc", "model_curve", "mc.model_curve"),
        ("sbcpmu.mc", "acquire", "blocks.acquire"),
        ("sbcpmu.mc", "pll_sample", "blocks.pll_sample"),
        ("sbcpmu.mc", "build_schedule", "signals.build_schedule"),
        ("sbcpmu.mc", "fourier_phasor", "estimate.fourier_phasor"),
        ("sbcpmu.mc", "tve", "estimate.tve"),
    ]
    + [("sbcpmu.cli", name, f"characterize.{name}") for name in _READERS + _FITTERS]
)


def _dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _rows(result) -> int:
    """Rows a characterization reader returned, whatever container it used."""
    if isinstance(result, dict):
        return sum(len(getattr(v, "v_in", v)) for v in result.values())
    return len(result)


# Counts taken from a layer's arguments or result, outside its span.
_COUNTERS = {
    "blocks.acquire": lambda args, result: {
        "blocks.saturated_samples": result.metadata.get("saturated_samples", 0)
    },
    "mc.write_run": lambda args, result: {"mc.write_run.bytes": _dir_bytes(args[1])},
    **{
        f"characterize.{name}": (lambda args, result: {"characterize.rows": _rows(result)})
        for name in _READERS
    },
}


class Tracer:
    """Spans as [name, start, end, parent index] rows, kept in memory.

    Times come from ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux
    and therefore comparable between the benchmark and its child processes.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Attach a child process's spans under span ``parent``."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])
        self.counts.update(counts)

    def wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> list:
        """Wrap every patch point that exists; return what ``uninstall`` needs."""
        undo = []
        for module_name, attr, layer in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: no {module_name}.{attr}; {layer} not traced", file=sys.stderr)
                continue
            setattr(module, attr, self.wrap(original, layer))
            undo.append((module, attr, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    @staticmethod
    def load(path):
        with open(path) as fh:
            data = json.load(fh)
        return data["spans"], data["counts"]


def self_times(spans: list, root: int):
    """Per-layer self time and call count inside the subtree of ``root``.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since every layer runs on
    one thread.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        children[parent].append(i)
    self_s, calls = Counter(), Counter()
    todo = [root]
    while todo:
        i = todo.pop()
        name, start, end, _ = spans[i]
        kids = children.get(i, [])
        self_s[name] += (end - start) - sum(spans[k][2] - spans[k][1] for k in kids)
        calls[name] += 1
        todo.extend(kids)
    return self_s, calls
