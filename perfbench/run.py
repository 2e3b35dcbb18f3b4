"""The sbcpmu benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate-ref --seed 1 --seconds 30 --trace 0

Workloads (README.md beside this file says why each exists):

* ``simulate-ref``: ``sbcpmu simulate`` on the reference scenario, then
  ``sbcpmu report`` on its run directory, as two fresh CLI processes.
* ``mc-batch``: the library ``monte_carlo`` on 960 compensated trials at a
  fixed temperature, in this warm process, writing nothing.
* ``characterize-merge``: ``sbcpmu characterize`` sweep, counter and delay,
  each merged into a fresh copy of the paper profile, as fresh CLI processes.

Load model: a closed loop with one client in this process and at most one
child process at a time.  Inputs are generated before any timing.  Each
operation's outputs are checked after it is timed; an operation that crashes,
exits non-zero or fails its check counts as failed.

End-to-end times are scaled to a reference host speed (``HostSpeed``).  A
fixed reference computation runs before and after every timed interval: each
CLI child process, each library call and each set-up interpreter.  The
interval's wall time is multiplied by ``REFERENCE_S`` over the mean time of
the two reference runs around it.  The shared host this was tuned on changes
speed by tens of percent from one second to the next; the scaling takes most
of that out and leaves any change in the program's own cost in.  The table
before the result line also prints the unscaled median.  The traced run is
not scaled.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced operations
alternate and it holds the per-layer metrics, including the tracing
overhead (traced minus untraced ``op_s.p50``).  The lines before it are a
human-readable table of the same numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_REPEATS = 4
# Seconds HostSpeed.reference_work takes at the reference host speed, to which
# end-to-end times are scaled.  It is about the median time on a 2-vCPU Intel
# Xeon VM at 2.1 GHz with Python 3.11 and numpy 2.4, where the reference took
# 35 to 60 ms as the shared host's speed changed.
REFERENCE_S = 0.045
REFERENCE_REPEATS = 3
CHILD_TIMEOUT_S = 90.0
# Seed-commit results must match to this relative tolerance; it admits a
# change of summation order but not a change of the random stream.
RESULT_RTOL = 1e-9

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, named after the package modules.  The suffix says how a
# layer's spans become a number: ``.self_s``/``.self_ms`` is self time per
# operation, ``.self_us`` self time per call, ``.calls`` calls per operation;
# other names are counts or are computed separately (see layer_metrics).
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_stats_s": "s",
    "import.sbcpmu_s": "s",
    "proc.self_s": "s",
    "proc.import.self_s": "s",
    "cli.main.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_characterize.self_s": "s",
    "cli.cmd_report.self_s": "s",
    "mc.monte_carlo.self_s": "s",
    "mc.model_curve.self_ms": "ms",
    "mc.run_trial.self_us": "us",
    "mc.run_trial.calls": "count",
    "mc.write_run.self_s": "s",
    "mc.write_run.bytes": "bytes",
    "blocks.acquire.self_us": "us",
    "blocks.pll_sample.self_us": "us",
    "blocks.saturated_samples": "count",
    "signals.build_schedule.self_us": "us",
    "estimate.fourier_phasor.self_us": "us",
    "estimate.tve.self_us": "us",
    "characterize.read_sweep_csv.self_s": "s",
    "characterize.read_counter_csv.self_s": "s",
    "characterize.read_delay_csv.self_s": "s",
    "characterize.rows": "count",
    "characterize.ols_fit.self_ms": "ms",
    "characterize.one_counter_estimate.self_ms": "ms",
    "characterize.delay_statistics.self_ms": "ms",
    "characterize.variance_decomposition.self_ms": "ms",
    "blocks.load_profile.self_ms": "ms",
    "blocks.save_profile.self_ms": "ms",
    "op.self_s": "s",
    "artifact_mb": "MB",
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
}

# Modules whose import time is reported on its own, when sbcpmu imports them.
IMPORT_MODULES = {"import.numpy_s": "numpy", "import.scipy_stats_s": "scipy.stats"}
IMPORT_SBCPMU = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import sbcpmu\n"
    "print(time.perf_counter() - t, *[m for m in sys.argv[1:] if m in sys.modules])"
)
IMPORT_EACH = (
    "import importlib, sys, time\n"
    "for m in sys.argv[1:]:\n"
    "    t = time.perf_counter(); importlib.import_module(m); print(time.perf_counter() - t)"
)


@dataclass
class Op:
    """One timed operation and what it left behind."""

    seconds: float = 0.0
    scaled: float = 0.0  # the same time at the reference host speed (HostSpeed)
    work: int = 0
    peak_rss_mb: float = 0.0
    artifact_bytes: int = 0
    errors: list = field(default_factory=list)
    layers: tuple | None = None  # (self seconds, calls, counts) when traced


@dataclass
class Child:
    code: int
    peak_rss_mb: float
    output: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list, log: Path) -> Child:
    """Run one child process to completion; return its exit code, peak RSS and output."""
    with open(log, "w") as out:
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, usage.ru_maxrss / 1024.0, log.read_text())


class HostSpeed:
    """Brackets timed intervals with a fixed reference computation.

    The reference does not touch sbcpmu.  It mixes the kinds of work the
    workloads do: interpreter loops and number formatting, numpy on arrays
    about the size of one MC trial's, and building and parsing many small
    dicts of strings, as a CSV reader does.  Its numpy arrays are allocated
    once, so that part does not depend on the state of the allocator.
    """

    def __init__(self):
        self.a = np.random.default_rng(0).standard_normal(50_000)
        self.b, self.c = np.empty_like(self.a), np.empty_like(self.a)
        self.reference_work()  # warm-up
        self.last = self.reference_seconds()

    def reference_work(self) -> float:
        acc, parts = 0.0, []
        for i in range(8_000):
            x = i * 1e-3
            acc += math.sin(x) * x
            parts.append(f"{x:.6g},{acc:.9g}")
        rows = [{"x": f"{i * 1e-3:.6g}", "y": f"{i * 2e-3:.6g}", "key": "d1"} for i in range(20_000)]
        for row in rows:
            acc += float(row["x"]) - float(row["y"])
        a, b, c = self.a, self.b, self.c
        for k in range(4):
            np.multiply(a, k + 1.0, out=b)
            np.sin(b, out=c)
            np.cos(b, out=b)
            b += c
            b.sort()
            np.cumsum(b, out=c)
        return len("\n".join(parts)) + acc + float(c[-1])

    def reference_seconds(self) -> float:
        """Median wall time of REFERENCE_REPEATS runs of reference_work."""
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            self.reference_work()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self) -> float:
        """The factor for the interval since the previous call (or since construction)."""
        now = self.reference_seconds()
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def close_enough(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RESULT_RTOL, abs_tol=0.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """A workload whose operation is a sequence of fresh ``sbcpmu`` CLI processes."""

    def __init__(self, work: Path, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, size

    def cli_calls(self, index: int) -> list:
        raise NotImplementedError

    def before(self, index: int) -> None:
        """Untimed per-operation preparation."""

    def after(self, index: int, op: Op, outputs: list) -> None:
        """Untimed per-operation checks; fills op.work, op.artifact_bytes, op.errors."""
        raise NotImplementedError

    def run_op(self, index: int, traced: bool, speed: HostSpeed | None = None) -> Op:
        """One operation.  With ``speed``, each child process is scaled by its own bracket."""
        self.before(index)
        op, tracer, children, procs = Op(), Tracer(), [], []
        bracketing = 0.0  # time spent in speed.scale(), which is not the operation's
        start = time.perf_counter()
        root = tracer.begin("op", start)
        for k, argv in enumerate(self.cli_calls(index)):
            spans_path = self.work / f"spans{k}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "sbcpmu.cli", *argv]
            procs.append((tracer.begin("proc"), spans_path))
            child = run_child(cmd, self.work / f"child{k}.log")
            tracer.end(procs[-1][0])
            children.append(child)
            if speed is not None:
                _, proc_start, proc_end, _ = tracer.spans[procs[-1][0]]
                op.scaled += (proc_end - proc_start) * speed.scale()
                bracketing += time.perf_counter() - proc_end
            if child.code != 0:
                op.errors.append(f"`sbcpmu {argv[0]}` exited {child.code}: {child.output[-500:]}")
                break
        tracer.end(root)
        op.seconds = tracer.spans[root][2] - start - bracketing
        if speed is None:
            op.scaled = op.seconds
        op.peak_rss_mb = max(c.peak_rss_mb for c in children)
        if traced and not op.errors:
            for parent, spans_path in procs:
                tracer.adopt(*Tracer.load(spans_path), parent=parent)
            op.layers = (*self_times(tracer.spans, root), tracer.counts)
        if not op.errors:
            try:
                self.after(index, op, [c.output for c in children])
            except Exception as exc:  # outputs missing or malformed: a failed check
                op.errors.append(f"output check raised {exc!r}")
        return op


class SimulateRef(CliWorkload):
    name = "simulate-ref"

    def prepare(self, expected: dict) -> None:
        cfg = inputs.simulate_config(self.seed, self.size)
        self.config = self.work / "scenario.json"
        self.config.write_text(json.dumps(cfg, indent=2))
        self.expected = expected[str(cfg["run"]["seed"])]

    def rundir(self, index: int) -> Path:
        return self.work / f"run{index}"

    def cli_calls(self, index):
        rundir = str(self.rundir(index))
        return [["simulate", "--config", str(self.config), "--out", rundir], ["report", rundir]]

    def after(self, index, op, outputs):
        rundir = self.rundir(index)
        op.artifact_bytes = sum(p.stat().st_size for p in rundir.iterdir())
        with open(rundir / "manifest.json") as fh:
            manifest = json.load(fh)
        op.work = int(manifest["trials"])
        op.errors += check_simulate(manifest, outputs[1], self.expected)
        shutil.rmtree(rundir)


def check_simulate(manifest: dict, report: str, expected: dict) -> list:
    """Compare a run's manifest with the seed commit's, and the report's rows."""
    errors = []
    for key in ("grand_mean_tve", "fe_hz"):
        if not close_enough(float(manifest[key]), expected[key]):
            errors.append(f"manifest {key} = {manifest[key]!r}, seed commit {expected[key]!r}")
    if int(manifest["trials"]) != expected["trials"]:
        errors.append(f"manifest trials = {manifest['trials']}, expected {expected['trials']}")
    starts = [line.split("  ")[0] for line in report.splitlines()]
    for row in ("TVE grand mean", "TVE max of mean trace", "FE"):
        if row not in starts:
            errors.append(f"report has no {row!r} row")
    return errors


class CharacterizeMerge(CliWorkload):
    name = "characterize-merge"
    KINDS = ("sweep", "counter", "delay")

    def prepare(self, expected: dict) -> None:
        import sbcpmu
        from sbcpmu.blocks import chain_to_json

        self.truth = inputs.write_characterize_inputs(
            self.seed, self.size, self.work, chain_to_json(sbcpmu.paper_profile())
        )
        self.profile = self.work / "profile.json"

    def before(self, index):
        shutil.copyfile(self.work / "base_profile.json", self.profile)

    def cli_calls(self, index):
        return [
            [
                "characterize", kind, "--input", str(self.work / f"{kind}.csv"),
                "--output", str(self.work / f"{kind}.fragment.json"),
                "--merge-into", str(self.profile),
                "--known-base-hz", repr(inputs.KNOWN_BASE_HZ),
                "--nominal-rate-hz", repr(inputs.NOMINAL_RATE_HZ),
            ]
            for kind in self.KINDS
        ]

    def after(self, index, op, outputs):
        written = [self.profile] + [self.work / f"{k}.fragment.json" for k in self.KINDS]
        op.artifact_bytes = sum(p.stat().st_size for p in written)
        op.work = sum(self.truth[k]["rows"] for k in self.KINDS)
        op.errors += check_characterize(self.profile, self.truth)


def check_characterize(profile_path: Path, truth: dict) -> list:
    """The merged profile loads, and its fitted values sit near the generator's truth."""
    from sbcpmu import load_profile
    from sbcpmu.blocks import chain_to_json

    try:
        merged = chain_to_json(load_profile(profile_path))
    except Exception as exc:  # any failure to load is a failed check
        return [f"merged profile does not load: {exc!r}"]
    pairs = [
        ("adc gain_err_ppm mean", merged["adc"]["gain_err_ppm"]["mean"],
         truth["sweep"]["adc_gain_err_ppm"], truth["sweep"]["adc_gain_err_tol_ppm"]),
        ("timebase e_r_ppm mean", merged["timebase"]["e_r_ppm"]["mean"],
         truth["counter"]["e_r_ppm_mean"], truth["counter"]["e_r_tol_ppm"]),
    ]
    profiles = merged["pll"]["profiles"]
    for name, mean in truth["delay"]["delay_mean_us"].items():
        got = profiles[name]["mean_us"] if name in profiles else math.nan
        pairs.append((f"pll profile {name} mean_us", got, mean, truth["delay"]["delay_tol_us"][name]))
    return [
        f"{what} = {got!r}, truth {want!r} +- {tol:.3g}"
        for what, got, want, tol in pairs
        if not abs(got - want) <= tol
    ]


class McBatch:
    name = "mc-batch"

    def __init__(self, work: Path, seed: int, size: str):
        self.seed, self.size = seed, size

    def prepare(self, expected: dict) -> None:
        self.scenario = inputs.mc_scenario(self.seed, self.size)
        self.expected = expected[str(self.scenario.base_seed)]

    def run_op(self, index: int, traced: bool, speed: HostSpeed | None = None) -> Op:
        import sbcpmu

        op, tracer = Op(), Tracer()
        undo = tracer.install() if traced else []
        try:
            start = time.perf_counter()
            root = tracer.begin("op", start)
            try:
                result = sbcpmu.monte_carlo(self.scenario)
            except Exception as exc:  # a crashing operation is a failed one
                result = None
                op.errors.append(f"monte_carlo raised {exc!r}")
            tracer.end(root)
        finally:
            Tracer.uninstall(undo)
        op.seconds = tracer.spans[root][2] - start
        op.scaled = op.seconds * (speed.scale() if speed is not None else 1.0)
        op.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if result is not None:
            op.work = result.trials
            op.errors += check_mc(result.grand_mean_tve, result.trials, self.expected)
        if traced:
            op.layers = (*self_times(tracer.spans, root), tracer.counts)
        return op


def check_mc(grand_mean_tve: float, trials: int, expected: dict) -> list:
    errors = []
    if not close_enough(grand_mean_tve, expected["grand_mean_tve"]):
        errors.append(f"grand_mean_tve = {grand_mean_tve!r}, seed commit {expected['grand_mean_tve']!r}")
    if trials != expected["trials"]:
        errors.append(f"trials = {trials}, expected {expected['trials']}")
    return errors


WORKLOADS = {w.name: w for w in (SimulateRef, McBatch, CharacterizeMerge)}


# ---------------------------------------------------------------------------
# Set-up and import timings
# ---------------------------------------------------------------------------


def checked_child(argv: list, log: Path) -> str:
    child = run_child(argv, log)
    if child.code != 0:
        raise RuntimeError(f"{argv} exited {child.code}: {child.output[-500:]}")
    return child.output


def setup_seconds(work: Path, speed: HostSpeed) -> list:
    """Scaled times of fresh interpreters that import sbcpmu and resolve the paper profile."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        checked_child([sys.executable, "-c", "import sbcpmu; sbcpmu.paper_profile()"],
                      work / "setup.log")
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed.scale())
    return times


def import_seconds(work: Path) -> dict:
    """Median import times in fresh interpreters: sbcpmu, then each dependency it loaded.

    A dependency is timed alone, after the ones before it in IMPORT_MODULES,
    and counts 0 once sbcpmu stops importing it.
    """
    samples = {metric: [] for metric in ["import.sbcpmu_s", *IMPORT_MODULES]}
    modules = list(IMPORT_MODULES.values())
    for _ in range(SETUP_REPEATS):
        words = checked_child([sys.executable, "-c", IMPORT_SBCPMU, *modules],
                              work / "import.log").split()
        samples["import.sbcpmu_s"].append(float(words[0]))
        loaded = words[1:]
        each = checked_child([sys.executable, "-c", IMPORT_EACH, *loaded], work / "import.log")
        seconds = dict(zip(loaded, map(float, each.split())))
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(seconds.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list):
    """The highest percentile with at least ten samples beyond it, or the maximum.

    Returns (value, percentile).  With fewer than eleven samples no
    percentile has ten beyond it, so the maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(ops: list, setup: list) -> dict:
    good = [op for op in ops if not op.errors]
    seconds = [op.scaled for op in good]
    return {
        "op_s.p50": statistics.median(seconds),
        "op_s.tail": tail(seconds)[0],
        "work_per_s": statistics.median(op.work / s for op, s in zip(good, seconds)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in good),
    }


def layer_value(metric: str, traced: list) -> float:
    """Median over traced operations of one span-derived per-layer metric."""
    def per_op(fn):
        return statistics.median(fn(self_s, calls, counts) for self_s, calls, counts in traced)

    for suffix, scale in ((".self_s", 1.0), (".self_ms", 1e3)):
        if metric.endswith(suffix):
            layer = metric[: -len(suffix)]
            return per_op(lambda s, c, n: scale * s[layer])
    if metric.endswith(".self_us"):
        layer = metric[: -len(".self_us")]
        return per_op(lambda s, c, n: 1e6 * s[layer] / c[layer] if c[layer] else 0.0)
    if metric.endswith(".calls"):
        return per_op(lambda s, c, n: c[metric[: -len(".calls")]])
    return per_op(lambda s, c, n: n[metric])


def layer_metrics(ops: list, imports: dict) -> dict:
    good = [op for op in ops if not op.errors]
    traced = [op.layers for op in good if op.layers is not None]
    # the low median is one operation's time, so blocking_path_lines can show that operation
    traced_p50 = statistics.median_low(op.seconds for op in good if op.layers is not None)
    untraced_p50 = statistics.median(op.seconds for op in good if op.layers is None)
    special = {
        **imports,
        "artifact_mb": statistics.median(op.artifact_bytes for op in good) / 1e6,
        "trace.op_s.p50": traced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
    }
    return {m: special[m] if m in special else layer_value(m, traced) for m in PER_LAYER}


def blocking_path_lines(ops: list, metrics: dict) -> list:
    """Self times of the (low) median traced operation, largest first."""
    traced = sorted((op for op in ops if op.layers is not None and not op.errors),
                    key=lambda op: op.seconds)
    op = traced[(len(traced) - 1) // 2]
    overhead = metrics["trace.overhead_s"]
    untraced_p50 = metrics["trace.op_s.p50"] - overhead
    self_s = op.layers[0]
    total = sum(self_s.values())
    lines = [f"blocking path of the median traced op ({op.seconds:.4f} s):"]
    for layer, seconds in self_s.most_common():
        lines.append(f"  {layer:<36}{seconds:>10.4f} s {100 * seconds / op.seconds:6.1f} %")
    lines.append(
        f"  sum of self times {total:.4f} s; untraced op_s.p50 {untraced_p50:.4f} s; "
        f"the difference is the tracing overhead, {overhead:+.4f} s"
    )
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_sbcpmu():
    """Import sbcpmu from this checkout's src/, never from anywhere else."""
    if not (SRC / "sbcpmu" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sbcpmu package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sbcpmu

    if Path(sbcpmu.__file__).resolve().parent != (SRC / "sbcpmu").resolve():
        raise SystemExit(f"perfbench: imported sbcpmu from {sbcpmu.__file__}, not {SRC}")
    return sbcpmu


def measure(workload, seconds: float, speed: HostSpeed | None) -> list:
    """Run operations until ``seconds`` have passed.

    Without ``speed`` (the traced run), traced and untraced operations
    alternate and their times are not scaled.
    """
    trace = speed is None
    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < (2 if trace else 1):
        ops.append(workload.run_op(len(ops), traced=trace and len(ops) % 2 == 0, speed=speed))
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own test")
    args = parser.parse_args(argv)

    load_sbcpmu()
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.size]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.size)
        workload.prepare(expected.get(args.workload, {}))
        if args.trace:
            speed, setup, imports = None, [], import_seconds(work)
        else:
            speed = HostSpeed()
            setup, imports = setup_seconds(work, speed), {}
        ops = measure(workload, args.seconds, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()

    failed = [op for op in ops if op.errors]
    for op in failed[:5]:
        print("failed op:", "; ".join(op.errors), file=sys.stderr)
    # a traced run needs a good traced and a good untraced operation
    kinds = {op.layers is None for op in ops if not op.errors}
    if len(kinds) < (2 if args.trace else 1):
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(ops, imports)
    else:
        metrics = end_to_end_metrics(ops, setup)
    units = PER_LAYER if args.trace else END_TO_END

    good = [op.seconds for op in ops if not op.errors]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"  {'ops':<44}{len(ops):>14d}")
    print(f"  {'fail_ratio':<44}{len(failed) / len(ops):>14.4f}")
    for name, value in metrics.items():
        print(f"  {name:<44}{value:>14.6g} {units[name]}")
    if metrics and not args.trace:
        print(f"  (op_s.tail is p{tail(good)[1]:.0f} of {len(good)} ops)")
        artifact = statistics.median(op.artifact_bytes for op in ops if not op.errors) / 1e6
        print(f"  {'artifact_mb':<44}{artifact:>14.6g} MB")
        print(f"  {'unscaled op_s.p50':<44}{statistics.median(good):>14.6g} s")
        scales = [op.scaled / op.seconds for op in ops if not op.errors]
        print(f"  {'host speed scale (median, min, max)':<44}{statistics.median(scales):>14.4f} "
              f"{min(scales):.4f} {max(scales):.4f}")
    if metrics and args.trace:
        print("\n".join(blocking_path_lines(ops, metrics)))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
