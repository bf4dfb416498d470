"""Benchmark of the steinerloops library and its ``steiner`` command.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload classify --seed 1 --trace 1
    python3 perfbench/run.py --workload extend --seed 1 --quick

Each run is one fresh process and a closed loop: one caller, one call at a
time, and the workload's one ``steiner`` command run as a fresh subprocess at
a time. Every pass makes the same calls in the same order; the timings keep
each call's fastest time over the run's passes and the command's fastest run,
scaled to a fixed host speed by a reference loop timed before every call,
because the host's speed changes from second to second and from run to run
(NOTES.md). The library is imported from ``src/`` of the checkout. The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it holds the details (seed, environment,
sample counts, fail ratio, the unscaled timings). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer metrics from a run with the
library wrapped by ``spans.py``. ``--quick`` makes one pass with every check
on. See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("analyze", "classify", "symmetry", "extend")
SETUP_SAMPLES = 7  # set-up times per run, each in a fresh process; the median is reported
CLI_SAMPLES = 15  # CLI runs per run; the fastest is reported
CHILD_TIMEOUT = 120
# fastest time of reference_loop() on an idle core of the 2-vCPU Xeon VM the
# figures in NOTES.md come from; timings are reported at this host speed
REFERENCE_MS = 0.55
UNSET_ENV = ("STEINER_NUMBA", "STEINER_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def timed_setup(workload: str, seed: int):
    """Import the library (through the workload module) and build the inputs."""
    t0 = perf_counter()
    workloads = importlib.import_module("workloads")
    inputs = workloads.WORKLOADS[workload].setup(seed)
    return perf_counter() - t0, workloads, inputs


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def reference_loop() -> int:
    """Fixed pure-Python work whose time measures the host's current speed."""
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


class Recorder:
    """Times each library call of a pass and keeps its check for later.

    ``passes`` holds each pass's call durations in call order.

    ``between``, when set, runs before each call, outside the call's and the
    pass's timed regions; so does one timing of ``reference_loop`` when
    ``sample_reference`` is set.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.names: list[str] = []
        self.passes: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._checks: list = []
        self.between = None
        self.sample_reference = False
        self.reference: list[float] = []
        self._paused = 0.0

    def __call__(self, name, fn, *args, check=None):
        t0 = perf_counter()
        if self.between is not None:
            self.between()
        if self.sample_reference:
            t1 = perf_counter()
            reference_loop()
            self.reference.append(perf_counter() - t1)
        self._paused += perf_counter() - t0
        self.attempted += 1
        self.names.append(name)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising call is a failed call; the pass goes on
            self.durations.append(perf_counter() - t0)
            self.fail(f"{name} raised {exc!r}")
            return None
        self.durations.append(perf_counter() - t0)
        if check is not None:
            self._checks.append((name, check, result))
        return result

    def by_name(self) -> dict:
        """Sample count and median latency in ms of each kind of call."""
        groups: dict = {}
        for name, d in zip(self.names, self.durations):
            groups.setdefault(name, []).append(d)
        return {name: [len(ds), statistics.median(ds) * 1e3] for name, ds in sorted(groups.items())}

    def fail(self, why: str):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(why)

    def run_checks(self):
        checks, self._checks = self._checks, []
        for name, check, result in checks:
            try:
                ok = check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                self.fail(f"{name} check raised {exc!r}")
                continue
            if not ok:
                self.fail(f"{name} returned a wrong result")

    def run_pass(self, workload, inputs) -> float:
        gc.collect()
        self._paused = 0.0
        first = len(self.durations)
        t0 = perf_counter()
        workload.run_pass(inputs, self)
        elapsed = perf_counter() - t0 - self._paused
        self.passes.append(self.durations[first:])
        self.run_checks()
        return elapsed

    def fastest(self) -> list[float]:
        """Each call's fastest duration over the passes (the passes make the
        same calls in the same order)."""
        if len({len(p) for p in self.passes}) != 1:
            raise RuntimeError("passes made different numbers of calls")
        return [min(ds) for ds in zip(*self.passes)]


def run_cli(argv, expected_sha, rec: Recorder) -> float:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "steinerloops.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT,
    )
    elapsed = perf_counter() - t0
    rec.attempted += 1
    if proc.returncode != 0 or hashlib.sha256(proc.stdout).hexdigest() != expected_sha:
        rec.fail(f"steiner {' '.join(argv)}: exit {proc.returncode} or stdout differs")
    return elapsed


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    from steinerloops import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "kernel_backend": _kernels.backend_name(),
        "commit": git_commit(),
        "seed": seed,
    }


class Sampler:
    """Takes the run's set-up samples and CLI runs at evenly spaced times over
    the budget, between library calls, so that every metric samples the
    whole run and not one stretch of it."""

    def __init__(self, args, argv, expected_cli, rec: Recorder, setup_s):
        self.args, self.argv, self.expected_cli, self.rec = args, argv, expected_cli, rec
        self.setup_total = 1 if args.quick else SETUP_SAMPLES
        self.cli_total = 1 if args.quick else CLI_SAMPLES
        self.setups, self.cli_times = [setup_s], []
        self.t0 = perf_counter()

    def _take(self, share: float) -> bool:
        """Take one sample of whichever kind is behind ``share`` of its total."""
        if len(self.cli_times) < min(self.cli_total, 1 + int(self.cli_total * share)):
            self.cli_times.append(run_cli(self.argv, self.expected_cli, self.rec))
        elif len(self.setups) < min(self.setup_total, 1 + int(self.setup_total * share)):
            self.setups.append(setup_in_child(self.args.workload, self.args.seed))
        else:
            return False
        return True

    def between_calls(self):
        self._take((perf_counter() - self.t0) / self.args.seconds)

    def finish(self):
        while self._take(1.0):
            pass


def timed_run(args, workload, inputs, expected_cli, setup_s):
    rec = Recorder()
    sampler = Sampler(args, workload.cli_argv(inputs, WORKDIR), expected_cli, rec, setup_s)
    rec.between = sampler.between_calls
    rec.sample_reference = True
    passes = []
    while True:
        passes.append(rec.run_pass(workload, inputs))
        elapsed = perf_counter() - sampler.t0
        if args.quick:
            break
        # start another pass only if it is expected to end within the budget
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    sampler.finish()
    fastest = rec.fastest()
    measured = {
        "setup_s": statistics.median(sampler.setups),
        "pass_s": sum(fastest),
        "call_p50_ms": statistics.median(fastest) * 1e3,
        "call_p90_ms": statistics.quantiles(fastest, n=10)[-1] * 1e3,
        "cli_min_ms": min(sampler.cli_times) * 1e3,
    }
    # the host was this many times slower than at REFERENCE_MS
    slowdown = min(rec.reference) * 1e3 / REFERENCE_MS
    metrics = {name: value / slowdown for name, value in measured.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    details = {
        "unscaled": measured,
        "slowdown": slowdown,
        "reference_samples": len(rec.reference),
        "reference_median_ms": statistics.median(rec.reference) * 1e3,
        "passes": len(passes),
        "pass_s_all": passes,
        "calls_per_pass": len(fastest),
        "library_calls": len(rec.durations),
        "calls_by_name": rec.by_name(),
        "cli_ms_all": [t * 1e3 for t in sampler.cli_times],
        "setup_s_all": sampler.setups,
    }
    return rec, metrics, details


def traced_run(args, workload, inputs, expected_cli, per_layer):
    import spans

    rec = Recorder()
    untraced = rec.run_pass(workload, inputs)
    tracer = spans.Tracer()
    out = io.StringIO()
    tracer.install()
    try:
        traced_inputs = workload.setup(args.seed)
        gc.collect()
        first_span = len(tracer.start)
        t0 = perf_counter()
        workload.run_pass(traced_inputs, rec)
        traced = perf_counter() - t0
        pass_spans = [first_span, len(tracer.start)]
        argv = workload.cli_argv(traced_inputs, WORKDIR)
        with redirect_stdout(out):
            code = importlib.import_module("steinerloops.cli").main(argv)
    finally:
        tracer.uninstall()
    rec.run_checks()
    rec.attempted += 1
    if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != expected_cli:
        rec.fail("in-process steiner run: wrong exit code or stdout")
    layers = tracer.layers()
    apply_calls = layers.get("schreier.apply_aut", {}).get("calls", 0)
    special = {
        "trace.overhead_ratio": traced / untraced,
        "design_core.automorphisms.elements": tracer.elements,
        "schreier.apply_aut.useful_ratio": tracer.class_surplus / apply_calls if apply_calls else 0.0,
    }
    metrics = {}
    for name in per_layer:
        if name in special:
            metrics[name] = special[name]
            continue
        base, field = name.rsplit(".", 1)
        row = layers.get(base) or layers.get("_" + base) or {}
        metrics[name] = row.get(field, 0)
    summary = {"workload": args.workload, "seed": args.seed, "untraced_pass_s": untraced,
               "traced_pass_s": traced, "pass_spans": pass_spans, "layers": layers}
    (WORKDIR / f"layers-{args.workload}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    tracer.save(WORKDIR / f"spans-{args.workload}.npz", summary)
    details = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(tracer.start)}
    return rec, metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one pass, one CLI run, every check on")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "steinerloops" / "__init__.py").is_file():
        print(f"error: no steinerloops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # the run and its children share one CPU, whose speed the reference loop measures
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_s, workloads, inputs = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    expected_cli = workloads.REFERENCE["cli"][args.workload]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        rec, metrics, details = traced_run(args, workload, inputs, expected_cli, list(units))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rec, metrics, details = timed_run(args, workload, inputs, expected_cli, setup_s)
    details.update(
        workload=args.workload,
        trace=args.trace,
        quick=args.quick,
        env=environment(args.seed),
        fail_ratio=rec.failed / rec.attempted,
        errors=rec.errors,
    )
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
