"""Tests of the benchmark itself, in quick mode (one pass, every check on).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct(workload):
    proc = bench("--workload", workload, "--seed", "7", "--quick")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    # at least ten calls of a pass lie beyond call_p90_ms
    assert json.loads(proc.stdout.splitlines()[-2])["calls_per_pass"] >= 100
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_each_call_keeps_its_fastest_time():
    import run

    rec = run.Recorder()
    rec.passes = [[0.3, 0.1, 0.2], [0.1, 0.2, 0.3]]
    assert rec.fastest() == [0.1, 0.1, 0.2]
    rec.passes.append([0.1])
    with pytest.raises(RuntimeError):
        rec.fastest()


def test_traced_run_reports_every_layer():
    proc = bench("--workload", "extend", "--seed", "7", "--quick", "--trace", "1")
    result = result_of(proc)
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["steiner_operator.double.calls"]["value"] == 65
    assert metrics["kernels.steiner_violation.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_tracer_restores_the_modules():
    import spans
    from steinerloops import design_core, schreier

    census, automorphisms, init = (
        design_core.census, schreier.automorphisms, design_core.TripleSystem.__init__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert design_core.census is not census
        design_core.census(design_core.validate_system(7, [
            (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]))
    finally:
        tracer.uninstall()
    assert design_core.census is census and schreier.automorphisms is automorphisms
    assert design_core.TripleSystem.__init__ is init
    layers = tracer.layers()
    assert layers["design_core.census"]["calls"] == 1
    assert layers["design_core.TripleSystem"]["calls"] == 1
    assert layers["_kernels.pasch_census.v7"]["calls"] == 1


def test_inputs_come_from_the_seed():
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        first, again = workload.setup(3), workload.setup(3)
        assert repr(first) == repr(again), name
    analyze = workloads.WORKLOADS["analyze"].setup
    assert analyze(3)["cases"][0].triples != analyze(4)["cases"][0].triples


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "extend", "--seed", "1", "--quick", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
