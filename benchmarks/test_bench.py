"""Self-test of the benchmark: python3 -m pytest benchmarks -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a corrupted reference value shows up as a failed operation, and
that the benchmark refuses to run without the program.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd)


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, key):
    proc = _run("--workload", "stability", "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(key)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if trace:
        assert result["metrics"]["dynamics.fft.per_step"]["value"] == 16
        assert result["metrics"]["dynamics.step.calls"]["value"] == 3125


def test_layer_metrics_cover_per_layer_names():
    names = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_s"}
    assert names == set(spans.PER_LAYER_UNITS) == set(_declared("per_layer"))


def test_corrupted_drift_reference_fails(workdir):
    wl = workloads.Stability(ROOT, workdir, seed=3)
    wl.setup()
    wl.ref["drift_tol"]["E"] = 1e-30
    ops = wl.run_pass().ops
    assert [op.ok for op in ops] == [False]
    assert "E drift" in ops[0].detail and not ops[0].known_defect


def test_corrupted_lame_reference_fails(workdir):
    wl = workloads.Spectra(ROOT, workdir, seed=3)
    wl.setup()
    wl.ref["lame_edges"][workloads.NU_STD][1] += 1e-6
    failed = [op for op in wl.run_pass().ops if not op.ok]
    assert [(op.name, op.known_defect) for op in failed] == [
        ("spectrum lame nu=0.2", False), ("sweep standard family", True)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stability", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
