"""The benchmark's own tests, on smoke sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", str(workloads.REFERENCE_SEED),
               "--seconds", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * sum(e.trials for e in workloads.build(workload, 1, "smoke").experiments)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_digests_of_a_different_output_fail_the_run():
    """A reference digest that does not match is an output-check failure."""
    checkout = ROOT / ".perfbench_runs" / "checkout-wrong-reference"
    shutil.rmtree(checkout, ignore_errors=True)
    shutil.copytree(BENCH, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["smoke"]["sim-800"]["csv"] = "0" * 64
    (checkout / "perfbench" / "reference.json").write_text(json.dumps(reference))
    try:
        out = _run(checkout, "--workload", "sim-800", "--seconds", "1", "--smoke")
        assert out.returncode != 0
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] is False
        assert result["failed"] == result["attempted"]
    finally:
        shutil.rmtree(checkout)


def test_without_the_program_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench_runs" / "checkout-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _run(bare, "--workload", "sim-800", "--seed", "3", "--seconds", "1", "--trace", "0")
        assert out.returncode != 0
        assert "{" not in out.stdout
    finally:
        shutil.rmtree(bare)


def test_hooks_import_nothing_and_wrap_each_module_once_the_program_imports_it():
    """Installing the hooks loads no program module; importing the program
    then wraps each layer exactly once."""
    script = """
import sys
import tracer
tr = tracer.Tracer()
tracer.install_layers(tr)
tracer.install_tick_timer(tracer.TickTimer())
print(sorted(m for m in sys.modules if m.split(".")[0] in ("tunectl", "numpy", "scipy", "yaml")))
import tunectl.cli
import tunectl.controller.reconcile as reconcile
from tunectl.cluster.sim import SimWorld
from tunectl.resources import parse_experiment
print(all(getattr(f, "perfbench_span", False) for f in (
    reconcile.controller_step, reconcile.get_suggestions, SimWorld.schedule_tick,
    tunectl.cli.parse_experiment, tunectl.cli.render_csv)))
print(parse_experiment.__wrapped__.__module__, hasattr(parse_experiment.__wrapped__, "__wrapped__"))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(BENCH), str(ROOT / "src")))}
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.split("\n")[:3] == ["[]", "True", "tunectl.resources False"]
