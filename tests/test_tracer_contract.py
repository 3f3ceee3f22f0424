"""The benchmark's tracer wraps functions of the program by name, in each
module once the program imports it, and its hooks read attributes of the
program's objects when they are called. A rename or a removal in ``src/``
that drops one of those names breaks every traced benchmark run; these
checks find it in about a second each: one imports every hooked module under
the hooks, one runs a small file-backed simulated experiment and its export
under them, and one a small file-backed local-process experiment."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The modules still pending after ``install_layers`` are the ones it hooks;
# importing each runs its hook, which looks up every name it wraps.
_SCRIPT = """
import importlib
import tracer
tracer.install_layers(tracer.Tracer())
hooked = sorted(tracer._after_import.pending)
for name in hooked:
    importlib.import_module(name)
assert hooked and not tracer._after_import.pending, tracer._after_import.pending
print(*hooked)
"""


# Each hook runs: a tick reads the world's jobs, their phases and its pending
# units; a persist reads the backend's state directory and world file name.
_RUN = """
import json, sys, tempfile
from pathlib import Path
import tracer
tr = tracer.Tracer()
tracer.install_layers(tr)
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.resources import parse_experiment
from tunectl.results import build_results_table, render_csv

world = SimWorld(seed=1)
world.add_node(4.0)
world.add_namespace("bench")
run = SimBackend.open_run(Path(tempfile.mkdtemp()), lambda _store, metrics: SimBackend(world, metrics))
store, metrics, backend = run
submit_experiment(store, parse_experiment(sys.argv[1]))
snapshot = run_control_loop(store, metrics, backend)
run.close()
render_csv(build_results_table(store, metrics, "bench", "sphere"))
print(json.dumps({"snapshot": snapshot, **tr.summary()}))
"""

# The local backend's hooks and the commit path it inherits, with the
# simulator's hooks installed too: its trainers print one metric line each,
# and its commits and events go to the store directory.
_LOCAL_RUN = """
import json, sys, tempfile
from pathlib import Path
import tracer
tr = tracer.Tracer()
tracer.install_layers(tr)
from tunectl.cluster.localproc import LocalProcessBackend
from tunectl.cluster.sim import SimBackend
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.resources import parse_experiment

root = Path(tempfile.mkdtemp())
run = LocalProcessBackend.open_run(root, lambda _store, metrics: LocalProcessBackend(metrics, poll_interval=0.005))
store, metrics, backend = run
submit_experiment(store, parse_experiment(sys.argv[1].replace("PYTHON", sys.executable)))
snapshot = run_control_loop(store, metrics, backend)
run.close()
events = [json.loads(line)["kind"] for line in (root / "events.jsonl").read_text().splitlines()]
print(json.dumps({"snapshot": snapshot, "committed": json.loads(store.committed), "events": events, **tr.summary()}))
"""

_LOCAL_EXPERIMENT = """
name: sphere
namespace: bench
objective: {type: minimize, objectiveMetricName: loss}
algorithm: {algorithmName: random, settings: {random_state: 1}}
parallelTrialCount: 2
maxTrialCount: 2
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -2, max: 2}}
trialTemplate:
  kind: local-process
  payload: "PYTHON -c 'print(1, \\"loss=0.5\\")'"
"""

_EXPERIMENT = """
name: sphere
namespace: bench
objective: {type: minimize, objectiveMetricName: loss}
algorithm: {algorithmName: random, settings: {random_state: 1}}
parallelTrialCount: 2
maxTrialCount: 4
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -2, max: 2}}
trialTemplate:
  kind: simulated
  payload: {functionName: sphere, durationTicks: 2}
"""


def _under_the_tracer(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), str(ROOT / "src")))}
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_every_module_the_tracer_hooks_imports_under_its_hooks():
    out = _under_the_tracer(_SCRIPT)
    assert out.returncode == 0, out.stderr[-3000:]
    hooked = out.stdout.split()
    assert {"tunectl.metrics", "tunectl.cluster.sim", "tunectl.cluster.localproc"} <= set(hooked)


def test_a_file_backed_simulated_run_and_its_export_run_under_the_tracer_s_hooks():
    out = _under_the_tracer(_RUN, _EXPERIMENT)
    assert out.returncode == 0, out.stderr[-3000:]
    traced = json.loads(out.stdout)
    assert traced["snapshot"]["experiments"]["experiment/bench/sphere"]["phase"] == "Succeeded"
    counters, spans = traced["counters"], traced["spans"]
    assert counters["sim.ticks"] > 0 and counters["sim.placements"] == 5  # four trials and the service
    assert counters["sim.jobs_live"] > 0 and counters["sim.jobs_total"] == 2
    assert "sim.pending_units" in counters and counters["sim.snapshot.bytes"] > 0
    for name in ("sim.tick", "sim.schedule", "sim.snapshot", "controller.step", "reconcile.trial",
                 "store.update", "store.load", "suggest.random", "metrics.register", "resources.parse",
                 "results.build", "results.render"):
        assert spans[name]["calls"] > 0, name


def test_a_file_backed_local_run_runs_under_the_tracer_s_hooks():
    out = _under_the_tracer(_LOCAL_RUN, _LOCAL_EXPERIMENT)
    assert out.returncode == 0, out.stderr[-3000:]
    traced = json.loads(out.stdout)
    assert traced["snapshot"]["experiments"]["experiment/bench/sphere"]["phase"] == "Succeeded"
    assert traced["committed"]["trainers"] == {}
    assert sorted(traced["events"]) == ["job-submitted"] * 2 + ["job-succeeded"] * 2
    for name in ("localproc.submit", "localproc.job_state", "localproc.collect", "localproc.advance",
                 "metrics.parse", "controller.step", "store.update"):
        assert traced["spans"][name]["calls"] > 0, name
