"""The benchmark's cold CLI path, run as ``perfbench/run.py`` runs the
``cli-file`` workload: ``perfbench/launcher.py RECORD TRACE -- ARGS`` from
the repository root. The launcher reads ``tunectl.cli.run_control_loop``
before every command, ``--help`` included, and replaces it to keep a run's
snapshot, so that name must cost no import until a run calls it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXPERIMENT = """
name: cold
namespace: team
objective: {type: minimize, objectiveMetricName: loss}
algorithm:
  algorithmName: random
  settings: {random_state: 3}
parallelTrialCount: 2
maxTrialCount: 4
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -1.0, max: 1.0}}
trialTemplate:
  kind: simulated
  cpuPerWorker: 1.0
  payload: {functionName: sphere, durationTicks: 2}
"""


def _launch(record: Path, *args: str, importtime: bool = False) -> tuple[dict, str]:
    """Run one command through the launcher, untraced; its record and stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    python = [sys.executable, "-X", "importtime"] if importtime else [sys.executable]
    out = subprocess.run([*python, str(ROOT / "perfbench" / "launcher.py"), str(record), "0", "--", *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(record.read_text()), out.stderr


def test_help_under_the_launcher_imports_no_controller_and_no_resources(tmp_path):
    _, err = _launch(tmp_path / "help.json", "--help", importtime=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")]
    assert "tunectl.cli" in imported
    assert [m for m in imported if m.startswith(("tunectl.controller", "tunectl.resources"))] == []


def test_a_run_under_the_launcher_records_its_terminal_snapshot(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    store = str(tmp_path / "store")
    _launch(tmp_path / "submit.json", "submit", str(tmp_path / "exp.yaml"), "--store", store)
    record, _ = _launch(tmp_path / "run.json", "run", "--store", store, "--backend", "sim", "--seed", "1")
    assert record["snapshot"]["experiments"]["experiment/team/cold"]["phase"] == "Succeeded"
