"""Cold commands import only what they use: scipy loads for BO alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EXPERIMENT = """
name: scope
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

# Runs one tunectl command the way the console script does, then reports
# whether scipy was imported on the way.
_CLI = """
import sys
from tunectl.cli import cli
try:
    cli.main(args=sys.argv[1:], prog_name="tunectl")
except SystemExit as exc:
    assert not exc.code, exc.code
print("scipy loaded:", "scipy" in sys.modules)
"""


def _python(code: str, *args: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout.strip().splitlines()[-1]


def test_cli_commands_on_a_random_experiment_leave_scipy_unloaded(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    for command in (
        ["--help"],
        ["submit", "exp.yaml", "--store", "store"],
        ["run", "--store", "store", "--seed", "1"],
        ["export", "scope", "--store", "store"],
    ):
        assert _python(_CLI, *command, cwd=tmp_path) == "scipy loaded: False", command


@pytest.mark.parametrize("name, loads_scipy", [("random", False), ("bayesianoptimization", True)])
def test_get_algorithm_imports_scipy_only_for_bayesian_optimization(tmp_path, name, loads_scipy):
    code = (
        "import sys\n"
        "from tunectl.suggest import get_algorithm\n"
        f"get_algorithm({name!r})\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _python(code, cwd=tmp_path) == str(loads_scipy)
