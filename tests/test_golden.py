"""Golden digests: a fixed-seed CLI run must keep producing the same bytes.

The run uses a scenario with gang scheduling, a namespace quota, the
autoscaler and kill-worker chaos; it is stopped with ``--max-ticks`` and
then resumed. The digests pin ``events.jsonl``, the last commit of the
compacted ``journal.jsonl`` (the final world), the printed run summaries
and the CSV export. A deliberate format change updates them (and says so
in the change log); any other change to them is a behaviour change. The
stopped-then-resumed run must also end with the same event log, world and
export, byte for byte, as its uninterrupted twin.
"""

from __future__ import annotations

import hashlib
import textwrap
from pathlib import Path

from click.testing import CliRunner

from tunectl.cli import cli

EXPERIMENT = """
name: {name}
namespace: team
objective:
  type: minimize
  objectiveMetricName: loss
algorithm:
  algorithmName: random
  settings: {{random_state: {state}}}
parallelTrialCount: 3
maxTrialCount: 12
maxFailedTrialCount: 4
parameters:
  - {{name: x, parameterType: double, feasibleSpace: {{min: -2.0, max: 2.0}}}}
  - {{name: y, parameterType: double, feasibleSpace: {{min: -2.0, max: 2.0}}}}
trialTemplate:
  kind: simulated
  workerCount: 2
  cpuPerWorker: 1.0
  restartPolicy: on-temporary-failure
  payload: {{functionName: sphere, durationTicks: 4}}
"""

SCENARIO = """
seed: 23
gang: true
nodes: [{capacityCpu: 4, count: 1}]
namespaces:
  - {name: team, cpuLimit: 7}
autoscaler: {minNodes: 1, maxNodes: 3, nodeCapacityCpu: 4, scaleDownGraceTicks: 3}
chaos: {mode: kill-worker, fraction: 0.3, intervalTicks: 4, seed: 5}
experiments: [a.yaml, b.yaml]
"""

GOLDEN = {
    "events": "f1310e7bf1ab2443ff248213cf97cbd83d98a244aeca6e9b721e325f8227751e",
    "world": "5851332251a86a5cefdfd29a2f9690ef71a3e1ef1bfb92943bb0846471c8a7af",
    "summary": "0e4af7f76cf4732d867353c66fe805e25146110568c0a2cbcf9a99a49ddc918e",
    "csv": "6b2eff394d30a358ad445205ef75b4ca0c55a0059f44f8a2ad43953b55cbdd97",
}


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _lay_out(directory) -> Path:
    """Write the experiment and scenario files; return the scenario's path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "a.yaml").write_text(EXPERIMENT.format(name="exp-a", state=1))
    (directory / "b.yaml").write_text(EXPERIMENT.format(name="exp-b", state=2))
    scenario = directory / "scenario.yaml"
    scenario.write_text(textwrap.dedent(SCENARIO))
    return scenario


def _files(store: Path, exported: str) -> dict[str, bytes]:
    return {
        "events": (store / "events.jsonl").read_bytes(),
        "world": (store / "journal.jsonl").read_bytes().splitlines(keepends=True)[-1],
        "csv": exported.encode("utf-8"),
    }


def _export(runner: CliRunner, store: Path) -> str:
    exported = runner.invoke(cli, ["export", "exp-a", "--store", str(store), "--format", "csv"])
    assert exported.exit_code == 0, exported.output
    return exported.output


def _interrupted(runner: CliRunner, directory: Path) -> tuple[str, dict[str, bytes]]:
    """Run to tick 9, resume to the end; return the summaries and the files."""
    scenario, store = _lay_out(directory), directory / "store"
    partial = runner.invoke(
        cli, ["run", "--store", str(store), "--scenario", str(scenario), "--max-ticks", "9"]
    )
    assert partial.exit_code == 0, partial.output
    assert "Running" in partial.output
    resumed = runner.invoke(cli, ["run", "--store", str(store)])
    assert resumed.exit_code == 0, resumed.output
    assert resumed.output.count("Succeeded") == 2
    return partial.output + resumed.output, _files(store, _export(runner, store))


def test_interrupted_scenario_run_matches_golden_digests(tmp_path):
    summary, files = _interrupted(CliRunner(), tmp_path)
    assert b'"chaos-kill"' in files["events"] and b'"node-added"' in files["events"]
    digests = {"summary": _sha(summary), **{name: _sha(data) for name, data in files.items()}}
    assert digests == GOLDEN


def test_the_interrupted_run_ends_with_the_bytes_of_its_uninterrupted_twin(tmp_path):
    runner = CliRunner()
    _, resumed = _interrupted(runner, tmp_path / "interrupted")
    scenario, store = _lay_out(tmp_path / "twin"), tmp_path / "twin" / "store"
    straight = runner.invoke(cli, ["run", "--store", str(store), "--scenario", str(scenario)])
    assert straight.exit_code == 0, straight.output
    twin = _files(store, _export(runner, store))
    for name in twin:
        assert resumed[name] == twin[name], name
