"""Golden digests: a fixed-seed CLI run must keep producing the same bytes.

The run uses a scenario with gang scheduling, a namespace quota, the
autoscaler and kill-worker chaos; it is stopped with ``--max-ticks`` and
then resumed. The digests pin ``events.jsonl``, the final ``world.jsonl``, the
printed run summaries and the CSV export. A deliberate format change updates them (and says so
in the change log); any other change to them is a behaviour change.
"""

from __future__ import annotations

import hashlib
import textwrap

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
    "events": "db8744cfc99a4060986f46be6c212c240ba2d7d95a530ab430af4f95ca2c9093",
    "world": "93ea8f5340cf16a42d22a2dc1859e4f19502b182d45ae5a7160049af6ada0964",
    "summary": "0e4af7f76cf4732d867353c66fe805e25146110568c0a2cbcf9a99a49ddc918e",
    "csv": "6b2eff394d30a358ad445205ef75b4ca0c55a0059f44f8a2ad43953b55cbdd97",
}


def _sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def test_interrupted_scenario_run_matches_golden_digests(tmp_path):
    (tmp_path / "a.yaml").write_text(EXPERIMENT.format(name="exp-a", state=1))
    (tmp_path / "b.yaml").write_text(EXPERIMENT.format(name="exp-b", state=2))
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(textwrap.dedent(SCENARIO))
    store = tmp_path / "store"
    runner = CliRunner()

    partial = runner.invoke(
        cli, ["run", "--store", str(store), "--scenario", str(scenario), "--max-ticks", "9"]
    )
    assert partial.exit_code == 0, partial.output
    assert "Running" in partial.output
    resumed = runner.invoke(cli, ["run", "--store", str(store)])
    assert resumed.exit_code == 0, resumed.output
    assert resumed.output.count("Succeeded") == 2
    exported = runner.invoke(cli, ["export", "exp-a", "--store", str(store), "--format", "csv"])
    assert exported.exit_code == 0, exported.output

    events = (store / "events.jsonl").read_bytes()
    assert b'"chaos-kill"' in events and b'"node-added"' in events
    digests = {
        "events": _sha(events),
        "world": _sha((store / "world.jsonl").read_bytes()),
        "summary": _sha(partial.output + resumed.output),
        "csv": _sha(exported.output),
    }
    assert digests == GOLDEN
