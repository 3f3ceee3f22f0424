"""Operator CLI: exit codes, determinism, export formats, resume."""

from __future__ import annotations

import copy
import csv
import fcntl
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from tunectl.cli import cli

EXPERIMENT = """
name: cli-exp
namespace: team
objective:
  type: minimize
  objectiveMetricName: loss
algorithm:
  algorithmName: grid
parallelTrialCount: 2
maxTrialCount: 6
parameters:
  - {name: lr, parameterType: discrete, feasibleSpace: {values: [0.25, 0.5]}}
  - {name: opt, parameterType: categorical, feasibleSpace: {values: [sgd, adam]}}
trialTemplate:
  kind: simulated
  cpuPerWorker: 1.0
  payload: {functionName: sphere, durationTicks: 2}
"""


@pytest.fixture
def runner():
    return CliRunner()


def _submit(runner, tmp_path, text=EXPERIMENT, name="exp.yaml"):
    exp = tmp_path / name
    exp.write_text(text)
    return runner.invoke(cli, ["submit", str(exp), "--store", str(tmp_path / "store")])


def test_submit_prints_key_and_exits_zero(runner, tmp_path):
    result = _submit(runner, tmp_path)
    assert result.exit_code == 0
    assert result.output.strip() == "experiment/team/cli-exp"


def test_submit_invalid_file_exits_2_with_all_errors(runner, tmp_path):
    bad = EXPERIMENT.replace("{values: [0.25, 0.5]}", "{values: []}").replace(
        "parallelTrialCount: 2", "parallelTrialCount: 9"
    )
    result = _submit(runner, tmp_path, text=bad)
    assert result.exit_code == 2
    assert "non-empty list" in result.output
    assert "parallelTrialCount" in result.output


@pytest.mark.parametrize(
    "algorithm, setting",
    [
        ("random", "random_state: -1"),
        ("random", "random_state: abc"),
        ("random", "random_state: 1.5"),
        ("random", "random_state: true"),
        ("hyperband", "eta: 1"),
        ("hyperband", "eta: 0"),
        ("hyperband", "eta: abc"),
        ("hyperband", "max_resource: -5"),
        ("hyperband", "max_resource: .inf"),
    ],
)
def test_submit_refuses_a_setting_the_run_cannot_use(runner, tmp_path, algorithm, setting):
    # Each of these was accepted, and crashed the run or was silently truncated.
    text = EXPERIMENT.replace("algorithmName: grid", f"algorithmName: {algorithm}\n  settings: {{{setting}}}")
    result = _submit(runner, tmp_path, text=text)
    assert result.exit_code == 2, result.output
    assert f"algorithm.settings.{setting.split(':')[0]}: must be " in result.output


@pytest.mark.parametrize("bounds", ["{min: 0, max: 100000000000000000000}", "{min: -9223372036854775809, max: 0}"])
def test_submit_refuses_int_bounds_outside_int64(runner, tmp_path, bounds):
    text = EXPERIMENT.replace("algorithmName: grid", "algorithmName: random").replace(
        "{name: lr, parameterType: discrete, feasibleSpace: {values: [0.25, 0.5]}}",
        f"{{name: n, parameterType: int, feasibleSpace: {bounds}}}",
    )
    result = _submit(runner, tmp_path, text=text)
    assert result.exit_code == 2, result.output
    assert "parameters[0].feasibleSpace.m" in result.output and "64-bit" in result.output


def test_int_bounds_at_the_int64_limits_run(runner, tmp_path):
    text = EXPERIMENT.replace("algorithmName: grid", "algorithmName: random").replace(
        "{name: lr, parameterType: discrete, feasibleSpace: {values: [0.25, 0.5]}}",
        "{name: n, parameterType: int, feasibleSpace: {min: -9223372036854775808, max: 9223372036854775807}}",
    )
    assert _submit(runner, tmp_path, text=text).exit_code == 0
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store")])
    assert result.exit_code == 0, result.output
    assert "Succeeded" in result.output


@pytest.mark.parametrize("command", [["run", "--store", "store"], ["scenario", "portability"]])
def test_a_negative_seed_option_exits_2_naming_it(runner, tmp_path, command):
    assert _submit(runner, tmp_path).exit_code == 0
    command = [str(tmp_path / arg) if arg == "store" else arg for arg in command]
    result = runner.invoke(cli, [*command, "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "'--seed'" in result.output


def test_a_negative_max_ticks_option_exits_2_naming_it(runner, tmp_path):
    # It stopped before the first tick and exited 0.
    assert _submit(runner, tmp_path).exit_code == 0
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store"), "--max-ticks", "-3"])
    assert result.exit_code == 2, result.output
    assert "'--max-ticks'" in result.output


def test_resubmit_same_name_conflicts_with_exit_3(runner, tmp_path):
    assert _submit(runner, tmp_path).exit_code == 0
    result = _submit(runner, tmp_path)
    assert result.exit_code == 3
    assert "already exists" in result.output


def test_run_then_export_row_count_matches_spawned(runner, tmp_path):
    _submit(runner, tmp_path)
    store = str(tmp_path / "store")
    result = runner.invoke(cli, ["run", "--store", store, "--backend", "sim", "--seed", "5"])
    assert result.exit_code == 0, result.output
    assert "Succeeded" in result.output
    assert "spawned=4" in result.output  # grid of 4 < maxTrialCount 6

    exported = runner.invoke(cli, ["export", "cli-exp", "--store", store, "--format", "csv"])
    assert exported.exit_code == 0
    rows = list(csv.reader(io.StringIO(exported.output)))
    assert rows[0] == ["trial", "lr", "opt", "loss", "phase", "restartCount"]
    assert len(rows) - 1 == 4


def test_export_formats_carry_identical_data(runner, tmp_path):
    _submit(runner, tmp_path)
    store = str(tmp_path / "store")
    runner.invoke(cli, ["run", "--store", store])
    as_csv = runner.invoke(cli, ["export", "cli-exp", "--store", store, "--format", "csv"]).output
    as_jsonl = runner.invoke(cli, ["export", "cli-exp", "--store", store, "--format", "jsonl"]).output
    csv_rows = list(csv.DictReader(io.StringIO(as_csv)))
    jsonl_rows = [json.loads(line) for line in as_jsonl.splitlines()]
    assert len(csv_rows) == len(jsonl_rows)
    for c, j in zip(csv_rows, jsonl_rows):
        assert c["trial"] == j["trial"]
        assert float(c["loss"]) == j["loss"]
        assert c["lr"] == repr(j["lr"])
        assert c["phase"] == j["phase"]


def test_export_is_deterministic_byte_for_byte(runner, tmp_path):
    _submit(runner, tmp_path)
    store = str(tmp_path / "store")
    runner.invoke(cli, ["run", "--store", store, "--seed", "5"])
    first = runner.invoke(cli, ["export", "cli-exp", "--store", store]).output
    second = runner.invoke(cli, ["export", "cli-exp", "--store", store]).output
    assert first == second


def test_identical_seeded_runs_are_byte_identical(runner, tmp_path):
    outputs = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        (base / "exp.yaml").write_text(EXPERIMENT)
        store = str(base / "store")
        runner.invoke(cli, ["submit", str(base / "exp.yaml"), "--store", store])
        run_out = runner.invoke(cli, ["run", "--store", store, "--seed", "5"]).output
        export_out = runner.invoke(
            cli, ["export", "cli-exp", "--store", store, "--format", "jsonl"]
        ).output
        outputs.append(run_out + export_out)
    assert outputs[0] == outputs[1]


def test_export_unknown_experiment_exits_nonzero(runner, tmp_path):
    _submit(runner, tmp_path)
    result = runner.invoke(cli, ["export", "ghost", "--store", str(tmp_path / "store")])
    assert result.exit_code == 4


def test_interrupted_run_resumes_to_same_terminal_state(runner, tmp_path):
    # Differential: a run stopped mid-flight and resumed must match an
    # uninterrupted run with the same seed.
    _submit(runner, tmp_path)
    clean_store = str(tmp_path / "store")
    result = runner.invoke(cli, ["run", "--store", clean_store, "--seed", "5"])
    clean_summary = result.output

    other = tmp_path / "other"
    other.mkdir()
    exp = other / "exp.yaml"
    exp.write_text(EXPERIMENT)
    resumed_store = str(other / "store")
    runner.invoke(cli, ["submit", str(exp), "--store", resumed_store])
    partial = runner.invoke(
        cli, ["run", "--store", resumed_store, "--seed", "5", "--max-ticks", "3"]
    )
    assert "Succeeded" not in partial.output  # stopped before termination
    resumed = runner.invoke(cli, ["run", "--store", resumed_store, "--seed", "5"])
    assert resumed.output == clean_summary


def test_run_with_scenario_file(runner, tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(EXPERIMENT)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        textwrap.dedent(
            """
            seed: 11
            nodes: [{capacityCpu: 4, count: 2}]
            namespaces:
              - {name: team, cpuLimit: 6}
            experiments: [exp.yaml]
            """
        )
    )
    store = str(tmp_path / "store")
    result = runner.invoke(cli, ["run", "--store", store, "--scenario", str(scenario)])
    assert result.exit_code == 0, result.output
    assert "Succeeded" in result.output


@pytest.mark.parametrize(
    "block",
    [
        "autoscaler: {minNodes: 1, nodeCapacityCpu: 4}",
        "chaos: {mode: fail-trial, fraction: lots, intervalTicks: 5}",
        "chaos: {mode: fail-trial, fraction: 1.5, intervalTicks: 5}",
        "chaos: {mode: fail-trial, fraction: -0.5, intervalTicks: 5}",
        "chaos: {mode: fail-trial, fraction: 0.5, intervalTicks: 0}",
        "autoscaler: {minNodes: 0, maxNodes: 2, nodeCapacityCpu: 4}",
        "autoscaler: {minNodes: 3, maxNodes: 2, nodeCapacityCpu: 4}",
        'gang: "no"',
        'seed: "7"',
        "nodez: [4]",
        "nodes: [{capacityCpu: 4, count: 0}]",
        "nodes: [0]",
        "nodes: [{capacityCpu: -1, count: 2}]",
        "namespaces: [team, {name: team, cpuLimit: 4}]",
        "experiments: [missing.yaml]",
    ],
)
def test_run_with_malformed_scenario_exits_2(runner, tmp_path, block):
    exp = tmp_path / "exp.yaml"
    exp.write_text(EXPERIMENT)
    scenario = tmp_path / "scenario.yaml"
    doc = {"nodes": [4], "experiments": ["exp.yaml"], **yaml.safe_load(block)}
    scenario.write_text(yaml.safe_dump(doc))
    store = str(tmp_path / "store")
    result = runner.invoke(cli, ["run", "--store", store, "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert "scenario:" in result.output


@pytest.mark.parametrize(
    "block, error",
    [
        ("seed: -3", "scenario: seed: must be >= 0"),
        ("chaos: {mode: kill-worker, fraction: 0.5, intervalTicks: 5, seed: -1}", "scenario: chaos.seed: must be >= 0"),
    ],
)
def test_a_scenario_file_with_a_negative_seed_exits_2_naming_it(runner, tmp_path, block, error):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    doc = {"nodes": [4], "namespaces": ["team"], "experiments": ["exp.yaml"], **yaml.safe_load(block)}
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(doc))
    scenario = str(tmp_path / "scenario.yaml")
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store"), "--scenario", scenario])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [error]


@pytest.mark.parametrize(
    "block, error",
    [
        # A zero or NaN capacity crashed the autoscaler with a traceback.
        ("autoscaler: {minNodes: 1, maxNodes: 2, nodeCapacityCpu: 0}", "autoscaler.nodeCapacityCpu: must be > 0"),
        ("autoscaler: {minNodes: 1, maxNodes: 2, nodeCapacityCpu: .nan}", "autoscaler.nodeCapacityCpu: must be finite"),
        ("autoscaler: {minNodes: 1, maxNodes: 2, nodeCapacityCpu: 4, scaleDownGraceTicks: -1}",
         "autoscaler.scaleDownGraceTicks: must be >= 0"),
        # A quota of no CPU placed nothing, and the run ticked to maxTicks.
        ("namespaces: [{name: team, cpuLimit: -4}]", "namespaces[0].cpuLimit: must be > 0"),
        ("namespaces: [{name: team, cpuLimit: .inf}]", "namespaces[0].cpuLimit: must be finite"),
        ("maxTicks: -1", "maxTicks: must be >= 0"),
    ],
)
def test_a_scenario_file_refuses_a_number_the_run_cannot_use(runner, tmp_path, block, error):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    doc = {"nodes": [4], "namespaces": ["team"], "experiments": ["exp.yaml"], **yaml.safe_load(block)}
    (tmp_path / "scenario.yaml").write_text(yaml.safe_dump(doc))
    scenario = str(tmp_path / "scenario.yaml")
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store"), "--scenario", scenario])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"scenario: {error}"]


def test_a_scenario_file_with_several_problems_reports_each_under_its_path(runner, tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        textwrap.dedent(
            """
            seed: "7"
            gang: "no"
            nodez: [4]
            nodes: [4, {capacityCpu: 4, count: 0}]
            chaos: {mode: bogus, fraction: 1.5, intervalTicks: 5}
            experiments: [exp.yaml]
            """
        )
    )
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store"), "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [
        "scenario: seed: expected int, got '7'",
        "scenario: gang: expected bool, got 'no'",
        "scenario: nodes[1].count: must be >= 1",
        "scenario: chaos.mode: expected one of [fail-trial, kill-worker], got 'bogus'",
        "scenario: chaos.fraction: must be <= 1",
        "scenario: unknown field 'nodez'",
    ]


def test_a_scenario_file_names_each_empty_node_and_repeated_namespace(runner, tmp_path):
    # Such a world loaded before, and ran to maxTicks with its experiment still Running.
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        textwrap.dedent(
            """
            nodes: [4, 0, {capacityCpu: 0}, -2]
            namespaces: [team, other, {name: team, cpuLimit: 4}]
            experiments: [exp.yaml]
            """
        )
    )
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store"), "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [
        "scenario: nodes[2].capacityCpu: must be > 0",
        "scenario: nodes[1]: must be > 0",
        "scenario: nodes[3]: must be > 0",
        "scenario: namespaces[2]: 'team' is named twice",
    ]


def test_unknown_scenario_exits_2_listing_the_scenarios(runner):
    result = runner.invoke(cli, ["scenario", "no-such-scenario"])
    assert result.exit_code == 2
    assert "multi-tenancy, autoscale, chaos-fail, chaos-kill, portability" in result.output


def test_run_empty_store_exits_4(runner, tmp_path):
    result = runner.invoke(cli, ["run", "--store", str(tmp_path / "store")])
    assert result.exit_code == 4


def test_run_local_backend(runner, tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        textwrap.dedent(
            f"""
            name: local-exp
            namespace: team
            objective:
              type: maximize
              objectiveMetricName: accuracy
            algorithm:
              algorithmName: random
              settings: {{random_state: 1}}
            parallelTrialCount: 2
            maxTrialCount: 2
            parameters:
              - {{name: lr, parameterType: double, feasibleSpace: {{min: 0.0, max: 1.0}}}}
            trialTemplate:
              kind: local-process
              payload: "{sys.executable} -c \\"print('1 accuracy=0.9')\\""
            """
        )
    )
    store = str(tmp_path / "store")
    runner.invoke(cli, ["submit", str(exp), "--store", store])
    result = runner.invoke(cli, ["run", "--store", store, "--backend", "local"])
    assert result.exit_code == 0, result.output
    assert "Succeeded" in result.output
    assert "best: 0.9" in result.output


def test_run_refuses_a_scenario_on_the_local_backend_before_opening_the_store(runner, tmp_path):
    # A scenario describes a simulated world; the local backend would drop
    # it and its experiments without a word.
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text("experiments: [exp.yaml]\n")
    store = tmp_path / "store"
    result = runner.invoke(cli, ["run", "--store", str(store), "--backend", "local", "--scenario", str(scenario)])
    assert result.exit_code == 2, result.output
    assert "--scenario" in result.output
    assert not store.exists()


def test_store_flag_from_environment(runner, tmp_path, monkeypatch):
    exp = tmp_path / "exp.yaml"
    exp.write_text(EXPERIMENT)
    monkeypatch.setenv("TUNECTL_STORE", str(tmp_path / "envstore"))
    result = runner.invoke(cli, ["submit", str(exp)])
    assert result.exit_code == 0
    assert (tmp_path / "envstore" / "journal.jsonl").exists()


def _store_files(store):
    return {p: p.read_bytes() for p in sorted(store.rglob("*")) if p.is_file()}


def _trial_line(journal):
    """The number of a trial record in the journal that is not its last line."""
    lines = journal.read_text().splitlines()
    return next(n for n, line in enumerate(lines[:-1], 1) if json.loads(line).get("kind") == "trial")


def _rewrite_line(journal, number, text):
    lines = journal.read_text().splitlines(keepends=True)
    lines[number - 1] = text + "\n"
    journal.write_text("".join(lines))


def _precodec_trial(store):
    # Before the dataclass codec, assignments were stored as {name, value} mappings.
    journal = store / "journal.jsonl"
    number = _trial_line(journal)
    doc = json.loads(journal.read_text().splitlines()[number - 1])
    doc["spec"]["assignments"] = [{"name": n, "value": v} for n, v in doc["spec"]["assignments"]]
    _rewrite_line(journal, number, json.dumps(doc))
    return f"{journal}:{number}"


def _trial_with_run_spec(store):
    # Earlier versions kept each trial's rendered run spec in its spec.
    journal = store / "journal.jsonl"
    number = _trial_line(journal)
    doc = json.loads(journal.read_text().splitlines()[number - 1])
    doc["spec"]["runSpec"] = {
        "trialName": doc["name"],
        "namespace": doc["namespace"],
        "resolvedPayload": {"functionName": "sphere", "durationTicks": 2, "noiseStdDev": 0.0, "rngSeedOffset": 0},
        "parameterAssignments": [[n, str(v)] for n, v in doc["spec"]["assignments"]],
    }
    _rewrite_line(journal, number, json.dumps(doc))
    return f"{journal}:{number}"


def _suggestion_with_its_experiment(store):
    # Earlier versions copied the experiment's name and algorithm into its
    # suggestion's spec.
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    number = next(n for n, line in enumerate(lines, 1) if json.loads(line).get("kind") == "suggestion")
    doc = json.loads(lines[number - 1])
    algorithm = {"algorithmName": "grid", "settings": {}}
    doc["spec"] = {"experiment": doc["name"], "algorithm": algorithm, **doc["spec"]}
    _rewrite_line(journal, number, json.dumps(doc))
    return f"{journal}:{number}"


def _experiment_without_parallel_slots(store):
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    number = max(n for n, line in enumerate(lines, 1) if json.loads(line).get("kind") == "experiment")
    doc = json.loads(lines[number - 1])
    doc["spec"]["parallelTrialCount"] = 0
    _rewrite_line(journal, number, json.dumps(doc))
    return f"{journal}:{number}"


def _invalid_json(store):
    journal = store / "journal.jsonl"
    number = _trial_line(journal)
    _rewrite_line(journal, number, '{"kind": "trial", "spec": {"assignments": [')
    return f"{journal}:{number}"


def _invalid_yaml(store):
    # Earlier versions kept one YAML file per resource and no journal; such a
    # store must not open as an empty one, whatever its files hold.
    (store / "journal.jsonl").unlink()
    (store / "trials").mkdir()
    (store / "trials" / "team.cli-exp-0000.yaml").write_text("kind: trial\nspec: {assignments: [\n")
    return str(store)


def test_unreadable_record_error_stays_short_however_large_the_record(runner, tmp_path):
    # A suggestion record of the format that listed every produced set: the
    # decoder's message quotes the whole list, one set per spawned trial.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--seed", "5", "--max-ticks", "1"]).exit_code == 0
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    number = next(n for n, line in enumerate(lines, 1) if json.loads(line).get("kind") == "suggestion")
    doc = json.loads(lines[number - 1])
    doc["status"]["produced"] = [
        {"assignments": [["lr", 0.25], ["opt", "sgd"]], "consumed": True} for _ in range(200)
    ]
    _rewrite_line(journal, number, json.dumps(doc))
    result = runner.invoke(cli, ["export", "cli-exp", "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert f"{journal}:{number}: " in result.output
    assert "[cut]" in result.output
    assert len(result.output) < len(str(journal)) + 400


@pytest.mark.parametrize(
    "corrupt",
    [
        _precodec_trial,
        _trial_with_run_spec,
        _suggestion_with_its_experiment,
        _experiment_without_parallel_slots,
        _invalid_yaml,
        _invalid_json,
    ],
)
@pytest.mark.parametrize("command", ["submit", "run", "export"])
def test_unreadable_store_file_exits_4_naming_the_file(runner, tmp_path, corrupt, command):
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    partial = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5", "--max-ticks", "1"])
    assert partial.exit_code == 0, partial.output
    named = corrupt(store)
    before = _store_files(store)
    args = {
        "submit": ["submit", str(tmp_path / "exp.yaml")],
        "run": ["run", "--seed", "5"],
        "export": ["export", "cli-exp"],
    }[command]
    result = runner.invoke(cli, [*args, "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert isinstance(result.exception, SystemExit)
    assert named in result.output
    assert _store_files(store) == before


def _edit_experiment(store, edit):
    """Apply ``edit`` to the spec of the experiment's last journal record."""
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    number = max(n for n, line in enumerate(lines, 1) if json.loads(line).get("kind") == "experiment")
    doc = json.loads(lines[number - 1])
    edit(doc["spec"])
    _rewrite_line(journal, number, json.dumps(doc))
    return f"{journal}:{number}"


def _min_above_max(spec):
    spec["parameters"][0] = {
        "name": "lr",
        "parameterType": "double",
        "feasibleSpace": {"min": 0.5, "max": 0.25, "step": 0.25},
    }


def _more_parallel_than_max(spec):
    spec["parallelTrialCount"] = spec["maxTrialCount"] + 1


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_min_above_max, "parameters[0].feasibleSpace: min < max violated (min=0.5, max=0.25)"),
        (_more_parallel_than_max, "parallelTrialCount: must not exceed maxTrialCount"),
    ],
    ids=["min-above-max", "parallel-above-max"],
)
@pytest.mark.parametrize("command", ["run", "export"])
def test_a_stored_experiment_breaking_a_cross_field_rule_exits_4_naming_the_path(
    runner, tmp_path, edit, problem, command
):
    # Each field keeps its own rules, so only the check of the rules that
    # span fields, made on the experiment's final record, finds the edit.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    partial = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5", "--max-ticks", "1"])
    assert partial.exit_code == 0, partial.output
    named = _edit_experiment(store, edit)
    before = _store_files(store)
    args = {"run": ["run", "--seed", "5"], "export": ["export", "cli-exp"]}[command]
    result = runner.invoke(cli, [*args, "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert f"{named}: {problem}" in result.output
    assert _store_files(store) == before


def test_export_and_dump_skip_a_torn_tail_and_cut_nothing(runner, tmp_path):
    # A reader may open the store while a run is still appending a line.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"]).exit_code == 0
    exported = runner.invoke(cli, ["export", "cli-exp", "--store", str(store)]).output
    dumped = runner.invoke(cli, ["dump", "--store", str(store)]).output
    with open(store / "journal.jsonl", "a") as fp:
        fp.write('{"kind": "trial", "name": "cli-exp-0099", "spe')
    with open(store / "metrics.jsonl", "a") as fp:
        fp.write('{"metric": "loss", "trial": "cli-exp-00')
    before = _store_files(store)
    assert runner.invoke(cli, ["export", "cli-exp", "--store", str(store)]).output == exported
    assert runner.invoke(cli, ["dump", "--store", str(store)]).output == dumped
    assert _store_files(store) == before


def _commit(line: str) -> dict:
    """The commit a journal line holds."""
    return json.loads(line)["commit"]


def test_run_leaves_a_compacted_journal(runner, tmp_path):
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"]).exit_code == 0
    *lines, last = (store / "journal.jsonl").read_text().splitlines()
    keys = [f"{r['kind']}/{r['namespace']}/{r['name']}" for r in map(json.loads, lines)]
    assert keys == sorted(set(keys))
    assert len(keys) == 2 + 4  # the experiment, its suggestion and a trial per grid point
    # Then the last commit, alone: the world and the size of the event log it covers.
    assert list(_commit(last)) == ["world", "eventsOffset"]
    assert _commit(last)["eventsOffset"] == (store / "events.jsonl").stat().st_size
    assert sorted(p.name for p in store.iterdir()) == [".lock", "events.jsonl", "journal.jsonl", "metrics.jsonl"]


def test_second_run_on_a_locked_store_exits_4_and_leaves_it_untouched(runner, tmp_path):
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    partial = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5", "--max-ticks", "2"])
    assert partial.exit_code == 0, partial.output
    before = _store_files(store)
    with open(store / ".lock", "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        result = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"])
    assert result.exit_code == 4, result.output
    assert "in use" in result.output
    assert _store_files(store) == before
    # Once the lock is free, the run goes ahead.
    assert runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"]).exit_code == 0


def test_submit_on_a_locked_store_exits_4_and_leaves_it_untouched(runner, tmp_path):
    # A submit must not append while a run holds the store (and may be compacting it).
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    other = tmp_path / "other.yaml"
    other.write_text(EXPERIMENT.replace("name: cli-exp", "name: other-exp"))
    before = _store_files(store)
    with open(store / ".lock", "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        result = runner.invoke(cli, ["submit", str(other), "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert "in use" in result.output
    assert _store_files(store) == before
    assert runner.invoke(cli, ["submit", str(other), "--store", str(store)]).exit_code == 0


OLD_DELTA = {"tick": 4, "nodeSeq": 4, "nodes": {}, "namespaces": {}, "jobs": {}, "released": [], "eventsOffset": 0}


def _with_job_specs(commit: dict) -> str:
    """A world.jsonl line as an earlier version held it: each trial job with
    its spec, each unit with its job, index and CPU, and services among the
    jobs."""
    doc = copy.deepcopy(commit)
    world = doc["world"]
    for handle, job in world["jobs"].items():
        spec = {"name": handle, "namespace": "team", "kind": "trial", "workerCount": len(job["units"]),
                "cpuPerWorker": 1.0, "duration": 2,
                "descriptor": {"functionName": "sphere", "durationTicks": 2, "noiseStdDev": 0.0, "rngSeedOffset": 0},
                "assignments": [["lr", "0.25"], ["opt", "sgd"]], "collector": "pull", "watched": ["loss"]}
        job.update({**spec, **job})
        for index, unit in enumerate(job["units"]):
            unit.update({"job": handle, "index": index, "cpu": 1.0})
    for handle, service in world.pop("services").items():
        world["jobs"][handle] = {"name": handle, "namespace": "team", "kind": "service", "workerCount": 1,
                                 "cpuPerWorker": service["cpu"], "duration": 0, "phase": "running",
                                 "units": [{"job": handle, "index": 0, "cpu": service["cpu"], "remaining": None,
                                            "node": service["node"]}]}
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("old_file", ["world.json", "world.jsonl", "job specs"])
def test_run_on_a_world_of_an_earlier_version_exits_4_and_leaves_the_store_untouched(runner, tmp_path, old_file):
    # Earlier versions kept the simulated world in a world.json snapshot,
    # then in world.jsonl: per-tick deltas, then whole worlds with each
    # job's spec, then without. This version reads it from the journal's
    # commits; a store that holds either file opens to no command.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "4"]).exit_code == 0
    commit = _commit((store / "journal.jsonl").read_text().splitlines()[-1])
    assert commit["world"]["jobs"]
    old = {"world.json": json.dumps(commit), "world.jsonl": json.dumps(OLD_DELTA), "job specs": _with_job_specs(commit)}
    path = store / ("world.json" if old_file == "world.json" else "world.jsonl")
    path.write_text(old[old_file] + "\n")
    before = _store_files(store)
    for args in (["run"], ["submit", str(tmp_path / "exp.yaml")], ["export", "cli-exp"], ["dump"]):
        result = runner.invoke(cli, [*args, "--store", str(store)])
        assert result.exit_code == 4, result.output
        assert f"{path} is the simulated world of an earlier version" in result.output
    assert _store_files(store) == before


def _interrupt(*_args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command", ["run", "export"])
def test_run_and_export_on_a_cut_compacted_journal_exit_4_naming_the_experiment(runner, tmp_path, command):
    # Cut to the experiment and its suggestion, a finished run's compacted
    # journal has lost every trial the experiment counts as spawned; the run
    # exited 0 and printed the stored counts, and the export had no row.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store)]).exit_code == 0
    journal = store / "journal.jsonl"
    journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:2]))
    before = _store_files(store)
    args = {"run": ["run"], "export": ["export", "cli-exp"]}[command]
    result = runner.invoke(cli, [*args, "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert f"{journal} holds 0 trials of experiment/team/cli-exp, fewer than the 4 it spawned" in result.output
    assert _store_files(store) == before


@pytest.mark.parametrize("when", ["before", "after"])
def test_run_interrupted_in_the_journal_s_compaction_resumes(runner, tmp_path, monkeypatch, when):
    # Interrupted before the compaction's replace the journal keeps every
    # line, and after it is compacted; either way the re-run the message
    # asks for ends as a run stopped at the same tick and resumed does.
    from tunectl.controller.store import FileResourceStore

    compact = FileResourceStore.compact

    def interrupted(store):
        if when == "after":
            compact(store)
        raise KeyboardInterrupt

    outputs = {}
    for interrupt in (False, True):
        base = tmp_path / str(interrupt)
        base.mkdir()
        _submit(runner, base)
        store = base / "store"
        if interrupt:
            monkeypatch.setattr(FileResourceStore, "compact", interrupted)
        result = runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "4"])
        monkeypatch.undo()
        assert (result.exit_code, "interrupted; state persisted" in result.output) == (4 * interrupt, interrupt)
        result = runner.invoke(cli, ["run", "--store", str(store)])
        assert result.exit_code == 0, result.output
        outputs[interrupt] = {path.relative_to(store): data for path, data in _store_files(store).items()}
    assert outputs[True] == outputs[False]


# Runs ``tunectl run ARGV[2:]`` and ends the process inside the controller
# step of tick ARGV[1], right after the step's first store write, with
# ``os._exit``: no ``finally`` runs and no file is closed, as under SIGKILL.
_EXIT_IN_A_STEP = """
import os
import sys
import tunectl.cli

run_control_loop = tunectl.cli.run_control_loop

def cut(store, metrics, backend, **kwargs):
    def exit_in_the_step(_resource):
        if backend.world.tick == int(sys.argv[1]):
            os._exit(9)

    store.watchers.append(exit_in_the_step)
    return run_control_loop(store, metrics, backend, **kwargs)

tunectl.cli.run_control_loop = cut
tunectl.cli.cli.main(args=sys.argv[2:], prog_name="tunectl")
"""


@pytest.mark.parametrize("tick", [1, 3])
def test_a_run_killed_inside_a_step_leaves_its_last_commit_and_resumes_to_the_uninterrupted_files(
    runner, tmp_path, tick
):
    # A run holds a tick's records until the tick's end, so a kill inside
    # the controller step leaves the journal ending at its last commit,
    # with none of the step's records past it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    outputs = {}
    for killed in (False, True):
        base = tmp_path / str(killed)
        base.mkdir()
        _submit(runner, base)
        store = base / "store"
        if killed:
            cut = subprocess.run([sys.executable, "-c", _EXIT_IN_A_STEP, str(tick), "run", "--store", str(store),
                                  "--seed", "5"], env=env, capture_output=True, text=True, timeout=120)
            assert cut.returncode == 9, cut.stderr[-2000:]
            last = (store / "journal.jsonl").read_text().splitlines()[-1]
            assert last.startswith('{"commit":'), last
            assert _commit(last)["world"]["tick"] == tick - 1
        result = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"])
        assert result.exit_code == 0, result.output
        exported = runner.invoke(cli, ["export", "cli-exp", "--store", str(store)])
        files = {path.relative_to(store): data for path, data in _store_files(store).items()}
        outputs[killed] = {**files, "csv": exported.output, "summary": result.output}
    assert outputs[True] == outputs[False]


def test_run_on_a_world_whose_jobs_keep_output_lines_exits_4_and_leaves_the_store_untouched(runner, tmp_path):
    # Earlier versions kept a pull job's output as text lines in its "log";
    # a job now keeps its unregistered points as (tick, value) pairs.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "4"]).exit_code == 0
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    doc = json.loads(lines[-1])
    for job in doc["commit"]["world"]["jobs"].values():
        job["log"] = [f"{tick} loss={value!r}" for tick, value in job.pop("points")] or ["3 loss=0.0625"]
    _rewrite_line(journal, len(lines), json.dumps(doc, separators=(",", ":")))
    before = _store_files(store)
    result = runner.invoke(cli, ["run", "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert f"the last commit in {journal} holds no world that this version reads" in result.output
    assert _store_files(store) == before


def test_a_run_stopped_before_its_first_tick_resumes_to_the_uninterrupted_files(runner, tmp_path):
    # --max-ticks 0 stops after the bootstrap step, which the run committed
    # at tick 0, events included; the next run resumes there.
    straight, stopped = tmp_path / "straight", tmp_path / "stopped"
    for root in (straight, stopped):
        root.mkdir()
        assert _submit(runner, root).exit_code == 0
    partial = runner.invoke(cli, ["run", "--store", str(stopped / "store"), "--max-ticks", "0"])
    assert partial.exit_code == 0, partial.output
    assert (stopped / "store" / "events.jsonl").stat().st_size > 0
    assert _commit((stopped / "store" / "journal.jsonl").read_text().splitlines()[-1])["world"]["tick"] == 0
    for root in (straight, stopped):
        result = runner.invoke(cli, ["run", "--store", str(root / "store")])
        assert result.exit_code == 0, result.output
    for name in ("events.jsonl", "journal.jsonl"):
        assert (stopped / "store" / name).read_bytes() == (straight / "store" / name).read_bytes(), name


def test_run_folds_the_world_journal_and_closes_the_metric_log(runner, tmp_path, monkeypatch):
    from tunectl.metrics import FileObservationStore

    closed = []
    close = FileObservationStore.close
    monkeypatch.setattr(FileObservationStore, "close", lambda self: (closed.append(self), close(self)))
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    partial = runner.invoke(cli, ["run", "--store", str(store), "--seed", "5", "--max-ticks", "3"])
    assert partial.exit_code == 0, partial.output
    assert len(closed) == 1
    commits = [line for line in (store / "journal.jsonl").read_text().splitlines() if line.startswith('{"commit":')]
    assert len(commits) == 1 and _commit(commits[0])["world"]["tick"] == 3


def test_run_closes_its_store_when_it_ends_and_when_interrupted_in_its_compaction(runner, tmp_path, monkeypatch):
    from tunectl.controller.store import FileResourceStore

    _submit(runner, tmp_path)
    store = tmp_path / "store"
    closed = []
    close = FileResourceStore.close
    monkeypatch.setattr(FileResourceStore, "close", lambda self: (closed.append(self.root), close(self)))
    assert runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "3"]).exit_code == 0
    assert closed == [store]

    def interrupted(_store):
        raise KeyboardInterrupt

    monkeypatch.setattr(FileResourceStore, "compact", interrupted)
    result = runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "3"])
    assert result.exit_code == 4 and "interrupted; state persisted" in result.output
    assert closed == [store, store]


def test_scenario_with_a_store_ends_with_a_compacted_world(runner, tmp_path):
    # A second run into the same store starts its journal afresh, as its event log.
    store = tmp_path / "state"
    files = []
    for _ in range(2):
        result = runner.invoke(cli, ["scenario", "chaos-kill", "--store", str(store)])
        assert result.exit_code == 0, result.output
        files.append(_store_files(store))
    assert files[0] == files[1]
    assert sorted(p.name for p in store.iterdir()) == [".lock", "events.jsonl", "journal.jsonl", "metrics.jsonl"]
    *records, last = (store / "journal.jsonl").read_text().splitlines()
    assert {json.loads(line)["kind"] for line in records} == {"experiment", "suggestion", "trial"}
    commit = _commit(last)
    events = [json.loads(line) for line in (store / "events.jsonl").read_text().splitlines()]
    assert commit["world"]["tick"] == max(e["tick"] for e in events) > 1
    # The last commit covers every event, the experiment stats of its tick included.
    assert events[-1]["kind"] == "experiment-stats"
    assert commit["eventsOffset"] == (store / "events.jsonl").stat().st_size


def test_an_export_of_a_scenario_store_has_the_objective_of_every_succeeded_trial(runner, tmp_path):
    # The scenario keeps its metric points in the store directory, so the export reads them there.
    store = str(tmp_path / "state")
    assert runner.invoke(cli, ["scenario", "chaos-kill", "--store", store]).exit_code == 0
    result = runner.invoke(cli, ["export", "chaos-kill", "--store", store])
    assert result.exit_code == 0, result.output
    succeeded = [row for row in csv.DictReader(io.StringIO(result.output)) if row["phase"] == "Succeeded"]
    assert len(succeeded) == 24
    assert all(float(row["loss"]) >= 0.0 for row in succeeded)


def test_a_scenario_rerun_into_its_store_leaves_what_a_run_into_an_empty_one_leaves(runner, tmp_path):
    # A run with another seed starts its journal, metric log and event log afresh.
    def files(store, *seeds):
        for seed in seeds:
            result = runner.invoke(cli, ["scenario", "chaos-kill", "--seed", seed, "--store", str(store)])
            assert result.exit_code == 0, result.output
        return {name: (store / name).read_bytes() for name in ("journal.jsonl", "events.jsonl", "metrics.jsonl")}

    rerun, fresh = files(tmp_path / "rerun", "0", "1"), files(tmp_path / "fresh", "1")
    assert rerun == fresh and rerun != files(tmp_path / "other", "0")


def test_the_commands_close_every_file_they_open(tmp_path):
    # Under -X dev a file left open when its object is collected prints a
    # ResourceWarning; each command closes what its run opened.
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    for command in (["submit", "exp.yaml", "--store", "store"], ["run", "--store", "store"],
                    ["export", "cli-exp", "--store", "store"], ["scenario", "chaos-kill", "--store", "state"]):
        done = subprocess.run([sys.executable, "-X", "dev", "-c", "from tunectl.cli import main; main()", *command],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert "ResourceWarning" not in done.stderr, done.stderr[-2000:]
    assert (tmp_path / "store" / "metrics.jsonl").stat().st_size > 0
    assert (tmp_path / "state" / "metrics.jsonl").stat().st_size > 0


def test_a_scenario_leaves_a_submitted_store_as_it_is(runner, tmp_path, monkeypatch):
    # The scenario's --store reads no TUNECTL_STORE, and refuses a journal of another store's experiments.
    assert _submit(runner, tmp_path).exit_code == 0
    store = tmp_path / "store"
    (store / "events.jsonl").write_bytes(b'{"tick":0}\n')
    before = _store_files(store)
    monkeypatch.setenv("TUNECTL_STORE", str(store))
    result = runner.invoke(cli, ["scenario", "chaos-kill"])
    assert result.exit_code == 0, result.output
    assert _store_files(store) == before
    result = runner.invoke(cli, ["scenario", "chaos-kill", "--store", str(store)])
    assert result.exit_code == 4
    assert f"{store / 'journal.jsonl'} holds experiments that this scenario does not submit" in result.output
    assert _store_files(store) == before


@pytest.mark.parametrize("name", ["multi-tenancy", "autoscale", "chaos-fail", "chaos-kill"])
def test_a_scenario_with_a_store_reads_its_events_back_to_the_same_checks(tmp_path, name):
    from tunectl.scenarios import run_scenario

    def details(outcome):  # the runtime check's detail is wall-clock time
        return [(c.name, c.detail) for c in outcome.checks if c.name != "runtime"]

    in_memory, stored = run_scenario(name, seed=3), run_scenario(name, seed=3, state_dir=tmp_path)
    assert stored.passed and details(stored) == details(in_memory)


def _local_experiment(tmp_path, command, *, name="local-exp", trials=1):
    exp = tmp_path / f"{name}.yaml"
    exp.write_text(
        textwrap.dedent(
            f"""
            name: {name}
            namespace: team
            objective: {{type: maximize, objectiveMetricName: accuracy}}
            algorithm: {{algorithmName: random, settings: {{random_state: 1}}}}
            parallelTrialCount: 1
            maxTrialCount: {trials}
            parameters:
              - {{name: lr, parameterType: double, feasibleSpace: {{min: 0.0, max: 1.0}}}}
            trialTemplate:
              kind: local-process
              payload: {json.dumps(command)}
            """
        )
    )
    return exp


def _events(store):
    return [json.loads(line) for line in (store / "events.jsonl").read_text().splitlines()]


def test_a_local_run_logs_its_jobs_and_a_resumed_one_counts_its_steps_on(runner, tmp_path):
    # The local event log holds the three job kinds only, stamped with the
    # controller step, and a run resumed from the store's commit steps on
    # from the last logged tick instead of starting again at 0.
    store = tmp_path / "store"
    command = f"{sys.executable} -c \"print('1 accuracy=0.9')\""
    for name in ("first", "second"):
        assert runner.invoke(cli, ["submit", str(_local_experiment(tmp_path, command, name=name, trials=2)),
                                   "--store", str(store)]).exit_code == 0
        result = runner.invoke(cli, ["run", "--store", str(store), "--backend", "local"])
        assert result.exit_code == 0, result.output
    events = _events(store)
    assert [e["kind"] for e in events] == ["job-submitted", "job-succeeded"] * 4
    assert [e["payload"]["job"] for e in events[::2]] == ["team/first-0000", "team/first-0001",
                                                          "team/second-0000", "team/second-0001"]
    assert all(e["payload"]["attempt"] == 0 for e in events[::2])
    ticks = [e["tick"] for e in events]
    assert ticks == sorted(ticks) and ticks[4] >= ticks[3] > 0
    commit = _commit((store / "journal.jsonl").read_text().splitlines()[-1])
    assert commit == {"trainers": {}, "eventsOffset": (store / "events.jsonl").stat().st_size}


def test_a_failed_local_trainer_logs_its_reason_and_last_output_line(runner, tmp_path):
    script = tmp_path / "train.py"
    script.write_text("print('epoch 1')\nprint('bad lr: ' + 'x' * 500)\nprint()\nraise SystemExit(3)\n")
    store = tmp_path / "store"
    experiment = _local_experiment(tmp_path, f"{sys.executable} {script}")
    assert runner.invoke(cli, ["submit", str(experiment), "--store", str(store)]).exit_code == 0
    result = runner.invoke(cli, ["run", "--store", str(store), "--backend", "local"])
    assert result.exit_code == 0, result.output
    assert "Failed" in result.output
    failed = [e for e in _events(store) if e["kind"] == "job-failed"]
    assert failed == [{"tick": failed[0]["tick"], "kind": "job-failed", "payload": {
        "job": "team/local-exp-0000", "reason": "exit code 3", "lastLine": ("bad lr: " + "x" * 500)[:200]}}]


@pytest.mark.parametrize("first, second", [("sim", "local"), ("local", "sim")])
def test_a_run_refuses_a_commit_the_other_backend_wrote(runner, tmp_path, first, second):
    experiment = tmp_path / "exp.yaml"
    if first == "sim":
        experiment.write_text(EXPERIMENT)
    else:
        experiment = _local_experiment(tmp_path, f"{sys.executable} -c \"print('1 accuracy=0.9')\"")
    store = tmp_path / "store"
    runner.invoke(cli, ["submit", str(experiment), "--store", str(store)])
    assert runner.invoke(cli, ["run", "--store", str(store), "--backend", first]).exit_code == 0
    before = _store_files(store)
    result = runner.invoke(cli, ["run", "--store", str(store), "--backend", second])
    assert result.exit_code == 4, result.output
    journal = store / "journal.jsonl"
    assert f"the last commit in {journal} was written by 'tunectl run --backend {first}'" in result.output
    assert _store_files(store) == before


def _group_processes(group: int, argv: list[str]) -> list[int]:
    """The processes of process group ``group`` whose argv is exactly ``argv``."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat, cmdline = (entry / "stat").read_bytes(), (entry / "cmdline").read_bytes()
        except OSError:
            continue  # not a process, or one that has exited
        pgrp = int(stat[stat.rindex(b")") + 2:].split()[2])  # field 5 of the stat line
        if cmdline.split(b"\0")[:-1] == [a.encode() for a in argv] and pgrp == group:
            found.append(int(entry.name))
    return found


def _committed_trainers(journal: Path) -> dict:
    lines = journal.read_bytes().split(b"\n")[:-1] if journal.exists() else []
    return {h: pid for line in lines if line.startswith(b'{"commit":')
            for h, (pid, _) in json.loads(line)["commit"]["trainers"].items()}


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="matches processes through /proc")
def test_a_killed_local_run_leaves_no_trainer_once_the_next_run_has_run(runner, tmp_path):
    # Each trainer leads a session of its own, so a SIGKILLed run leaves it
    # running; the next run stops what the store's last commit recorded.
    store, argv = tmp_path / "store", ["sleep", "3600"]
    journal = store / "journal.jsonl"
    runner.invoke(cli, ["submit", str(_local_experiment(tmp_path, " ".join(argv))), "--store", str(store)])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                                         os.environ.get("PYTHONPATH", "")])}
    run = subprocess.Popen([sys.executable, "-c", "from tunectl.cli import main; main()", "run", "--store",
                            str(store), "--backend", "local"], env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    groups: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while not (groups := set(_committed_trainers(journal).values())):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        [group] = groups
        run.kill()
        run.wait()
        assert _group_processes(group, argv)  # the trainer outlived its run
        result = runner.invoke(cli, ["run", "--store", str(store), "--backend", "local", "--max-ticks", "3"])
        assert result.exit_code == 0, result.output
        groups |= set(_committed_trainers(journal).values())
        assert not _group_processes(group, argv)
        assert not any(_group_processes(g, argv) for g in groups)  # the next run's own trainer too
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        for g in groups:
            for pid in _group_processes(g, argv):
                os.kill(pid, signal.SIGKILL)
