"""Operator CLI: exit codes, determinism, export formats, resume."""

from __future__ import annotations

import csv
import fcntl
import io
import json
import sys
import textwrap

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
    return next(n for n, line in enumerate(lines[:-1], 1) if json.loads(line)["kind"] == "trial")


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


def _experiment_without_parallel_slots(store):
    journal = store / "journal.jsonl"
    lines = journal.read_text().splitlines()
    number = max(n for n, line in enumerate(lines, 1) if json.loads(line)["kind"] == "experiment")
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
    number = next(n for n, line in enumerate(lines, 1) if json.loads(line)["kind"] == "suggestion")
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
    "corrupt", [_precodec_trial, _experiment_without_parallel_slots, _invalid_yaml, _invalid_json]
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
    number = max(n for n, line in enumerate(lines, 1) if json.loads(line)["kind"] == "experiment")
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


def test_run_leaves_a_compacted_journal(runner, tmp_path):
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--seed", "5"]).exit_code == 0
    records = [json.loads(line) for line in (store / "journal.jsonl").read_text().splitlines()]
    keys = [f"{r['kind']}/{r['namespace']}/{r['name']}" for r in records]
    assert keys == sorted(set(keys))
    assert len(keys) == 2 + 4  # the experiment, its suggestion and a trial per grid point
    assert not (store / "journal.jsonl.tmp").exists()


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


@pytest.mark.parametrize("old_file", ["world.json", "world.jsonl"])
def test_run_on_a_world_of_an_earlier_version_exits_4_and_leaves_the_store_untouched(runner, tmp_path, old_file):
    # Earlier versions kept a snapshot in world.json and per-tick deltas in
    # world.jsonl; read as this version's file, the one would be ignored and
    # the other misread, and either run would start a fresh world.
    _submit(runner, tmp_path)
    store = tmp_path / "store"
    assert runner.invoke(cli, ["run", "--store", str(store), "--max-ticks", "4"]).exit_code == 0
    [line] = (store / "world.jsonl").read_text().splitlines()
    (store / "world.jsonl").unlink()
    if old_file == "world.json":
        (store / "world.json").write_text(line)
    else:
        (store / "world.jsonl").write_text(json.dumps(OLD_DELTA) + "\n")
    before = _store_files(store)
    result = runner.invoke(cli, ["run", "--store", str(store)])
    assert result.exit_code == 4, result.output
    assert f"{store / old_file} holds no world that this version reads" in result.output
    assert _store_files(store) == before


def test_a_run_stopped_before_its_first_tick_resumes_to_the_uninterrupted_files(runner, tmp_path):
    # --max-ticks 0 stops after the bootstrap step: its events are written,
    # but no tick is persisted, so the next run starts a fresh world.
    straight, stopped = tmp_path / "straight", tmp_path / "stopped"
    for root in (straight, stopped):
        root.mkdir()
        assert _submit(runner, root).exit_code == 0
    partial = runner.invoke(cli, ["run", "--store", str(stopped / "store"), "--max-ticks", "0"])
    assert partial.exit_code == 0, partial.output
    assert (stopped / "store" / "events.jsonl").stat().st_size > 0
    assert not (stopped / "store" / "world.jsonl").exists()
    for root in (straight, stopped):
        result = runner.invoke(cli, ["run", "--store", str(root / "store")])
        assert result.exit_code == 0, result.output
    for name in ("events.jsonl", "world.jsonl"):
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
    lines = (store / "world.jsonl").read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["world"]["tick"] == 3


def test_scenario_with_a_store_ends_with_a_compacted_world(runner, tmp_path):
    store = tmp_path / "state"
    result = runner.invoke(cli, ["scenario", "chaos-kill", "--store", str(store)])
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in store.iterdir()) == ["events.jsonl", "world.jsonl"]
    [line] = (store / "world.jsonl").read_text().splitlines()
    world = json.loads(line)
    events = [json.loads(line) for line in (store / "events.jsonl").read_text().splitlines()]
    assert world["world"]["tick"] == max(e["tick"] for e in events) > 1
    stats = [i for i, e in enumerate(events) if e["kind"] == "tick-stats"]
    offset = sum(len(json.dumps(e, sort_keys=True)) + 1 for e in events[: stats[-1] + 1])
    assert world["eventsOffset"] == offset
