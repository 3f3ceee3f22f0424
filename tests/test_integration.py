"""Cross-module integration: plugin registration, hyperband end to end,
storage failure classification, and export edge cases."""

from __future__ import annotations

import pytest

from conftest import make_experiment
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller.model import KIND_TRIAL, TrialPhase
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.controller.store import ResourceStore
from tunectl.errors import StorageUnavailableError
from tunectl.metrics import FileObservationStore, InMemoryObservationStore, MetricPoint
from tunectl.resources import (
    ParameterSpec,
    ParameterType,
    Range,
    ValueList,
    parse_experiment,
    render_trial_spec,
)
from tunectl.results import build_results_table, render_csv, render_jsonl
from tunectl.suggest import (
    AlgorithmPlugin,
    SuggestionRequest,
    SuggestionResult,
    get_suggestions,
    register_algorithm,
)


def _run_sim(spec, capacity=16.0, backend_class=SimBackend):
    world = SimWorld(seed=4)
    world.add_node(capacity)
    world.add_namespace(spec.namespace)
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = backend_class(world, metrics)
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=400)
    return snapshot, store, metrics


def test_full_resource_lifecycle_walkthrough():
    # Submit -> suggestion requested -> filled -> trials spawned -> jobs run
    # -> metrics recorded -> observations -> terminal, step by step.
    from tunectl.controller.model import KIND_SUGGESTION, resource_key
    from tunectl.controller.reconcile import ControllerContext, controller_step
    from tunectl.controller.backend import JobPhase

    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(-1.0, 1.0))],
        parallel=2,
        max_trials=4,
    )
    world = SimWorld(seed=8)
    world.add_node(8.0)
    world.add_namespace("ns")
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(world, metrics)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)

    experiment = submit_experiment(store, spec)
    assert experiment.status.phase.value == "Created"

    controller_step(ctx)
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion.spec.requested == 2  # equals parallelTrialCount
    assert suggestion.status.produced == 2
    trials = store.list(KIND_TRIAL)
    assert [t.name for t in trials] == ["exp-0000", "exp-0001"]
    assert tuple(t.spec.assignments for t in trials) == suggestion.status.pending
    for t in trials:  # submitted with the rendered run spec
        rendered = render_trial_spec(spec.trial_template, t.spec.assignments, t.name, "ns")
        assert world.jobs["ns/" + t.name].assignments == rendered.parameter_assignments

    backend.advance(lambda: controller_step(ctx))  # placed, starts running
    assert world.jobs["ns/exp-0000"].phase is JobPhase.RUNNING
    assert store.get("trial/ns/exp-0000").status.phase is TrialPhase.RUNNING

    backend.advance(lambda: controller_step(ctx))  # 1-tick job completes
    finished = store.get("trial/ns/exp-0000")
    assert finished.status.phase is TrialPhase.SUCCEEDED
    assert finished.status.observation is not None
    assert metrics.get_observation_log("ns/exp-0000")  # series recorded

    snapshot = run_control_loop(store, metrics, backend, max_ticks=40)
    result = snapshot["experiments"]["experiment/ns/exp"]
    assert result["phase"] == "Succeeded"
    assert result["trialsSucceeded"] == 4
    assert result["currentOptimal"] is not None
    assert "ns/svc-exp" not in world.jobs  # service released at terminal


def test_custom_algorithm_plugin_runs_end_to_end():
    # Anything registering (name, setting keys, suggest) becomes available
    # under algorithmName, including in the YAML format.
    def suggest(request: SuggestionRequest) -> SuggestionResult:
        sets = []
        for _ in range(request.count):
            assignments = []
            for p in request.experiment.parameters:
                space = p.feasible_space
                if isinstance(space, Range):
                    mid = (space.min + space.max) / 2
                    value = int(mid) if p.parameter_type is ParameterType.INT else mid
                else:
                    value = space.values[0]
                assignments.append((p.name, value))
            sets.append(tuple(assignments))
        return SuggestionResult(assignment_sets=tuple(sets))

    register_algorithm(
        AlgorithmPlugin(name="midpoint", allowed_settings=frozenset({"random_state"}), suggest=suggest)
    )
    text = """
name: plugin-exp
namespace: ns
objective: {type: minimize, objectiveMetricName: loss}
algorithm: {algorithmName: midpoint}
parallelTrialCount: 1
maxTrialCount: 2
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -1.0, max: 3.0}}
trialTemplate:
  kind: simulated
  cpuPerWorker: 1.0
  payload: {functionName: sphere, durationTicks: 1}
"""
    spec = parse_experiment(text)
    result = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=2))
    assert result.assignment_sets == ((("x", 1.0),), (("x", 1.0),))
    snapshot, _, _ = _run_sim(spec)
    exp = snapshot["experiments"]["experiment/ns/plugin-exp"]
    assert exp["phase"] == "Succeeded"
    assert exp["currentOptimal"]["objectiveValue"] == 1.0


def test_unknown_algorithm_name_rejected_at_parse():
    text = """
name: e
namespace: ns
objective: {type: minimize, objectiveMetricName: loss}
algorithm: {algorithmName: gradient-wishes}
parallelTrialCount: 1
maxTrialCount: 1
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: 0.0, max: 1.0}}
trialTemplate:
  kind: simulated
  payload: {functionName: sphere}
"""
    from tunectl.errors import ValidationError

    with pytest.raises(ValidationError) as err:
        parse_experiment(text)
    assert any("unknown algorithm" in e for e in err.value.errors)


def test_hyperband_runs_end_to_end_with_budget_assignments():
    # R=4, eta=2: brackets (4,1)(2,2)(1,4) / (3,2)(1,4) / (3,4) = 14 trials.
    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(-2.0, 2.0))],
        algorithm="hyperband",
        settings={"max_resource": 4, "eta": 2, "random_state": 6},
        parallel=4,
        max_trials=50,
    )
    submitted = {}

    class RecordingBackend(SimBackend):
        def submit(self, request, restart_count=0):
            submitted[request.run_spec.trial_name] = request.run_spec
            return super().submit(request, restart_count)

    snapshot, store, _ = _run_sim(spec, backend_class=RecordingBackend)
    exp = snapshot["experiments"]["experiment/ns/exp"]
    assert exp["phase"] == "Succeeded"
    assert exp["trialsSucceeded"] == 14
    budgets = {}
    for trial in store.list(KIND_TRIAL):
        assert trial.status.phase is TrialPhase.SUCCEEDED
        budget = dict(trial.spec.assignments)["budget"]
        budgets[budget] = budgets.get(budget, 0) + 1
        rendered = dict(submitted[trial.name].parameter_assignments)
        assert rendered["budget"] == str(budget)
    assert budgets == {1: 4, 2: 5, 4: 5}


def test_tpe_runs_end_to_end():
    spec = make_experiment(
        [
            ParameterSpec("x", ParameterType.DOUBLE, Range(-2.0, 2.0)),
            ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("a", "b"))),
        ],
        algorithm="tpe",
        settings={"random_state": 2},
        parallel=4,
        max_trials=20,
    )
    snapshot, store, _ = _run_sim(spec)
    exp = snapshot["experiments"]["experiment/ns/exp"]
    assert exp["phase"] == "Succeeded"
    assert exp["trialsSucceeded"] == 20
    assert exp["currentOptimal"]["objectiveValue"] >= 0.0


def test_hyperband_budget_placeholder_renders_into_command():
    from tunectl.resources import TemplateKind, TrialTemplate, render_trial_spec

    template = TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload="train --epochs=${budget}")
    run = render_trial_spec(template, (("x", 0.5), ("budget", 27)), "t", "ns")
    assert run.resolved_payload == "train --epochs=27"


def test_storage_backend_unavailable_is_retryable(tmp_path):
    store = FileObservationStore(tmp_path / "metrics.jsonl")
    store.register_observation_log([MetricPoint("t", "m", 1, 0.5)])
    # Replace the log path with a directory: appends now fail with EISDIR.
    (tmp_path / "metrics.jsonl").unlink()
    (tmp_path / "metrics.jsonl").mkdir()
    with pytest.raises(StorageUnavailableError) as err:
        store.register_observation_log([MetricPoint("t", "m", 2, 0.6)])
    assert err.value.retryable


def test_export_with_zero_trials_is_header_only():
    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0))],
        parallel=1,
        max_trials=1,
    )
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    submit_experiment(store, spec)
    table = build_results_table(store, metrics, "ns", "exp")
    assert table.rows == []
    assert render_csv(table).splitlines() == ["trial,x,loss,phase,restartCount"]
    assert render_jsonl(table) == ""


def test_results_additional_metric_finals_exported():
    import dataclasses

    spec = make_experiment(
        [ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("sgd",)))],
        parallel=1,
        max_trials=1,
    )
    spec.objective = dataclasses.replace(spec.objective, additional_metric_names=("accuracy",))
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    submit_experiment(store, spec)
    from tunectl.controller.model import Resource, TrialSpec, TrialStatus

    store.create(
        Resource(
            kind=KIND_TRIAL,
            namespace="ns",
            name="exp-0000",
            spec=TrialSpec(experiment="exp", assignments=(("opt", "sgd"),)),
            status=TrialStatus(phase=TrialPhase.SUCCEEDED, observation=0.25),
        )
    )
    metrics.register_observation_log(
        [
            MetricPoint("ns/exp-0000", "loss", 1, 0.5),
            MetricPoint("ns/exp-0000", "loss", 2, 0.25),
            MetricPoint("ns/exp-0000", "accuracy", 2, 0.91),
        ]
    )
    table = build_results_table(store, metrics, "ns", "exp")
    assert table.columns == ["trial", "opt", "loss", "accuracy", "phase", "restartCount"]
    assert table.rows[0] == ["exp-0000", "sgd", 0.25, 0.91, "Succeeded", 0]
