"""Experiment format: parsing, validation, canonical emission, rendering."""

from __future__ import annotations

import itertools

import pytest
import yaml
from hypothesis import given, settings

from conftest import experiment_specs
from tunectl.errors import RenderError, ValidationError
from tunectl.resources import (
    CollectorKind,
    MetricStrategy,
    ParameterType,
    Range,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
    canonical_yaml,
    parse_experiment,
    render_trial_spec,
)
from tunectl.suggest.space import grid_axis

LISTING_STYLE = """
name: mnist-demo
namespace: user1
objective:
  type: maximize
  goal: 0.99
  objectiveMetricName: Validation-accuracy
  additionalMetricNames: [accuracy]
algorithm:
  algorithmName: bayesianoptimization
  settings:
    random_state: 10
parallelTrialCount: 2
maxTrialCount: 12
parameters:
  - name: lr
    parameterType: double
    feasibleSpace: {min: 0.0, max: 1.0}
  - name: num-layers
    parameterType: int
    feasibleSpace: {min: 1, max: 5}
  - name: optimizer
    parameterType: categorical
    feasibleSpace: {values: [sgd, adam, ftrl]}
trialTemplate:
  kind: local-process
  cpuPerWorker: 2.0
  payload: "train --lr=${lr} --num-layers=${num-layers} --optimizer=${optimizer}"
"""


def test_accepts_listing_style_spec():
    spec = parse_experiment(LISTING_STYLE)
    assert spec.objective.goal == 0.99
    assert spec.objective.objective_metric_name == "Validation-accuracy"
    assert spec.objective.additional_metric_names == ("accuracy",)
    assert spec.algorithm.algorithm_name == "bayesianoptimization"
    assert spec.algorithm.settings == {"random_state": 10}
    assert [p.parameter_type for p in spec.parameters] == [
        ParameterType.DOUBLE,
        ParameterType.INT,
        ParameterType.CATEGORICAL,
    ]


def test_defaults_applied():
    spec = parse_experiment(LISTING_STYLE)
    assert spec.metric_collector_kind is CollectorKind.PULL
    assert spec.max_failed_trial_count == 0
    assert spec.objective.metric_strategy is MetricStrategy.LATEST
    assert spec.trial_template.worker_count == 1


def test_range_min_not_below_max_rejected():
    bad = LISTING_STYLE.replace("{min: 0.0, max: 1.0}", "{min: 1.0, max: 0.5}")
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("min < max violated" in e for e in err.value.errors)


def test_unresolved_placeholder_rejected():
    bad = LISTING_STYLE.replace("--lr=${lr}", "--lr=${lr} --batch=${batch}")
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("unresolved placeholder '${batch}'" in e for e in err.value.errors)


def test_errors_aggregate_instead_of_failing_fast():
    bad = (
        LISTING_STYLE.replace("{min: 0.0, max: 1.0}", "{min: 1.0, max: 0.5}")
        .replace("--lr=${lr}", "--lr=${lr} --batch=${batch}")
        .replace("parallelTrialCount: 2", "parallelTrialCount: 20")
    )
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    messages = "\n".join(err.value.errors)
    assert "min < max" in messages
    assert "unresolved placeholder" in messages
    assert "parallelTrialCount" in messages


def test_syntax_error_reports_position():
    with pytest.raises(ValidationError) as err:
        parse_experiment("name: [unclosed\nnamespace: x\n:")
    assert any("line" in e and "column" in e for e in err.value.errors)


@pytest.mark.parametrize(
    "document",
    [
        "",
        "null",
        "[]",
        "3",
        '"text"',
        "name: x",
        "name: {a: 1}\nnamespace: [1,2]",
        "name: x\nnamespace: y\nobjective: 3\nalgorithm: []\n"
        "parallelTrialCount: a\nmaxTrialCount: {}\nparameters: nope\ntrialTemplate: 7",
        # every field wrong at once, still one aggregated error report
        """
name: x
namespace: y
objective: {type: sideways, objectiveMetricName: 3, goal: [1], additionalMetricNames: {a: 1}}
algorithm: {algorithmName: 42, settings: [1,2]}
parallelTrialCount: -3
maxTrialCount: 0
maxFailedTrialCount: -1
metricCollectorKind: carrier-pigeon
parameters:
  - {name: "", parameterType: mystery, feasibleSpace: {}}
  - {name: p, parameterType: int, feasibleSpace: {min: 1.5, max: 0.5, step: -2}}
  - {name: q, parameterType: discrete, feasibleSpace: {values: [sgd, {a: 1}]}}
  - {name: q, parameterType: categorical, feasibleSpace: {values: []}}
trialTemplate: {kind: quantum, workerCount: 0, cpuPerWorker: -1, restartPolicy: maybe, payload: {functionName: warp}}
""",
        # non-finite bounds
        "name: x\nnamespace: y\nobjective: {type: minimize, objectiveMetricName: m}\n"
        "algorithm: {algorithmName: random}\nparallelTrialCount: 1\nmaxTrialCount: 1\n"
        "parameters: [{name: p, parameterType: double, feasibleSpace: {min: .inf, max: .nan}}]\n"
        "trialTemplate: {kind: simulated, payload: {functionName: sphere}}",
    ],
)
def test_pathological_documents_raise_aggregated_errors(document):
    with pytest.raises(ValidationError) as err:
        parse_experiment(document)
    assert err.value.errors


def test_unknown_algorithm_setting_rejected():
    bad = LISTING_STYLE.replace("random_state: 10", "random_state: 10\n    surprise: 1")
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("unknown setting key 'surprise'" in e for e in err.value.errors)


def test_unknown_fields_rejected():
    bad = LISTING_STYLE + "\nextraField: 1\n"
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("unknown field 'extraField'" in e for e in err.value.errors)


def test_duplicate_parameter_names_rejected():
    bad = LISTING_STYLE.replace("name: num-layers", "name: lr")
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("duplicate parameter name 'lr'" in e for e in err.value.errors)


def test_categorical_values_must_be_strings():
    bad = LISTING_STYLE.replace("[sgd, adam, ftrl]", "[1, 2]")
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("must be strings" in e for e in err.value.errors)


def test_grid_requires_step_on_double_parameters():
    bad = LISTING_STYLE.replace("bayesianoptimization", "grid").replace(
        "    random_state: 10\n", ""
    )
    with pytest.raises(ValidationError) as err:
        parse_experiment(bad)
    assert any("require a step under grid search" in e for e in err.value.errors)


def test_a_step_spanning_the_range_up_to_float_rounding_is_one_step():
    # (2.24001 - 0.24) / 2.00001 is 0.9999999999999998 in floats.
    text = LISTING_STYLE.replace("bayesianoptimization\n  settings:\n    random_state: 10", "grid")
    text = text.replace("{min: 0.0, max: 1.0}", "{min: 0.24, max: 2.24001, step: 2.00001}")
    spec = parse_experiment(text)
    assert grid_axis(spec.parameters[0]) == [0.24, 0.24 + 2.00001]


def test_budget_placeholder_needs_hyperband():
    with_budget = LISTING_STYLE.replace("--lr=${lr}", "--lr=${lr} --epochs=${budget}")
    with pytest.raises(ValidationError):
        parse_experiment(with_budget)
    ok = with_budget.replace("bayesianoptimization", "hyperband").replace(
        "random_state: 10", "random_state: 10\n    max_resource: 81\n    eta: 3"
    )
    spec = parse_experiment(ok)
    assert spec.algorithm.algorithm_name == "hyperband"


# --- canonical emission -----------------------------------------------------


def test_canonical_round_trip_on_listing_style():
    spec = parse_experiment(LISTING_STYLE)
    emitted = canonical_yaml(spec)
    assert parse_experiment(emitted) == spec


def test_canonical_materializes_defaults():
    emitted = canonical_yaml(parse_experiment(LISTING_STYLE))
    assert "metricCollectorKind: pull" in emitted
    assert "maxFailedTrialCount: 0" in emitted
    assert "restartPolicy: never" in emitted


def test_key_order_permutations_emit_identical_bytes():
    doc = yaml.safe_load(LISTING_STYLE)
    keys = list(doc)
    outputs = set()
    for perm in itertools.islice(itertools.permutations(keys), 12):
        text = yaml.safe_dump({k: doc[k] for k in perm}, sort_keys=False)
        outputs.add(canonical_yaml(parse_experiment(text)))
    doc["algorithm"] = dict(reversed(list(doc["algorithm"].items())))
    outputs.add(canonical_yaml(parse_experiment(yaml.safe_dump(doc, sort_keys=False))))
    assert len(outputs) == 1


@settings(max_examples=100, deadline=None)
@given(experiment_specs())
def test_round_trip_property(spec):
    assert parse_experiment(canonical_yaml(spec)) == spec


@settings(max_examples=100, deadline=None)
@given(experiment_specs())
def test_validation_soundness_property(spec):
    # Anything the emitter produces must satisfy every invariant on re-parse.
    reparsed = parse_experiment(canonical_yaml(spec))
    assert reparsed.parallel_trial_count >= 1
    assert reparsed.parallel_trial_count <= reparsed.max_trial_count
    names = reparsed.parameter_names()
    assert len(names) == len(set(names))
    for p in reparsed.parameters:
        if isinstance(p.feasible_space, Range):
            assert p.feasible_space.min < p.feasible_space.max


# --- rendering ----------------------------------------------------------------


def _command_template(payload: str) -> TrialTemplate:
    return TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=payload)


def test_render_direct_substitution():
    run = render_trial_spec(_command_template("train --lr=${lr}"), (("lr", 0.212),), "t1", "ns")
    assert run.resolved_payload == "train --lr=0.212"
    assert run.parameter_assignments == (("lr", "0.212"),)


def test_render_hyperparameters_expansion():
    run = render_trial_spec(
        _command_template("${hyperparameters}"), (("lr", 0.1), ("optimizer", "sgd")), "t1", "ns"
    )
    assert run.resolved_payload == "--lr=0.1 --optimizer=sgd"


def test_render_mnist_style_command_line():
    template = _command_template(
        "python mnist.py --name=${trial.name} --ns=${trial.namespace} ${hyperparameters}"
    )
    run = render_trial_spec(
        template,
        (("lr", 0.212), ("num-layers", 3), ("optimizer", "sgd")),
        "mnist-demo-0001",
        "user1",
    )
    assert run.resolved_payload == (
        "python mnist.py --name=mnist-demo-0001 --ns=user1 "
        "--lr=0.212 --num-layers=3 --optimizer=sgd"
    )
    assert "${" not in run.resolved_payload


def test_render_missing_assignment_names_placeholder():
    with pytest.raises(RenderError) as err:
        render_trial_spec(_command_template("run ${batch}"), (("lr", 0.1),), "t", "ns")
    assert "${batch}" in str(err.value)


def test_render_simulated_passthrough():
    descriptor = SimObjectiveDescriptor("sphere", duration_ticks=3)
    template = TrialTemplate(kind=TemplateKind.SIMULATED, payload=descriptor)
    run = render_trial_spec(template, (("x", 1.5),), "t", "ns")
    assert run.resolved_payload is descriptor
    assert run.parameter_assignments == (("x", "1.5"),)


@settings(max_examples=100, deadline=None)
@given(experiment_specs())
def test_rendering_totality_property(spec):
    # A complete assignment always renders and leaves no placeholder behind.
    assignments = []
    for p in spec.parameters:
        if isinstance(p.feasible_space, Range):
            assignments.append((p.name, p.feasible_space.min))
        else:
            assignments.append((p.name, p.feasible_space.values[0]))
    payload = " ".join(f"--{p.name}=${{{p.name}}}" for p in spec.parameters) or "run"
    template = TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=f"cmd {payload} ${{hyperparameters}}")
    run = render_trial_spec(template, tuple(assignments), "t-0001", spec.namespace)
    assert "${" not in run.resolved_payload
