"""Hyperband schedule generation, promotion, and restart reconstruction."""

from __future__ import annotations

import json
import math

import pytest

from conftest import make_experiment
from tunectl.codec import from_doc, to_doc
from tunectl.errors import ExhaustedSearchSpace, MissingResourceReport
from tunectl.resources import ObjectiveType, ParameterSpec, ParameterType, Range
from tunectl.suggest import (
    AssignmentSet,
    ObservationStatus,
    SuggestionRequest,
    TrialObservation,
    get_suggestions,
)
from tunectl.suggest.hyperband import promote, successive_halving_brackets
from tunectl.suggest.registry import assignment_key


def oracle_bracket_table(max_resource: int, eta: int) -> list[list[tuple[int, float]]]:
    """Independent oracle: the published successive-halving recurrence.

    s_max = floor(log_eta R); B = (s_max+1) R. Bracket s runs
    n = ceil(B/(R (s+1)) * eta^s) configs at r = R eta^{-s}, then repeatedly
    keeps floor(n/eta) configs at eta-times the resource.
    """
    s_max = int(math.floor(math.log(max_resource) / math.log(eta) + 1e-12))
    budget = (s_max + 1) * max_resource
    table = []
    for s in range(s_max, -1, -1):
        n = math.ceil(budget / max_resource * (eta**s) / (s + 1) - 1e-12)
        r = max_resource / (eta**s)
        rungs = []
        for _ in range(s + 1):
            rungs.append((n, r))
            n = n // eta
            r = r * eta
        table.append(rungs)
    return table


def test_bracket_table_matches_oracle_for_r81_eta3():
    table = successive_halving_brackets(81, 3)
    oracle = oracle_bracket_table(81, 3)
    got = [[(r.configs, r.resource) for r in b.rungs] for b in table]
    assert got == oracle
    # Spot-check the canonical numbers.
    assert got[0][0] == (81, 1.0)
    assert got[0] == [(81, 1.0), (27, 3.0), (9, 9.0), (3, 27.0), (1, 81.0)]
    assert got[1][0] == (34, 3.0)


@pytest.mark.parametrize("max_resource,eta", [(81, 3), (27, 3), (16, 2), (100, 4), (9, 3), (5, 2)])
def test_bracket_table_matches_oracle(max_resource, eta):
    got = [
        [(r.configs, r.resource) for r in b.rungs]
        for b in successive_halving_brackets(max_resource, eta)
    ]
    assert got == oracle_bracket_table(max_resource, eta)


def test_max_resource_one_degenerates_to_single_rung():
    brackets = successive_halving_brackets(1, 3)
    assert len(brackets) == 1
    assert len(brackets[0].rungs) == 1
    assert brackets[0].rungs[0].configs == 1


PARAMS = [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0))]


def _spec(max_resource=9, eta=3, seed=5):
    return make_experiment(
        PARAMS,
        algorithm="hyperband",
        settings={"max_resource": max_resource, "eta": eta, "random_state": seed},
        objective_type=ObjectiveType.MINIMIZE,
        parallel=4,
        max_trials=100,
    )


def _succeed(assignments, value):
    return TrialObservation(
        assignments=assignments,
        status=ObservationStatus.SUCCEEDED,
        objective_value=value,
        resource_consumed=float(dict(assignments)["budget"]),
    )


def test_first_rung_emits_budgeted_configs():
    spec = _spec()
    result = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=4))
    assert len(result.assignment_sets) == 4
    for s in result.assignment_sets:
        assert dict(s)["budget"] == 1  # bracket s=2 of R=9, eta=3 starts at r=1


def test_rung_promotion_takes_top_third_by_objective():
    spec = _spec()
    emitted = []
    # Drain rung 0 of the first bracket (9 configs at r=1).
    while len(emitted) < 9:
        result = get_suggestions(
            SuggestionRequest(experiment=spec, history=(), count=4, produced=tuple(emitted))
        )
        emitted.extend(result.assignment_sets)
    assert len(emitted) == 9
    history = tuple(_succeed(s, float(i)) for i, s in enumerate(emitted))
    result = get_suggestions(
        SuggestionRequest(experiment=spec, history=history, count=9, produced=tuple(emitted))
    )
    promoted = result.assignment_sets
    assert len(promoted) == 3  # floor(9/3)
    names = spec.parameter_names()
    best_keys = {assignment_key(s, names) for s in emitted[:3]}  # values 0,1,2 are best
    assert {assignment_key(s, names) for s in promoted} == best_keys
    for s in promoted:
        assert dict(s)["budget"] == 3  # next rung resource


def test_waits_on_incomplete_rung_without_exhausting():
    spec = _spec()
    first = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=9))
    assert len(first.assignment_sets) == 9
    partial = tuple(_succeed(s, 1.0) for s in first.assignment_sets[:5])
    result = get_suggestions(
        SuggestionRequest(experiment=spec, history=partial, count=4, produced=first.assignment_sets)
    )
    assert result.assignment_sets == ()
    assert not result.exhausted


def test_failed_rung_members_never_promote():
    spec = _spec()
    first = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=9))
    history = [_succeed(s, float(i)) for i, s in enumerate(first.assignment_sets[:4])]
    for s in first.assignment_sets[4:]:
        history.append(TrialObservation(assignments=s, status=ObservationStatus.FAILED))
    result = get_suggestions(
        SuggestionRequest(experiment=spec, history=tuple(history), count=9, produced=first.assignment_sets)
    )
    names = spec.parameter_names()
    promoted_keys = {assignment_key(s, names) for s in result.assignment_sets}
    succeeded_keys = {assignment_key(s, names) for s in first.assignment_sets[:4]}
    assert promoted_keys <= succeeded_keys
    assert len(result.assignment_sets) == 3


def test_missing_resource_report_is_an_error():
    spec = _spec()
    first = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=9))
    bad = tuple(
        TrialObservation(assignments=s, status=ObservationStatus.SUCCEEDED, objective_value=1.0)
        for s in first.assignment_sets
    )
    with pytest.raises(MissingResourceReport):
        get_suggestions(
            SuggestionRequest(experiment=spec, history=bad, count=1, produced=first.assignment_sets)
        )


def _drive_to_exhaustion(spec, count=4, history=()):
    history = list(history)
    emitted = []
    for _ in range(200):
        try:
            result = get_suggestions(
                SuggestionRequest(
                    experiment=spec, history=tuple(history), count=count, produced=tuple(emitted)
                )
            )
        except ExhaustedSearchSpace:
            return emitted, history
        for s in result.assignment_sets:
            emitted.append(s)
            history.append(_succeed(s, dict(s)["x"] ** 2))
    raise AssertionError("hyperband never exhausted")


def test_full_schedule_runs_to_exhaustion_with_expected_volume():
    spec = _spec(max_resource=9, eta=3)
    emitted, _ = _drive_to_exhaustion(spec)
    oracle = oracle_bracket_table(9, 3)
    expected_first_rungs = {0: 9, 1: 5, 2: 3}
    total = 0
    for rungs in oracle:
        survivors = rungs[0][0]
        total += survivors
        for n, _ in rungs[1:]:
            total += n
    assert len(emitted) == total
    by_budget: dict[float, int] = {}
    for s in emitted:
        by_budget[float(dict(s)["budget"])] = by_budget.get(float(dict(s)["budget"]), 0) + 1
    oracle_by_budget: dict[float, int] = {}
    for rungs in oracle:
        for n, r in rungs:
            oracle_by_budget[r] = oracle_by_budget.get(r, 0) + n
    assert by_budget == oracle_by_budget
    assert expected_first_rungs[0] == oracle[0][0][0]


def test_new_configurations_do_not_repeat_at_a_budget():
    # 40 values: small enough that the draws of a full schedule collide
    # unless the produced sets are compared without their budgets.
    spec = make_experiment(
        [ParameterSpec("x", ParameterType.INT, Range(0, 39))],
        algorithm="hyperband",
        settings={"max_resource": 9, "eta": 3, "random_state": 3},
        parallel=4,
        max_trials=100,
    )
    emitted, _ = _drive_to_exhaustion(spec)
    pairs = [assignment_key(s) for s in emitted]  # (configuration, budget)
    assert len(pairs) == len(set(pairs))


def test_restart_reconstruction_resumes_identically():
    # The schedule position is re-derived from (produced, history) on every
    # call, so a restart that rebuilds both from their stored form mid-schedule
    # must yield the same continuation as the uninterrupted stream.
    spec = _spec(max_resource=9, eta=3, seed=8)
    full_emitted, _ = _drive_to_exhaustion(spec)

    history: list[TrialObservation] = []
    emitted: list = []
    interrupted_once = False
    for _ in range(200):
        if not interrupted_once and len(emitted) >= 7:
            # Simulate a process restart: everything comes back from documents.
            emitted = [from_doc(AssignmentSet, json.loads(json.dumps(to_doc(s)))) for s in emitted]
            history = [from_doc(TrialObservation, json.loads(json.dumps(to_doc(o)))) for o in history]
            interrupted_once = True
        try:
            result = get_suggestions(
                SuggestionRequest(experiment=spec, history=tuple(history), count=4, produced=tuple(emitted))
            )
        except ExhaustedSearchSpace:
            break
        for s in result.assignment_sets:
            emitted.append(s)
            history.append(_succeed(s, dict(s)["x"] ** 2))
    assert emitted == full_emitted


def test_promote_orders_by_objective_direction():
    spec = _spec()
    members = [(("x", 0.1),), (("x", 0.2),), (("x", 0.3),)]
    names = spec.parameter_names()
    observed = {
        assignment_key(m, names): TrialObservation(
            assignments=m,
            status=ObservationStatus.SUCCEEDED,
            objective_value=dict(m)["x"],
            resource_consumed=1.0,
        )
        for m in members
    }
    best = promote(spec, members, observed, keep=1)
    assert best == [(("x", 0.1),)]  # minimize: lowest objective wins
