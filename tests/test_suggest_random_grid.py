"""Random and grid search algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import experiment_specs, make_experiment
from tunectl.errors import ExhaustedSearchSpace
from tunectl.resources import ParameterSpec, ParameterType, Range, ValueList
from tunectl.suggest import SuggestionRequest, get_suggestions
from tunectl.suggest.grid import grid_enumerate, grid_size
from tunectl.suggest.space import feasible

WIDE = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0)),
    ParameterSpec("batch-size", ParameterType.INT, Range(10, 1000)),
    ParameterSpec("num-layers", ParameterType.INT, Range(1, 5)),
    ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(("SGD", "Adam", "FTRL"))),
]


def _request(spec, count, produced=(), history=()):
    return SuggestionRequest(experiment=spec, history=tuple(history), count=count, produced=produced)


def test_random_samples_in_bounds():
    spec = make_experiment(WIDE, settings={"random_state": 9}, parallel=15, max_trials=15)
    result = get_suggestions(_request(spec, 15))
    assert len(result.assignment_sets) == 15
    for assignments in result.assignment_sets:
        assert feasible(spec.parameters, assignments)
        by_name = dict(assignments)
        assert 0.0 <= by_name["lr"] <= 1.0
        assert 10 <= by_name["batch-size"] <= 1000
        assert isinstance(by_name["batch-size"], int)
        assert by_name["optimizer"] in ("SGD", "Adam", "FTRL")


def test_random_degenerate_value_list():
    spec = make_experiment(
        [ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(("sgd",)))]
    )
    result = get_suggestions(_request(spec, 1))
    assert result.assignment_sets == ((("optimizer", "sgd"),),)


def test_random_seed_42_matches_pinned_fixture():
    # Frozen from one reference run; guards cross-platform reproducibility.
    spec = make_experiment(WIDE, settings={"random_state": 42}, parallel=15, max_trials=15)
    result = get_suggestions(_request(spec, 5))
    assert result.assignment_sets == (
        (("lr", 0.5700286821875662), ("batch-size", 734), ("num-layers", 5), ("optimizer", "Adam")),
        (("lr", 0.47954438923651543), ("batch-size", 975), ("num-layers", 3), ("optimizer", "SGD")),
        (("lr", 0.5840890785571974), ("batch-size", 576), ("num-layers", 5), ("optimizer", "FTRL")),
        (("lr", 0.8630130339908464), ("batch-size", 143), ("num-layers", 2), ("optimizer", "SGD")),
        (("lr", 0.6659094518628779), ("batch-size", 469), ("num-layers", 2), ("optimizer", "Adam")),
    )


def test_random_identical_requests_identical_output():
    spec = make_experiment(WIDE, settings={"random_state": 10})
    first = get_suggestions(_request(spec, 4))
    second = get_suggestions(_request(spec, 4))
    assert first.assignment_sets == second.assignment_sets


def test_random_stream_continues_from_state():
    spec = make_experiment(WIDE, settings={"random_state": 10})
    all_at_once = get_suggestions(_request(spec, 6)).assignment_sets
    first = get_suggestions(_request(spec, 3))
    second = get_suggestions(_request(spec, 3, produced=first.assignment_sets))
    assert first.assignment_sets + second.assignment_sets == all_at_once


@settings(max_examples=100, deadline=None)
@given(experiment_specs())
def test_feasibility_property_over_generated_spaces(spec):
    # Every emitted assignment lies in its parameter's feasible space and the
    # same request produces byte-identical output.
    first = get_suggestions(_request(spec, 3))
    second = get_suggestions(_request(spec, 3))
    assert first.assignment_sets == second.assignment_sets
    for assignments in first.assignment_sets:
        assert feasible(spec.parameters, assignments)


# --- grid --------------------------------------------------------------------

GRID_PARAMS = [
    ParameterSpec("lr", ParameterType.DISCRETE, ValueList((0.1, 0.2))),
    ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(("sgd", "adam"))),
]


def test_grid_lexicographic_declaration_order():
    sets, cursor, exhausted = grid_enumerate(GRID_PARAMS, count=4, cursor=0)
    assert [tuple(dict(s).values()) for s in sets] == [
        (0.1, "sgd"),
        (0.1, "adam"),
        (0.2, "sgd"),
        (0.2, "adam"),
    ]
    assert cursor == 4 and exhausted


def test_grid_batching_then_exhaustion():
    first, cursor, exhausted = grid_enumerate(GRID_PARAMS, count=3, cursor=0)
    assert len(first) == 3 and not exhausted
    second, cursor, exhausted = grid_enumerate(GRID_PARAMS, count=3, cursor=cursor)
    assert len(second) == 1 and exhausted
    with pytest.raises(ExhaustedSearchSpace):
        grid_enumerate(GRID_PARAMS, count=1, cursor=cursor)


def test_grid_double_range_with_step():
    params = [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0, step=0.5))]
    sets, _, exhausted = grid_enumerate(params, count=10, cursor=0)
    assert [dict(s)["x"] for s in sets] == [0.0, 0.5, 1.0]
    assert exhausted


def test_grid_int_defaults_to_step_one_and_honors_step():
    params = [ParameterSpec("n", ParameterType.INT, Range(1, 5))]
    sets, _, _ = grid_enumerate(params, count=10, cursor=0)
    assert [dict(s)["n"] for s in sets] == [1, 2, 3, 4, 5]
    stepped = [ParameterSpec("n", ParameterType.INT, Range(0, 10, step=5))]
    sets, _, _ = grid_enumerate(stepped, count=10, cursor=0)
    assert [dict(s)["n"] for s in sets] == [0, 5, 10]


def test_grid_completeness_no_duplicates():
    params = [
        ParameterSpec("a", ParameterType.INT, Range(0, 3)),
        ParameterSpec("b", ParameterType.DISCRETE, ValueList((1, 2, 3))),
        ParameterSpec("c", ParameterType.CATEGORICAL, ValueList(("x", "y"))),
    ]
    total = grid_size(params)
    assert total == 4 * 3 * 2
    seen = set()
    cursor = 0
    while True:
        try:
            sets, cursor, exhausted = grid_enumerate(params, count=5, cursor=cursor)
        except ExhaustedSearchSpace:
            break
        seen.update(sets)
        if exhausted:
            break
    assert len(seen) == total


def test_grid_through_engine_sets_exhausted_flag():
    spec = make_experiment(GRID_PARAMS, algorithm="grid", settings={}, parallel=4, max_trials=8)
    result = get_suggestions(_request(spec, 4))
    assert len(result.assignment_sets) == 4
    assert result.exhausted
    with pytest.raises(ExhaustedSearchSpace):
        get_suggestions(_request(spec, 1, produced=result.assignment_sets))
