"""Tree-structured Parzen estimator search."""

from __future__ import annotations

import numpy as np
from scipy.stats import chisquare

from conftest import make_experiment
from tunectl.resources import ObjectiveType, ParameterSpec, ParameterType, Range, ValueList
from tunectl.suggest import (
    ObservationStatus,
    SuggestionRequest,
    TrialObservation,
    get_suggestions,
)
from tunectl.suggest import randomsearch, tpe
from tunectl.suggest.space import feasible

PARAMS = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0)),
    ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(("sgd", "adam", "ftrl"))),
]


def _spec(params=PARAMS, seed=5, objective=ObjectiveType.MAXIMIZE):
    return make_experiment(
        params, algorithm="tpe", settings={"random_state": seed}, objective_type=objective
    )


def _history(rng, n, good_optimizer="sgd"):
    # Good (high) objective values concentrate on one optimizer choice.
    observations = []
    for i in range(n):
        optimizer = ("sgd", "adam", "ftrl")[i % 3]
        score = float(rng.random() * 0.2)
        if optimizer == good_optimizer:
            score += 0.8
        observations.append(
            TrialObservation(
                assignments=(("lr", float(rng.random())), ("optimizer", optimizer)),
                status=ObservationStatus.SUCCEEDED,
                objective_value=score,
            )
        )
    return tuple(observations)


def test_empty_history_behaves_as_random():
    spec = _spec()
    result = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=3))
    expected = randomsearch.sample_batch(
        SuggestionRequest(experiment=spec, history=(), count=3),
        salt=tpe.RNG_SALT,
    )
    assert result.assignment_sets == expected


def test_below_minimum_history_falls_back():
    spec = _spec()
    history = _history(np.random.default_rng(0), tpe.MIN_HISTORY - 1)
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=2))
    expected = randomsearch.sample_batch(
        SuggestionRequest(experiment=spec, history=history, count=2),
        salt=tpe.RNG_SALT,
    )
    assert result.assignment_sets == expected


def test_good_quantile_category_is_oversampled():
    # All good-quantile points use sgd; sampled suggestions must favor it
    # well beyond its uniform prior of 1/3 (chi-square on 1000 draws).
    spec = _spec(seed=11)
    history = _history(np.random.default_rng(1), 30, good_optimizer="sgd")
    result = get_suggestions(
        SuggestionRequest(experiment=spec, history=history, count=1000)
    )
    counts = {"sgd": 0, "adam": 0, "ftrl": 0}
    for s in result.assignment_sets:
        counts[dict(s)["optimizer"]] += 1
    observed = [counts["sgd"], counts["adam"], counts["ftrl"]]
    stat, p_value = chisquare(observed)
    assert p_value < 1e-6, f"draws look uniform: {counts}"
    assert counts["sgd"] / 1000 > 1 / 3


def test_numeric_dimension_concentrates_near_good_region():
    spec = _spec(
        [ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0))],
        seed=2,
        objective=ObjectiveType.MINIMIZE,
    )
    rng = np.random.default_rng(3)
    history = tuple(
        TrialObservation(
            assignments=(("lr", float(x)),),
            status=ObservationStatus.SUCCEEDED,
            objective_value=(float(x) - 0.25) ** 2,
        )
        for x in rng.random(40)
    )
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=50))
    values = [dict(s)["lr"] for s in result.assignment_sets]
    assert np.median(values) < 0.5  # pulled toward the 0.25 optimum


def test_int_and_discrete_values_snap_to_space():
    params = [
        ParameterSpec("n", ParameterType.INT, Range(1, 8)),
        ParameterSpec("d", ParameterType.DISCRETE, ValueList((0.1, 0.5, 0.9))),
    ]
    spec = _spec(params, seed=4, objective=ObjectiveType.MINIMIZE)
    rng = np.random.default_rng(5)
    history = tuple(
        TrialObservation(
            assignments=(("n", int(rng.integers(1, 9))), ("d", float(rng.choice([0.1, 0.5, 0.9])))),
            status=ObservationStatus.SUCCEEDED,
            objective_value=float(rng.random()),
        )
        for _ in range(15)
    )
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=20))
    for s in result.assignment_sets:
        assert feasible(params, s)
        by_name = dict(s)
        assert isinstance(by_name["n"], int)
        assert by_name["d"] in (0.1, 0.5, 0.9)


def test_deterministic_given_state_and_seed():
    spec = _spec(seed=9)
    history = _history(np.random.default_rng(7), 20)
    a = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=5))
    b = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=5))
    assert a.assignment_sets == b.assignment_sets


def test_failed_observations_tolerated():
    spec = _spec(seed=1)
    history = _history(np.random.default_rng(2), 20) + tuple(
        TrialObservation(assignments=(("lr", 0.5), ("optimizer", "adam")), status=ObservationStatus.FAILED)
        for _ in range(10)
    )
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=4))
    assert len(result.assignment_sets) == 4
