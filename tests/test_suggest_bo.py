"""Bayesian optimization: fallbacks, acquisition maximization, determinism."""

from __future__ import annotations

import numpy as np

from conftest import make_experiment
from tunectl.resources import ObjectiveType, ParameterSpec, ParameterType, Range, ValueList
from tunectl.suggest import (
    ObservationStatus,
    SuggestionRequest,
    TrialObservation,
    get_suggestions,
)
from tunectl.suggest import bayesopt, randomsearch
from tunectl.suggest.bayesopt import expected_improvement, fit_gp
from tunectl.suggest.space import encode_assignments, feasible

X_PARAM = [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0))]

MIXED = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0)),
    ParameterSpec("layers", ParameterType.INT, Range(1, 5)),
    ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("sgd", "adam"))),
]


def _spec(params, seed=7):
    return make_experiment(
        params,
        algorithm="bayesianoptimization",
        settings={"random_state": seed},
        objective_type=ObjectiveType.MINIMIZE,
    )


def _observe(x: float) -> TrialObservation:
    return TrialObservation(
        assignments=(("x", x),),
        status=ObservationStatus.SUCCEEDED,
        objective_value=(x - 0.3) ** 2,
    )


def _history_1d(seed=123, n=10):
    rng = np.random.default_rng(seed)
    return tuple(_observe(float(v)) for v in rng.random(n))


def test_empty_history_behaves_as_random():
    spec = _spec(MIXED)
    result = get_suggestions(SuggestionRequest(experiment=spec, history=(), count=3))
    expected = randomsearch.sample_batch(
        SuggestionRequest(experiment=spec, history=(), count=3),
        salt=bayesopt.RNG_SALT,
    )
    assert result.assignment_sets == expected
    for s in result.assignment_sets:
        assert feasible(spec.parameters, s)


def test_below_minimum_history_falls_back_to_random():
    spec = _spec(X_PARAM)
    short = _history_1d(n=2)  # needs dim + 2 = 3 successes to fit
    result = get_suggestions(SuggestionRequest(experiment=spec, history=short, count=2))
    expected = randomsearch.sample_batch(
        SuggestionRequest(experiment=spec, history=short, count=2),
        salt=bayesopt.RNG_SALT,
    )
    assert result.assignment_sets == expected


def test_degenerate_constant_history_falls_back():
    spec = _spec(X_PARAM)
    history = tuple(
        TrialObservation(assignments=(("x", 0.1 * i),), status=ObservationStatus.SUCCEEDED,
                         objective_value=1.0)
        for i in range(6)
    )
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=1))
    assert feasible(spec.parameters, result.assignment_sets[0])


def test_failed_trials_excluded_from_fit():
    spec = _spec(X_PARAM)
    history = _history_1d() + tuple(
        TrialObservation(assignments=(("x", 0.99),), status=ObservationStatus.FAILED)
        for _ in range(5)
    )
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=2))
    assert len(result.assignment_sets) == 2
    for s in result.assignment_sets:
        assert feasible(spec.parameters, s)


def test_suggestion_maximizes_acquisition_against_dense_grid_oracle():
    # Independent oracle: evaluate expected improvement on a dense grid of
    # the same fitted surrogate; the pool argmax must essentially reach it.
    spec = _spec(X_PARAM, seed=7)
    history = _history_1d(seed=123, n=10)
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=1))
    x_star = dict(result.assignment_sets[0])["x"]

    encoded = encode_assignments(spec.parameters, [h.assignments for h in history])
    y_raw = np.array([h.objective_value for h in history])
    y = (y_raw - y_raw.mean()) / y_raw.std()
    gp = fit_gp(encoded, y)
    grid = np.linspace(0.0, 1.0, 2001)[:, None]
    mean, std = gp.predict(grid)
    best = float(y.min())
    grid_max_ei = float(expected_improvement(mean, std, best).max())
    mean_s, std_s = gp.predict(np.array([[x_star]]))
    ei_star = float(expected_improvement(mean_s, std_s, best)[0])
    assert ei_star >= 0.9 * grid_max_ei

    # The chosen point's predicted value beats every observed point's.
    mean_obs, _ = gp.predict(encoded)
    assert float(mean_s[0]) <= float(mean_obs.min()) + 1e-9


def test_mixed_space_suggestions_feasible_and_deterministic():
    spec = _spec(MIXED, seed=3)
    rng = np.random.default_rng(0)
    history = tuple(
        TrialObservation(
            assignments=(
                ("lr", float(rng.random())),
                ("layers", int(rng.integers(1, 6))),
                ("opt", "sgd" if rng.random() < 0.5 else "adam"),
            ),
            status=ObservationStatus.SUCCEEDED,
            objective_value=float(rng.random()),
        )
        for _ in range(8)
    )
    request = SuggestionRequest(experiment=spec, history=history, count=3)
    first = get_suggestions(request)
    second = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=3))
    assert first.assignment_sets == second.assignment_sets
    for s in first.assignment_sets:
        assert feasible(spec.parameters, s)
        assert isinstance(dict(s)["layers"], int)


def test_avoids_duplicating_observed_points():
    spec = _spec(X_PARAM)
    history = _history_1d()
    observed = {round(dict(h.assignments)["x"], 12) for h in history}
    result = get_suggestions(SuggestionRequest(experiment=spec, history=history, count=3))
    suggested = {round(dict(s)["x"], 12) for s in result.assignment_sets}
    assert not (suggested & observed)
