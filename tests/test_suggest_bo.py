"""Bayesian optimization: fallbacks, acquisition maximization, determinism."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import cho_factor, cho_solve

import test_suggest_streams as streams
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
from tunectl.suggest.arrays import encode_assignments, encode_unit_matrix
from tunectl.suggest.space import feasible

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


# ---------------------------------------------------------------------------
# The surrogate against a scipy reference, bit for bit
# ---------------------------------------------------------------------------


def _reference_sq_dists(a, b):
    return np.maximum(
        np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T,
        0.0,
    )


def _reference_factor(x, length_scale):
    """The jittered kernel of ``x`` factored by ``cho_factor``, or None."""
    k = np.exp(-0.5 * _reference_sq_dists(x, x) / length_scale**2)
    k[np.diag_indices_from(k)] += bayesopt.JITTER
    try:
        return cho_factor(k, lower=True)
    except np.linalg.LinAlgError:
        return None


def _reference_fit(x, y):
    """``fit_gp`` written with ``scipy.linalg.cho_factor``/``cho_solve``:
    the best (length scale, factor, alpha, log-likelihood), or None."""
    best = None
    for ls in bayesopt.LENGTH_SCALE_GRID:
        chol = _reference_factor(x, float(ls))
        if chol is None:
            continue
        alpha = cho_solve(chol, y)
        ll = (
            -0.5 * float(y @ alpha)
            - float(np.sum(np.log(np.diag(chol[0]))))
            - 0.5 * len(y) * math.log(2.0 * math.pi)
        )
        if math.isfinite(ll) and (best is None or ll > best[3]):
            best = (float(ls), chol, alpha, ll)
    return best


def _reference_predict(fit, x, x_new):
    ls, chol, alpha, _ = fit
    k_star = np.exp(-0.5 * _reference_sq_dists(x_new, x) / ls**2)
    mean = k_star @ alpha
    v = cho_solve(chol, k_star.T)
    var = np.maximum(1.0 - np.sum(k_star * v.T, axis=1), 1e-12)
    return mean, np.sqrt(var)


def _mixed_history(n, seed):
    """Encoded points of ``MIXED`` and standardized targets."""
    rng = np.random.default_rng(seed)
    sets = [
        (("lr", float(rng.random())), ("layers", int(rng.integers(1, 6))), ("opt", ("sgd", "adam")[int(rng.integers(2))]))
        for _ in range(n)
    ]
    y = rng.standard_normal(n)
    return encode_assignments(MIXED, sets), (y - y.mean()) / y.std()


def _pool(seed):
    unit = np.random.default_rng(seed + 1000).random((bayesopt.CANDIDATE_POOL, len(MIXED)))
    return encode_unit_matrix(MIXED, unit)


@pytest.mark.parametrize("n", [3, 8, 30, 100])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fit_and_predict_give_the_bits_of_cho_factor_and_cho_solve(n, seed):
    x, y = _mixed_history(n, seed)
    reference = _reference_fit(x, y)
    gp = fit_gp(x, y)
    assert gp.length_scale == reference[0]
    assert gp.alpha.tobytes() == reference[2].tobytes()
    assert gp.log_likelihood == reference[3]

    pool = _pool(seed)
    mean, std = gp.predict(pool)
    ref_mean, ref_std = _reference_predict(reference, x, pool)
    assert mean.tobytes() == ref_mean.tobytes()
    assert std.tobytes() == ref_std.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_history_raises_value_error(bad):
    x, y = _mixed_history(8, 0)
    x[3, 0] = bad
    with pytest.raises(ValueError):
        fit_gp(x, y)
    x, y = _mixed_history(8, 0)
    y[5] = bad
    with pytest.raises(ValueError):
        fit_gp(x, y)


def test_a_non_finite_candidate_raises_value_error():
    x, y = _mixed_history(8, 0)
    pool = _pool(0)
    pool[7, 1] = math.nan
    with pytest.raises(ValueError):
        fit_gp(x, y).predict(pool)


def _clustered(offset, n=30, seed=5):
    """Near-duplicate points far from the origin: the squared distances lose
    their low bits to cancellation, and the kernel stops being numerically
    positive definite at some length scales."""
    rng = np.random.default_rng(seed)
    x = offset + 1e-3 * rng.random((n, 2))
    y = rng.standard_normal(n)
    return x, (y - y.mean()) / y.std()


def _factors(x, y, length_scale):
    neg_half = np.multiply(-0.5, bayesopt._sq_dists(x, x), order="F")
    try:
        bayesopt.GaussianProcess(x, y, length_scale, neg_half)
    except np.linalg.LinAlgError:
        return False
    return True


def test_a_kernel_that_fails_at_some_length_scales_skips_the_same_ones():
    x, y = _clustered(offset=1e4)
    grid = [float(ls) for ls in bayesopt.LENGTH_SCALE_GRID]
    reference = [_reference_factor(x, ls) is not None for ls in grid]
    assert 0 < sum(reference) < len(grid)  # the history fails at some, not all
    assert [_factors(x, y, ls) for ls in grid] == reference
    fit, gp = _reference_fit(x, y), fit_gp(x, y)
    assert gp.length_scale == fit[0]
    assert gp.alpha.tobytes() == fit[2].tobytes()


def test_a_kernel_that_fails_at_every_length_scale_reaches_the_fallback():
    x, y = _clustered(offset=1e5)
    assert _reference_fit(x, y) is None
    assert fit_gp(x, y) is None


# A 120-set stream over ``test_suggest_streams``' mixed space: with every 7th
# trial failed, its last calls fit about a hundred observations, the history
# size of the ``tenants-bo`` benchmark. Recorded before the surrogate moved
# from ``cho_factor``/``cho_solve`` to the LAPACK routines they wrap.
LONG_STREAM = 120
LONG_STREAM_DIGEST = "baf68ffd8aa901ab025b009327cb96bde506fd09d3954586fa6c8c11ef1f0542"


def test_a_long_stream_matches_its_pinned_digest():
    produced = streams._run("bayesianoptimization", stop_at=LONG_STREAM)
    assert len(produced) == LONG_STREAM
    assert streams._digest(produced) == LONG_STREAM_DIGEST


def test_a_missing_scipy_extension_names_its_file_and_the_scipy_version():
    with pytest.raises(ImportError) as caught:
        bayesopt.load_scipy_extension("linalg._no_such_module")
    message = str(caught.value)
    assert str(Path(scipy.__file__).parent / "linalg" / "_no_such_module") in message
    assert f"scipy {scipy.__version__}" in message
    assert caught.value.name == "scipy.linalg._no_such_module"
