"""Tree-structured Parzen estimator search.

History splits at the 0.25 quantile into good/bad sets; each parameter gets
an independent Parzen density per set. Numeric dimensions use Gaussian
kernels with bandwidth equal to the largest adjacent gap between centers,
value lists use add-one count smoothing. Each suggestion samples 24
candidates from the good density and keeps the one maximizing l(x)/g(x).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..resources import ExperimentSpec, ObjectiveType, ParameterSpec, ParameterType, ValueList
from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    EngineState,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
    ensure_state,
)
from . import randomsearch
from .space import numeric_bounds, request_rng

GOOD_QUANTILE = 0.25
CANDIDATES_PER_SUGGESTION = 24
MIN_HISTORY = 10
RNG_SALT = 3


class _NumericParzen:
    def __init__(self, param: ParameterSpec, values: list[float]):
        self.lo, self.hi = numeric_bounds(param)
        width = max(self.hi - self.lo, 1e-12)
        if values:
            centers = np.sort(np.array(values, dtype=float))
            gaps = np.diff(centers)
            bandwidth = float(gaps.max()) if len(gaps) else width
        else:
            centers = np.array([(self.lo + self.hi) / 2.0])
            bandwidth = width
        self.centers = centers if len(values) else np.array([])
        self.bandwidth = max(bandwidth, 1e-6 * width, 1e-12)
        self.uniform_density = 1.0 / width

    def sample(self, rng: np.random.Generator) -> float:
        if not len(self.centers):
            return float(self.lo + rng.random() * (self.hi - self.lo))
        center = float(self.centers[int(rng.integers(0, len(self.centers)))])
        draw = center + self.bandwidth * float(rng.standard_normal())
        return min(max(draw, self.lo), self.hi)

    def log_density(self, value: float) -> float:
        if not len(self.centers):
            return math.log(self.uniform_density)
        z = (value - self.centers) / self.bandwidth
        norm = 1.0 / (self.bandwidth * math.sqrt(2.0 * math.pi))
        density = float(np.mean(norm * np.exp(-0.5 * z**2)))
        return math.log(max(density, 1e-300))


class _CategoricalParzen:
    def __init__(self, values: tuple[Any, ...], observed: list[Any]):
        self.values = values
        counts = np.array([1.0 + sum(1 for o in observed if o == v) for v in values])
        self.probs = counts / counts.sum()

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.choice(len(self.values), p=self.probs))]

    def log_density(self, value: Any) -> float:
        idx = next(i for i, v in enumerate(self.values) if v == value)
        return math.log(float(self.probs[idx]))


def _build_estimators(
    parameters: Sequence[ParameterSpec], sets: list[AssignmentSet]
) -> list[_NumericParzen | _CategoricalParzen]:
    estimators: list[_NumericParzen | _CategoricalParzen] = []
    for p in parameters:
        observed = [dict(s)[p.name] for s in sets]
        if p.parameter_type is ParameterType.CATEGORICAL:
            estimators.append(_CategoricalParzen(p.feasible_space.values, observed))
        else:
            estimators.append(_NumericParzen(p, [float(v) for v in observed]))
    return estimators


def _snap(param: ParameterSpec, value: float) -> Any:
    if param.parameter_type is ParameterType.INT:
        lo, hi = numeric_bounds(param)
        return int(min(max(math.floor(value + 0.5), lo), hi))
    if param.parameter_type is ParameterType.DISCRETE:
        assert isinstance(param.feasible_space, ValueList)
        return min(param.feasible_space.values, key=lambda v: (abs(float(v) - value), float(v)))
    return float(value)


def suggest(request: SuggestionRequest) -> SuggestionResult:
    state = ensure_state(request, "tpe")
    params = request.experiment.parameters
    succeeded = [o for o in request.history if o.status is ObservationStatus.SUCCEEDED]

    if len(succeeded) < MIN_HISTORY:
        sets = randomsearch.sample_batch(request, state, salt=RNG_SALT)
        return SuggestionResult(
            assignment_sets=sets,
            state=EngineState(algorithm=state.algorithm, produced=state.produced + sets),
        )

    sign = 1.0 if request.experiment.objective.type is ObjectiveType.MINIMIZE else -1.0
    ordered = sorted(succeeded, key=lambda o: sign * o.objective_value)
    n_good = max(1, math.ceil(GOOD_QUANTILE * len(ordered)))
    good = [o.assignments for o in ordered[:n_good]]
    bad = [o.assignments for o in ordered[n_good:]]

    good_est = _build_estimators(params, good)
    bad_est = _build_estimators(params, bad)

    sets: list[AssignmentSet] = []
    for i in range(request.count):
        rng = request_rng(request, len(state.produced) + i, salt=RNG_SALT)
        best_set: AssignmentSet | None = None
        best_score = -math.inf
        for _ in range(CANDIDATES_PER_SUGGESTION):
            candidate: list[tuple[str, Any]] = []
            score = 0.0
            for p, le, ge in zip(params, good_est, bad_est):
                if isinstance(le, _CategoricalParzen):
                    value = le.sample(rng)
                    score += le.log_density(value) - ge.log_density(value)
                else:
                    raw = le.sample(rng)
                    value = _snap(p, raw)
                    score += le.log_density(float(value)) - ge.log_density(float(value))
                candidate.append((p.name, value))
            if score > best_score:
                best_score = score
                best_set = tuple(candidate)
        assert best_set is not None
        sets.append(best_set)

    result = tuple(sets)
    return SuggestionResult(
        assignment_sets=result,
        state=EngineState(algorithm=state.algorithm, produced=state.produced + result),
    )


def restore_state(experiment: ExperimentSpec, produced: tuple[AssignmentSet, ...]) -> EngineState:
    return EngineState(algorithm="tpe", produced=produced)


PLUGIN = AlgorithmPlugin(
    name="tpe",
    allowed_settings=BUILTINS["tpe"].settings,
    restore_state=restore_state,
    suggest=suggest,
)
