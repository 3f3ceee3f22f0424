"""Tree-structured Parzen estimator search.

History splits at the 0.25 quantile into good/bad sets; each parameter gets
an independent Parzen density per set. Numeric dimensions use Gaussian
kernels with bandwidth equal to the largest adjacent gap between centers,
value lists use add-one count smoothing. Each suggestion samples 24
candidates from the good density and keeps the one maximizing l(x)/g(x),
the first one on a tie.

The candidates are drawn first, in the order the random stream gives them;
then each parameter scores all of them at once: a numeric density is one
``(candidates, centers)`` kernel array and its row means. Each candidate's
log ratio is summed in parameter order.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..resources import ObjectiveType, ParameterSpec, ParameterType, ValueList
from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
)
from . import randomsearch
from .arrays import request_generator
from .space import numeric_bounds

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

    def log_densities(self, values: Sequence[Any]) -> list[float]:
        """The log density at each value: one ``(values, centers)`` kernel
        array and a row mean, then libm's log of each density."""
        if not len(self.centers):
            return [math.log(self.uniform_density)] * len(values)
        z = (np.array(values, dtype=float)[:, None] - self.centers) / self.bandwidth
        norm = 1.0 / (self.bandwidth * math.sqrt(2.0 * math.pi))
        densities = np.mean(norm * np.exp(-0.5 * z**2), axis=1)
        return [math.log(max(d, 1e-300)) for d in densities.tolist()]


class _CategoricalParzen:
    def __init__(self, values: tuple[Any, ...], observed: list[Any]):
        self.values = values
        counts = np.array([1.0 + sum(1 for o in observed if o == v) for v in values])
        self.probs = counts / counts.sum()
        self.log_probs = [math.log(float(p)) for p in self.probs]

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.choice(len(self.values), p=self.probs))]

    def log_densities(self, values: Sequence[Any]) -> list[float]:
        return [self.log_probs[self.values.index(value)] for value in values]


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


def _draw(param: ParameterSpec, estimator: _NumericParzen | _CategoricalParzen, rng: np.random.Generator) -> Any:
    if isinstance(estimator, _CategoricalParzen):
        return estimator.sample(rng)
    return _snap(param, estimator.sample(rng))


def suggest(request: SuggestionRequest) -> SuggestionResult:
    params = request.experiment.parameters
    succeeded = [o for o in request.history if o.status is ObservationStatus.SUCCEEDED]

    if len(succeeded) < MIN_HISTORY:
        return SuggestionResult(assignment_sets=randomsearch.sample_batch(request, salt=RNG_SALT))

    sign = 1.0 if request.experiment.objective.type is ObjectiveType.MINIMIZE else -1.0
    ordered = sorted(succeeded, key=lambda o: sign * o.objective_value)
    n_good = max(1, math.ceil(GOOD_QUANTILE * len(ordered)))
    good = [o.assignments for o in ordered[:n_good]]
    bad = [o.assignments for o in ordered[n_good:]]

    good_est = _build_estimators(params, good)
    bad_est = _build_estimators(params, bad)

    sets: list[AssignmentSet] = []
    for i in range(request.count):
        rng = request_generator(request, len(request.produced) + i, salt=RNG_SALT)
        candidates = [
            tuple((p.name, _draw(p, le, rng)) for p, le in zip(params, good_est))
            for _ in range(CANDIDATES_PER_SUGGESTION)
        ]
        scores = [0.0] * CANDIDATES_PER_SUGGESTION
        for j, (le, ge) in enumerate(zip(good_est, bad_est)):
            column = [c[j][1] for c in candidates]
            for k, (good_log, bad_log) in enumerate(zip(le.log_densities(column), ge.log_densities(column))):
                scores[k] += good_log - bad_log
        # max keeps the first of equal scores.
        sets.append(candidates[max(range(CANDIDATES_PER_SUGGESTION), key=scores.__getitem__)])

    return SuggestionResult(assignment_sets=tuple(sets))


PLUGIN = AlgorithmPlugin(name="tpe", allowed_settings=BUILTINS["tpe"].settings, suggest=suggest)
