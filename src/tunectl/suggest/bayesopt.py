"""Bayesian optimization: GP surrogate with expected improvement.

The surrogate is a Gaussian process with a squared-exponential kernel, unit
signal variance, and a small observation-noise jitter. A single isotropic
length scale is chosen by maximum marginal likelihood over a short log-grid.
The acquisition (expected improvement) is maximized over a quasi-random
candidate pool; value-list parameters enter the kernel one-hot encoded and
integer parameters are optimized continuously then rounded and clamped.

With too little history, or when every fit attempt fails numerically, the
batch falls back to random sampling.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm, qmc

from ..resources import ExperimentSpec, ObjectiveType
from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    EngineState,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
    TrialObservation,
    ensure_state,
)
from . import randomsearch
from .space import assignment_key, decode_unit_vector, encode_assignments, request_rng

logger = logging.getLogger(__name__)

CANDIDATE_POOL = 1024
JITTER = 1e-6
LENGTH_SCALE_GRID = np.logspace(-1.3, 0.5, 10)
RNG_SALT = 2

# Minimum succeeded observations before fitting: dimension + this margin.
MIN_HISTORY_MARGIN = 2


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T,
        0.0,
    )


class GaussianProcess:
    """Minimal GP regressor on standardized targets."""

    def __init__(self, x: np.ndarray, y: np.ndarray, length_scale: float):
        self.x = x
        self.length_scale = length_scale
        k = np.exp(-0.5 * _sq_dists(x, x) / length_scale**2)
        k[np.diag_indices_from(k)] += JITTER
        self._chol = cho_factor(k, lower=True)
        self.alpha = cho_solve(self._chol, y)
        self.log_likelihood = (
            -0.5 * float(y @ self.alpha)
            - float(np.sum(np.log(np.diag(self._chol[0]))))
            - 0.5 * len(y) * math.log(2.0 * math.pi)
        )

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k_star = np.exp(-0.5 * _sq_dists(x_new, self.x) / self.length_scale**2)
        mean = k_star @ self.alpha
        v = cho_solve(self._chol, k_star.T)
        var = np.maximum(1.0 - np.sum(k_star * v.T, axis=1), 1e-12)
        return mean, np.sqrt(var)


def fit_gp(x: np.ndarray, y: np.ndarray) -> GaussianProcess | None:
    best: GaussianProcess | None = None
    for ls in LENGTH_SCALE_GRID:
        try:
            gp = GaussianProcess(x, y, float(ls))
        except np.linalg.LinAlgError:
            continue
        if not math.isfinite(gp.log_likelihood):
            continue
        if best is None or gp.log_likelihood > best.log_likelihood:
            best = gp
    return best


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    z = (best - mean) / std
    return (best - mean) * norm.cdf(z) + std * norm.pdf(z)


def _succeeded(history: tuple[TrialObservation, ...]) -> list[TrialObservation]:
    return [o for o in history if o.status is ObservationStatus.SUCCEEDED]


def _candidate_pool(request: SuggestionRequest, state: EngineState) -> list[AssignmentSet]:
    rng = request_rng(request, len(state.produced), salt=RNG_SALT)
    sampler = qmc.Sobol(d=len(request.experiment.parameters), scramble=True, seed=rng)
    unit = sampler.random(CANDIDATE_POOL)
    return [decode_unit_vector(request.experiment.parameters, row) for row in unit]


def suggest(request: SuggestionRequest) -> SuggestionResult:
    state = ensure_state(request, "bayesianoptimization")
    params = request.experiment.parameters
    observed = _succeeded(request.history)

    def fallback(reason: str) -> SuggestionResult:
        if reason:
            logger.info("bayesianoptimization falling back to random: %s", reason)
        sets = randomsearch.sample_batch(request, state, salt=RNG_SALT)
        return SuggestionResult(
            assignment_sets=sets,
            state=EngineState(algorithm=state.algorithm, produced=state.produced + sets),
        )

    if len(observed) < len(params) + MIN_HISTORY_MARGIN:
        return fallback("")

    sign = 1.0 if request.experiment.objective.type is ObjectiveType.MINIMIZE else -1.0
    x = encode_assignments(params, [o.assignments for o in observed])
    y_raw = sign * np.array([o.objective_value for o in observed], dtype=float)
    spread = float(np.std(y_raw))
    if spread < 1e-12:
        return fallback("degenerate objective history")
    y = (y_raw - float(np.mean(y_raw))) / spread

    gp = fit_gp(x, y)
    if gp is None:
        return fallback("surrogate fit failed for every length scale")

    pool = _candidate_pool(request, state)
    mean, std = gp.predict(encode_assignments(params, pool))
    ei = expected_improvement(mean, std, best=float(np.min(y)))
    ranked = [pool[i] for i in np.argsort(-ei, kind="stable")]

    taken = {assignment_key(o.assignments) for o in request.history}
    taken.update(assignment_key(p) for p in state.produced)
    picked: list[AssignmentSet] = []
    for cand in ranked:
        if len(picked) == request.count:
            break
        key = assignment_key(cand)
        if key in taken:
            continue
        taken.add(key)
        picked.append(cand)
    # Pool exhausted by duplicates: accept the best ones rather than livelock.
    for cand in ranked:
        if len(picked) == request.count:
            break
        picked.append(cand)

    sets = tuple(picked)
    return SuggestionResult(
        assignment_sets=sets,
        state=EngineState(algorithm=state.algorithm, produced=state.produced + sets),
    )


def restore_state(experiment: ExperimentSpec, produced: tuple[AssignmentSet, ...]) -> EngineState:
    return EngineState(algorithm="bayesianoptimization", produced=produced)


PLUGIN = AlgorithmPlugin(
    name="bayesianoptimization",
    allowed_settings=BUILTINS["bayesianoptimization"].settings,
    restore_state=restore_state,
    suggest=suggest,
)
