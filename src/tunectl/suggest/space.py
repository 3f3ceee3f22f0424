"""Search-space helpers shared by every algorithm: sampling, grids,
feasibility checks and deterministic RNG derivation. They import no numpy;
the array encodings of the model-based algorithms are in ``arrays``."""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..pcg import Generator
from ..resources import STEP_TOLERANCE, ParameterSpec, ParameterType, Range, ValueList
from .registry import AssignmentSet, SuggestionRequest

DUPLICATE_RESAMPLE_ATTEMPTS = 10


def random_state(request: SuggestionRequest) -> int:
    return request.experiment.algorithm.settings.get("random_state", 0)


def request_rng(request: SuggestionRequest, produced_count: int, salt: int = 0) -> Generator:
    """Derive a per-emission RNG: the stdlib port of numpy's
    ``Generator(PCG64(SeedSequence(random_state, spawn_key=(salt,
    produced_count))))``, draw for draw.

    Seeding from (random_state, number already produced) rather than keeping
    a live generator makes suggestion streams reproducible across process
    restarts: the persisted produced-list is the only cursor.
    """
    return Generator(random_state(request), (salt, produced_count))


def sample_value(param: ParameterSpec, rng: Generator) -> Any:
    space = param.feasible_space
    if isinstance(space, Range):
        if param.parameter_type is ParameterType.INT:
            return rng.integers(int(space.min), int(space.max) + 1)
        return float(space.min + rng.random() * (space.max - space.min))
    values = space.values
    return values[rng.integers(0, len(values))]


def random_assignments(parameters: Sequence[ParameterSpec], rng: Generator) -> AssignmentSet:
    return tuple((p.name, sample_value(p, rng)) for p in parameters)


def feasible(parameters: Sequence[ParameterSpec], assignments: AssignmentSet) -> bool:
    """True when the set covers every declared parameter with an in-space value."""
    by_name = dict(assignments)
    for p in parameters:
        if p.name not in by_name or not p.contains(by_name[p.name]):
            return False
    return True


def grid_axis(param: ParameterSpec) -> list[Any]:
    """The ordered grid points of one parameter.

    Int ranges default to step 1; double ranges require an explicit step
    (enforced at experiment validation for grid search).
    """
    space = param.feasible_space
    if isinstance(space, ValueList):
        return list(space.values)
    if param.parameter_type is ParameterType.INT:
        step = int(space.step) if space.step is not None else 1
        return list(range(int(space.min), int(space.max) + 1, step))
    if space.step is None:
        raise ValueError(f"double parameter '{param.name}' has no step; grid undefined")
    count = math.floor((space.max - space.min) / space.step + STEP_TOLERANCE) + 1
    return [float(space.min + i * space.step) for i in range(count)]


def numeric_bounds(param: ParameterSpec) -> tuple[float, float]:
    space = param.feasible_space
    if isinstance(space, Range):
        return float(space.min), float(space.max)
    values = [float(v) for v in space.values]
    return min(values), max(values)
