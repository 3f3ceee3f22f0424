"""Search-space helpers shared by every algorithm: sampling, grids,
feasibility checks, encodings, and deterministic RNG derivation."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..resources import STEP_TOLERANCE, ParameterSpec, ParameterType, Range, ValueList, value_to_string
from .registry import AssignmentSet, SuggestionRequest

DUPLICATE_RESAMPLE_ATTEMPTS = 10


def assignment_key(assignments: AssignmentSet, names: Sequence[str] | None = None) -> tuple:
    """Canonical hashable identity of an assignment set.

    When ``names`` is given only those parameters participate, which lets
    schedulers compare configurations while ignoring extras like budgets.
    """
    if names is None:
        return tuple((n, value_to_string(v)) for n, v in assignments)
    by_name = dict(assignments)
    return tuple((n, value_to_string(by_name[n])) for n in names if n in by_name)


def request_rng(request: SuggestionRequest, produced_count: int, salt: int = 0) -> np.random.Generator:
    """Derive a per-emission RNG.

    Seeding from (random_state, number already produced) rather than keeping
    a live generator makes suggestion streams reproducible across process
    restarts: the persisted produced-list is the only cursor.
    """
    random_state = int(request.experiment.algorithm.settings.get("random_state", 0))
    seq = np.random.SeedSequence(entropy=random_state, spawn_key=(salt, produced_count))
    return np.random.Generator(np.random.PCG64(seq))


def sample_value(param: ParameterSpec, rng: np.random.Generator) -> Any:
    space = param.feasible_space
    if isinstance(space, Range):
        if param.parameter_type is ParameterType.INT:
            return int(rng.integers(int(space.min), int(space.max) + 1))
        return float(space.min + rng.random() * (space.max - space.min))
    values = space.values
    return values[int(rng.integers(0, len(values)))]


def random_assignments(parameters: Sequence[ParameterSpec], rng: np.random.Generator) -> AssignmentSet:
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
    count = int(np.floor((space.max - space.min) / space.step + STEP_TOLERANCE)) + 1
    return [float(space.min + i * space.step) for i in range(count)]


def numeric_bounds(param: ParameterSpec) -> tuple[float, float]:
    space = param.feasible_space
    if isinstance(space, Range):
        return float(space.min), float(space.max)
    values = [float(v) for v in space.values]
    return min(values), max(values)


# ---------------------------------------------------------------------------
# Continuous encodings for model-based algorithms
# ---------------------------------------------------------------------------


def encoded_width(parameters: Sequence[ParameterSpec]) -> int:
    width = 0
    for p in parameters:
        if isinstance(p.feasible_space, ValueList):
            width += len(p.feasible_space.values)
        else:
            width += 1
    return width


def encode_assignments(
    parameters: Sequence[ParameterSpec], assignment_sets: Sequence[AssignmentSet]
) -> np.ndarray:
    """Map assignment sets into [0,1]-scaled vectors; value lists one-hot."""
    rows = np.zeros((len(assignment_sets), encoded_width(parameters)))
    for i, assignments in enumerate(assignment_sets):
        by_name = dict(assignments)
        col = 0
        for p in parameters:
            value = by_name[p.name]
            space = p.feasible_space
            if isinstance(space, ValueList):
                idx = next(j for j, v in enumerate(space.values) if v == value)
                rows[i, col + idx] = 1.0
                col += len(space.values)
            else:
                lo, hi = float(space.min), float(space.max)
                rows[i, col] = (float(value) - lo) / (hi - lo)
                col += 1
    return rows


def decode_unit_vector(parameters: Sequence[ParameterSpec], unit: np.ndarray) -> AssignmentSet:
    """Map a point of the unit hypercube (one coordinate per parameter) to a
    feasible assignment set: scale ranges, round ints, index value lists."""
    out: list[tuple[str, Any]] = []
    for j, p in enumerate(parameters):
        u = min(max(float(unit[j]), 0.0), 1.0)
        space = p.feasible_space
        if isinstance(space, ValueList):
            idx = min(int(u * len(space.values)), len(space.values) - 1)
            out.append((p.name, space.values[idx]))
        elif p.parameter_type is ParameterType.INT:
            lo, hi = int(space.min), int(space.max)
            value = int(np.floor(lo + u * (hi - lo) + 0.5))
            out.append((p.name, min(max(value, lo), hi)))
        else:
            lo, hi = float(space.min), float(space.max)
            out.append((p.name, lo + u * (hi - lo)))
    return tuple(out)
