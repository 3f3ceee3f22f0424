"""The numpy side of the search space, for the model-based algorithms:
the numpy ``Generator`` that Bayesian optimization and TPE draw from, and
the continuous encodings BO fits its surrogate on."""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..resources import ParameterSpec, ParameterType, ValueList
from .registry import AssignmentSet, SuggestionRequest
from .space import random_state


def request_generator(request: SuggestionRequest, produced_count: int, salt: int) -> np.random.Generator:
    """``space.request_rng`` as a numpy ``Generator``, for the draws the
    port lacks: normal draws, weighted choices and ``SeedSequence.spawn``."""
    seq = np.random.SeedSequence(entropy=random_state(request), spawn_key=(salt, produced_count))
    return np.random.Generator(np.random.PCG64(seq))


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
    """Map assignment sets into [0,1]-scaled vectors; value lists one-hot.
    Each column is one array expression over the sets, with the float
    operations, and so the bits, of encoding one value at a time."""
    by_name = [dict(assignments) for assignments in assignment_sets]
    rows = np.zeros((len(by_name), encoded_width(parameters)))
    col = 0
    for p in parameters:
        values = [assignments[p.name] for assignments in by_name]
        space = p.feasible_space
        if isinstance(space, ValueList):
            # Value lists hold no two equal values: one position per value.
            index = {v: j for j, v in enumerate(space.values)}
            rows[np.arange(len(values)), col + np.array([index[v] for v in values], dtype=np.intp)] = 1.0
            col += len(space.values)
        else:
            lo, hi = float(space.min), float(space.max)
            rows[:, col] = (np.array(values, dtype=float) - lo) / (hi - lo)
            col += 1
    return rows


def encode_unit_matrix(parameters: Sequence[ParameterSpec], unit: np.ndarray) -> np.ndarray:
    """The encoding ``encode_assignments`` gives the sets that
    ``decode_unit_vector`` makes of the rows of ``unit``, computed a column
    at a time without building the sets. Every element goes through the same
    float operations as decoding and then encoding one set, so the two agree
    bit for bit. Value lists hold no two equal values, so the decoded index
    is the one-hot position."""
    u = np.clip(unit, 0.0, 1.0)
    rows = np.zeros((len(u), encoded_width(parameters)))
    col = 0
    for j, p in enumerate(parameters):
        space = p.feasible_space
        if isinstance(space, ValueList):
            n = len(space.values)
            idx = np.minimum((u[:, j] * n).astype(np.int64), n - 1)
            rows[np.arange(len(u)), col + idx] = 1.0
            col += n
            continue
        lo, hi = float(space.min), float(space.max)
        if p.parameter_type is ParameterType.INT:
            ilo, ihi = int(space.min), int(space.max)
            value = np.clip(np.floor(ilo + u[:, j] * (ihi - ilo) + 0.5), ilo, ihi)
        else:
            value = lo + u[:, j] * (hi - lo)
        rows[:, col] = (value - lo) / (hi - lo)
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
