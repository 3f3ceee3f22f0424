"""Exhaustive grid search over the declared cross-product."""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import ExhaustedSearchSpace
from ..resources import ParameterSpec
from .registry import BUILTINS, AlgorithmPlugin, AssignmentSet, SuggestionRequest, SuggestionResult
from .space import grid_axis


def grid_size(parameters: Sequence[ParameterSpec]) -> int:
    return math.prod(len(grid_axis(p)) for p in parameters)


def combination_at(parameters: Sequence[ParameterSpec], index: int) -> AssignmentSet:
    """Mixed-radix decode: the first declared parameter varies slowest, so
    enumeration order is the lexicographic cross-product."""
    axes = [grid_axis(p) for p in parameters]
    digits: list[int] = []
    for axis in reversed(axes):
        digits.append(index % len(axis))
        index //= len(axis)
    digits.reverse()
    return tuple((p.name, axes[i][digits[i]]) for i, p in enumerate(parameters))


def grid_enumerate(
    parameters: Sequence[ParameterSpec], count: int, cursor: int
) -> tuple[tuple[AssignmentSet, ...], int, bool]:
    """Enumerate up to ``count`` combinations starting at ``cursor``.

    Returns (sets, new cursor, exhausted). Raises ExhaustedSearchSpace when
    the cursor is already past the final combination.
    """
    total = grid_size(parameters)
    remaining = total - cursor
    if remaining <= 0:
        raise ExhaustedSearchSpace(f"grid of {total} combinations fully enumerated")
    take = min(count, remaining)
    sets = tuple(combination_at(parameters, cursor + i) for i in range(take))
    new_cursor = cursor + take
    return sets, new_cursor, new_cursor >= total


def suggest(request: SuggestionRequest) -> SuggestionResult:
    sets, _, exhausted = grid_enumerate(
        request.experiment.parameters, request.count, cursor=len(request.produced)
    )
    return SuggestionResult(assignment_sets=sets, exhausted=exhausted)


PLUGIN = AlgorithmPlugin(name="grid", allowed_settings=BUILTINS["grid"].settings, suggest=suggest)
