"""Uniform random search."""

from __future__ import annotations

from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    SuggestionRequest,
    SuggestionResult,
    assignment_key,
)
from .space import DUPLICATE_RESAMPLE_ATTEMPTS, random_assignments, request_rng

RNG_SALT = 1


def sample_batch(request: SuggestionRequest, salt: int = RNG_SALT) -> tuple[AssignmentSet, ...]:
    """Draw ``request.count`` feasible sets, resampling duplicates a few times
    before accepting them (small spaces must not livelock)."""
    taken = request.produced_keys
    drawn: set[tuple] = set()
    sets: list[AssignmentSet] = []
    for i in range(request.count):
        rng = request_rng(request, len(request.produced) + i, salt=salt)
        candidate = random_assignments(request.experiment.parameters, rng)
        key = assignment_key(candidate)
        for _ in range(DUPLICATE_RESAMPLE_ATTEMPTS):
            if key not in taken and key not in drawn:
                break
            candidate = random_assignments(request.experiment.parameters, rng)
            key = assignment_key(candidate)
        drawn.add(key)
        sets.append(candidate)
    return tuple(sets)


def suggest(request: SuggestionRequest) -> SuggestionResult:
    return SuggestionResult(assignment_sets=sample_batch(request))


PLUGIN = AlgorithmPlugin(name="random", allowed_settings=BUILTINS["random"].settings, suggest=suggest)
