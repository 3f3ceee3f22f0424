"""Uniform random search."""

from __future__ import annotations

from .registry import BUILTINS, AlgorithmPlugin, AssignmentSet, SuggestionRequest, SuggestionResult
from .space import (
    DUPLICATE_RESAMPLE_ATTEMPTS,
    assignment_key,
    random_assignments,
    request_rng,
)

RNG_SALT = 1


def sample_batch(request: SuggestionRequest, salt: int = RNG_SALT) -> tuple[AssignmentSet, ...]:
    """Draw ``request.count`` feasible sets, resampling duplicates a few times
    before accepting them (small spaces must not livelock)."""
    taken = {assignment_key(o.assignments) for o in request.history}
    taken.update(assignment_key(p) for p in request.produced)
    sets: list[AssignmentSet] = []
    for i in range(request.count):
        rng = request_rng(request, len(request.produced) + i, salt=salt)
        candidate = random_assignments(request.experiment.parameters, rng)
        for _ in range(DUPLICATE_RESAMPLE_ATTEMPTS):
            if assignment_key(candidate) not in taken:
                break
            candidate = random_assignments(request.experiment.parameters, rng)
        taken.add(assignment_key(candidate))
        sets.append(candidate)
    return tuple(sets)


def suggest(request: SuggestionRequest) -> SuggestionResult:
    return SuggestionResult(assignment_sets=sample_batch(request))


PLUGIN = AlgorithmPlugin(name="random", allowed_settings=BUILTINS["random"].settings, suggest=suggest)
