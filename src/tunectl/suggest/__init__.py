"""Pluggable suggestion engine with five built-in search algorithms.

Calls for a given experiment are serialized by the caller; distinct
experiments may run in parallel. All randomness is derived from the
``random_state`` setting plus the count of suggestions already produced,
never from ambient state.
"""

from __future__ import annotations

from ..errors import ExhaustedSearchSpace
from .registry import (
    AlgorithmPlugin,
    Assignment,
    AssignmentSet,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
    TrialObservation,
    algorithm_names,
    get_algorithm,
    register_algorithm,
)

__all__ = [
    "AlgorithmPlugin",
    "Assignment",
    "AssignmentSet",
    "ExhaustedSearchSpace",
    "ObservationStatus",
    "SuggestionRequest",
    "SuggestionResult",
    "TrialObservation",
    "algorithm_names",
    "get_algorithm",
    "get_suggestions",
    "register_algorithm",
]


def get_suggestions(request: SuggestionRequest) -> SuggestionResult:
    """Dispatch to the experiment's algorithm and return feasible assignment
    sets.

    Deterministic given (experiment, history, produced, random_state).
    Grid-like algorithms raise :class:`ExhaustedSearchSpace` once nothing
    remains.
    """
    if request.count < 1:
        raise ValueError("count must be >= 1")
    return get_algorithm(request.experiment.algorithm.algorithm_name).suggest(request)
