"""Pluggable suggestion engine with five built-in search algorithms.

State handles are owned by exactly one experiment and calls for a given
experiment are serialized by the caller; distinct experiments may run in
parallel. All randomness is derived from the ``random_state`` setting plus
the count of suggestions already produced, never from ambient state.
"""

from __future__ import annotations

import dataclasses

from ..errors import ExhaustedSearchSpace
from .registry import (
    AlgorithmPlugin,
    Assignment,
    AssignmentSet,
    EngineState,
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
    "EngineState",
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
    sets plus the updated state handle.

    Deterministic given (experiment, history, state, random_state). Grid-like
    algorithms raise :class:`ExhaustedSearchSpace` once nothing remains.
    """
    if request.count < 1:
        raise ValueError("count must be >= 1")
    plugin = get_algorithm(request.experiment.algorithm.algorithm_name)
    if request.state is None:
        request = dataclasses.replace(request, state=plugin.fresh_state(request.experiment))
    return plugin.suggest(request)
