"""Algorithm plugin registry and the request/result types it exchanges.

Any module may register a plugin under a new ``algorithmName``; the
experiment format then accepts that name and the suggestion controller
drives it exactly like the built-ins. Registration requires the algorithm
name, the setting keys it accepts, a state constructor, and a suggest
implementation. A registered plugin wins over a built-in of the same name.

The built-ins are listed in ``BUILTINS`` by module and setting keys, so
validating an experiment imports no algorithm; ``get_algorithm`` imports a
built-in's module the first time its name is looked up.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, NamedTuple

from ..errors import AlgorithmStateError
from ..resources import ExperimentSpec

# An assignment set is an ordered tuple of (parameterName, value) pairs, one
# per declared parameter, optionally followed by scheduler extras ("budget").
Assignment = tuple[str, Any]
AssignmentSet = tuple[Assignment, ...]


class ObservationStatus(str, Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass(frozen=True)
class TrialObservation:
    """One finished trial as seen by a search algorithm."""

    assignments: AssignmentSet
    status: ObservationStatus
    objective_value: float | None = None
    resource_consumed: float | None = None

    def __post_init__(self) -> None:
        has_value = self.objective_value is not None
        if has_value != (self.status is ObservationStatus.SUCCEEDED):
            raise ValueError("objectiveValue must be present iff status is succeeded")


@dataclass
class SuggestionRequest:
    experiment: ExperimentSpec
    history: tuple[TrialObservation, ...]
    count: int
    state: Any = None


@dataclass
class SuggestionResult:
    assignment_sets: tuple[AssignmentSet, ...]
    state: Any
    exhausted: bool = False


@dataclass
class EngineState:
    """State handle shared by the built-in algorithms.

    Holds only what survives a process restart: the algorithm identity and
    everything the algorithm has already emitted. Built-ins re-derive any
    richer state from (history, produced) on every call, which makes the
    whole engine crash-recoverable by construction.
    """

    algorithm: str
    produced: tuple[AssignmentSet, ...] = ()


@dataclass(frozen=True)
class AlgorithmPlugin:
    name: str
    allowed_settings: frozenset[str]
    restore_state: Callable[[ExperimentSpec, tuple[AssignmentSet, ...]], Any]
    suggest: Callable[[SuggestionRequest], SuggestionResult]
    setting_defaults: dict[str, Any] = field(default_factory=dict)

    def fresh_state(self, experiment: ExperimentSpec) -> Any:
        return self.restore_state(experiment, ())


class Builtin(NamedTuple):
    module: str  # under ``tunectl.suggest``
    settings: frozenset[str]


BUILTINS: dict[str, Builtin] = {
    "random": Builtin("randomsearch", frozenset({"random_state"})),
    "grid": Builtin("grid", frozenset()),
    "bayesianoptimization": Builtin("bayesopt", frozenset({"random_state"})),
    "tpe": Builtin("tpe", frozenset({"random_state"})),
    "hyperband": Builtin("hyperband", frozenset({"max_resource", "eta", "random_state"})),
}

_REGISTRY: dict[str, AlgorithmPlugin] = {}


def register_algorithm(plugin: AlgorithmPlugin) -> None:
    _REGISTRY[plugin.name] = plugin


def is_registered(name: str) -> bool:
    return name in _REGISTRY or name in BUILTINS


def algorithm_names() -> list[str]:
    return sorted(_REGISTRY.keys() | BUILTINS.keys())


def allowed_settings(name: str) -> frozenset[str]:
    plugin = _REGISTRY.get(name)
    return plugin.allowed_settings if plugin is not None else BUILTINS[name].settings


def get_algorithm(name: str) -> AlgorithmPlugin:
    plugin = _REGISTRY.get(name)
    if plugin is not None:
        return plugin
    if name not in BUILTINS:
        raise AlgorithmStateError(f"no algorithm registered under '{name}'")
    module = importlib.import_module(f"{__package__}.{BUILTINS[name].module}")
    return _REGISTRY.setdefault(name, module.PLUGIN)


def ensure_state(request: SuggestionRequest, algorithm: str) -> EngineState:
    """Validate and normalize the request's state handle for a built-in."""
    state = request.state
    if state is None:
        return EngineState(algorithm=algorithm)
    if not isinstance(state, EngineState) or state.algorithm != algorithm:
        raise AlgorithmStateError(
            f"state handle belongs to '{getattr(state, 'algorithm', type(state).__name__)}', "
            f"not '{algorithm}'"
        )
    return state
