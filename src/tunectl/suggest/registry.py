"""Algorithm plugin registry and the request/result types it exchanges.

Any module may register a plugin under a new ``algorithmName``; the
experiment format then accepts that name and the suggestion controller
drives it exactly like the built-ins. A plugin is the algorithm name, the
setting keys it accepts and a suggest function; it keeps no state of its
own, because every request carries what the experiment has produced so far.
A registered plugin wins over a built-in of the same name.

The built-ins are listed in ``BUILTINS`` by module and setting keys, so
validating an experiment imports no algorithm; ``get_algorithm`` imports a
built-in's module the first time its name is looked up.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Container, NamedTuple, Sequence

from ..errors import AlgorithmStateError
from ..resources import ExperimentSpec, value_to_string

# An assignment set is an ordered tuple of (parameterName, value) pairs, one
# per declared parameter, optionally followed by scheduler extras ("budget").
Assignment = tuple[str, Any]
AssignmentSet = tuple[Assignment, ...]


def assignment_key(assignments: AssignmentSet, names: Sequence[str] | None = None) -> tuple:
    """Canonical hashable identity of an assignment set.

    When ``names`` is given only those parameters participate, which lets
    schedulers compare configurations while ignoring extras like budgets.
    """
    if names is None:
        return tuple((n, value_to_string(v)) for n, v in assignments)
    by_name = dict(assignments)
    return tuple((n, value_to_string(by_name[n])) for n in names if n in by_name)


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
    """``produced`` is every set the algorithm has returned for the
    experiment, in the order it returned them (trial-index order). An
    algorithm re-derives whatever it needs from it and ``history`` on every
    call, which makes the engine crash-recoverable by construction.

    ``produced_keys`` holds the ``assignment_key`` of every set in
    ``produced`` and ``history``, for deduplication; a caller that leaves it
    out gets it derived from the two.

    The controller passes read-only views of its trial index, not copies:
    they are valid only during the ``suggest`` call, and nothing writes the
    index during that call, because the controller runs one reconciler at a
    time per store. A plugin that keeps any of them past the call copies it
    (``tuple(request.produced)``)."""

    experiment: ExperimentSpec
    history: Sequence[TrialObservation]
    count: int
    produced: Sequence[AssignmentSet] = ()
    produced_keys: Container[tuple] | None = None

    def __post_init__(self) -> None:
        if self.produced_keys is None:
            keys = {assignment_key(o.assignments) for o in self.history}
            keys.update(assignment_key(p) for p in self.produced)
            self.produced_keys = frozenset(keys)


@dataclass
class SuggestionResult:
    assignment_sets: tuple[AssignmentSet, ...]
    exhausted: bool = False


@dataclass(frozen=True)
class AlgorithmPlugin:
    name: str
    allowed_settings: frozenset[str]
    suggest: Callable[[SuggestionRequest], SuggestionResult]


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

