"""Typed resources managed by the controllers, plus their document forms.

Every resource has a Spec (desired state), a Status (current state), and a
generation counter used for compare-and-swap updates. Resources, their
statuses and the suggestion and trial specs are frozen values: a reader may
share one freely, and a writer builds a new one. The trial write path and
``clone_resource`` call the class constructors, positionally, which cost half
what ``dataclasses.replace`` does; colder writes use ``replace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..codec import from_doc, to_doc
from ..resources import (
    ExperimentSpec,
    parse_experiment,  # noqa: F401 -- perfbench/tracer.py wraps it under this module
)
from ..suggest.registry import AssignmentSet

KIND_EXPERIMENT = "experiment"
KIND_SUGGESTION = "suggestion"
KIND_TRIAL = "trial"


class ExperimentPhase(str, Enum):
    CREATED = "Created"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


class TrialPhase(str, Enum):
    CREATED = "Created"
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


TERMINAL_EXPERIMENT = (ExperimentPhase.SUCCEEDED, ExperimentPhase.FAILED)
TERMINAL_TRIAL = (TrialPhase.SUCCEEDED, TrialPhase.FAILED)


@dataclass(frozen=True)
class OptimalResult:
    assignments: AssignmentSet
    objective_value: float


@dataclass(frozen=True)
class ExperimentStatus:
    phase: ExperimentPhase = ExperimentPhase.CREATED
    trials_pending: int = 0
    trials_running: int = 0
    trials_succeeded: int = 0
    trials_failed: int = 0
    total_spawned: int = 0
    current_optimal: OptimalResult | None = None


@dataclass(frozen=True)
class SuggestionSpec:
    requested: int


@dataclass(frozen=True)
class SuggestionStatus:
    """``produced`` counts the sets the algorithm has returned; set ``i``
    becomes trial ``i``. ``pending`` holds the newest of them, numbered
    ``produced - len(pending)`` onward: every set whose trial may not exist
    yet. Older sets live on only as their trials' assignments."""

    produced: int = 0
    pending: tuple[AssignmentSet, ...] = ()
    exhausted: bool = False

    def unspawned(self, spawned: int) -> tuple[AssignmentSet, ...]:
        """The pending sets from set ``spawned`` on, in index order."""
        return self.pending[spawned - (self.produced - len(self.pending)) :]


@dataclass(frozen=True)
class TrialSpec:
    experiment: str
    assignments: AssignmentSet


@dataclass(frozen=True)
class TrialStatus:
    phase: TrialPhase = TrialPhase.CREATED
    restart_count: int = 0
    observation: float | None = None
    reason: str | None = None
    job_attempt: int = 0


@dataclass(frozen=True)
class Resource:
    kind: str
    namespace: str
    name: str
    spec: Any
    status: Any
    generation: int = 1

    @property
    def key(self) -> str:
        return resource_key(self.kind, self.namespace, self.name)


def resource_key(kind: str, namespace: str, name: str) -> str:
    return f"{kind}/{namespace}/{name}"


def trial_name_for(experiment: str, index: int) -> str:
    return f"{experiment}-{index:04d}"


def trial_index(experiment: str, name: str) -> int | None:
    """The ``index`` of ``trial_name_for(experiment, index)``; None for a name
    not of that form."""
    prefix, _, digits = name.rpartition("-")
    return int(digits) if prefix == experiment and digits.isdecimal() else None


def clone_resource(resource: Resource, generation: int) -> Resource:
    """The resource as the store keeps it at ``generation``."""
    return Resource(resource.kind, resource.namespace, resource.name, resource.spec, resource.status, generation)


# ---------------------------------------------------------------------------
# Document (de)serialization for the file store and ``tunectl dump``
# ---------------------------------------------------------------------------

# (spec class, status class) per kind; every kind decodes through
# ``from_doc``. An experiment spec's document is its user-facing form, so a
# stored one must meet each field's own rules as a submitted one must; the
# rules that span fields are checked at submission only.
_KINDS: dict[str, tuple[type, type]] = {
    KIND_EXPERIMENT: (ExperimentSpec, ExperimentStatus),
    KIND_SUGGESTION: (SuggestionSpec, SuggestionStatus),
    KIND_TRIAL: (TrialSpec, TrialStatus),
}


def resource_fields(resource: Resource) -> dict:
    """The fields of a resource's document, with the spec and status left as
    dataclasses: ``to_doc`` or ``codec.compact_json`` turns it into the
    document. A status-only journal record is this less its ``spec``."""
    return {
        "kind": resource.kind,
        "name": resource.name,
        "namespace": resource.namespace,
        "spec": resource.spec,
        "status": resource.status,
    }


def resource_to_doc(resource: Resource) -> dict:
    return to_doc(resource_fields(resource))


def resource_from_doc(doc: dict, generation: int) -> Resource:
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown resource kind '{kind}'")
    spec_cls, status_cls = _KINDS[kind]
    return Resource(
        kind=kind,
        namespace=doc["namespace"],
        name=doc["name"],
        spec=from_doc(spec_cls, doc["spec"]),
        status=from_doc(status_cls, doc["status"]),
        generation=generation,
    )
