"""Typed resources managed by the controllers, plus their YAML document forms.

Every resource has a Spec (desired state), a Status (current state), and a
generation counter used for compare-and-swap updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..codec import from_doc, to_doc
from ..resources import (
    AlgorithmSpec,
    ExperimentSpec,
    TrialRunSpec,
    experiment_from_doc,
    experiment_to_doc,
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


@dataclass
class ExperimentStatus:
    phase: ExperimentPhase = ExperimentPhase.CREATED
    trials_pending: int = 0
    trials_running: int = 0
    trials_succeeded: int = 0
    trials_failed: int = 0
    total_spawned: int = 0
    current_optimal: OptimalResult | None = None


@dataclass
class SuggestionSpec:
    experiment: str
    algorithm: AlgorithmSpec
    requested: int


@dataclass(frozen=True)
class ProducedSuggestion:
    assignments: AssignmentSet
    consumed: bool = False


@dataclass
class SuggestionStatus:
    produced: list[ProducedSuggestion] = field(default_factory=list)
    exhausted: bool = False


@dataclass
class TrialSpec:
    experiment: str
    assignments: AssignmentSet
    run_spec: TrialRunSpec | None = None


@dataclass
class TrialStatus:
    phase: TrialPhase = TrialPhase.CREATED
    restart_count: int = 0
    observation: float | None = None
    reason: str | None = None
    job_attempt: int = 0


@dataclass
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


def clone_resource(resource: Resource) -> Resource:
    """Cheap defensive copy for store reads and writes.

    Experiment specs are shared (treated as immutable once parsed); the
    mutable shells around them — statuses, suggestion/trial specs — are
    rebuilt so callers and the store never alias mutable state. Assignment
    tuples, run specs and produced suggestions are immutable and safely
    shared.
    """
    import dataclasses

    spec = resource.spec
    status = resource.status
    if resource.kind == KIND_SUGGESTION:
        spec = SuggestionSpec(
            experiment=spec.experiment,
            algorithm=AlgorithmSpec(spec.algorithm.algorithm_name, dict(spec.algorithm.settings)),
            requested=spec.requested,
        )
        status = SuggestionStatus(
            produced=list(status.produced),
            exhausted=status.exhausted,
        )
    elif resource.kind == KIND_TRIAL:
        spec = TrialSpec(experiment=spec.experiment, assignments=spec.assignments, run_spec=spec.run_spec)
        status = dataclasses.replace(status)
    else:
        status = dataclasses.replace(status)
    return Resource(
        kind=resource.kind,
        namespace=resource.namespace,
        name=resource.name,
        spec=spec,
        status=status,
        generation=resource.generation,
    )


# ---------------------------------------------------------------------------
# Document (de)serialization for the file store
# ---------------------------------------------------------------------------

# (spec class, status class) per kind. Experiment specs keep their
# user-facing form: written by ``experiment_to_doc``, read back through
# ``experiment_from_doc`` so a stored spec is validated like a submitted one.
_KINDS: dict[str, tuple[type, type]] = {
    KIND_EXPERIMENT: (ExperimentSpec, ExperimentStatus),
    KIND_SUGGESTION: (SuggestionSpec, SuggestionStatus),
    KIND_TRIAL: (TrialSpec, TrialStatus),
}


def resource_to_doc(resource: Resource) -> dict:
    spec = experiment_to_doc(resource.spec) if resource.kind == KIND_EXPERIMENT else to_doc(resource.spec)
    return {
        "kind": resource.kind,
        "name": resource.name,
        "namespace": resource.namespace,
        "spec": spec,
        "status": to_doc(resource.status),
    }


def resource_from_doc(doc: dict, generation: int) -> Resource:
    kind = doc["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown resource kind '{kind}'")
    spec_cls, status_cls = _KINDS[kind]
    if kind == KIND_EXPERIMENT:
        spec = experiment_from_doc(doc["spec"])
    else:
        spec = from_doc(spec_cls, doc["spec"])
    return Resource(
        kind=kind,
        namespace=doc["namespace"],
        name=doc["name"],
        spec=spec,
        status=from_doc(status_cls, doc["status"]),
        generation=generation,
    )
