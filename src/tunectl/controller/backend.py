"""Execution backend interface shared by the cluster simulator and the
local-process runner. One TrialJob backend drives possibly-multi-worker
workloads and reports a coarse job state the trial controller maps onto
trial phases."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from ..resources import CollectorKind, TrialRunSpec, TrialTemplate


class JobPhase(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED_TEMPORARY = "failed-temporary"
    FAILED_PERMANENT = "failed-permanent"
    MISSING = "missing"


@dataclass(frozen=True)
class JobState:
    phase: JobPhase
    reason: str | None = None


class JobRequest(NamedTuple):
    """What a backend's submit takes to run a trial's job; the trial
    reconciler's ``job_request`` makes it from the trial and its experiment."""

    run_spec: TrialRunSpec
    template: TrialTemplate
    collector_kind: CollectorKind
    watched_metrics: tuple[str, ...]


def job_handle(namespace: str, name: str) -> str:
    """The handle of a trial's job or an experiment's service: a trial and
    a service may share one, as they never share a job."""
    return f"{namespace}/{name}"


class ExecutionBackend(ABC):
    @abstractmethod
    def submit(self, request: JobRequest, restart_count: int = 0) -> str:
        """Launch the trial job; returns its handle. Resubmitting the same
        trial starts a fresh attempt resuming from any recorded checkpoint."""

    @abstractmethod
    def job_state(self, handle: str) -> JobState:
        ...

    @abstractmethod
    def changed_jobs(self) -> Iterable[str]:
        """The handles of the jobs whose phase may have changed since the
        last call. Right after a submit the controller reads the job's phase
        once and records it; after that it reconciles the trial again only
        when told about it here, so a backend must report every change a
        job makes after its submit: every trial job whose ``job_state``
        would now read differently. A handle reported without a change costs
        one idle reconcile.

        The controller drains this at the start of each step, so a trial is
        submitted at most once a step, however fast its jobs fail.
        """

    @abstractmethod
    def collect_metrics(self, handle: str) -> None:
        """Pull-mode collection, called once the job has succeeded: register
        the metric points it has reported so far, which a pull job keeps
        until this call. Idempotent; a no-op for push-mode jobs, whose
        points were registered as they arose."""

    def reserve_service(self, namespace: str, name: str, cpu: float) -> None:
        """Hold a long-running per-experiment service reservation (the
        deployed suggestion algorithm). Idempotent; a backend without a
        quota model holds nothing."""

    def release_service(self, namespace: str, name: str) -> None:
        """Drop a service reservation and all it holds; an unknown one is a
        no-op. A trial's job of the same handle stays."""

    @abstractmethod
    def release(self, handle: str) -> None:
        """Drop a trial's job and all it holds, once nothing will read it
        again; an unknown handle is a no-op."""

    @abstractmethod
    def advance(self, controller_step: Callable[[], int]) -> None:
        """Run one unit of time, invoking the controller step at the point
        in the cycle the backend defines."""

    def emit_event(self, kind: str, payload: dict) -> None:  # pragma: no cover
        """Optional structured event sink (simulator writes JSON lines)."""

    def persist(self) -> str | None:
        """The commit of the state reached, JSON text that the resource
        store appends to its journal after the writes it covers; None from
        a backend that persists nothing."""

    def close(self) -> None:
        """Flush and release any backend resources; safe to call twice."""
