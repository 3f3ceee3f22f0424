"""Execution backend interface shared by the cluster simulator and the
local-process runner. One TrialJob backend drives possibly-multi-worker
workloads and reports a coarse job state the trial controller maps onto
trial phases.

Both backends log, commit and resume one way; each supplies only its
events, its ``state`` and how to ``restore`` itself from it. With a state
directory, ``persist`` moves the events to ``events.jsonl`` there and
returns the commit, ``{<STATE_KEY>: <state>, "eventsOffset": <size>}``,
that the resource store appends to its journal. ``resume`` takes the store
alone: its root is the state directory, its last commit the backend's, and
its trials and experiments give each rebuilt job its spec.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from ..codec import Journal, compact_json, sorted_json
from ..errors import TunectlError
from ..resources import CollectorKind, ExperimentSpec, TrialRunSpec, TrialTemplate, render_trial_spec
from .model import KIND_EXPERIMENT, KIND_TRIAL, Resource, resource_key
from .store import ResourceStore


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
    """What a backend's submit takes to run a trial's job; ``job_request``
    makes it from the trial and its experiment."""

    run_spec: TrialRunSpec
    template: TrialTemplate
    collector_kind: CollectorKind
    watched_metrics: tuple[str, ...]


def job_request(spec: ExperimentSpec, trial: Resource) -> JobRequest:
    """What a backend's submit takes to run ``trial``'s job in experiment
    ``spec``: its run spec, the trial template, the collector kind and the
    watched metrics. Every attempt takes the same, as the experiment's spec
    never changes, so a resumed simulated world rebuilds its jobs through it."""
    template, objective = spec.trial_template, spec.objective
    run_spec = render_trial_spec(template, trial.spec.assignments, trial.name, trial.namespace)
    watched = (objective.objective_metric_name, *objective.additional_metric_names)
    return JobRequest(run_spec, template, spec.metric_collector_kind, watched)


def stored_job_request(store: ResourceStore, handle: str) -> JobRequest:
    """``job_request`` of the trial behind job ``handle`` as ``store`` holds
    it; an error when the store holds no such trial or not its experiment."""
    namespace, name = handle.split("/", 1)
    trial = store.get(resource_key(KIND_TRIAL, namespace, name))
    experiment = trial and store.get(resource_key(KIND_EXPERIMENT, namespace, trial.spec.experiment))
    if experiment is None:
        raise TunectlError(f"{store.path or 'the store'} holds no trial, or not its experiment, "
                           f"of the job {handle} that its world runs")
    return job_request(experiment.spec, trial)


def job_handle(namespace: str, name: str) -> str:
    """The handle of a trial's job or an experiment's service: a trial and
    a service may share one, as they never share a job."""
    return f"{namespace}/{name}"


class ExecutionBackend(ABC):
    WORLD_FILE = ResourceStore.JOURNAL  # the store's journal, where the commits go
    EVENTS_FILE = "events.jsonl"
    STATE_KEY: str  # the key of the backend's state in its commits
    WRITERS = {"world": "sim", "trainers": "local"}  # the ``run --backend`` that writes each key
    _state_dir: Path | None = None
    events: list[dict]  # emitted since the last commit, for the event log

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

    @abstractmethod
    def emit_event(self, kind: str, payload: dict) -> None:
        """Keep a ``{tick, kind, payload}`` event in ``events``, stamped
        with the backend's clock, if the backend logs events of ``kind``."""

    @abstractmethod
    def state(self) -> Any:
        """What a commit holds of the backend, under ``STATE_KEY``."""

    @classmethod
    @abstractmethod
    def restore(cls, state: Any, metrics, job_request: Callable[[str], JobRequest]):
        """The backend rebuilt from the ``state`` of a commit, each trial
        job's spec from ``job_request`` of its handle."""

    def _open_state(self, state_dir: Path, events_size: int) -> None:
        """Write events to ``state_dir``, its event log cut to ``events_size`` bytes."""
        state_dir.mkdir(parents=True, exist_ok=True)
        self._state_dir = state_dir
        self._events = Journal(state_dir / self.EVENTS_FILE)
        self._events.truncate(events_size)

    @classmethod
    def resume(cls, store: ResourceStore, metrics) -> ExecutionBackend:
        """Rebuild a backend in the directory of ``store`` from its last
        commit, which ``persist`` returned, each job's spec from the store,
        and cut the events logged after the commit (a torn step): they will
        be emitted again."""
        doc: Any = {}
        try:
            doc = json.loads(store.committed)
            state, offset = doc[cls.STATE_KEY], doc["eventsOffset"]
            backend = cls.restore(state, metrics, lambda handle: stored_job_request(store, handle))
        except (ValueError, KeyError, TypeError) as exc:
            other = next((name for key, name in cls.WRITERS.items() if key != cls.STATE_KEY and key in doc), None)
            problem = (f"was written by 'tunectl run --backend {other}'; resume it with that backend or" if other
                       else f"holds no {cls.STATE_KEY} that this version reads;")
            raise TunectlError(f"the last commit in {store.path} {problem} start again in a fresh store") from exc
        backend._open_state(store.root, offset)
        return backend

    def persist(self) -> str | None:
        """Move the events to the event log; return the commit, None without a state directory."""
        if self._state_dir is None:
            return None
        offset = self._events.append(sorted_json(e) + "\n" for e in self.events)
        self.events.clear()
        return compact_json({self.STATE_KEY: self.state(), "eventsOffset": offset})

    def close(self) -> None:
        """Close the event log; safe to call twice."""
        if self._state_dir is not None:
            self._events.close()
