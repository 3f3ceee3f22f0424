"""The three controllers as idempotent reconciliation loops.

Each reconciler observes current resource state and issues compare-and-swap
mutations moving it toward the desired state; applying a reconciler twice to
the same state is a no-op the second time. A controller step runs the
reconcilers in passes, kind by kind (experiments, suggestions, trials) and in
key order within a kind, repeating while a pass mutates anything.

A pass visits only the keys in the context's work queue, its ``dirty`` set,
which starts as every key in the store. A trial's job and an experiment's
service are released once its terminal status is written, in the same
step, so a backend holds live jobs only. Three sources put a key back in
the queue:

- a store write: the written key's experiment, and the key itself unless
  it is a trial's update (a trial is queued by its create, and after that
  by its job). A trial's create and its terminal write also queue the
  suggestion: a fill reads only the suggestion, the experiment's spec, which
  no write after submit changes, the trials' assignments and the concluded
  trials, and it does nothing once the experiment is terminal;
- the backend: a trial whose job changed phase after its submit
  (``changed_jobs``), drained at the start of each step;
- a retry: a CAS conflict, an error out of a reconciler, a submit that stays
  pending and an algorithm error requeue their key for the next pass.

A submit reads its job's phase once and records it: Pending, or Running
once the job has started. A pass takes each kind's queued keys when the
kind's loop starts, so a key queued later joins the next pass. A step ends
with a pass that writes nothing, and it does end: a trial's update never
queues the trial, and the backend's changes join the queue only when a step
begins, so a trial is submitted at most once a step. Every other key would
reconcile to a no-op, so skipping it changes neither the mutations nor the
order of events, and a step costs time in proportion to what changed. The
experiment and suggestion controllers read their trials through the store's
per-experiment trial index rather than by listing the namespace.

Budget semantics: an experiment spawns at most ``maxTrialCount`` trials and
keeps at most ``parallelTrialCount`` in flight; it succeeds when the goal is
met, when ``maxTrialCount`` trials succeed, or when the spawn budget (or the
search space) is spent and everything in flight has concluded. It fails once
failed trials strictly exceed ``maxFailedTrialCount``, so an error budget of
N tolerates exactly N failures.

Resources are frozen values. A reconciler reads what the store holds and
writes a new spec or status, and only when a field changes. A trial's spec,
its experiment and assignments, is written once, by its create: each submit
renders the trial's run spec from the experiment's template, which never
changes, through ``backend.job_request``, so the trial reconciler, which
makes most writes, writes only statuses. It builds each with its class
constructor; the colder writes use ``dataclasses.replace``.
"""

from __future__ import annotations

import logging
from collections.abc import Container, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable

from ..codec import to_doc
from ..errors import (
    CasConflictError,
    ExhaustedSearchSpace,
    InvalidPayloadError,
    TunectlError,
    UnknownNamespaceError,
)
from ..metrics import ObservationStore, best_objective
from ..resources import ExperimentSpec, ObjectiveType, RestartPolicy
from ..suggest import SuggestionRequest, get_suggestions
from ..suggest.registry import assignment_key
from .backend import ExecutionBackend, JobPhase, job_handle, job_request
from .model import (
    KIND_EXPERIMENT,
    KIND_SUGGESTION,
    KIND_TRIAL,
    TERMINAL_EXPERIMENT,
    TERMINAL_TRIAL,
    ExperimentPhase,
    ExperimentStatus,
    OptimalResult,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    resource_key,
    trial_name_for,
)
from .store import ResourceStore

logger = logging.getLogger(__name__)

SERVICE_CPU = 0.5
REASON_METRICS_UNAVAILABLE = "metrics-unavailable"


@dataclass
class ControllerContext:
    store: ResourceStore
    metrics: ObservationStore
    backend: ExecutionBackend
    # The work queue: keys the next pass reconciles.
    dirty: set[str] = field(init=False)

    def __post_init__(self) -> None:
        self.dirty = set(self.store.keys())
        self.store.watchers.append(self._written)

    def _written(self, resource: Resource) -> None:
        experiment = resource.spec.experiment if resource.kind == KIND_TRIAL else resource.name
        self.dirty.add(resource_key(KIND_EXPERIMENT, resource.namespace, experiment))
        # A trial's update (past generation 1, its create) leaves the trial
        # out: its next change comes from its job, which the backend reports.
        if resource.kind != KIND_TRIAL or resource.generation == 1:
            self.dirty.add(resource.key)
        # A fill reads the suggestion, the trials' assignments and the
        # concluded trials, so only a trial's create or conclusion wakes it.
        if resource.kind == KIND_TRIAL and (resource.generation == 1 or resource.status.phase in TERMINAL_TRIAL):
            self.dirty.add(resource_key(KIND_SUGGESTION, resource.namespace, experiment))


def service_name_for(experiment: str) -> str:
    return f"svc-{experiment}"


def submit_experiment(store: ResourceStore, spec: ExperimentSpec) -> Resource:
    """Persist a freshly validated experiment in the Created phase."""
    return store.create(
        Resource(
            kind=KIND_EXPERIMENT,
            namespace=spec.namespace,
            name=spec.name,
            spec=spec,
            status=ExperimentStatus(),
        )
    )


def _goal_met(spec: ExperimentSpec, optimal: OptimalResult | None) -> bool:
    goal = spec.objective.goal
    if goal is None or optimal is None:
        return False
    if spec.objective.type is ObjectiveType.MAXIMIZE:
        return optimal.objective_value >= goal
    return optimal.objective_value <= goal


def reconcile_experiment(ctx: ControllerContext, key: str) -> int:
    experiment = ctx.store.get(key)
    if experiment is None:
        return 0
    spec: ExperimentSpec = experiment.spec
    if experiment.status.phase in TERMINAL_EXPERIMENT:
        return 0

    mutations = 0
    # Read from the trial index before the spawns below write to it.
    index = ctx.store.trials(spec.namespace, spec.name)
    counts = index.counts
    pending = counts[TrialPhase.CREATED] + counts[TrialPhase.PENDING]
    running, succeeded, failed = counts[TrialPhase.RUNNING], counts[TrialPhase.SUCCEEDED], counts[TrialPhase.FAILED]
    spawned = len(index.trials)
    active = pending + running
    best = index.best[spec.objective.type is ObjectiveType.MAXIMIZE]
    optimal = None if best is None else OptimalResult(best.spec.assignments, best.status.observation)

    # Ensure the suggestion resource exists and has enough requested
    # suggestions to keep the parallel slots full within the trial budget.
    suggestion_key = resource_key(KIND_SUGGESTION, spec.namespace, spec.name)
    suggestion = ctx.store.get(suggestion_key)
    target = spawned + max(
        0, min(spec.parallel_trial_count - active, spec.max_trial_count - spawned)
    )
    if suggestion is None:
        suggestion = ctx.store.create(
            Resource(
                kind=KIND_SUGGESTION,
                namespace=spec.namespace,
                name=spec.name,
                spec=SuggestionSpec(requested=target),
                status=SuggestionStatus(),
            )
        )
        mutations += 1
    elif target > suggestion.spec.requested:
        suggestion = ctx.store.update(replace(suggestion, spec=replace(suggestion.spec, requested=target)))
        mutations += 1

    # Spawn trials from the pending sets while budget remains. Set i becomes
    # trial i and trials are created strictly in index order, so exactly the
    # sets below ``spawned`` have a trial and a crash at any point leaves
    # nothing to double-spawn.
    for assignments in suggestion.status.unspawned(spawned):
        if active >= spec.parallel_trial_count or spawned >= spec.max_trial_count:
            break
        ctx.store.create(
            Resource(
                kind=KIND_TRIAL,
                namespace=spec.namespace,
                name=trial_name_for(spec.name, spawned),
                spec=TrialSpec(experiment=spec.name, assignments=assignments),
                status=TrialStatus(),
            )
        )
        mutations += 1
        spawned += 1
        active += 1
        pending += 1

    search_spent = suggestion.status.exhausted and spawned >= suggestion.status.produced
    budget_spent = (spawned >= spec.max_trial_count or search_spent) and active == 0

    phase = ExperimentPhase.RUNNING
    if _goal_met(spec, optimal):
        phase = ExperimentPhase.SUCCEEDED
    elif failed > spec.max_failed_trial_count:
        phase = ExperimentPhase.FAILED
    elif succeeded >= spec.max_trial_count or budget_spent:
        phase = ExperimentPhase.SUCCEEDED

    new_status = ExperimentStatus(
        phase=phase,
        trials_pending=pending,
        trials_running=running,
        trials_succeeded=succeeded,
        trials_failed=failed,
        total_spawned=spawned,
        current_optimal=optimal,
    )
    if new_status != experiment.status:
        ctx.store.update(replace(experiment, status=new_status))
        mutations += 1
    if phase in TERMINAL_EXPERIMENT:
        ctx.backend.release_service(spec.namespace, service_name_for(spec.name))
    return mutations


def reconcile_suggestion(ctx: ControllerContext, key: str) -> int:
    suggestion = ctx.store.get(key)
    if suggestion is None:
        return 0
    experiment = ctx.store.get(resource_key(KIND_EXPERIMENT, suggestion.namespace, suggestion.name))
    if experiment is None or experiment.status.phase in TERMINAL_EXPERIMENT:
        return 0

    # The per-experiment algorithm service: deployed on first reconcile and
    # holding a fixed CPU reservation against the namespace quota. A
    # misconfigured namespace surfaces through the trials, which fail to
    # submit; suggestions still fill so the failure is visible quickly.
    try:
        ctx.backend.reserve_service(suggestion.namespace, service_name_for(suggestion.name), SERVICE_CPU)
    except UnknownNamespaceError as exc:
        logger.warning("suggestion %s: service reservation failed: %s", key, exc)

    status = suggestion.status
    need = suggestion.spec.requested - status.produced
    if status.exhausted or need <= 0:
        return 0

    # The algorithm sees every set produced so far in index order: the
    # spawned trials' assignments, then the pending sets not yet spawned,
    # through views of the trial index's own lists, which copy nothing.
    spec: ExperimentSpec = experiment.spec
    index = ctx.store.trials(suggestion.namespace, spec.name)
    unspawned = status.unspawned(len(index.produced))
    request = SuggestionRequest(
        experiment=spec,
        history=index.observations,
        count=need,
        produced=_Chain(index.produced, unspawned),
        produced_keys=_Either(index.keys, {assignment_key(a) for a in unspawned}),
    )
    try:
        result = get_suggestions(request)
    except ExhaustedSearchSpace:
        ctx.store.update(replace(suggestion, status=replace(status, exhausted=True)))
        return 1
    except TunectlError as exc:
        logger.warning("suggestion %s: algorithm error, will retry: %s", key, exc)
        ctx.dirty.add(key)
        return 0

    if not result.assignment_sets and not result.exhausted:
        return 0  # algorithm is waiting on in-flight observations
    status = SuggestionStatus(
        produced=status.produced + len(result.assignment_sets),
        pending=unspawned + tuple(result.assignment_sets),
        exhausted=result.exhausted,
    )
    ctx.store.update(replace(suggestion, status=status))
    return 1


class _Chain(Sequence):
    """``head`` followed by ``tail``, read in place."""

    def __init__(self, head: Sequence, tail: Sequence) -> None:
        self._head, self._tail = head, tail

    def __len__(self) -> int:
        return len(self._head) + len(self._tail)

    def __getitem__(self, i):
        at = range(len(self))[i]  # an int or, for a slice, a range; checks bounds
        if isinstance(at, range):
            return tuple(map(self.__getitem__, at))
        return self._head[at] if at < len(self._head) else self._tail[at - len(self._head)]

    def __iter__(self):
        return chain(self._head, self._tail)


class _Either(Container):
    """What either container holds, read in place."""

    def __init__(self, first: Container, second: Container) -> None:
        self._first, self._second = first, second

    def __contains__(self, item) -> bool:
        return item in self._first or item in self._second


def reconcile_trial(ctx: ControllerContext, key: str) -> int:
    trial = ctx.store.get(key)
    if trial is None:
        return 0
    if trial.status.phase in TERMINAL_TRIAL:
        return 0
    handle = job_handle(trial.namespace, trial.name)
    experiment = ctx.store.get(
        resource_key(KIND_EXPERIMENT, trial.namespace, trial.spec.experiment)
    )
    if experiment is None:
        return 0
    spec: ExperimentSpec = experiment.spec

    # The trial's write path changes only its status, and builds it with its
    # constructor, positionally in field order: ``dataclasses.replace`` costs
    # twice as much.
    def submit(restart_count: int) -> TrialStatus:
        """The trial's status once its next attempt is submitted with
        ``restart_count``, which it keeps only if the backend accepts it."""
        request = job_request(spec, trial)
        status = trial.status
        try:
            ctx.backend.submit(request, restart_count)
        except (UnknownNamespaceError, InvalidPayloadError) as exc:
            return replace(status, phase=TrialPhase.FAILED, reason=str(exc))
        except TunectlError as exc:
            logger.warning("trial %s: submit failed, staying pending: %s", key, exc)
            ctx.dirty.add(key)
            return _with_phase(status, TrialPhase.PENDING)
        # A job that reads Pending waits to be placed; any other phase means
        # it has started. Every later change the backend reports.
        started = ctx.backend.job_state(handle).phase is not JobPhase.PENDING
        return TrialStatus(
            TrialPhase.RUNNING if started else TrialPhase.PENDING,
            restart_count,
            status.observation,
            status.reason,
            status.job_attempt + 1,
        )

    status = trial.status
    if status.job_attempt == 0:
        status = submit(status.restart_count)
    else:
        state = ctx.backend.job_state(handle)
        if state.phase is JobPhase.MISSING:
            status = submit(status.restart_count)  # backend lost the job: redeploy
        elif state.phase is JobPhase.PENDING:
            status = _with_phase(status, TrialPhase.PENDING)
        elif state.phase is JobPhase.RUNNING:
            status = _with_phase(status, TrialPhase.RUNNING)
        elif state.phase is JobPhase.SUCCEEDED:
            ctx.backend.collect_metrics(handle)
            observation = best_objective(
                ctx.metrics.get_observation_log(handle), spec.objective
            )
            if observation is None:
                status = replace(status, phase=TrialPhase.FAILED, reason=REASON_METRICS_UNAVAILABLE)
            else:
                status = TrialStatus(
                    TrialPhase.SUCCEEDED, status.restart_count, observation, None, status.job_attempt
                )
        elif (
            state.phase is JobPhase.FAILED_TEMPORARY
            and spec.trial_template.restart_policy is RestartPolicy.ON_TEMPORARY_FAILURE
        ):
            # Counted only once the redeploy is accepted, so a transient
            # submit error cannot inflate the restart count.
            status = submit(status.restart_count + 1)
        elif state.phase in (JobPhase.FAILED_TEMPORARY, JobPhase.FAILED_PERMANENT):
            status = replace(status, phase=TrialPhase.FAILED, reason=state.reason)

    if status is trial.status:
        return 0
    ctx.store.update(Resource(KIND_TRIAL, trial.namespace, trial.name, trial.spec, status, trial.generation))
    if status.phase in TERMINAL_TRIAL:
        # After the terminal record, in the same tick: a kill between the
        # two is cut back with the rest of the tick on resume.
        ctx.backend.release(handle)
    return 1


def _with_phase(status: TrialStatus, phase: TrialPhase) -> TrialStatus:
    """``status`` in ``phase``: the same object when it is there already."""
    if status.phase is phase:
        return status
    return TrialStatus(phase, status.restart_count, status.observation, status.reason, status.job_attempt)


_RECONCILERS = {
    KIND_EXPERIMENT: reconcile_experiment,
    KIND_SUGGESTION: reconcile_suggestion,
    KIND_TRIAL: reconcile_trial,
}


def controller_step(ctx: ControllerContext) -> int:
    """One scheduler step: reconcile until quiescent.

    First the trials whose jobs changed phase join the work queue. Then each
    pass visits the queued keys kind by kind (experiments, then suggestions,
    then trials), in key order, taking a kind's keys when its loop starts, so
    a fresh suggestion flows into spawned, submitted trials within one step.
    The step ends with a pass that mutates nothing; a key still queued then
    waits for the next step.
    """
    for handle in ctx.backend.changed_jobs():
        namespace, _, name = handle.partition("/")
        ctx.dirty.add(resource_key(KIND_TRIAL, namespace, name))
    total = 0
    while True:
        mutations = 0
        for kind in (KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL):
            prefix = kind + "/"
            keys = sorted(key for key in ctx.dirty if key.startswith(prefix))
            ctx.dirty.difference_update(keys)
            reconciler = _RECONCILERS[kind]
            for key in keys:
                try:
                    mutations += reconciler(ctx, key)
                except CasConflictError:
                    logger.debug("CAS conflict on %s; retrying next pass", key)
                    ctx.dirty.add(key)
                except TunectlError as exc:
                    logger.warning("reconcile %s failed (will retry): %s", key, exc)
                    ctx.dirty.add(key)
        total += mutations
        if mutations == 0:
            return total


def all_experiments_terminal(store: ResourceStore) -> bool:
    experiments = store.list(KIND_EXPERIMENT)
    return bool(experiments) and all(
        e.status.phase in TERMINAL_EXPERIMENT for e in experiments
    )


def terminal_snapshot(store: ResourceStore, ticks: int) -> dict:
    experiments = {e.key: to_doc(e.status) for e in store.list(KIND_EXPERIMENT)}
    return {"ticks": ticks, "experiments": experiments}


def run_control_loop(
    store: ResourceStore,
    metrics: ObservationStore,
    backend: ExecutionBackend,
    *,
    stop: Callable[[int], bool] | None = None,
    max_ticks: int = 1_000_000,
) -> dict:
    """Drive every experiment in the store to a terminal phase.

    Starvation-free (round-robin within each step) and crash-recoverable:
    each tick ends with one commit, ``backend.persist``, which the store
    appends after the tick's writes, so a resume opens the store and the
    backend at the same commit. A store opened at its commit holds a tick's
    records until the ``flush`` before ``persist``. The loop commits its
    start before the bootstrap step, so a kill within that step resumes from
    it, and a resumed run's bootstrap step, at a commit, finds nothing to
    do. It commits once more as it ends, which covers the bootstrap step of
    a loop that ends before its first tick; the store skips a commit that
    repeats its last with no write since. The loop leaves no watcher on the
    store. Returns the terminal snapshot.
    """
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    ticks = 0

    def commit() -> None:
        store.flush()
        store.commit(backend.persist())

    try:
        commit()
        controller_step(ctx)  # bootstrap: create suggestions/trials before time moves
        while not all_experiments_terminal(store):
            if ticks >= max_ticks:
                logger.warning("control loop stopped at max_ticks=%d before termination", max_ticks)
                break
            backend.advance(lambda: controller_step(ctx))
            ticks += 1
            for e in store.list(KIND_EXPERIMENT):
                backend.emit_event(
                    "experiment-stats",
                    {
                        "experiment": e.name,
                        "namespace": e.namespace,
                        "phase": e.status.phase.value,
                        "running": e.status.trials_running,
                        "pending": e.status.trials_pending,
                        "succeeded": e.status.trials_succeeded,
                        "failed": e.status.trials_failed,
                        "spawned": e.status.total_spawned,
                    },
                )
            commit()
            if stop is not None and stop(ticks):
                break
        commit()
    finally:
        store.watchers.remove(ctx._written)
    return terminal_snapshot(store, ticks)
