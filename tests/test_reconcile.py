"""Controller reconciliation semantics: budgets, phases, idempotency."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from conftest import make_experiment
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller import reconcile
from tunectl.controller.backend import ExecutionBackend, JobPhase, JobState, job_handle
from tunectl.controller.model import (
    KIND_SUGGESTION,
    KIND_TRIAL,
    ExperimentPhase,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    resource_key,
)
from tunectl.controller.reconcile import (
    ControllerContext,
    controller_step,
    reconcile_experiment,
    reconcile_suggestion,
    run_control_loop,
    submit_experiment,
    trial_name_for,
)
from tunectl.controller.store import ResourceStore
from tunectl.errors import CasConflictError
from tunectl.metrics import InMemoryObservationStore
from tunectl.resources import (
    ObjectiveType,
    ParameterSpec,
    ParameterType,
    Range,
    RestartPolicy,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
    ValueList,
    render_trial_spec,
)
from tunectl.suggest import (
    AlgorithmPlugin,
    SuggestionRequest,
    SuggestionResult,
    register_algorithm,
)
from tunectl.suggest import registry

SPHERE_PARAMS = [
    ParameterSpec("x1", ParameterType.DOUBLE, Range(-1.0, 1.0)),
    ParameterSpec("x2", ParameterType.DOUBLE, Range(-1.0, 1.0)),
]


def _world(capacity=32.0, namespaces=("ns",), seed=1):
    world = SimWorld(seed=seed)
    world.add_node(capacity)
    for ns in namespaces:
        world.add_namespace(ns)
    return world


def _context(world=None):
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(world or _world(), metrics)
    return ControllerContext(store=store, metrics=metrics, backend=backend), store, metrics, backend


def _sphere_template(duration=1, workers=1, restart=RestartPolicy.NEVER):
    return TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=duration),
        worker_count=workers,
        cpu_per_worker=1.0,
        restart_policy=restart,
    )


def test_fresh_experiment_requests_parallel_count_suggestions():
    ctx, store, _, _ = _context()
    spec = make_experiment(SPHERE_PARAMS, parallel=2, max_trials=12, template=_sphere_template())
    submit_experiment(store, spec)
    reconcile_experiment(ctx, "experiment/ns/exp")
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion is not None
    assert suggestion.spec.requested == 2


def test_goal_met_transitions_to_succeeded():
    ctx, store, _, backend = _context()
    spec = make_experiment(
        SPHERE_PARAMS,
        objective_type=ObjectiveType.MAXIMIZE,
        metric="Validation-accuracy",
        goal=0.99,
        parallel=1,
        max_trials=50,
        template=_sphere_template(),
    )
    submit_experiment(store, spec)
    controller_step(ctx)
    trial = store.list(KIND_TRIAL)[0]
    store.update(replace(trial, status=replace(trial.status, phase=TrialPhase.SUCCEEDED, observation=0.992)))
    reconcile_experiment(ctx, "experiment/ns/exp")
    experiment = store.get("experiment/ns/exp")
    assert experiment.status.phase is ExperimentPhase.SUCCEEDED
    assert experiment.status.current_optimal.objective_value == 0.992


def test_error_budget_tolerates_exactly_its_count():
    # An error budget of N fails the experiment on failure N+1, not N.
    ctx, store, _, _ = _context()
    spec = make_experiment(
        SPHERE_PARAMS, parallel=3, max_trials=200, max_failed=2, template=_sphere_template()
    )
    submit_experiment(store, spec)
    controller_step(ctx)
    trials = store.list(KIND_TRIAL)
    for trial in trials[:2]:
        store.update(replace(trial, status=replace(trial.status, phase=TrialPhase.FAILED)))
    reconcile_experiment(ctx, "experiment/ns/exp")
    assert store.get("experiment/ns/exp").status.phase is ExperimentPhase.RUNNING
    third = store.get(trials[2].key)
    store.update(replace(third, status=replace(third.status, phase=TrialPhase.FAILED)))
    reconcile_experiment(ctx, "experiment/ns/exp")
    experiment = store.get("experiment/ns/exp")
    assert experiment.status.phase is ExperimentPhase.FAILED
    assert experiment.status.trials_failed == 3


def test_error_budget_of_100_fails_at_101():
    ctx, store, _, _ = _context()
    spec = make_experiment(
        SPHERE_PARAMS, parallel=10, max_trials=150, max_failed=100, template=_sphere_template()
    )
    submit_experiment(store, spec)
    from tunectl.controller.model import Resource, TrialSpec, TrialStatus

    for i in range(101):
        store.create(
            Resource(
                kind=KIND_TRIAL,
                namespace="ns",
                name=f"exp-{i:04d}",
                spec=TrialSpec(experiment="exp", assignments=(("x1", 0.0), ("x2", 0.0))),
                status=TrialStatus(phase=TrialPhase.FAILED, reason="injected"),
            )
        )
    reconcile_experiment(ctx, "experiment/ns/exp")
    experiment = store.get("experiment/ns/exp")
    assert experiment.status.trials_failed == 101
    assert experiment.status.phase is ExperimentPhase.FAILED


def test_controller_step_is_idempotent_when_quiescent():
    ctx, store, _, _ = _context()
    spec = make_experiment(SPHERE_PARAMS, parallel=2, max_trials=4, template=_sphere_template())
    submit_experiment(store, spec)
    assert controller_step(ctx) > 0
    assert controller_step(ctx) == 0  # re-running with unchanged inputs mutates nothing


def test_spawn_respects_parallel_and_total_budget():
    ctx, store, _, _ = _context()
    spec = make_experiment(SPHERE_PARAMS, parallel=3, max_trials=7, template=_sphere_template())
    submit_experiment(store, spec)
    controller_step(ctx)
    trials = store.list(KIND_TRIAL)
    assert len(trials) == 3  # parallel slots cap the first wave
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion.status.produced == 3
    assert tuple(t.spec.assignments for t in trials) == suggestion.status.pending


def test_grid_exhaustion_succeeds_with_full_cross_product():
    params = [
        ParameterSpec("a", ParameterType.DISCRETE, ValueList((0.1, 0.2))),
        ParameterSpec("b", ParameterType.CATEGORICAL, ValueList(("x", "y"))),
    ]
    spec = make_experiment(
        params, algorithm="grid", settings={}, parallel=2, max_trials=10, template=_sphere_template()
    )
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(_world(), metrics)
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=60)
    result = snapshot["experiments"]["experiment/ns/exp"]
    assert result["phase"] == "Succeeded"
    assert result["trialsSucceeded"] == 4  # grid of 4 < maxTrialCount
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion.status.exhausted


class _SilentBackend(ExecutionBackend):
    """Minimal pluggable backend: jobs finish instantly without reporting
    a metric, and each reads changed once after its submit."""

    def __init__(self):
        self.submitted = set()

    def submit(self, request, restart_count=0):
        handle = job_handle(request.run_spec.namespace, request.run_spec.trial_name)
        self.submitted.add(handle)
        return handle

    def job_state(self, handle):
        return JobState(phase=JobPhase.SUCCEEDED)

    def changed_jobs(self):
        changed, self.submitted = self.submitted, set()
        return changed

    def collect_metrics(self, handle):
        pass

    def reserve_service(self, namespace, name, cpu):
        pass

    def release(self, handle):
        pass

    def advance(self, controller_step):
        controller_step()

    def emit_event(self, kind, payload):
        pass  # it keeps no event log

    def state(self):
        return None

    @classmethod
    def restore(cls, state, metrics, job_request):
        return cls()


def test_metrics_missing_on_completion_fails_trial():
    # A job that completes without ever reporting the objective metric.
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = _SilentBackend()
    spec = make_experiment(SPHERE_PARAMS, parallel=1, max_trials=1, template=_sphere_template())
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=10)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED
    assert trial.status.reason == "metrics-unavailable"
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Failed"


def test_unknown_namespace_fails_trial_permanently():
    world = SimWorld(seed=1)
    world.add_node(8.0)  # namespace "ns" never created
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(world, metrics)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    spec = make_experiment(SPHERE_PARAMS, parallel=1, max_trials=1, template=_sphere_template())
    submit_experiment(store, spec)
    controller_step(ctx)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED


def test_budget_and_conservation_invariants_throughout_run():
    spec = make_experiment(
        SPHERE_PARAMS, parallel=3, max_trials=11, template=_sphere_template(duration=2)
    )
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    world = _world(capacity=6.0)  # tight capacity: trials queue
    backend = SimBackend(world, metrics)
    submit_experiment(store, spec)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)

    def check_invariants():
        trials = store.list(KIND_TRIAL)
        running = sum(1 for t in trials if t.status.phase is TrialPhase.RUNNING)
        pending = sum(
            1 for t in trials if t.status.phase in (TrialPhase.CREATED, TrialPhase.PENDING)
        )
        assert running + pending <= spec.parallel_trial_count
        assert len(trials) <= spec.max_trial_count
        experiment = store.get("experiment/ns/exp")
        s = experiment.status
        assert (
            s.trials_succeeded + s.trials_failed + s.trials_running + s.trials_pending
            == s.total_spawned
        )

    controller_step(ctx)
    check_invariants()
    for _ in range(60):
        backend.advance(lambda: controller_step(ctx))
        check_invariants()
        experiment = store.get("experiment/ns/exp")
        if experiment.status.phase in (ExperimentPhase.SUCCEEDED, ExperimentPhase.FAILED):
            break
    experiment = store.get("experiment/ns/exp")
    assert experiment.status.phase is ExperimentPhase.SUCCEEDED
    assert experiment.status.trials_succeeded == 11


def test_terminal_phase_never_transitions_further():
    ctx, store, metrics, backend = _context()
    spec = make_experiment(SPHERE_PARAMS, parallel=2, max_trials=2, template=_sphere_template())
    submit_experiment(store, spec)
    run_control_loop(store, metrics, backend, max_ticks=30)
    experiment = store.get("experiment/ns/exp")
    assert experiment.status.phase is ExperimentPhase.SUCCEEDED
    frozen = experiment.status
    reconcile_experiment(ctx, "experiment/ns/exp")
    assert store.get("experiment/ns/exp").status == frozen


def test_restart_on_temporary_failure_increments_count():
    world = _world()
    ctx, store, metrics, backend = _context(world)
    spec = make_experiment(
        SPHERE_PARAMS,
        parallel=1,
        max_trials=1,
        template=_sphere_template(duration=4, restart=RestartPolicy.ON_TEMPORARY_FAILURE),
    )
    submit_experiment(store, spec)
    controller_step(ctx)
    backend.advance(lambda: controller_step(ctx))  # gets placed, starts running
    from tunectl.controller.backend import JobPhase

    job = world.jobs["ns/exp-0000"]
    assert job.phase is JobPhase.RUNNING
    job.phase = JobPhase.FAILED_TEMPORARY
    world.changed.add(job.name)  # as a tick phase marks the job it changes
    for unit in job.units:
        world._unplace(unit, job.name, job.cpu)
    backend.advance(lambda: controller_step(ctx))
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.restart_count == 1
    assert trial.status.phase is not TrialPhase.FAILED
    for _ in range(12):
        backend.advance(lambda: controller_step(ctx))
    assert store.get("experiment/ns/exp").status.phase is ExperimentPhase.SUCCEEDED


class _RecordingBackend(_SilentBackend):
    """Records each submit's run spec; a job reads Running once submitted
    and then whatever phase the test sets."""

    def __init__(self):
        super().__init__()
        self.run_specs = []
        self.phases = {}

    def submit(self, request, restart_count=0):
        run_spec = request.run_spec
        self.run_specs.append(run_spec)
        handle = job_handle(run_spec.namespace, run_spec.trial_name)
        self.phases[handle] = JobPhase.RUNNING
        return handle

    def job_state(self, handle):
        return JobState(phase=self.phases.get(handle, JobPhase.MISSING))

    def set_phase(self, handle, phase):
        self.phases[handle] = phase
        self.submitted.add(handle)  # reported changed at the next step


def test_a_redeploy_renders_the_run_spec_its_first_submit_rendered():
    # Each submit renders the run spec from the experiment's template, and
    # no write of the trial replaces the spec its create stored.
    store, metrics, backend = ResourceStore(), InMemoryObservationStore(), _RecordingBackend()
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    writes = []
    store.watchers.append(lambda resource: resource.kind == KIND_TRIAL and writes.append(resource))
    template = _sphere_template(restart=RestartPolicy.ON_TEMPORARY_FAILURE)
    spec = make_experiment(SPHERE_PARAMS, parallel=1, max_trials=1, template=template)
    submit_experiment(store, spec)
    controller_step(ctx)
    handle = job_handle("ns", "exp-0000")
    backend.set_phase(handle, JobPhase.FAILED_TEMPORARY)
    controller_step(ctx)
    backend.set_phase(handle, JobPhase.MISSING)  # the backend lost the job
    controller_step(ctx)

    trial = store.get("trial/ns/exp-0000")
    assert trial.status.phase is TrialPhase.RUNNING
    assert (trial.status.restart_count, trial.status.job_attempt) == (1, 3)
    rendered = render_trial_spec(template, trial.spec.assignments, "exp-0000", "ns")
    assert backend.run_specs == [rendered] * 3
    assert [w.generation for w in writes] == [1, 2, 3, 4]
    assert all(w.spec is writes[0].spec for w in writes)


def test_two_namespaces_progress_concurrently():
    world = _world(capacity=32.0, namespaces=("user1", "user2"))
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(world, metrics)
    for ns in ("user1", "user2"):
        submit_experiment(
            store,
            make_experiment(
                SPHERE_PARAMS, name=f"exp-{ns}", namespace=ns, parallel=2, max_trials=4,
                template=_sphere_template(duration=2),
            ),
        )
    snapshot = run_control_loop(store, metrics, backend, max_ticks=60)
    for ns in ("user1", "user2"):
        result = snapshot["experiments"][f"experiment/{ns}/exp-{ns}"]
        assert result["phase"] == "Succeeded"
        assert result["trialsSucceeded"] == 4
    stats = [e for e in world.events if e["kind"] == "tick-stats"]
    both_running = any(
        all(s["payload"]["namespaces"][ns]["runningTrials"] > 0 for ns in ("user1", "user2"))
        for s in stats
    )
    assert both_running


def test_suggestion_top_up_as_slots_free():
    spec = make_experiment(
        SPHERE_PARAMS, parallel=2, max_trials=6, template=_sphere_template(duration=1)
    )
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = SimBackend(_world(), metrics)
    submit_experiment(store, spec)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    controller_step(ctx)
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion.spec.requested == 2
    for _ in range(3):
        backend.advance(lambda: controller_step(ctx))
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert suggestion.spec.requested > 2  # topped up as earlier trials completed
    run_control_loop(store, metrics, backend, max_ticks=40)
    assert store.get("experiment/ns/exp").status.trials_succeeded == 6


def test_an_experiment_that_concludes_releases_its_service_in_the_same_step():
    # The step that writes an experiment's terminal status releases its
    # service, so the tick commits both. A kill between the two is cut back
    # with the rest of the tick on resume, so a terminal experiment found in
    # a committed store holds no service.
    ctx, store, _metrics, backend = _context()
    spec = make_experiment(SPHERE_PARAMS, parallel=1, max_trials=1, template=_sphere_template())
    submit_experiment(store, spec)
    controller_step(ctx)
    assert "ns/svc-exp" in backend.world.services
    for _ in range(4):
        backend.advance(lambda: controller_step(ctx))
        if store.get("experiment/ns/exp").status.phase is ExperimentPhase.SUCCEEDED:
            break
    assert store.get("experiment/ns/exp").status.phase is ExperimentPhase.SUCCEEDED
    assert "ns/svc-exp" not in backend.world.services


def test_a_trial_and_a_service_of_one_handle_each_run():
    # Trial "svc-0000" of experiment "svc" and the service of experiment
    # "0000" share the handle "ns/svc-0000", but never a job: both
    # experiments run all their trials.
    ctx, store, metrics, backend = _context()
    for name in ("svc", "0000"):
        submit_experiment(store, make_experiment(SPHERE_PARAMS, name=name, parallel=2, max_trials=4,
                                                 template=_sphere_template(duration=2)))
    snapshot = run_control_loop(store, metrics, backend, max_ticks=200)
    for name in ("svc", "0000"):
        result = snapshot["experiments"][f"experiment/ns/{name}"]
        assert (result["phase"], result["trialsSucceeded"]) == ("Succeeded", 4), name
    assert backend.world.jobs == {} and backend.world.services == {}


class _Killed(Exception):
    """Stands in for the process dying: no reconciler catches it."""


class _StoreKilledAfterTrial(ResourceStore):
    def __init__(self, trial_name: str):
        super().__init__()
        self.trial_name = trial_name

    def create(self, resource):
        created = super().create(resource)
        if resource.kind == KIND_TRIAL and resource.name == self.trial_name:
            self.trial_name = None
            raise _Killed
        return created


def test_a_step_killed_after_a_trial_create_resumes_without_counting_it_twice():
    store = _StoreKilledAfterTrial("exp-0001")
    metrics = InMemoryObservationStore()
    backend = SimBackend(_world(), metrics)
    spec = make_experiment(SPHERE_PARAMS, parallel=3, max_trials=9, template=_sphere_template())
    submit_experiment(store, spec)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    with pytest.raises(_Killed):
        controller_step(ctx)
    assert [t.name for t in store.list(KIND_TRIAL)] == ["exp-0000", "exp-0001"]

    resumed = ControllerContext(store=store, metrics=metrics, backend=backend)
    reconcile_experiment(resumed, "experiment/ns/exp")
    trials = store.list(KIND_TRIAL)
    status = store.get("experiment/ns/exp").status
    assert [t.name for t in trials] == ["exp-0000", "exp-0001", "exp-0002"]
    assert status.total_spawned == 3
    assert status.trials_pending == 3
    suggestion = store.get(resource_key(KIND_SUGGESTION, "ns", "exp"))
    assert tuple(t.spec.assignments for t in trials) == suggestion.status.pending


def test_produced_reaches_the_algorithm_in_trial_index_order_past_index_9999(monkeypatch):
    # trial_name_for pads to four digits, so exp-10000 sorts before exp-9999
    # by name; the algorithm must still see its sets in the order it made them.
    seen = []

    def suggest(request: SuggestionRequest) -> SuggestionResult:
        seen.append(tuple(request.produced))  # the request's views end with the call
        return SuggestionResult(assignment_sets=((("i", len(request.produced)),),))

    monkeypatch.setattr(registry, "_REGISTRY", {})
    register_algorithm(AlgorithmPlugin(name="counter", allowed_settings=frozenset(), suggest=suggest))
    ctx, store, _, _ = _context()
    spec = make_experiment(
        SPHERE_PARAMS, algorithm="counter", settings={}, parallel=20_000, max_trials=20_000
    )
    submit_experiment(store, spec)
    sets = [(("i", i),) for i in range(10_001)]
    for i in range(10_000):
        store.create(
            Resource(
                kind=KIND_TRIAL,
                namespace="ns",
                name=trial_name_for("exp", i),
                spec=TrialSpec(experiment="exp", assignments=sets[i]),
                status=TrialStatus(),
            )
        )
    store.create(
        Resource(
            kind=KIND_SUGGESTION,
            namespace="ns",
            name="exp",
            spec=SuggestionSpec(requested=10_002),
            status=SuggestionStatus(produced=10_001, pending=tuple(sets[9_999:])),
        )
    )

    reconcile_suggestion(ctx, "suggestion/ns/exp")
    assert seen == [tuple(sets)]
    status = store.get("suggestion/ns/exp").status
    assert status.produced == 10_002
    assert status.pending == ((("i", 10_000),), (("i", 10_001),))  # exp-9999 exists: dropped

    reconcile_experiment(ctx, "experiment/ns/exp")
    assert store.get("trial/ns/exp-10000").spec.assignments == (("i", 10_000),)
    assert store.get("trial/ns/exp-10001").spec.assignments == (("i", 10_001),)
    assert store.get("experiment/ns/exp").status.total_spawned == 10_002



def test_a_fill_views_the_index_as_the_copies_it_replaced_read():
    # produced is the index's list followed by the unspawned sets, and
    # produced_keys answers for both, without either being copied.
    head, tail = [(("i", 0),), (("i", 1),)], ((("i", 2),),)
    view, whole = reconcile._Chain(head, tail), tuple(head) + tail
    assert len(view) == len(whole) and tuple(view) == whole
    for at in range(-3, 3):
        assert view[at] == whole[at]
    for cut in (slice(None), slice(1, None), slice(0, 2), slice(-2, None), slice(None, None, 2), slice(5, 9)):
        assert view[cut] == whole[cut]
    for at in (3, -4):
        with pytest.raises(IndexError):
            view[at]
    keys = reconcile._Either({"a"}, {"b"})
    assert "a" in keys and "b" in keys and "c" not in keys

class _ConflictOnFill(ResourceStore):
    """Rejects the suggestion write of fill number ``fill`` (1-based) with a
    CAS conflict, as if another writer had moved the record first."""

    def __init__(self, fill: int):
        super().__init__()
        self.fill = fill
        self.fills = 0

    def update(self, resource):
        if resource.kind == KIND_SUGGESTION and resource.status.produced > self.get(resource.key).status.produced:
            self.fills += 1
            if self.fills == self.fill:
                raise CasConflictError(f"injected conflict on fill {self.fill}")
        return super().update(resource)


def test_a_cas_conflict_on_a_fill_leaves_the_following_fills_unchanged():
    # Eight points in all, so the dedupe set decides most draws: a set kept
    # from the rejected fill would turn the retried fill's draws into
    # resamples and change every set after it.
    params = [
        ParameterSpec("x", ParameterType.INT, Range(1, 4)),
        ParameterSpec("c", ParameterType.CATEGORICAL, ValueList(("a", "b"))),
    ]
    spec = make_experiment(params, settings={"random_state": 9}, parallel=3, max_trials=8)
    streams = []
    for fill in (0, 2):
        store = _ConflictOnFill(fill)
        metrics = InMemoryObservationStore()
        submit_experiment(store, spec)
        snapshot = run_control_loop(store, metrics, SimBackend(_world(), metrics))
        assert snapshot["experiments"]["experiment/ns/exp"]["totalSpawned"] == 8
        assert store.fills > 2
        streams.append([store.get(f"trial/ns/{trial_name_for('exp', i)}").spec.assignments for i in range(8)])
    clean, conflicted = streams
    assert len(set(clean)) > 4  # the draws were deduplicated
    assert conflicted == clean


@pytest.mark.parametrize(
    "cls, names",
    [
        (Resource, ["kind", "namespace", "name", "spec", "status", "generation"]),
        (TrialSpec, ["experiment", "assignments"]),
        (TrialStatus, ["phase", "restart_count", "observation", "reason", "job_attempt"]),
    ],
)
def test_the_trial_write_path_passes_every_field_in_order(cls, names):
    # ``clone_resource`` and ``reconcile_trial`` build a resource and a
    # status positionally; a field added or moved must be added or moved
    # there too. A trial's spec holds only what its create alone can give.
    assert [f.name for f in fields(cls)] == names
