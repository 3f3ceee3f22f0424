"""The controller's work queue: a step reconciles only what changed.

A key reaches the queue through a store write, a backend phase report or a
retry. These tests check that nothing else needs reconciling: after every
step of each canned scenario, a full sweep of every key writes nothing; a
quiescent step calls no reconciler; a trial is reconciled once per phase
change; a queued job is reported once it runs, not while it waits; a failed
submit is retried on the next step; and a finished control loop leaves no
watcher on its store.
"""

from __future__ import annotations

import pytest

from conftest import make_experiment
from tunectl.cluster import sim
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller import reconcile
from tunectl.controller.backend import ExecutionBackend, JobPhase, JobRequest
from tunectl.controller.model import KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL, TrialPhase
from tunectl.controller.reconcile import ControllerContext, controller_step, run_control_loop, submit_experiment
from tunectl.controller.store import ResourceStore
from tunectl.errors import TunectlError
from tunectl.metrics import InMemoryObservationStore
from tunectl.resources import (
    CollectorKind,
    ParameterSpec,
    ParameterType,
    Range,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialRunSpec,
    TrialTemplate,
)
from tunectl.scenarios import SCENARIOS, run_scenario

PARAMS = [ParameterSpec("x", ParameterType.DOUBLE, Range(-1.0, 1.0))]
KINDS = (KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL)


class _MissedWakeUp(Exception):
    pass


def _sweep_after_each_step(monkeypatch) -> None:
    """Wrap ``controller_step``: after each step, reconcile every key in the
    store and raise ``_MissedWakeUp`` if that wrote a resource or changed
    the world. The queue is restored after the sweep, so the run goes on as
    it would have."""
    step = reconcile.controller_step

    def swept(ctx):
        total = step(ctx)
        queued = set(ctx.dirty)
        generations = {r.key: r.generation for r in ctx.store.list()}
        world = ctx.backend.world
        events, jobs = len(world.events), set(world.jobs)
        for kind in KINDS:
            for key in ctx.store.keys(kind):
                reconcile._RECONCILERS[kind](ctx, key)
        written = sorted(r.key for r in ctx.store.list() if generations.get(r.key) != r.generation)
        if written or len(world.events) != events or set(world.jobs) != jobs:
            raise _MissedWakeUp(f"tick {world.tick}: the sweep wrote {written[:5]}, events {world.events[events:][:3]}")
        ctx.dirty = queued
        return total

    monkeypatch.setattr(reconcile, "controller_step", swept)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_sweep_after_every_step_finds_nothing_left_to_do(monkeypatch, name):
    _sweep_after_each_step(monkeypatch)
    assert run_scenario(name, seed=7).passed


def test_the_sweep_catches_a_backend_that_reports_no_phase_change(monkeypatch):
    _sweep_after_each_step(monkeypatch)
    monkeypatch.setattr(SimBackend, "changed_jobs", lambda self: ())
    with pytest.raises(_MissedWakeUp):
        run_scenario("multi-tenancy", seed=7)


def _template(duration=3, noise=0.0):
    return TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=duration, noise_std_dev=noise),
        cpu_per_worker=1.0,
    )


def _context(backend_cls=SimBackend):
    world = SimWorld(seed=3)
    world.add_node(8.0)
    world.add_namespace("ns")
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = backend_cls(world, metrics)
    return ControllerContext(store=store, metrics=metrics, backend=backend), store, backend


def test_a_quiescent_step_calls_no_reconciler(monkeypatch):
    ctx, store, backend = _context()
    submit_experiment(store, make_experiment(PARAMS, parallel=2, max_trials=4, template=_template(duration=5)))
    controller_step(ctx)
    backend.advance(lambda: controller_step(ctx))  # placed: the trials run
    assert {t.status.phase for t in store.list(KIND_TRIAL)} == {TrialPhase.RUNNING}

    calls = []
    for kind, reconciler in list(reconcile._RECONCILERS.items()):
        monkeypatch.setitem(
            reconcile._RECONCILERS, kind, lambda c, key, r=reconciler: calls.append(key) or r(c, key)
        )
    assert controller_step(ctx) == 0
    assert calls == []

    backend.advance(lambda: controller_step(ctx))  # a tick of progress changes no phase
    assert calls == []


def test_a_trial_is_reconciled_once_per_phase_change(monkeypatch):
    # Without chaos or restarts a trial changes phase three times (submitted,
    # running, concluded), and each change is one reconcile that writes.
    world = SimWorld(seed=3)
    world.add_node(16.0)
    world.add_namespace("ns")
    store, metrics = ResourceStore(), InMemoryObservationStore()
    submit_experiment(store, make_experiment(PARAMS, parallel=10, max_trials=40, template=_template(duration=3)))
    writes = []
    reconcile_trial = reconcile._RECONCILERS[KIND_TRIAL]

    def counted(c, key):
        writes.append(reconcile_trial(c, key))
        return writes[-1]

    monkeypatch.setitem(reconcile._RECONCILERS, KIND_TRIAL, counted)
    snapshot = run_control_loop(store, metrics, SimBackend(world, metrics), max_ticks=100)
    assert snapshot["experiments"]["experiment/ns/exp"]["trialsSucceeded"] == 40
    assert len(writes) == 3 * 40
    assert set(writes) == {1}


def test_a_queued_job_is_reported_once_it_runs_not_while_it_waits():
    # Its trial recorded Pending at submission, so a job still Pending has
    # not changed.
    world = SimWorld(seed=3)
    world.add_node(1.0)
    world.add_namespace("ns")
    backend = SimBackend(world, InMemoryObservationStore())
    first, queued = (
        backend.submit(JobRequest(
            TrialRunSpec(name, "ns", SimObjectiveDescriptor("sphere", duration_ticks=2), (("x", "0.5"),)),
            _template(duration=2),
            collector_kind=CollectorKind.PULL,
            watched_metrics=("loss",),
        ))
        for name in ("exp-0000", "exp-0001")
    )
    assert backend.changed_jobs() == []
    world.advance_tick()
    assert world.jobs[queued].phase is JobPhase.PENDING
    assert backend.changed_jobs() == [first]
    world.advance_tick()
    world.advance_tick()
    assert world.jobs[queued].phase is JobPhase.RUNNING
    assert sorted(backend.changed_jobs()) == [first, queued]


class _SubmitFailsTwice(SimBackend):
    failures = 2

    def submit(self, *args, **kwargs):
        if self.failures:
            self.failures -= 1
            raise TunectlError("the cluster is not answering")
        return super().submit(*args, **kwargs)


def test_a_submit_that_stays_pending_is_retried_on_the_next_step():
    ctx, store, backend = _context(_SubmitFailsTwice)
    submit_experiment(store, make_experiment(PARAMS, parallel=1, max_trials=1, template=_template()))
    # The first failure writes Created -> Pending, which requeues the trial
    # within the step; the second writes nothing, so the step ends.
    controller_step(ctx)
    trial = store.list(KIND_TRIAL)[0]
    assert (trial.status.phase, trial.status.job_attempt) == (TrialPhase.PENDING, 0)
    assert backend.failures == 0 and trial.key in ctx.dirty

    controller_step(ctx)
    assert store.get(trial.key).status.job_attempt == 1
    assert f"ns/{trial.name}" in backend.world.jobs


def test_noiseless_metric_points_build_no_generator(monkeypatch):
    def no_rng(*entropy):
        raise AssertionError("a noiseless metric point derived a generator")

    monkeypatch.setattr(sim, "_derived_rng", no_rng)
    ctx, store, backend = _context()
    submit_experiment(store, make_experiment(PARAMS, parallel=2, max_trials=4, template=_template()))
    snapshot = run_control_loop(store, ctx.metrics, backend, max_ticks=100)
    assert snapshot["experiments"]["experiment/ns/exp"]["trialsSucceeded"] == 4


def test_a_finished_control_loop_leaves_no_watcher_on_its_store():
    world = SimWorld(seed=3)
    world.add_node(8.0)
    world.add_namespace("ns")
    store, metrics = ResourceStore(), InMemoryObservationStore()
    submit_experiment(store, make_experiment(PARAMS, parallel=2, max_trials=2, template=_template()))
    run_control_loop(store, metrics, SimBackend(world, metrics), max_ticks=100)
    assert store.watchers == []


def test_a_backend_must_report_its_changed_jobs():
    class _Forgetful(SimBackend):
        changed_jobs = ExecutionBackend.changed_jobs

    with pytest.raises(TypeError):
        _Forgetful(SimWorld(seed=3), InMemoryObservationStore())
