"""Simulator CPU bookkeeping: the persisted totals must match the placements."""

from __future__ import annotations

import math

from conftest import make_experiment
from tunectl.cluster.sim import LIVE_PHASES, AutoscalerConfig, ChaosMode, ChaosPolicy, SimBackend, SimWorld
from tunectl.codec import to_doc
from tunectl.controller.backend import JobPhase, JobRequest, stored_job_request
from tunectl.controller.model import KIND_EXPERIMENT, KIND_TRIAL, Resource, TrialSpec, TrialStatus, resource_key
from tunectl.controller.reconcile import submit_experiment
from tunectl.controller.store import ResourceStore
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


def assert_bookkeeping(world: SimWorld) -> None:
    """Each node's and namespace's CPU total equals the sum over its placed units."""
    by_node = {node_id: 0.0 for node_id in world.nodes}
    by_namespace = {name: 0.0 for name in world.namespaces}
    placed = [(h, u, job.cpu) for h, job in world.jobs.items() for u in job.units]
    placed += [(h, service, service.cpu) for h, service in world.services.items()]
    for handle, unit, cpu in placed:
        if unit.node is not None:
            by_node[unit.node] += cpu
            by_namespace[handle.split("/")[0]] += cpu
    for node_id, node in world.nodes.items():
        assert math.isclose(node.allocated_cpu, by_node[node_id], abs_tol=1e-9), node_id
    for name, ns in world.namespaces.items():
        assert math.isclose(ns.cpu_used, by_namespace[name], abs_tol=1e-9), name


def stored_submit(world: SimWorld, store: ResourceStore, trial: str, template: TrialTemplate) -> str:
    """Submit the job of ``trial`` in namespace ns as its reconciler would:
    the trial, at x = 1.0, of an experiment named after its template's
    worker count, which are stored first if they are not, so that a resume
    rebuilds the job from ``store`` and a run can open its directory."""
    experiment = f"w{template.worker_count}"
    if store.get(resource_key(KIND_EXPERIMENT, "ns", experiment)) is None:
        x = ParameterSpec("x", ParameterType.DOUBLE, Range(-2.0, 2.0))
        submit_experiment(store, make_experiment([x], name=experiment, template=template))
    if store.get(resource_key(KIND_TRIAL, "ns", trial)) is None:
        store.create(Resource(KIND_TRIAL, "ns", trial, TrialSpec(experiment, (("x", 1.0),)), TrialStatus()))
    return world.submit_job(stored_job_request(store, f"ns/{trial}"))


def resumed(world: SimWorld, store: ResourceStore) -> SimWorld:
    """``world`` committed by a run opened in the directory of ``store``, and
    resumed from that commit."""
    run = SimBackend.open_run(store.root, lambda _store, metrics: SimBackend(world, metrics))
    run.store.commit(run.backend.persist())
    run.close()
    return SimBackend.resume(run.store, InMemoryObservationStore()).world


def _submit(world: SimWorld, store: ResourceStore, trial: str, workers: int) -> None:
    template = TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=6),
        worker_count=workers,
        cpu_per_worker=1.5,
    )
    stored_submit(world, store, trial, template)


def _busy_world() -> SimWorld:
    world = SimWorld(
        seed=17,
        gang=True,
        autoscaler=AutoscalerConfig(min_nodes=1, max_nodes=4, node_capacity_cpu=4.0, scale_down_grace_ticks=3),
        chaos=ChaosPolicy(mode=ChaosMode.KILL_WORKER, fraction=0.4, interval_ticks=3, seed=2),
    )
    world.add_node(4.0)
    world.add_namespace("ns", 10.0)
    world.reserve_service("ns", "svc", 0.5)
    return world


def _tick(world: SimWorld, store: ResourceStore, spawned: list[int]) -> None:
    if world.tick < 30 and world.tick % 2 == 0:
        _submit(world, store, f"t-{spawned[0]:03d}", workers=1 + spawned[0] % 3)
        spawned[0] += 1
    # Killed jobs get redeployed the way the trial controller would.
    for name in sorted(world.jobs):
        job = world.jobs[name]
        if job.phase is JobPhase.FAILED_TEMPORARY:
            _submit(world, store, name.split("/", 1)[1], workers=len(job.units))
    world.advance_tick()


def test_cpu_totals_match_placements_every_tick():
    world, store = _busy_world(), ResourceStore()
    spawned = [0]
    kills = 0
    for _ in range(80):
        _tick(world, store, spawned)
        kills += sum(1 for e in world.events if e["tick"] == world.tick and e["kind"] == "chaos-kill")
        assert_bookkeeping(world)
    assert kills > 0
    assert any(e["kind"] == "node-removed" for e in world.events)


def test_cpu_totals_survive_a_snapshot_round_trip(tmp_path):
    world, store = _busy_world(), ResourceStore(tmp_path)
    spawned = [0]
    for _ in range(20):
        _tick(world, store, spawned)
    assert any(u.node is not None for j in world.jobs.values() for u in j.units)
    restored = resumed(world, store)
    assert_bookkeeping(restored)
    assert to_doc(restored) == to_doc(world)
    restored_spawned = list(spawned)
    for _ in range(20):
        _tick(world, store, spawned)
        _tick(restored, store, restored_spawned)
        assert_bookkeeping(restored)
    assert to_doc(restored) == to_doc(world)
    assert restored.events[-50:] == world.events[-50:]


def test_nodes_emptied_of_fractional_cpu_units_scale_down():
    # 0.1 CPU is not a binary fraction: adding and removing three such units
    # leaves 2.8e-17 behind unless an emptied node is reset to exactly zero,
    # and a node that never reads zero is never scaled down.
    world = SimWorld(
        seed=5,
        gang=False,
        autoscaler=AutoscalerConfig(min_nodes=1, max_nodes=3, node_capacity_cpu=1.0, scale_down_grace_ticks=2),
    )
    world.add_node(1.0)
    world.add_namespace("ns")
    template = TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=5),
        cpu_per_worker=0.1,
    )
    for i in range(30):
        world.submit_job(JobRequest(
            TrialRunSpec(
                trial_name=f"t-{i:03d}",
                namespace="ns",
                resolved_payload=template.payload,
                parameter_assignments=(("x", "1.0"),),
            ),
            template,
            collector_kind=CollectorKind.PULL,
            watched_metrics=("loss",),
        ))
        if i % 6 == 5:
            world.advance_tick()
    while any(job.phase in LIVE_PHASES for job in world.jobs.values()):
        world.advance_tick()
    assert sum(1 for e in world.events if e["kind"] == "node-added") == 2
    for _ in range(40):
        world.advance_tick()
    assert_bookkeeping(world)
    assert [(n.allocated_cpu, n.idle_since is not None) for n in world.nodes.values()] == [(0.0, True)]
    assert world.namespaces["ns"].cpu_used == 0.0
