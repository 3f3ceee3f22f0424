"""Cluster simulator: scheduling, quotas, gang placement, autoscaling, chaos."""

from __future__ import annotations

import json

import pytest

from tunectl.cluster.sim import (
    AutoscalerConfig,
    ChaosMode,
    ChaosPolicy,
    SimBackend,
    SimWorld,
)
from tunectl.codec import to_doc
from tunectl.controller.backend import JobPhase, JobRequest
from tunectl.controller.store import ResourceStore
from tunectl.errors import UnknownNamespaceError
from tunectl.metrics import InMemoryObservationStore
from tunectl.resources import (
    CollectorKind,
    RestartPolicy,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialRunSpec,
    TrialTemplate,
)

from test_sim_bookkeeping import assert_bookkeeping, resumed, stored_submit


def _run_spec(trial: str, namespace: str = "ns", x: float = 1.0, duration: int = 3) -> TrialRunSpec:
    return TrialRunSpec(
        trial_name=trial,
        namespace=namespace,
        resolved_payload=SimObjectiveDescriptor("sphere", duration_ticks=duration),
        parameter_assignments=(("x", repr(x)),),
    )


def _template(workers: int = 1, cpu: float = 2.0) -> TrialTemplate:
    return TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=3),
        worker_count=workers,
        cpu_per_worker=cpu,
    )


def _submit(world: SimWorld, trial: str, *, namespace="ns", workers=1, cpu=2.0) -> str:
    return world.submit_job(JobRequest(
        _run_spec(trial, namespace),
        _template(workers, cpu),
        collector_kind=CollectorKind.PULL,
        watched_metrics=("loss",),
    ))


def _world(capacities=(8.0,), namespaces=("ns",), **kwargs) -> SimWorld:
    world = SimWorld(**kwargs)
    for c in capacities:
        world.add_node(c)
    for ns in namespaces:
        world.add_namespace(ns)
    return world


def test_multi_worker_submit_creates_one_unit_per_worker():
    world = _world()
    handle = _submit(world, "t1", workers=2, cpu=1.0)
    assert len(world.jobs[handle].units) == 2


def test_single_worker_submit():
    world = _world()
    handle = _submit(world, "t1")
    assert len(world.jobs[handle].units) == 1


def test_submit_to_unknown_namespace_errors():
    world = _world()
    with pytest.raises(UnknownNamespaceError):
        _submit(world, "t1", namespace="ghost")


def test_gang_atomicity_all_or_nothing():
    # 3 workers x 2 cpu need 6; a 4-cpu node fits only 2 workers: place none.
    world = _world(capacities=(4.0,), gang=True)
    _submit(world, "t1", workers=3, cpu=2.0)
    world.schedule_tick()
    units = world.jobs["ns/t1"].units
    assert all(u.node is None for u in units)
    assert world.nodes["node-0000"].allocated_cpu == 0.0


def test_non_gang_places_partially():
    world = _world(capacities=(4.0,), gang=False)
    _submit(world, "t1", workers=3, cpu=2.0)
    world.schedule_tick()
    placed = [u for u in world.jobs["ns/t1"].units if u.node is not None]
    assert len(placed) == 2


def test_quota_caps_parallel_trials_per_namespace():
    # Quota 18 with a 0.5 service: at most 8 two-cpu trials; quota 6: 2.
    world = _world(capacities=(24.0,), namespaces=("user1", "user2"))
    world.namespaces["user1"].cpu_limit = 18.0
    world.namespaces["user2"].cpu_limit = 6.0
    world.reserve_service("user1", "svc-a", 0.5)
    world.reserve_service("user2", "svc-b", 0.5)
    for i in range(12):
        _submit(world, f"a-{i:02d}", namespace="user1")
        _submit(world, f"b-{i:02d}", namespace="user2")
    world.schedule_tick()
    running_u1 = sum(
        1 for h, j in world.jobs.items()
        if h.startswith("user1/") and j.phase is JobPhase.RUNNING
    )
    running_u2 = sum(
        1 for h, j in world.jobs.items()
        if h.startswith("user2/") and j.phase is JobPhase.RUNNING
    )
    assert running_u1 == 8
    assert running_u2 == 2
    assert world.namespaces["user1"].cpu_used <= 18.0
    assert world.namespaces["user2"].cpu_used <= 6.0


def test_capacity_quota_and_gang_safety_over_busy_run():
    world = _world(capacities=(4.0, 4.0), namespaces=("ns",), seed=3)
    world.namespaces["ns"].cpu_limit = 6.0
    for i in range(10):
        _submit(world, f"t-{i:02d}", workers=2, cpu=1.0)
    for _ in range(60):
        world.advance_tick()
        for node in world.nodes.values():
            assert node.allocated_cpu <= node.capacity_cpu + 1e-9
        for ns in world.namespaces.values():
            assert ns.cpu_used <= ns.cpu_limit + 1e-9
        for job in world.jobs.values():
            # Gang atomicity: never a partially placed trial's worker set.
            live = [u for u in job.units if u.remaining]
            placed = [u for u in live if u.node is not None]
            assert len(placed) in (0, len(live))
    assert all(j.phase is JobPhase.SUCCEEDED for j in world.jobs.values())


def test_autoscaler_grows_to_fit_pending_and_respects_max():
    config = AutoscalerConfig(min_nodes=3, max_nodes=50, node_capacity_cpu=4.0)
    world = _world(capacities=(4.0, 4.0, 4.0), autoscaler=config)
    for i in range(250):
        _submit(world, f"t-{i:03d}")
    world.schedule_tick()
    world.autoscale_tick()
    assert len(world.nodes) == 50


def test_autoscaler_no_growth_without_pending():
    config = AutoscalerConfig(min_nodes=1, max_nodes=10, node_capacity_cpu=4.0)
    world = _world(capacities=(8.0,), autoscaler=config)
    _submit(world, "t1")
    world.schedule_tick()  # fits on the existing node
    world.autoscale_tick()
    assert len(world.nodes) == 1


def test_autoscaler_scales_down_after_grace_only():
    config = AutoscalerConfig(min_nodes=1, max_nodes=10, node_capacity_cpu=4.0, scale_down_grace_ticks=5)
    world = _world(capacities=(4.0, 4.0, 4.0), autoscaler=config)
    for _ in range(4):
        world.advance_tick()
    assert len(world.nodes) == 3  # grace not yet elapsed
    for _ in range(3):
        world.advance_tick()
    assert len(world.nodes) == 1


def test_autoscaler_never_evicts_running_work():
    config = AutoscalerConfig(min_nodes=1, max_nodes=10, node_capacity_cpu=4.0, scale_down_grace_ticks=1)
    world = _world(capacities=(4.0,), autoscaler=config)
    world.reserve_service("ns", "svc", 0.5)  # keeps one node busy forever
    for _ in range(10):
        world.advance_tick()
    assert len(world.nodes) == 1
    assert world.services["ns/svc"].node is not None


def test_placement_changes_only_via_completion_or_chaos():
    world = _world(capacities=(8.0,), seed=5)
    _submit(world, "t1")
    world.advance_tick()  # placed this tick; progress starts next tick
    placed_node = world.jobs["ns/t1"].units[0].node
    assert placed_node is not None
    world.advance_tick()
    assert world.jobs["ns/t1"].units[0].node == placed_node  # still running, unmoved
    world.advance_tick()
    world.advance_tick()  # third progress tick completes the 3-tick job
    assert world.jobs["ns/t1"].phase is JobPhase.SUCCEEDED
    assert world.jobs["ns/t1"].units[0].node is None


def test_chaos_fraction_one_fails_all_running_trials():
    policy = ChaosPolicy(mode=ChaosMode.FAIL_TRIAL, fraction=1.0, interval_ticks=20)
    world = _world(capacities=(40.0,), chaos=policy, seed=9)
    for i in range(10):
        world.submit_job(JobRequest(
            _run_spec(f"t-{i:02d}", duration=100),
            TrialTemplate(
                kind=TemplateKind.SIMULATED,
                payload=SimObjectiveDescriptor("sphere", duration_ticks=100),
                cpu_per_worker=2.0,
            ),
            collector_kind=CollectorKind.PULL,
            watched_metrics=("loss",),
        ))
    for _ in range(19):
        world.advance_tick()
    assert sum(1 for j in world.jobs.values() if j.phase is JobPhase.RUNNING) == 10
    world.advance_tick()  # tick 20: chaos strikes
    failed = [e for e in world.events if e["kind"] == "chaos-fail"]
    assert len(failed) == 10
    assert all(j.phase is JobPhase.FAILED_PERMANENT for j in world.jobs.values())


def test_chaos_fraction_zero_never_fires():
    policy = ChaosPolicy(mode=ChaosMode.FAIL_TRIAL, fraction=0.0, interval_ticks=5)
    world = _world(capacities=(8.0,), chaos=policy)
    _submit(world, "t1")
    for _ in range(30):
        world.advance_tick()
    assert not [e for e in world.events if e["kind"].startswith("chaos")]


def test_kill_worker_resumes_from_checkpoint():
    policy = ChaosPolicy(mode=ChaosMode.KILL_WORKER, fraction=1.0, interval_ticks=4)
    world = _world(capacities=(8.0,), chaos=policy, seed=2)
    world.submit_job(JobRequest(
        _run_spec("t1", duration=10),
        TrialTemplate(
            kind=TemplateKind.SIMULATED,
            payload=SimObjectiveDescriptor("sphere", duration_ticks=10),
            worker_count=2,
            cpu_per_worker=1.0,
        ),
        collector_kind=CollectorKind.PULL,
        watched_metrics=("loss",),
    ))
    for _ in range(4):
        world.advance_tick()
    job = world.jobs["ns/t1"]
    assert job.phase is JobPhase.FAILED_TEMPORARY
    checkpoint = job.completed
    assert checkpoint > 0
    # Resubmission (the trial controller's restart) resumes the remainder.
    world.submit_job(JobRequest(
        _run_spec("t1", duration=10), _template(workers=2, cpu=1.0),
        collector_kind=CollectorKind.PULL, watched_metrics=("loss",),
    ))
    assert job.attempt == 2
    assert all(u.remaining == 10 - checkpoint for u in job.units)


def test_worlds_with_same_seed_evolve_identically_over_1000_ticks():
    def build():
        policy = ChaosPolicy(mode=ChaosMode.KILL_WORKER, fraction=0.3, interval_ticks=7, seed=4)
        config = AutoscalerConfig(min_nodes=1, max_nodes=6, node_capacity_cpu=4.0, scale_down_grace_ticks=3)
        return _world(capacities=(4.0,), chaos=policy, autoscaler=config, seed=77)

    def drive(world):
        # A continuous stream of restartable jobs keeps every subsystem busy.
        for tick in range(1000):
            if tick % 7 == 0 and tick < 700:
                world.submit_job(JobRequest(
                    _run_spec(f"t-{tick:04d}", x=float(tick % 9), duration=6),
                    TrialTemplate(
                        kind=TemplateKind.SIMULATED,
                        payload=SimObjectiveDescriptor("sphere", duration_ticks=6, noise_std_dev=0.1),
                        cpu_per_worker=2.0,
                        restart_policy=RestartPolicy.ON_TEMPORARY_FAILURE,
                    ),
                    collector_kind=CollectorKind.PULL,
                    watched_metrics=("loss",),
                ))
                # Killed jobs get redeployed the way the trial controller would.
                for job in world.jobs.values():
                    if job.phase is JobPhase.FAILED_TEMPORARY:
                        world.submit_job(JobRequest(
                            _run_spec(job.name.split("/", 1)[1], duration=6),
                            _template(workers=1, cpu=2.0),
                            collector_kind=CollectorKind.PULL,
                            watched_metrics=("loss",),
                        ))
            world.advance_tick()
        return world

    a, b = drive(build()), drive(build())
    assert to_doc(a) == to_doc(b)
    assert a.events == b.events


def test_empty_world_is_a_fixed_point():
    world = _world()
    before = to_doc(world)
    for _ in range(5):
        world.advance_tick()
    after = to_doc(world)
    before.pop("tick")
    after.pop("tick")
    assert before == after


def test_world_serialization_round_trip(tmp_path):
    world, store = _world(capacities=(4.0, 8.0), seed=13), ResourceStore(tmp_path)
    world.reserve_service("ns", "svc", 0.5)
    for i in range(3):
        stored_submit(world, store, f"t-{i}", _template())
    for _ in range(2):
        world.advance_tick()
    doc = to_doc(world)
    restored = resumed(world, store)
    assert to_doc(restored) == doc
    # The restored CPU totals must agree with the restored placements.
    assert_bookkeeping(restored)
    # And both worlds evolve identically afterwards.
    for _ in range(6):
        world.advance_tick()
        restored.advance_tick()
    assert to_doc(restored) == to_doc(world)


@pytest.mark.parametrize("kind", [CollectorKind.PULL, CollectorKind.PUSH])
def test_a_value_that_is_not_finite_makes_no_metric_point(kind):
    # sphere at x = 1e200 overflows to inf. As a trainer's "inf" line, it is
    # no metric point under either collector kind, so its trial fails for
    # want of one instead of the run stopping on the error.
    metrics = InMemoryObservationStore()
    backend = SimBackend(_world(), metrics)
    handle = backend.world.submit_job(JobRequest(
        _run_spec("huge", x=1e200), _template(), collector_kind=kind, watched_metrics=("loss",)
    ))
    for _ in range(4):
        backend.world.advance_tick()
    assert backend.job_state(handle).phase is JobPhase.SUCCEEDED
    backend.collect_metrics(handle)
    assert metrics.get_observation_log(handle) == []


def test_a_backend_with_a_state_directory_writes_its_events_only_to_the_file(tmp_path):
    # The same world kept in memory and with a state directory emits the
    # same events; with the directory they go to events.jsonl, once committed,
    # and the world keeps none of them.
    worlds = {}
    for key, state_dir in (("memory", None), ("file", tmp_path)):
        world = worlds[key] = _world(capacities=(4.0,), seed=5)
        backend = SimBackend(world, InMemoryObservationStore(), state_dir=state_dir)
        backend.reserve_service("ns", "svc", 0.5)
        for i in range(3):
            _submit(world, f"t-{i}")
        for _ in range(8):
            backend.advance(lambda: 0)
            backend.persist()
        backend.close()
    written = [json.loads(line) for line in (tmp_path / SimBackend.EVENTS_FILE).read_text().splitlines()]
    assert worlds["file"].events == []
    assert written == json.loads(json.dumps(worlds["memory"].events))
    assert {e["kind"] for e in written} >= {"service-reserved", "job-submitted", "placed", "job-succeeded"}
