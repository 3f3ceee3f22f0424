"""The simulator's world file: released jobs, cut points and resumed worlds.

A backend appends one whole-world line to ``world.jsonl`` per tick. These
tests record an uninterrupted run's world after every persist and check that
the world never holds the job of a trial the store records as terminal, what
a resume makes of a file cut at any byte, and runs killed at several points
and resumed to the end.

The world has gang scheduling, a namespace quota, the autoscaler and
kill-worker chaos, and two experiments that finish at different ticks, so
the file holds resubmitted jobs, added and removed nodes and a released
service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_experiment
from tunectl.codec import Journal, json_default
from tunectl.cluster.sim import (
    AutoscalerConfig,
    ChaosMode,
    ChaosPolicy,
    SimBackend,
    SimulatedCrash,
    SimWorld,
)
from tunectl.controller.model import KIND_TRIAL, TERMINAL_TRIAL
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.controller.store import FileResourceStore
from tunectl.metrics import FileObservationStore, InMemoryObservationStore
from tunectl.resources import (
    ParameterSpec,
    ParameterType,
    Range,
    RestartPolicy,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
)

WORLD, EVENTS = SimBackend.WORLD_FILE, SimBackend.EVENTS_FILE
METRICS = "metrics.jsonl"


def _experiments():
    template = TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=3),
        worker_count=2,
        cpu_per_worker=1.0,
        restart_policy=RestartPolicy.ON_TEMPORARY_FAILURE,
    )
    params = [ParameterSpec(n, ParameterType.DOUBLE, Range(-2.0, 2.0)) for n in ("x", "y")]
    return [
        make_experiment(params, name=name, namespace="team", settings={"random_state": seed},
                        parallel=3, max_trials=trials, max_failed=trials, template=template)
        for name, seed, trials in (("exp-a", 1, 6), ("exp-b", 2, 12))
    ]


def _open(directory, crash_hook=None):
    store = FileResourceStore(directory / "resources")
    metrics = FileObservationStore(directory / METRICS)
    if SimBackend.has_snapshot(directory):
        return store, metrics, SimBackend.resume(directory, metrics, crash_hook=crash_hook)
    world = SimWorld(
        seed=23,
        autoscaler=AutoscalerConfig(min_nodes=1, max_nodes=3, node_capacity_cpu=4.0, scale_down_grace_ticks=3),
        chaos=ChaosPolicy(ChaosMode.KILL_WORKER, fraction=0.3, interval_ticks=4, seed=5),
    )
    world.add_node(4.0)
    world.add_namespace("team", 7.0)
    backend = SimBackend(world, metrics, state_dir=directory, crash_hook=crash_hook)
    for spec in _experiments():
        if store.get(f"experiment/team/{spec.name}") is None:
            submit_experiment(store, spec)
    return store, metrics, backend


def _run(directory, crash_hook=None, watcher=None, before_compact=None) -> int | None:
    """Run to the end and compact; on a SimulatedCrash, return the world's
    tick at the crash instead. ``watcher`` sees each stored resource."""
    store, metrics, backend = _open(directory, crash_hook)
    if watcher is not None:
        store.watchers.append(watcher)
    try:
        run_control_loop(store, metrics, backend)
        if before_compact is not None:
            before_compact(backend)
        backend.compact()
        return None
    except SimulatedCrash:
        return backend.world.tick
    finally:
        backend.close()
        metrics.close()
        store.close()


def _line_text(world, events_offset) -> str:
    """A ``world.jsonl`` line as the format defines it, without its newline."""
    doc = {"world": world, "eventsOffset": events_offset}
    return json.dumps(doc, default=json_default, separators=(",", ":"))


def _world(line: str | bytes) -> dict:
    return json.loads(line)["world"]


def _lines(directory) -> list[bytes]:
    return (directory / WORLD).read_bytes().splitlines()


@dataclass
class Recorded:
    lines: dict[int, str]  # tick -> the world line of that tick's persist
    file: bytes  # world.jsonl and events.jsonl before the run's final compaction
    events: bytes
    final: dict[str, bytes]  # world.jsonl and events.jsonl after it
    mutations: int
    terminal: int = 0  # terminal trials seen over all persists
    held: list[tuple[int, str]] = field(default_factory=list)  # (tick, job) of a terminal trial


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Recorded:
    directory = tmp_path_factory.mktemp("uninterrupted")
    out = Recorded({}, b"", b"", {}, 0)
    persist = SimBackend.persist

    def recording(backend):
        persist(backend)
        world = backend.world
        out.lines[world.tick] = _line_text(world, (directory / EVENTS).stat().st_size)
        store = FileResourceStore(directory / "resources", readonly=True)
        for trial in store.list(KIND_TRIAL):
            if trial.status.phase in TERMINAL_TRIAL:
                out.terminal += 1
                handle = f"{trial.namespace}/{trial.name}"
                if handle in world.jobs:
                    out.held.append((world.tick, handle))

    def keep(_backend):
        out.file, out.events = (directory / WORLD).read_bytes(), (directory / EVENTS).read_bytes()

    def count(_resource):
        out.mutations += 1

    SimBackend.persist = recording
    try:
        assert _run(directory, watcher=count, before_compact=keep) is None
    finally:
        SimBackend.persist = persist
    out.final = {name: (directory / name).read_bytes() for name in (WORLD, EVENTS, METRICS)}
    return out


def test_the_recorded_run_exercises_what_the_file_must_carry(recorded):
    last = max(recorded.lines)
    assert recorded.file.decode().splitlines() == [recorded.lines[t] for t in range(1, last + 1)]
    assert recorded.final[WORLD].decode() == recorded.lines[last] + "\n"
    assert _world(recorded.lines[last])["jobs"] == {}
    events = recorded.events.decode()
    for kind in ("chaos-kill", "job-resumed", "node-added", "node-removed", "service-released"):
        assert f'"{kind}"' in events


def test_the_world_never_holds_the_job_of_a_terminal_trial(recorded):
    """Checked after every persist against the store the tick left."""
    assert recorded.terminal > 0
    assert recorded.held == []


def _lay_out(directory, world: bytes, events: bytes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / WORLD).write_bytes(world)
    (directory / EVENTS).write_bytes(events)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_file_cut_at_any_byte_resumes_at_its_last_complete_line(recorded, tmp_path_factory, data):
    cut = data.draw(st.integers(0, len(recorded.file)), label="cut")
    directory = tmp_path_factory.mktemp("cut")
    _lay_out(directory, recorded.file[:cut], recorded.events)

    # A read skips the torn tail and leaves the bytes alone.
    complete = recorded.file[: recorded.file.rfind(b"\n", 0, cut) + 1]
    assert Journal(directory / WORLD).read(writing=False) == complete.split(b"\n")[:-1]
    assert (directory / WORLD).read_bytes() == recorded.file[:cut]
    if not complete:
        assert not SimBackend.has_snapshot(directory)
        return

    # A resume loads exactly the last complete line and leaves it alone in the file.
    tick = complete.count(b"\n")
    expected = recorded.lines[tick]
    offset = json.loads(expected)["eventsOffset"]
    backend = SimBackend.resume(directory, InMemoryObservationStore())
    assert _line_text(backend.world, offset) == expected
    assert (directory / WORLD).read_text() == expected + "\n"
    assert (directory / EVENTS).read_bytes() == recorded.events[:offset]

    # The writer's next line starts a line of its own.
    backend.advance(lambda: 0)
    backend.close()
    lines = _lines(directory)
    assert lines[0].decode() == expected and _world(lines[1])["tick"] == tick + 1 and len(lines) == 2


# (tick, phase) kills run the crash hook; (mutation, n) kills raise at the
# n-th store write of the controller, in the middle of a controller step.
KILLS = [
    ("tick", 1, "schedule"),  # before the first persist
    ("tick", 4, "chaos"),
    ("tick", 6, "progress"),
    ("tick", 9, "controller"),
    ("tick", 5, "persist"),
    ("tick", 11, "persist"),
    ("mutation", 25, None),
    ("mutation", 60, None),
    ("mutation", -1, None),  # the last write of the run
]


def _kill(directory, kind, at, phase, mutations) -> int:
    """Run until the kill; return the last persisted tick (0: none)."""
    if kind == "tick":
        def hook(tick, ph):
            if (tick, ph) == (at, phase):
                raise SimulatedCrash(f"kill at tick {at} phase {phase}")

        crashed = _run(directory, crash_hook=hook)
    else:
        target = mutations if at == -1 else at
        seen = 0

        def watcher(_resource):
            nonlocal seen
            seen += 1
            if seen == target:
                raise SimulatedCrash(f"kill at mutation {target}")

        crashed = _run(directory, watcher=watcher)
    assert crashed is not None
    return max(crashed - 1, 0)


@pytest.mark.parametrize(("kind", "at", "phase"), KILLS)
def test_a_run_killed_at_each_point_resumes_to_the_uninterrupted_world(recorded, tmp_path, kind, at, phase):
    """The resumed run ends with one line in world.jsonl: the uninterrupted
    run's world. A kill at the run's last write is the exception: that write
    makes the last experiment terminal, so the resumed run has nothing left
    to reconcile and ends in the world of the tick before."""
    persisted = _kill(tmp_path, kind, at, phase, recorded.mutations)
    if persisted:
        assert _lines(tmp_path)[-1].decode() == recorded.lines[persisted]
    assert _run(tmp_path) is None
    [line] = _lines(tmp_path)
    last = max(recorded.lines)
    expected = recorded.lines[last - 1 if at == -1 else last]
    assert _world(line) == _world(expected)


def test_a_resumed_world_registers_its_pull_points_as_the_uninterrupted_run_did(recorded, tmp_path):
    """A pull job's points wait in the world as (tick, value) pairs until
    its trial succeeds, so points restored from world.jsonl reach the metric
    log with the same bytes, integer ticks included."""
    persisted = _kill(tmp_path, "tick", 6, "progress", recorded.mutations)
    held = [job["points"] for job in _world(_lines(tmp_path)[-1])["jobs"].values() if job["points"]]
    assert persisted and held
    assert all(type(tick) is int for points in held for tick, _ in points)
    assert _run(tmp_path) is None
    assert (tmp_path / METRICS).read_bytes() == recorded.final[METRICS]


@pytest.mark.parametrize("nth", [1, 7])
def test_a_kill_after_a_trial_s_terminal_write_resumes_with_its_job_released(recorded, tmp_path, nth):
    """The store records the trial as terminal, but the world the resume
    reads was persisted before and still holds its job. The resumed run's
    first tick releases it, and the run ends in the uninterrupted world."""
    seen, killed = 0, []

    def watcher(resource):
        nonlocal seen
        if resource.kind == KIND_TRIAL and resource.status.phase in TERMINAL_TRIAL:
            seen += 1
            if seen == nth:
                killed.append(f"{resource.namespace}/{resource.name}")
                raise SimulatedCrash(f"kill at terminal write {nth}")

    tick = _run(tmp_path, watcher=watcher)
    [job] = killed
    assert job in _world(_lines(tmp_path)[-1])["jobs"]

    resumed = {}

    def keep(_backend):
        resumed.update((w["tick"], w) for w in map(_world, _lines(tmp_path)))

    assert _run(tmp_path, before_compact=keep) is None
    assert job not in resumed[tick]["jobs"]
    assert resumed[tick] == _world(recorded.lines[tick])
    assert _world(_lines(tmp_path)[0]) == _world(recorded.final[WORLD])


def test_a_kill_before_the_first_persist_resumes_to_the_uninterrupted_files(recorded, tmp_path):
    """The fresh backend of the resumed run starts the event log anew, so
    the events of the killed bootstrap are not left in front of it."""
    assert _kill(tmp_path, "tick", 1, "progress", recorded.mutations) == 0
    assert (tmp_path / EVENTS).stat().st_size > 0 and not (tmp_path / WORLD).exists()
    assert _run(tmp_path) is None
    for name in (WORLD, EVENTS):
        assert (tmp_path / name).read_bytes() == recorded.final[name], name


@pytest.mark.parametrize(("at", "phase"), [(4, "chaos"), (6, "progress"), (8, "autoscale"), (9, "controller")])
def test_a_kill_before_the_controller_step_resumes_to_the_uninterrupted_world(recorded, tmp_path, at, phase):
    """With the store no further than the last persisted tick, the resumed
    run ends in the uninterrupted run's world. Its event log lacks only the
    experiment stats of that tick: they follow the tick's persist, and the
    resume truncates the log to the persisted offset."""
    persisted = _kill(tmp_path, "tick", at, phase, recorded.mutations)
    assert _run(tmp_path) is None
    assert _world((tmp_path / WORLD).read_bytes()) == _world(recorded.final[WORLD])

    def events(text: bytes) -> list[dict]:
        return [json.loads(line) for line in text.splitlines()]

    dropped = [e for e in events(recorded.final[EVENTS])
               if not (e["kind"] == "experiment-stats" and e["tick"] == persisted)]
    assert events((tmp_path / EVENTS).read_bytes()) == dropped
