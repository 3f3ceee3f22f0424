"""The simulator's world journal: cut points, stale deltas and resumed bytes.

After its first full snapshot, a backend appends one ``world.jsonl`` line per
tick. These tests record an uninterrupted run's world after every persist
and check what a resume makes of the files: a journal cut at any byte, a
journal whose lines lie at or below ``world.json``'s tick, and runs killed
at several points and resumed to the end.

The world has gang scheduling, a namespace quota, the autoscaler and
kill-worker chaos, and two experiments that finish at different ticks, so
the journal holds resubmitted jobs, added and removed nodes and a released
service.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass

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

WORLD, JOURNAL, EVENTS = SimBackend.WORLD_FILE, SimBackend.JOURNAL_FILE, SimBackend.EVENTS_FILE


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
    metrics = FileObservationStore(directory / "metrics.jsonl")
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


def _run(directory, crash_hook=None, on_mutation=None, before_compact=None) -> int | None:
    """Run to the end and compact; on a SimulatedCrash, return the world's
    tick at the crash instead."""
    store, metrics, backend = _open(directory, crash_hook)
    if on_mutation is not None:
        store.watchers.append(lambda _resource: on_mutation())
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


def _snapshot_text(world, events_offset) -> str:
    """``world.json`` as the format defines it."""
    return json.dumps({"world": world, "eventsOffset": events_offset}, default=json_default)


@dataclass
class Recorded:
    snapshots: dict[int, str]  # tick -> world.json text after that tick's persist
    base: bytes  # world.json and the journal before the run's final compaction
    journal: bytes
    events: bytes
    final: dict[str, bytes]  # world.json and events.jsonl after it
    mutations: int


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Recorded:
    directory = tmp_path_factory.mktemp("uninterrupted")
    snapshots: dict[int, str] = {}
    persist = SimBackend.persist

    def recording(backend):
        persist(backend)
        offset = (directory / EVENTS).stat().st_size
        snapshots[backend.world.tick] = _snapshot_text(backend.world, offset)

    kept = {}

    def keep(_backend):
        kept.update({name: (directory / name).read_bytes() for name in (WORLD, JOURNAL, EVENTS)})

    mutations = 0

    def count():
        nonlocal mutations
        mutations += 1

    SimBackend.persist = recording
    try:
        assert _run(directory, on_mutation=count, before_compact=keep) is None
    finally:
        SimBackend.persist = persist
    final = {name: (directory / name).read_bytes() for name in (WORLD, EVENTS)}
    assert not (directory / JOURNAL).exists()
    return Recorded(snapshots, kept[WORLD], kept[JOURNAL], kept[EVENTS], final, mutations)


def test_the_recorded_run_exercises_what_the_journal_must_carry(recorded):
    last = max(recorded.snapshots)
    assert recorded.base.decode() == recorded.snapshots[1]
    ticks = [json.loads(line)["tick"] for line in recorded.journal.splitlines()]
    assert ticks == list(range(2, last + 1))
    assert recorded.final[WORLD].decode() == recorded.snapshots[last]
    events = recorded.events.decode()
    for kind in ("chaos-kill", "job-resumed", "node-added", "node-removed", "service-released"):
        assert f'"{kind}"' in events


def _lay_out(directory, world: bytes, journal: bytes, events: bytes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / WORLD).write_bytes(world)
    (directory / JOURNAL).write_bytes(journal)
    (directory / EVENTS).write_bytes(events)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_journal_cut_at_any_byte_resumes_at_its_last_complete_tick(recorded, tmp_path_factory, data):
    journal = recorded.journal
    cut = data.draw(st.integers(0, len(journal)), label="cut")
    directory = tmp_path_factory.mktemp("cut")
    _lay_out(directory, recorded.base, journal[:cut], recorded.events)

    # A read skips the torn tail and leaves the bytes alone.
    complete = journal[: journal.rfind(b"\n", 0, cut) + 1]
    assert Journal(directory / JOURNAL).read(writing=False) == complete.split(b"\n")[:-1]
    assert (directory / JOURNAL).read_bytes() == journal[:cut]

    # A resume loads exactly the last complete tick and folds it into world.json.
    tick = 1 + complete.count(b"\n")
    expected = recorded.snapshots[tick]
    backend = SimBackend.resume(directory, InMemoryObservationStore())
    assert _snapshot_text(backend.world, json.loads(expected)["eventsOffset"]) == expected
    assert (directory / WORLD).read_text() == expected
    assert not (directory / JOURNAL).exists()
    offset = json.loads(expected)["eventsOffset"]
    assert (directory / EVENTS).read_bytes() == recorded.events[:offset]

    # The writer's next line starts a journal of its own, with no torn bytes before it.
    backend.advance(lambda: 0)
    backend.close()
    lines = (directory / JOURNAL).read_bytes().split(b"\n")
    assert lines[1:] == [b""] and json.loads(lines[0])["tick"] == tick + 1


@pytest.mark.parametrize("journal_ticks", ["at-or-below", "below-then-above"])
def test_deltas_at_or_below_the_snapshot_tick_are_ignored(recorded, tmp_path, journal_ticks):
    """A kill between a compaction's rename and the journal's removal leaves
    lines that world.json already holds; a resume must not apply them over it."""
    last = max(recorded.snapshots)
    base_tick = last // 2
    lines = recorded.journal.splitlines(keepends=True)  # line i holds tick i + 2
    if journal_ticks == "at-or-below":
        journal, tick = b"".join(lines[: base_tick - 3]), base_tick
    else:
        journal, tick = recorded.journal, last
    _lay_out(tmp_path, recorded.snapshots[base_tick].encode(), journal, recorded.events)
    backend = SimBackend.resume(tmp_path, InMemoryObservationStore())
    expected = recorded.snapshots[tick]
    assert _snapshot_text(backend.world, json.loads(expected)["eventsOffset"]) == expected
    backend.close()


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

        def hook():
            nonlocal seen
            seen += 1
            if seen == target:
                raise SimulatedCrash(f"kill at mutation {target}")

        crashed = _run(directory, on_mutation=hook)
    assert crashed is not None
    return max(crashed - 1, 0)


@pytest.mark.parametrize(("kind", "at", "phase"), KILLS)
def test_resume_from_the_journal_gives_the_bytes_of_resume_from_a_full_snapshot(
    recorded, tmp_path, kind, at, phase
):
    """Killed at the same point, a run resumed from world.json plus the
    journal and one resumed from a full world.json of the last persisted
    tick (what a snapshot per tick left) end with the same files."""
    journaled, full = tmp_path / "journaled", tmp_path / "full"
    persisted = _kill(journaled, kind, at, phase, recorded.mutations)
    shutil.copytree(journaled, full)
    if persisted:
        (full / WORLD).write_text(recorded.snapshots[persisted])
        (full / JOURNAL).unlink(missing_ok=True)
        assert persisted == 1 or (journaled / JOURNAL).exists()
    assert _run(journaled) is None and _run(full) is None
    for name in (WORLD, EVENTS):
        assert (journaled / name).read_bytes() == (full / name).read_bytes(), name
    assert not (journaled / JOURNAL).exists()


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
    final = json.loads((tmp_path / WORLD).read_bytes())
    assert final["world"] == json.loads(recorded.final[WORLD])["world"]

    def events(text: bytes) -> list[dict]:
        return [json.loads(line) for line in text.splitlines()]

    dropped = [e for e in events(recorded.final[EVENTS])
               if not (e["kind"] == "experiment-stats" and e["tick"] == persisted)]
    assert events((tmp_path / EVENTS).read_bytes()) == dropped
