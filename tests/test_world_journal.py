"""The simulator's world file: commits, released jobs, cut points and resumed runs.

A backend appends one whole-world line to ``world.jsonl`` per commit: tick 0
before the bootstrap step, then one per tick. Each line records the resource
journal's record count, and a resume opens the store at it and rebuilds
each job's spec from it. These tests record an uninterrupted run's world
after every commit and check that the world never holds the job of a trial
the store records as terminal, that a line holds each job's state and not
its spec, that a resume at each commit rebuilds the jobs the run held, what
a resume makes of a file cut at any byte, and that runs killed at several
points, or stopped and compacted, resume to the uninterrupted run's outputs:
its files, its exports and every stored resource.

The world has gang scheduling, a namespace quota, the autoscaler and
kill-worker chaos, and two experiments that finish at different ticks, so
the file holds resubmitted jobs, added and removed nodes and a released
service.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_experiment
from tunectl.cluster.sim import (
    AutoscalerConfig,
    ChaosMode,
    ChaosPolicy,
    SimBackend,
    SimJob,
    SimulatedCrash,
    SimWorld,
)
from tunectl.codec import Journal, json_default
from tunectl.controller.model import KIND_EXPERIMENT, KIND_TRIAL, TERMINAL_TRIAL
from tunectl.controller.reconcile import run_control_loop, stored_job_request, submit_experiment, terminal_snapshot
from tunectl.controller.store import FileResourceStore
from tunectl.errors import TunectlError
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
from tunectl.results import build_results_table, render_csv

WORLD, EVENTS = SimBackend.WORLD_FILE, SimBackend.EVENTS_FILE
METRICS = "metrics.jsonl"
JOURNAL = "resources/" + FileResourceStore.JOURNAL


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


def _resume(directory, metrics, crash_hook=None):
    """``SimBackend.resume``, with the store opened at the commit."""
    def store_at(records):
        return FileResourceStore(directory / "resources", commit=records)

    return SimBackend.resume(directory, metrics, store_at, stored_job_request, crash_hook=crash_hook)


def _open(directory, crash_hook=None):
    """Resume from the world's last commit, with the store opened at it, or
    start a fresh world, as ``tunectl run`` does."""
    metrics = FileObservationStore(directory / METRICS)
    if SimBackend.has_snapshot(directory):
        backend, store = _resume(directory, metrics, crash_hook)
        return store, metrics, backend
    store = FileResourceStore(directory / "resources")
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


def _run(directory, crash_hook=None, watcher=None, before_compact=None, max_ticks=1_000_000) -> int | None:
    """Run to the end (or ``max_ticks``) and compact the store, then the
    world, as ``tunectl run`` does; on a SimulatedCrash, return the world's
    tick at the crash instead. ``watcher`` sees each stored resource."""
    store, metrics, backend = _open(directory, crash_hook)
    if watcher is not None:
        store.watchers.append(watcher)
    try:
        run_control_loop(store, metrics, backend, max_ticks=max_ticks)
        if before_compact is not None:
            before_compact(backend)
        store.compact()
        backend.compact(store.records)
        return None
    except SimulatedCrash:
        return backend.world.tick
    finally:
        backend.close()
        metrics.close()
        store.close()


def _outputs(directory) -> dict[str, bytes]:
    """What a finished run leaves: the files, every stored resource with its
    generation (the compacted journal), each experiment's CSV export and the
    run summary."""
    out = {name: (directory / name).read_bytes() for name in (WORLD, EVENTS, METRICS, JOURNAL)}
    store = FileResourceStore(directory / "resources", readonly=True)
    metrics = FileObservationStore(directory / METRICS, readonly=True)
    for experiment in store.list(KIND_EXPERIMENT):
        table = build_results_table(store, metrics, experiment.namespace, experiment.name)
        out[f"{experiment.name}.csv"] = render_csv(table).encode()
    out["summary"] = json.dumps(terminal_snapshot(store, 0)["experiments"], sort_keys=True).encode()
    return out


def _line_text(world, events_offset, records) -> str:
    """A ``world.jsonl`` line as the format defines it, without its newline."""
    doc = {"world": world, "eventsOffset": events_offset, "journalRecords": records}
    return json.dumps(doc, default=json_default, separators=(",", ":"))


def _world(line: str | bytes) -> dict:
    return json.loads(line)["world"]


def _lines(directory) -> list[bytes]:
    return (directory / WORLD).read_bytes().splitlines()


def _journal_records(directory) -> int:
    return len(Journal(directory / JOURNAL).read())


@dataclass
class Recorded:
    lines: dict[int, str]  # tick -> the world line of that tick's commit
    file: bytes  # world.jsonl, events.jsonl and the journal before the run's final compaction
    events: bytes
    journal: bytes
    final: dict[str, bytes]  # the run's outputs (see _outputs)
    mutations: int
    commits: list[str] = field(default_factory=list)  # each persist's line, the compaction's included
    counted: list[tuple[int, int]] = field(default_factory=list)  # (records committed, journal lines)
    terminal: int = 0  # terminal trials seen over all persists
    held: list[tuple[int, str]] = field(default_factory=list)  # (tick, job) of a terminal trial
    jobs: dict[int, dict[str, SimJob]] = field(default_factory=dict)  # tick -> a copy of the world's jobs at its commit


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Recorded:
    directory = tmp_path_factory.mktemp("uninterrupted")
    out = Recorded({}, b"", b"", b"", {}, 0)
    persist = SimBackend.persist

    def recording(backend, records):
        persist(backend, records)
        world = backend.world
        out.commits.append(_line_text(world, (directory / EVENTS).stat().st_size, records))
        out.counted.append((records, _journal_records(directory)))
        out.jobs[world.tick] = copy.deepcopy(world.jobs)
        store = FileResourceStore(directory / "resources", readonly=True)
        for trial in store.list(KIND_TRIAL):
            if trial.status.phase in TERMINAL_TRIAL:
                out.terminal += 1
                handle = f"{trial.namespace}/{trial.name}"
                if handle in world.jobs:
                    out.held.append((world.tick, handle))

    def keep(_backend):
        out.file, out.events = (directory / WORLD).read_bytes(), (directory / EVENTS).read_bytes()
        out.journal = (directory / JOURNAL).read_bytes()

    def count(_resource):
        out.mutations += 1

    SimBackend.persist = recording
    try:
        assert _run(directory, watcher=count, before_compact=keep) is None
    finally:
        SimBackend.persist = persist
    out.lines = {_world(line)["tick"]: line for line in out.file.decode().splitlines()}
    out.final = _outputs(directory)
    return out


def test_the_recorded_run_exercises_what_the_file_must_carry(recorded):
    # One commit before the bootstrap step, one per tick, and the compaction's.
    *ticks, compaction = recorded.commits
    last = max(recorded.lines)
    assert recorded.file.decode().splitlines() == ticks
    assert [_world(line)["tick"] for line in ticks] == list(range(last + 1))
    assert recorded.final[WORLD].decode() == compaction + "\n"
    assert _world(compaction) == _world(recorded.lines[last]) and _world(compaction)["jobs"] == {}
    # Each commit counts the journal's records as it stood, compacted at the end.
    assert all(records == lines for records, lines in recorded.counted)
    assert recorded.counted[-1][0] < recorded.counted[-2][0]
    events = recorded.events.decode()
    for kind in ("chaos-kill", "job-resumed", "node-added", "node-removed", "service-released"):
        assert f'"{kind}"' in events


def test_the_world_never_holds_the_job_of_a_terminal_trial(recorded):
    """Checked after every persist against the store the tick left."""
    assert recorded.terminal > 0
    assert recorded.held == []


def _lay_out(directory, recorded: Recorded, world: bytes) -> None:
    """A state directory of the recorded run with ``world`` as its world
    file, and its event log and journal as they stood before compaction."""
    (directory / "resources").mkdir(parents=True, exist_ok=True)
    (directory / WORLD).write_bytes(world)
    (directory / EVENTS).write_bytes(recorded.events)
    (directory / JOURNAL).write_bytes(recorded.journal)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_file_cut_at_any_byte_resumes_at_its_last_complete_line(recorded, tmp_path_factory, data):
    cut = data.draw(st.integers(0, len(recorded.file)), label="cut")
    directory = tmp_path_factory.mktemp("cut")
    _lay_out(directory, recorded, recorded.file[:cut])

    # A read skips the torn tail and leaves the bytes alone.
    complete = recorded.file[: recorded.file.rfind(b"\n", 0, cut) + 1]
    assert Journal(directory / WORLD).read() == complete.split(b"\n")[:-1]
    assert (directory / WORLD).read_bytes() == recorded.file[:cut]
    if not complete:
        assert not SimBackend.has_snapshot(directory)
        return

    # A resume loads exactly the last complete line and leaves it alone in the file.
    tick = complete.count(b"\n") - 1
    expected = recorded.lines[tick]
    offset, records = json.loads(expected)["eventsOffset"], json.loads(expected)["journalRecords"]
    backend, store = _resume(directory, InMemoryObservationStore())
    assert _line_text(backend.world, offset, records) == expected and store.records == records
    assert (directory / WORLD).read_text() == expected + "\n"
    assert (directory / EVENTS).read_bytes() == recorded.events[:offset]

    # A commit that repeats the line writes nothing; the next tick's starts a line of its own.
    backend.persist(records)
    assert (directory / WORLD).read_text() == expected + "\n"
    backend.advance(lambda: 0)
    backend.persist(records)
    backend.close()
    lines = _lines(directory)
    assert lines[0].decode() == expected and _world(lines[1])["tick"] == tick + 1 and len(lines) == 2


def test_a_world_line_holds_each_trial_job_s_state_and_not_its_spec(recorded):
    """A job is under its handle with what a tick changes; each unit is its
    ticks left and its node; services are in a table of their own."""
    services = _world(recorded.lines[1])["services"]
    assert list(services) == ["team/svc-exp-a", "team/svc-exp-b"]
    assert all(list(service) == ["cpu", "node"] for service in services.values())
    jobs = [job for line in recorded.lines.values() for job in _world(line)["jobs"].values()]
    assert jobs
    for job in jobs:
        assert list(job) == ["phase", "reason", "completed", "attempt", "units", "points"]
        assert all(list(unit) == ["remaining", "node"] for unit in job["units"])


def test_a_resume_at_every_commit_rebuilds_the_live_run_s_jobs(recorded, tmp_path_factory):
    """Each trial job a resume rebuilds from the store equals the job the
    uninterrupted run held at that commit, in its spec and in its state."""
    for tick, line in recorded.lines.items():
        directory = tmp_path_factory.mktemp(f"commit-{tick}")
        _lay_out(directory, recorded, line.encode() + b"\n")
        backend, store = _resume(directory, InMemoryObservationStore())
        rebuilt = {handle: vars(job) for handle, job in backend.world.jobs.items()}
        assert rebuilt == {handle: vars(job) for handle, job in recorded.jobs[tick].items()}, tick
        backend.close()
        store.close()
    assert sum(map(len, recorded.jobs.values())) > 0


# (tick, phase) kills run the crash hook; (mutation, n) kills raise at the
# n-th store write of the controller, in the middle of a controller step.
KILLS = [
    ("tick", 1, "schedule"),  # before the first tick's commit
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
    """Run until the kill; return the last committed tick."""
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
    """The killed run leaves the last committed line; the resumed run ends
    with the uninterrupted run's outputs, the kill at its last write too."""
    committed = _kill(tmp_path, kind, at, phase, recorded.mutations)
    assert _lines(tmp_path)[-1].decode() == recorded.lines[committed]
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_resumed_world_registers_its_pull_points_as_the_uninterrupted_run_did(recorded, tmp_path):
    """A pull job's points wait in the world as (tick, value) pairs until
    its trial succeeds, so points restored from world.jsonl reach the metric
    log with the same bytes, integer ticks included."""
    committed = _kill(tmp_path, "tick", 6, "progress", recorded.mutations)
    held = [job["points"] for job in _world(_lines(tmp_path)[-1])["jobs"].values() if job["points"]]
    assert committed and held
    assert all(type(tick) is int for points in held for tick, _ in points)
    assert _run(tmp_path) is None
    assert (tmp_path / METRICS).read_bytes() == recorded.final[METRICS]


@pytest.mark.parametrize("nth", [1, 7])
def test_a_kill_after_a_trial_s_terminal_write_resumes_with_its_job_released(recorded, tmp_path, nth):
    """The terminal write is past the world's last commit, which still holds
    the job. The resume opens the store at that commit, where the trial is
    not terminal, so the resumed tick writes it again and releases the job
    with the uninterrupted run's line."""
    seen, killed = 0, []

    def watcher(resource):
        nonlocal seen
        if resource.kind == KIND_TRIAL and resource.status.phase in TERMINAL_TRIAL:
            seen += 1
            if seen == nth:
                killed.append(resource)
                raise SimulatedCrash(f"kill at terminal write {nth}")

    tick = _run(tmp_path, watcher=watcher)
    [trial] = killed
    job = f"{trial.namespace}/{trial.name}"
    assert job in _world(_lines(tmp_path)[-1])["jobs"]
    store = _open(tmp_path)[0]
    assert store.get(trial.key).status.phase not in TERMINAL_TRIAL
    store.close()

    resumed = {}

    def keep(_backend):
        resumed.update((_world(line)["tick"], line.decode()) for line in _lines(tmp_path))

    assert _run(tmp_path, before_compact=keep) is None
    assert job not in _world(resumed[tick])["jobs"]
    assert resumed[tick] == recorded.lines[tick]
    assert _outputs(tmp_path) == recorded.final


def test_a_kill_in_the_bootstrap_step_resumes_with_the_uninterrupted_job_attempts(recorded, tmp_path):
    """The tick-0 commit precedes the bootstrap step, so a kill after its
    first submit resumes with the store opened before it: the resumed run
    submits each trial's job once, as the uninterrupted run did."""

    def watcher(resource):
        if resource.kind == KIND_TRIAL and resource.status.job_attempt == 1:
            raise SimulatedCrash("kill at the first submit")

    assert _run(tmp_path, watcher=watcher) == 0
    [line] = _lines(tmp_path)
    assert line.decode() == recorded.lines[0]
    assert _run(tmp_path) is None

    def attempts(journal: bytes) -> dict[str, int]:
        docs = map(json.loads, journal.splitlines())
        return {d["name"]: d["status"]["jobAttempt"] for d in docs if d["kind"] == KIND_TRIAL}

    assert attempts((tmp_path / JOURNAL).read_bytes()) == attempts(recorded.final[JOURNAL])
    assert _outputs(tmp_path) == recorded.final


@pytest.mark.parametrize(("at", "phase"), [(4, "chaos"), (6, "progress"), (8, "autoscale"), (9, "controller")])
def test_a_kill_before_the_controller_step_resumes_to_the_uninterrupted_world(recorded, tmp_path, at, phase):
    """The resumed run ends with the uninterrupted run's outputs, its event
    log included: a tick's experiment stats are committed with it."""
    _kill(tmp_path, "tick", at, phase, recorded.mutations)
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_stopped_run_compacts_its_commit_count_exactly(recorded, tmp_path):
    """A run stopped at a tick compacts the journal, then the world, whose
    line then counts the compacted records. Resumed, killed mid-tick and
    resumed again, it ends with the uninterrupted run's outputs."""
    assert _run(tmp_path, max_ticks=7) is None
    [line] = _lines(tmp_path)
    records = json.loads(line)["journalRecords"]
    assert records == _journal_records(tmp_path) < json.loads(recorded.lines[7])["journalRecords"]
    assert _world(line) == _world(recorded.lines[7])
    seen = 0

    def watcher(_resource):
        nonlocal seen
        seen += 1
        if seen == 6:
            raise SimulatedCrash("kill at the resumed run's sixth write")

    assert _run(tmp_path, watcher=watcher) >= 8  # past the stop, in a tick of the resumed run
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_kill_between_the_journal_s_compaction_and_the_world_s_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, monkeypatch
):
    """Killed after the journal's compaction, the world's last line counts
    the records from before it, more than the compacted journal holds but
    the same resources. The resume opens the whole journal, and the resumed
    run ends with the uninterrupted run's outputs."""

    def killed(_backend, _records):
        raise SimulatedCrash("kill before the world's compaction")

    monkeypatch.setattr(SimBackend, "compact", killed)
    assert _run(tmp_path, max_ticks=7) == 7
    monkeypatch.undo()
    assert _lines(tmp_path)[-1].decode() == recorded.lines[7]
    assert _journal_records(tmp_path) < json.loads(recorded.lines[7])["journalRecords"]
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_resume_whose_store_holds_no_trial_of_a_job_names_the_journal_and_the_job(recorded, tmp_path):
    """A journal cut to its first record, an experiment's create, reads as
    compacted; the world's jobs then find no trial to rebuild them from."""
    line = next(line for tick, line in sorted(recorded.lines.items()) if _world(line)["jobs"])
    _lay_out(tmp_path, recorded, line.encode() + b"\n")
    (tmp_path / JOURNAL).write_bytes(recorded.journal.splitlines(keepends=True)[0])
    before = {path: path.read_bytes() for path in (tmp_path / WORLD, tmp_path / EVENTS, tmp_path / JOURNAL)}
    with pytest.raises(TunectlError) as raised:
        _resume(tmp_path, InMemoryObservationStore())
    job = next(iter(_world(line)["jobs"]))
    assert f"{tmp_path / JOURNAL} holds no trial, or not its experiment, of the job {job}" in str(raised.value)
    assert {path: path.read_bytes() for path in before} == before


def test_an_experiment_submitted_into_a_killed_store_survives_the_resume_and_runs(recorded, tmp_path):
    """A ``submit`` appends past the killed run's last commit. The resume
    drops that tick's writes but keeps the experiment create, which only a
    submit writes, and the resumed run drives it to its end."""
    _kill(tmp_path, "mutation", 60, None, recorded.mutations)
    store = FileResourceStore(tmp_path / "resources")
    [late] = _experiments()[:1]
    late = dataclasses.replace(late, name="exp-c")
    submit_experiment(store, late)
    store.close()
    assert _run(tmp_path) is None
    store = FileResourceStore(tmp_path / "resources", readonly=True)
    result = store.get("experiment/team/exp-c").status
    assert result.phase.value == "Succeeded" and result.total_spawned == late.max_trial_count
