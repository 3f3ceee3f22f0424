"""The simulator's commits in the resource journal: released jobs, cut points and resumed runs.

A run's store appends each commit a backend returns to its journal, a line
after the tick's records: tick 0 before the bootstrap step, then one per
tick. A resume opens the store at the journal's last commit line and
rebuilds the world from that line, each job's spec from the store. These
tests record an uninterrupted run's world after every commit and check
where each commit lands in the journal, that the world never holds the job
of a trial the store records as terminal, that a commit holds each job's
state and not its spec, that a resume at each commit rebuilds the jobs the
run held, what a resume makes of a journal cut at any byte, and that runs
killed at several points, in the compaction too, or stopped and compacted,
resume to the uninterrupted run's outputs: its files, its exports and every
stored resource.

The world has gang scheduling, a namespace quota, the autoscaler and
kill-worker chaos, and two experiments that finish at different ticks, so
the commits hold resubmitted jobs, added and removed nodes and a released
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

from conftest import SimulatedCrash, make_experiment, tick_hook
from tunectl.cluster.sim import AutoscalerConfig, ChaosMode, ChaosPolicy, SimBackend, SimJob, SimWorld
from tunectl.codec import Journal, json_default
from tunectl.controller.model import KIND_EXPERIMENT, KIND_TRIAL, TERMINAL_TRIAL
from tunectl.controller.reconcile import run_control_loop, submit_experiment, terminal_snapshot
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

EVENTS, JOURNAL = SimBackend.EVENTS_FILE, FileResourceStore.JOURNAL
METRICS = "metrics.jsonl"
COMMIT = '{"commit":'  # a commit line: this, the commit, then "}"


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


def _open(directory):
    """Open the store at its journal's last commit and resume the world
    there, or start a fresh world, as ``tunectl run`` does."""
    metrics = FileObservationStore(directory / METRICS)
    store = FileResourceStore(directory, commit=True)
    if store.committed is not None:
        return store, metrics, SimBackend.resume(store, metrics)
    world = SimWorld(
        seed=23,
        autoscaler=AutoscalerConfig(min_nodes=1, max_nodes=3, node_capacity_cpu=4.0, scale_down_grace_ticks=3),
        chaos=ChaosPolicy(ChaosMode.KILL_WORKER, fraction=0.3, interval_ticks=4, seed=5),
    )
    world.add_node(4.0)
    world.add_namespace("team", 7.0)
    backend = SimBackend(world, metrics, state_dir=directory)
    for spec in _experiments():
        if store.get(f"experiment/team/{spec.name}") is None:
            submit_experiment(store, spec)
    return store, metrics, backend


def _run(directory, watcher=None, before_compact=None, max_ticks=1_000_000) -> int | None:
    """Run to the end (or ``max_ticks``) and compact the store, as ``tunectl
    run`` does; on a SimulatedCrash, return the world's tick at the crash
    instead. ``watcher`` sees each stored resource, and None after each
    commit the store appends: a commit counts among the store's writes."""
    store, metrics, backend = _open(directory)
    if watcher is not None:
        store.watchers.append(watcher)
        commit = store.commit

        def counted(body):
            last = store.committed
            commit(body)
            if store.committed is not last:  # appended: a repeat or None writes nothing
                watcher(None)

        store.commit = counted
    try:
        run_control_loop(store, metrics, backend, max_ticks=max_ticks)
        if before_compact is not None:
            before_compact(backend)
        store.compact()
        return None
    except SimulatedCrash:
        return backend.world.tick
    finally:
        backend.close()
        metrics.close()
        store.close()


def _outputs(directory) -> dict[str, bytes]:
    """What a finished run leaves: the files, every stored resource with its
    generation and the last commit (the compacted journal), each
    experiment's CSV export and the run summary."""
    out = {name: (directory / name).read_bytes() for name in (EVENTS, METRICS, JOURNAL)}
    store = FileResourceStore(directory, readonly=True)
    metrics = FileObservationStore(directory / METRICS, readonly=True)
    for experiment in store.list(KIND_EXPERIMENT):
        table = build_results_table(store, metrics, experiment.namespace, experiment.name)
        out[f"{experiment.name}.csv"] = render_csv(table).encode()
    out["summary"] = json.dumps(terminal_snapshot(store, 0)["experiments"], sort_keys=True).encode()
    return out


def _commit_text(world, events_offset) -> str:
    """A commit as the format defines it."""
    return json.dumps({"world": world, "eventsOffset": events_offset}, default=json_default, separators=(",", ":"))


def _world(commit: str) -> dict:
    return json.loads(commit)["world"]


def _committed(line: str | bytes) -> str | None:
    """The commit a journal line holds; None for a record."""
    line = line.decode() if isinstance(line, bytes) else line
    return line[len(COMMIT):-1] if line.startswith(COMMIT) else None


def _commits(directory) -> list[str]:
    """The commits in the journal, in order."""
    return [c for line in Journal(directory / JOURNAL).read() if (c := _committed(line)) is not None]


@dataclass
class Recorded:
    lines: dict[int, str]  # tick -> the commit of that tick
    events: bytes  # events.jsonl and the journal before the run's compaction
    journal: bytes
    final: dict[str, bytes]  # the run's outputs (see _outputs)
    mutations: int  # the run's store writes, its commits included
    commits: list[str] = field(default_factory=list)  # each commit the store appends
    at: list[int] = field(default_factory=list)  # the journal's lines at each persist: where its commit goes
    terminal: int = 0  # terminal trials seen over all persists
    held: list[tuple[int, str]] = field(default_factory=list)  # (tick, job) of a terminal trial
    jobs: dict[int, dict[str, SimJob]] = field(default_factory=dict)  # tick -> a copy of the world's jobs at its commit


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Recorded:
    directory = tmp_path_factory.mktemp("uninterrupted")
    out = Recorded({}, b"", b"", {}, 0)
    persist = SimBackend.persist

    def recording(backend):
        commit = persist(backend)
        world = backend.world
        assert commit == _commit_text(world, (directory / EVENTS).stat().st_size)
        if out.commits[-1:] == [commit]:  # the loop's last persist repeats its last tick's: the store skips it
            return commit
        out.commits.append(commit)
        out.at.append(len(Journal(directory / JOURNAL).read()))
        out.jobs[world.tick] = copy.deepcopy(world.jobs)
        store = FileResourceStore(directory, readonly=True)
        for trial in store.list(KIND_TRIAL):
            if trial.status.phase in TERMINAL_TRIAL:
                out.terminal += 1
                handle = f"{trial.namespace}/{trial.name}"
                if handle in world.jobs:
                    out.held.append((world.tick, handle))
        return commit

    def keep(_backend):
        out.events, out.journal = (directory / EVENTS).read_bytes(), (directory / JOURNAL).read_bytes()

    def count(_resource):
        out.mutations += 1

    SimBackend.persist = recording
    try:
        assert _run(directory, watcher=count, before_compact=keep) is None
    finally:
        SimBackend.persist = persist
    out.lines = {_world(commit)["tick"]: commit for commit in out.commits}
    out.final = _outputs(directory)
    return out


def test_the_recorded_run_exercises_what_the_file_must_carry(recorded):
    # One commit before the bootstrap step, then one per tick, each a line
    # of the journal right after the records its tick wrote.
    last = max(recorded.lines)
    assert [_world(commit)["tick"] for commit in recorded.commits] == list(range(last + 1))
    lines = recorded.journal.decode().splitlines()
    assert [_committed(line) for line in lines if line.startswith(COMMIT)] == recorded.commits
    assert [_committed(lines[at]) for at in recorded.at] == recorded.commits
    assert recorded.mutations == len(lines) - 2  # the two submits write before the watcher is added
    # The compacted journal is one record per resource, then the last commit alone.
    *records, commit = recorded.final[JOURNAL].decode().splitlines()
    assert _committed(commit) == recorded.lines[last] and _world(recorded.lines[last])["jobs"] == {}
    assert not any(line.startswith(COMMIT) for line in records)
    keys = [f"{d['kind']}/{d['namespace']}/{d['name']}" for d in map(json.loads, records)]
    assert keys == sorted(set(keys))
    events = recorded.events.decode()
    assert recorded.final[EVENTS] == recorded.events
    for kind in ("chaos-kill", "job-resumed", "node-added", "node-removed", "service-released"):
        assert f'"{kind}"' in events


def test_the_world_never_holds_the_job_of_a_terminal_trial(recorded):
    """Checked after every persist against the store the tick left."""
    assert recorded.terminal > 0
    assert recorded.held == []


def _lay_out(directory, recorded: Recorded, journal: bytes) -> None:
    """A store directory of the recorded run with ``journal`` as its
    journal, and its event log and metric log as they stood before
    compaction."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / JOURNAL).write_bytes(journal)
    (directory / EVENTS).write_bytes(recorded.events)
    (directory / METRICS).write_bytes(recorded.final[METRICS])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_file_cut_at_any_byte_resumes_at_its_last_complete_line(recorded, tmp_path_factory, data):
    """The store opens a journal cut at any byte at its last complete
    commit line, and the world resumes from that line."""
    cut = data.draw(st.integers(0, len(recorded.journal)), label="cut")
    directory = tmp_path_factory.mktemp("cut")
    _lay_out(directory, recorded, recorded.journal[:cut])
    complete = recorded.journal[: recorded.journal.rfind(b"\n", 0, cut) + 1].splitlines(keepends=True)
    end = max((n for n, line in enumerate(complete, 1) if line.startswith(COMMIT.encode())), default=None)
    store = FileResourceStore(directory, commit=True)
    if end is None:
        # No commit: the run starts afresh on the whole store, torn tail cut.
        assert store.committed is None
        assert (directory / JOURNAL).read_bytes() == b"".join(complete)
        return

    # The records past the last commit are dropped, as is the torn tail.
    expected = _committed(complete[end - 1].rstrip(b"\n"))
    assert store.committed == expected
    assert (directory / JOURNAL).read_bytes() == b"".join(complete[:end])
    offset = json.loads(expected)["eventsOffset"]
    backend = SimBackend.resume(store, InMemoryObservationStore())
    assert _commit_text(backend.world, offset) == expected
    assert (directory / EVENTS).read_bytes() == recorded.events[:offset]

    # A commit that repeats the last one writes nothing; the next tick's
    # starts a line of its own, after the last.
    store.commit(backend.persist())
    assert (directory / JOURNAL).read_bytes() == b"".join(complete[:end])
    backend.advance(lambda: 0)
    store.commit(backend.persist())
    backend.close()
    store.close()
    commits = _commits(directory)
    assert commits[-2] == expected and _world(commits[-1])["tick"] == _world(expected)["tick"] + 1


def test_a_world_line_holds_each_trial_job_s_state_and_not_its_spec(recorded):
    """A commit's world holds a job under its handle with what a tick
    changes, a reason only once set; each unit is its ticks left and its
    node; services are in a table of their own; a node or a namespace is
    under its name and does not repeat it."""
    services = _world(recorded.lines[1])["services"]
    assert list(services) == ["team/svc-exp-a", "team/svc-exp-b"]
    assert all(list(service) == ["cpu", "node"] for service in services.values())
    worlds = [_world(commit) for commit in recorded.lines.values()]
    jobs = [job for world in worlds for job in world["jobs"].values()]
    assert jobs
    for job in jobs:
        assert list(job) == ["phase", *(["reason"] if "reason" in job else []), "completed", "attempt", "units",
                             "points"]
        assert job.get("reason", "") is not None
        assert all(list(unit) == ["remaining", "node"] for unit in job["units"])
    for world in worlds:
        assert all(list(node) == ["capacityCpu", "allocatedCpu", "idleSince"] for node in world["nodes"].values())
        assert all(list(ns) == ["cpuLimit", "cpuUsed"] for ns in world["namespaces"].values())


def test_a_resume_at_every_commit_rebuilds_the_live_run_s_jobs(recorded, tmp_path_factory):
    """Each trial job a resume rebuilds from the store equals the job the
    uninterrupted run held at that commit, in its spec and in its state."""
    lines = recorded.journal.splitlines(keepends=True)
    for i, at in enumerate(recorded.at):
        tick = _world(recorded.commits[i])["tick"]
        directory = tmp_path_factory.mktemp(f"commit-{tick}")
        _lay_out(directory, recorded, b"".join(lines[: at + 1]))
        store = FileResourceStore(directory, commit=True)
        backend = SimBackend.resume(store, InMemoryObservationStore())
        rebuilt = {handle: vars(job) for handle, job in backend.world.jobs.items()}
        assert rebuilt == {handle: vars(job) for handle, job in recorded.jobs[tick].items()}, tick
        backend.close()
        store.close()
    assert sum(map(len, recorded.jobs.values())) > 0


def test_a_tick_hook_fires_at_each_tick_s_six_points_in_order():
    """``tick_hook`` sees each tick's points once, in the tick's order and
    with its number, the controller point before the step itself, and
    nothing once its block ends: the points the tick kills below name."""
    world = SimWorld(seed=3)
    world.add_node(4.0)
    world.add_namespace("team")
    backend = SimBackend(world, InMemoryObservationStore())
    seen = []

    def step():
        seen.append((world.tick, "step"))
        return 0

    with tick_hook(lambda tick, point: seen.append((tick, point))):
        for _ in range(3):
            backend.advance(step)
    backend.advance(step)
    points = ("chaos", "progress", "schedule", "autoscale", "controller", "step", "persist")
    assert seen == [(tick, point) for tick in (1, 2, 3) for point in points] + [(4, "step")]


# (tick, phase) kills raise from a ``tick_hook``; (mutation, n) kills raise
# at the n-th store write, a commit's append included, in the middle of a
# controller step or right after a commit.
KILLS = [
    ("tick", 1, "schedule"),  # before the first tick's commit
    ("tick", 4, "chaos"),
    ("tick", 6, "progress"),
    ("tick", 9, "controller"),
    ("tick", 5, "persist"),
    ("tick", 11, "persist"),
    ("mutation", 25, None),
    ("mutation", 60, None),
    ("mutation", -1, None),  # the last write of the run, its last commit
]


def _kill(directory, kind, at, phase, mutations) -> int:
    """Run until the kill; return the world's tick at the kill."""
    if kind == "tick":
        def hook(tick, ph):
            if (tick, ph) == (at, phase):
                raise SimulatedCrash(f"kill at tick {at} phase {phase}")

        with tick_hook(hook):
            crashed = _run(directory)
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
    return crashed


@pytest.mark.parametrize(("kind", "at", "phase"), KILLS)
def test_a_run_killed_at_each_point_resumes_to_the_uninterrupted_world(recorded, tmp_path, kind, at, phase):
    """The killed run leaves the uninterrupted run's commits up to the
    kill; the resumed run ends with the uninterrupted run's outputs, the
    kill at its last write too."""
    _kill(tmp_path, kind, at, phase, recorded.mutations)
    commits = _commits(tmp_path)
    assert commits and commits == recorded.commits[: len(commits)]
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_resumed_world_registers_its_pull_points_as_the_uninterrupted_run_did(recorded, tmp_path):
    """A pull job's points wait in the world as (tick, value) pairs until
    its trial succeeds, so points restored from a commit reach the metric
    log with the same bytes, integer ticks included."""
    _kill(tmp_path, "tick", 6, "progress", recorded.mutations)
    held = [job["points"] for job in _world(_commits(tmp_path)[-1])["jobs"].values() if job["points"]]
    assert held
    assert all(type(tick) is int for points in held for tick, _ in points)
    assert _run(tmp_path) is None
    assert (tmp_path / METRICS).read_bytes() == recorded.final[METRICS]


@pytest.mark.parametrize("nth", [1, 7])
def test_a_kill_after_a_trial_s_terminal_write_resumes_with_its_job_released(recorded, tmp_path, nth):
    """The terminal write is past the journal's last commit, which still
    holds the job. The resume opens the store at that commit, where the
    trial is not terminal, so the resumed tick writes it again and releases
    the job with the uninterrupted run's commit."""
    seen, killed = 0, []

    def watcher(resource):
        nonlocal seen
        if resource is not None and resource.kind == KIND_TRIAL and resource.status.phase in TERMINAL_TRIAL:
            seen += 1
            if seen == nth:
                killed.append(resource)
                raise SimulatedCrash(f"kill at terminal write {nth}")

    tick = _run(tmp_path, watcher=watcher)
    [trial] = killed
    job = f"{trial.namespace}/{trial.name}"
    assert job in _world(_commits(tmp_path)[-1])["jobs"]
    store = FileResourceStore(tmp_path, commit=True)
    assert store.get(trial.key).status.phase not in TERMINAL_TRIAL
    store.close()

    resumed = {}

    def keep(_backend):
        resumed.update((_world(commit)["tick"], commit) for commit in _commits(tmp_path))

    assert _run(tmp_path, before_compact=keep) is None
    assert job not in _world(resumed[tick])["jobs"]
    assert resumed[tick] == recorded.lines[tick]
    assert _outputs(tmp_path) == recorded.final


def test_a_kill_in_the_bootstrap_step_resumes_with_the_uninterrupted_job_attempts(recorded, tmp_path):
    """The tick-0 commit precedes the bootstrap step, so a kill after its
    first submit resumes with the store opened before it: the resumed run
    submits each trial's job once, as the uninterrupted run did."""

    def watcher(resource):
        if resource is not None and resource.kind == KIND_TRIAL and resource.status.job_attempt == 1:
            raise SimulatedCrash("kill at the first submit")

    assert _run(tmp_path, watcher=watcher) == 0
    assert _commits(tmp_path) == [recorded.lines[0]]
    assert _run(tmp_path) is None

    def attempts(journal: bytes) -> dict[str, int]:
        docs = map(json.loads, journal.splitlines())
        return {d["name"]: d["status"]["jobAttempt"] for d in docs if d.get("kind") == KIND_TRIAL}

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
    """A run stopped at a tick compacts the journal to one record per
    resource and exactly one commit, its last, after them. Resumed, killed
    mid-tick and resumed again, it ends with the uninterrupted run's
    outputs; no resume, nor a re-run of the finished store, appends a
    commit that repeats the last."""
    assert _run(tmp_path, max_ticks=7) is None
    lines = (tmp_path / JOURNAL).read_text().splitlines()
    assert _commits(tmp_path) == [recorded.lines[7]] and _committed(lines[-1]) == recorded.lines[7]
    seen = 0

    def watcher(_resource):
        nonlocal seen
        seen += 1
        if seen == 6:
            raise SimulatedCrash("kill at the resumed run's sixth write")

    assert _run(tmp_path, watcher=watcher) >= 8  # past the stop, in a tick of the resumed run
    kept = []
    assert _run(tmp_path, before_compact=lambda _backend: kept.append(_commits(tmp_path))) is None
    assert _outputs(tmp_path) == recorded.final
    assert _run(tmp_path, before_compact=lambda _backend: kept.append(_commits(tmp_path))) is None
    assert _outputs(tmp_path) == recorded.final
    ticks = [_world(commit)["tick"] for commit in kept[0]]
    assert ticks == sorted(set(ticks)) and ticks[-1] == max(recorded.lines)
    assert kept[1] == [recorded.lines[max(recorded.lines)]]


@pytest.mark.parametrize("when", ["before", "after"])
def test_a_kill_inside_the_journal_s_compaction_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, monkeypatch, when
):
    """Killed before the compaction's replace, the journal is as the run
    left it; after, it is compacted, its last commit last. Either resumes
    at the stop's commit and ends with the uninterrupted run's outputs."""
    replace = Journal.replace

    def killed(journal, lines):
        if when == "after":
            replace(journal, lines)
        raise SimulatedCrash(f"kill {when} the compaction's replace")

    monkeypatch.setattr(Journal, "replace", killed)
    assert _run(tmp_path, max_ticks=7) == 7
    monkeypatch.undo()
    commits = _commits(tmp_path)
    assert commits[-1] == recorded.lines[7]
    assert len(commits) == (1 if when == "after" else 8)
    assert not (tmp_path / (JOURNAL + ".tmp")).exists()
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


def test_a_resume_whose_store_holds_no_trial_of_a_job_names_the_journal_and_the_job(recorded, tmp_path):
    """A journal whose experiments' records were cut out holds the trials
    of the world's jobs, but not their experiments, to rebuild them from."""
    i = next(i for i, commit in enumerate(recorded.commits) if _world(commit)["jobs"])
    lines = recorded.journal.splitlines(keepends=True)[: recorded.at[i] + 1]
    _lay_out(tmp_path, recorded, b"".join(line for line in lines if b'"kind":"experiment"' not in line))
    before = {path: path.read_bytes() for path in (tmp_path / EVENTS, tmp_path / JOURNAL)}
    store = FileResourceStore(tmp_path, commit=True)
    with pytest.raises(TunectlError) as raised:
        SimBackend.resume(store, InMemoryObservationStore())
    job = next(iter(_world(recorded.commits[i])["jobs"]))
    assert f"{tmp_path / JOURNAL} holds no trial, or not its experiment, of the job {job}" in str(raised.value)
    assert {path: path.read_bytes() for path in before} == before


def test_an_experiment_submitted_into_a_killed_store_survives_the_resume_and_runs(recorded, tmp_path):
    """A ``submit`` appends past the killed run's last commit. The resume
    drops that tick's writes but keeps the experiment create, which only a
    submit writes, and the resumed run drives it to its end."""
    _kill(tmp_path, "mutation", 60, None, recorded.mutations)
    store = FileResourceStore(tmp_path)
    [late] = _experiments()[:1]
    late = dataclasses.replace(late, name="exp-c")
    submit_experiment(store, late)
    store.close()
    assert _run(tmp_path) is None
    store = FileResourceStore(tmp_path, readonly=True)
    result = store.get("experiment/team/exp-c").status
    assert result.phase.value == "Succeeded" and result.total_spawned == late.max_trial_count
