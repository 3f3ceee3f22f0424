"""Resource store: CAS semantics and journal persistence."""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from dataclasses import FrozenInstanceError, fields, replace

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_experiment
from tunectl.cli import cli
from tunectl.controller.model import (
    ExperimentPhase,
    ExperimentStatus,
    KIND_EXPERIMENT,
    KIND_SUGGESTION,
    OptimalResult,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    KIND_TRIAL,
    resource_to_doc,
)
from tunectl.controller.store import FileResourceStore, ResourceStore
from tunectl.errors import CasConflictError, ResourceExistsError, TunectlError
from tunectl.resources import (
    ParameterSpec,
    ParameterType,
    Range,
    TemplateKind,
    TrialTemplate,
    ValueList,
)
from tunectl.suggest.registry import ObservationStatus, TrialObservation, assignment_key


def _experiment_resource(name="exp", namespace="ns"):
    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0))], name=name, namespace=namespace
    )
    return Resource(
        kind=KIND_EXPERIMENT, namespace=namespace, name=name, spec=spec, status=ExperimentStatus()
    )


def test_create_get_round_trip():
    store = ResourceStore()
    created = store.create(_experiment_resource())
    assert created.generation == 1
    got = store.get("experiment/ns/exp")
    assert got is not None and got.name == "exp"


def test_create_conflict():
    store = ResourceStore()
    store.create(_experiment_resource())
    with pytest.raises(ResourceExistsError):
        store.create(_experiment_resource())


def test_update_increments_generation_and_detects_staleness():
    store = ResourceStore()
    store.create(_experiment_resource())
    first = store.get("experiment/ns/exp")
    second = store.get("experiment/ns/exp")
    updated = store.update(replace(first, status=replace(first.status, phase=ExperimentPhase.RUNNING)))
    assert updated.generation == 2
    with pytest.raises(CasConflictError):  # stale generation
        store.update(replace(second, status=replace(second.status, phase=ExperimentPhase.FAILED)))


def test_watchers_see_each_accepted_write_once_it_is_stored():
    store = ResourceStore()
    seen = []
    store.watchers.append(lambda r: seen.append((r.key, r.generation, store.get(r.key) is r)))
    created = store.create(_experiment_resource())
    store.update(replace(created, status=replace(created.status, phase=ExperimentPhase.RUNNING)))
    with pytest.raises(CasConflictError):
        store.update(created)
    assert seen == [("experiment/ns/exp", 1, True), ("experiment/ns/exp", 2, True)]


def test_a_read_cannot_change_what_the_store_holds():
    store = ResourceStore()
    written = {resource.key: resource for resource in _resources_of_every_shape()}
    for resource in written.values():
        store.create(resource)
    for key, resource in written.items():
        read = store.get(key)
        field = fields(read.status)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(read.status, field, None)
        with pytest.raises(FrozenInstanceError):
            read.generation = 7
        stored = store.get(key)
        assert stored == resource and stored.generation == 1


def test_list_sorted_and_filtered():
    store = ResourceStore()
    store.create(_experiment_resource("b", "ns1"))
    store.create(_experiment_resource("a", "ns1"))
    store.create(_experiment_resource("a", "ns2"))
    keys = [r.key for r in store.list(KIND_EXPERIMENT)]
    assert keys == sorted(keys)
    assert [r.key for r in store.list(KIND_EXPERIMENT, "ns2")] == ["experiment/ns2/a"]


def test_file_store_round_trip(tmp_path):
    store = FileResourceStore(tmp_path)
    store.create(_experiment_resource())
    trial = Resource(
        kind=KIND_TRIAL,
        namespace="ns",
        name="exp-0000",
        spec=TrialSpec(experiment="exp", assignments=(("x", 0.25),)),
        status=TrialStatus(phase=TrialPhase.RUNNING, restart_count=1, job_attempt=2),
    )
    store.create(trial)
    got = store.get("trial/ns/exp-0000")
    store.update(replace(got, status=replace(got.status, phase=TrialPhase.SUCCEEDED, observation=0.0625)))
    store.close()

    reloaded = FileResourceStore(tmp_path)
    exp = reloaded.get("experiment/ns/exp")
    assert exp is not None and exp.spec == _experiment_resource().spec
    trial2 = reloaded.get("trial/ns/exp-0000")
    assert trial2.status.phase is TrialPhase.SUCCEEDED
    assert trial2.status.observation == 0.0625
    assert trial2.status.restart_count == 1
    assert trial2.spec.assignments == (("x", 0.25),)
    assert trial2.generation == 2


def test_file_store_preserves_generations_across_reload(tmp_path):
    store = FileResourceStore(tmp_path)
    store.create(_experiment_resource())
    res = store.get("experiment/ns/exp")
    store.update(replace(res, status=replace(res.status, phase=ExperimentPhase.RUNNING)))
    store.close()

    reloaded = FileResourceStore(tmp_path)
    res2 = reloaded.get("experiment/ns/exp")
    assert res2.generation == 2
    succeeded = replace(res2, status=replace(res2.status, phase=ExperimentPhase.SUCCEEDED))
    assert reloaded.update(succeeded).generation == 3
    reloaded.close()


# What an algorithm reads from the trial index, copied so it can be compared.
TrialHistory = namedtuple("TrialHistory", "produced observations keys")


def _history(store, namespace, experiment) -> TrialHistory:
    index = store.trials(namespace, experiment)
    return TrialHistory(tuple(index.produced), tuple(index.observations), frozenset(index.keys))


def _expected_index(store, namespace, experiment):
    """The trial index, recomputed the slow way from listed trials."""
    trials = [t for t in store.list(KIND_TRIAL, namespace) if t.spec.experiment == experiment]
    phases = [t.status.phase for t in trials]
    best = {}
    for maximize in (False, True):
        found = None
        for t in trials:  # key order is name order; only a strict improvement replaces
            value = t.status.observation
            if t.status.phase is not TrialPhase.SUCCEEDED or value is None:
                continue
            if found is None or (value > found[1] if maximize else value < found[1]):
                found = (t.name, value, t.spec.assignments)
        best[maximize] = found
    by_index = {int(t.name.rpartition("-")[2]): t.spec.assignments for t in trials}
    observations = []
    for t in trials:  # key order is name order
        if t.status.phase is TrialPhase.FAILED:
            observations.append(TrialObservation(t.spec.assignments, ObservationStatus.FAILED))
        elif t.status.phase is TrialPhase.SUCCEEDED and t.status.observation is not None:
            observations.append(
                TrialObservation(t.spec.assignments, ObservationStatus.SUCCEEDED, t.status.observation)
            )
    history = TrialHistory(
        produced=tuple(by_index.get(i) for i in range(max(by_index, default=-1) + 1)),
        observations=tuple(observations),
        keys=frozenset(assignment_key(t.spec.assignments) for t in trials),
    )
    counts = (
        phases.count(TrialPhase.CREATED) + phases.count(TrialPhase.PENDING),
        phases.count(TrialPhase.RUNNING),
        phases.count(TrialPhase.SUCCEEDED),
        phases.count(TrialPhase.FAILED),
        len(trials),
    )
    return counts, best, history


def _index_of(store, namespace, experiment):
    index = store.trials(namespace, experiment)
    best = {
        maximize: None if r is None else (r.name, r.status.observation, r.spec.assignments)
        for maximize, r in index.best.items()
    }
    phases = index.counts
    counts = (
        phases[TrialPhase.CREATED] + phases[TrialPhase.PENDING],
        phases[TrialPhase.RUNNING],
        phases[TrialPhase.SUCCEEDED],
        phases[TrialPhase.FAILED],
        len(index.trials),
    )
    return counts, best, _history(store, namespace, experiment)


def _assert_indexes(store):
    for kind in (KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL):
        assert store.keys(kind) == [r.key for r in store.list(kind)]
    for name in ("exp", "other"):
        assert _index_of(store, "ns", name) == _expected_index(store, "ns", name)


_TRIAL_WRITES = st.tuples(
    st.sampled_from(["exp", "other"]),
    st.integers(0, 3),
    st.sampled_from(list(TrialPhase)),
    st.sampled_from([None, 0.5, 1.0, 1.0, 2.0]),
)
_EXPERIMENT_WRITES = st.tuples(st.sampled_from(["exp", "other"]), st.sampled_from(list(ExperimentPhase)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_TRIAL_WRITES, _EXPERIMENT_WRITES), max_size=40))
# The best trial stops succeeding; equal observations go to the lower name.
@example([("exp", 1, TrialPhase.SUCCEEDED, 0.5), ("exp", 1, TrialPhase.FAILED, None)])
@example([("exp", 2, TrialPhase.SUCCEEDED, 1.0), ("exp", 1, TrialPhase.SUCCEEDED, 1.0)])
def test_indexes_match_a_recomputation_after_every_write(tmp_path_factory, writes):
    path = tmp_path_factory.mktemp("store")
    store = FileResourceStore(path)
    for name in ("exp", "other"):
        store.create(_experiment_resource(name))
        store.create(
            Resource(
                kind=KIND_SUGGESTION,
                namespace="ns",
                name=name,
                spec=SuggestionSpec(requested=0),
                status=SuggestionStatus(),
            )
        )
    for write in writes:
        if len(write) == 2:
            experiment = store.get(f"{KIND_EXPERIMENT}/ns/{write[0]}")
            store.update(replace(experiment, status=replace(experiment.status, phase=write[1])))
        else:
            experiment, index, phase, observation = write
            name = f"{experiment}-{index}"
            trial = store.get(f"{KIND_TRIAL}/ns/{name}") or store.create(
                Resource(
                    kind=KIND_TRIAL,
                    namespace="ns",
                    name=name,
                    spec=TrialSpec(experiment=experiment, assignments=(("x", index / 10),)),
                    status=TrialStatus(),
                )
            )
            store.update(replace(trial, status=replace(trial.status, phase=phase, observation=observation)))
        _assert_indexes(store)
    store.close()
    _assert_indexes(FileResourceStore(path))  # loading rebuilds the same indexes


def _resources_of_every_shape():
    """An experiment, a suggestion whose pending sets include spawned and
    unspawned ones, and a trial in each phase, with values YAML must quote
    or escape."""
    local = make_experiment(
        [
            ParameterSpec("x", ParameterType.DOUBLE, Range(-1.5, 1e-300)),
            ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("yes", "null", "1.0", "é"))),
        ],
        name="exp",
        namespace="ns",
        settings={"random_state": 7},
        template=TrialTemplate(
            kind=TemplateKind.LOCAL_PROCESS,
            payload="train --x=${x} --opt='${opt}' " + "--pad " * 40,
            cpu_per_worker=2.0,
        ),
    )
    experiment = Resource(
        kind=KIND_EXPERIMENT,
        namespace="ns",
        name="exp",
        spec=local,
        status=ExperimentStatus(
            phase=ExperimentPhase.RUNNING,
            trials_succeeded=1,
            current_optimal=OptimalResult(assignments=(("x", 0.25), ("opt", "yes")), objective_value=-0.5),
        ),
    )
    produced = [(("x", 0.1 * i), ("opt", ("yes", "null", "1.0", "é")[i % 4])) for i in range(6)]
    suggestion = Resource(
        kind=KIND_SUGGESTION,
        namespace="ns",
        name="exp",
        spec=SuggestionSpec(requested=6),
        status=SuggestionStatus(produced=6, pending=tuple(produced[3:])),
    )
    trials = []
    for i, phase in enumerate(TrialPhase):
        name = f"exp-{i:04d}"
        assignments = produced[i]
        trials.append(
            Resource(
                kind=KIND_TRIAL,
                namespace="ns",
                name=name,
                spec=TrialSpec(experiment="exp", assignments=assignments),
                status=TrialStatus(
                    phase=phase,
                    restart_count=i,
                    observation=-0.5 if phase is TrialPhase.SUCCEEDED else None,
                    reason="exit 1:\n  Traceback: 'boom' ünïcode" if phase is TrialPhase.FAILED else None,
                    job_attempt=i,
                ),
            )
        )
    return [experiment, suggestion, *trials]


def test_dump_prints_the_pure_python_dump_of_each_resource(tmp_path):
    resources = _resources_of_every_shape()
    store = FileResourceStore(tmp_path)
    for resource in reversed(resources):
        store.create(resource)
    store.close()
    result = CliRunner().invoke(cli, ["dump", "--store", str(tmp_path)])
    assert result.exit_code == 0, result.output
    stored = sorted(store.list(), key=lambda r: r.key)
    assert len(stored) == 2 + len(TrialPhase)
    expected = [yaml.safe_dump(resource_to_doc(r), sort_keys=False, width=2**20) for r in stored]
    assert result.output == "---\n".join(expected)
    assert list(yaml.safe_load_all(result.output)) == [resource_to_doc(r) for r in stored]


def _journal_lines(path):
    """The journal's record lines, without its commits."""
    lines = (path / FileResourceStore.JOURNAL).read_bytes().splitlines()
    return [line for line in lines if not line.startswith(b'{"commit":')]


def test_compacting_a_store_in_memory_changes_nothing(tmp_path, monkeypatch):
    # A store without a root keeps no journal, so there is nothing to rewrite.
    monkeypatch.chdir(tmp_path)
    store = ResourceStore(commit=True)
    for resource in _resources_of_every_shape():
        store.create(resource)
    written = store.list()
    store.compact()
    store.close()
    assert store.list() == written and list(tmp_path.iterdir()) == []


def test_journal_round_trip_through_compaction(tmp_path):
    store = FileResourceStore(tmp_path)
    for resource in _resources_of_every_shape():
        store.create(resource)
    for key in store.keys(KIND_TRIAL)[:3]:
        trial = store.get(key)
        restarted = replace(trial, status=replace(trial.status, restart_count=trial.status.restart_count + 1))
        store.update(store.update(restarted))
    written = store.list()
    assert len(_journal_lines(tmp_path)) == len(written) + 6

    store.compact()
    records = [json.loads(line) for line in _journal_lines(tmp_path)]
    assert [f"{d['kind']}/{d['namespace']}/{d['name']}" for d in records] == [r.key for r in written]
    assert [d["generation"] for d in records] == [r.generation for r in written]
    loaded = FileResourceStore(tmp_path)
    assert loaded.list() == written
    for kind in (KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL):
        assert loaded.keys(kind) == store.keys(kind)
    assert _index_of(loaded, "ns", "exp") == _index_of(store, "ns", "exp")
    assert loaded.trials("ns", "exp").best == store.trials("ns", "exp").best

    # The compacted store takes writes again, on a journal of its own.
    trial = store.get(store.keys(KIND_TRIAL)[0])
    store.update(replace(trial, status=replace(trial.status, reason="after compaction")))
    assert len(_journal_lines(tmp_path)) == len(written) + 1
    assert FileResourceStore(tmp_path).list() == store.list()
    store.close()


def _write_sequence(store):
    """Create and update resources; yield the store's contents after each write."""
    for resource in _resources_of_every_shape():
        store.create(resource)
        yield store.list()
    for key in store.keys(KIND_TRIAL):
        trial = store.get(key)
        store.update(replace(trial, status=replace(trial.status, job_attempt=trial.status.job_attempt + 1)))
        yield store.list()


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(0.0, 1.0))
def test_reopening_a_journal_cut_at_any_byte_loads_exactly_its_complete_records(tmp_path_factory, cut):
    # A kill mid-append leaves the journal cut at some byte.
    path = tmp_path_factory.mktemp("torn")
    store = FileResourceStore(path)
    journal = path / FileResourceStore.JOURNAL
    states = [[]]
    ends = [0]
    for contents in _write_sequence(store):
        states.append(contents)
        ends.append(journal.stat().st_size)
    store.close()
    data = journal.read_bytes()
    kept = data[: int(cut * len(data))]
    journal.write_bytes(kept)
    expected = states[max(i for i, end in enumerate(ends) if end <= len(kept))]

    # A reader skips the torn tail, cuts nothing and takes no writes.
    reader = FileResourceStore(path, readonly=True)
    assert reader.list() == expected
    with pytest.raises(TunectlError):
        reader.create(_experiment_resource(name="late"))
    assert reader.list() == expected
    assert journal.read_bytes() == kept

    # A writer cuts it, so its next record starts on a line of its own.
    reopened = FileResourceStore(path)
    assert reopened.list() == expected
    late = _experiment_resource(name="late")
    reopened.create(late)
    reopened.close()
    assert {r.key: r for r in FileResourceStore(path).list()} == {
        r.key: r for r in [*expected, reopened.get(late.key)]
    }


def _largest_suggestion_record(store_dir, trials: int) -> int:
    """Run a random experiment shaped like the benchmark's file-backed CLI
    run (parallel 10) to the end and return the byte length of the largest
    suggestion record its journal holds before compaction, less the digits
    of its generation, requested and produced counters. Every other value
    has a fixed width, so the length changes only with the number of sets a
    record holds."""
    from tunectl.cluster.sim import SimBackend, SimWorld
    from tunectl.controller.reconcile import run_control_loop, submit_experiment
    from tunectl.metrics import InMemoryObservationStore

    spec = make_experiment(
        [
            ParameterSpec("batch", ParameterType.INT, Range(100, 999)),
            ParameterSpec("layers", ParameterType.INT, Range(10, 99)),
            ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(("sgd", "ada", "ftr"))),
        ],
        settings={"random_state": 1},
        parallel=10,
        max_trials=trials,
    )
    store = FileResourceStore(store_dir)
    submit_experiment(store, spec)
    world = SimWorld(seed=1)
    world.add_node(16.0)
    world.add_namespace("ns")
    metrics = InMemoryObservationStore()
    snapshot = run_control_loop(store, metrics, SimBackend(world, metrics), max_ticks=10 * trials)
    assert snapshot["experiments"]["experiment/ns/exp"]["totalSpawned"] == trials
    store.close()
    sizes = []
    for line in (store_dir / FileResourceStore.JOURNAL).read_bytes().splitlines():
        doc = json.loads(line)
        if doc["kind"] == KIND_SUGGESTION:
            counters = [doc["generation"], doc["status"]["produced"]]
            if "spec" in doc:  # only a requested bump writes the spec
                counters.append(doc["spec"]["requested"])
            sizes.append(len(line) - sum(len(str(counter)) for counter in counters))
    return max(sizes)


def test_suggestion_journal_records_do_not_grow_with_the_trial_count(tmp_path):
    # The suggestion keeps only the sets whose trials may not exist yet, so
    # its record, written on every fill, stays the same size however many
    # trials the experiment has spawned.
    at_100 = _largest_suggestion_record(tmp_path / "100", 100)
    at_400 = _largest_suggestion_record(tmp_path / "400", 400)
    assert at_400 <= at_100


def test_trial_history_reads_budgets_and_follows_a_rewritten_trial():
    store = ResourceStore()
    sets = [(("x", 0.1 * i), ("budget", i + 1)) for i in range(3)]

    def write(index, assignments, phase, observation=None):
        name = f"exp-{index:04d}"
        trial = store.get(f"trial/ns/{name}") or store.create(
            Resource(
                kind=KIND_TRIAL,
                namespace="ns",
                name=name,
                spec=TrialSpec(experiment="exp", assignments=assignments),
                status=TrialStatus(),
            )
        )
        store.update(
            replace(
                trial,
                spec=replace(trial.spec, assignments=assignments),
                status=replace(trial.status, phase=phase, observation=observation),
            )
        )

    write(1, sets[1], TrialPhase.FAILED)  # out of index order
    write(0, sets[0], TrialPhase.SUCCEEDED, 0.5)
    assert _history(store, "ns", "exp") == TrialHistory(
        produced=(sets[0], sets[1]),
        observations=(
            TrialObservation(sets[0], ObservationStatus.SUCCEEDED, 0.5, 1.0),
            TrialObservation(sets[1], ObservationStatus.FAILED, resource_consumed=2.0),
        ),
        keys=frozenset({assignment_key(sets[0]), assignment_key(sets[1])}),
    )

    write(1, sets[0], TrialPhase.FAILED)  # now a duplicate of trial 0
    assert _history(store, "ns", "exp").keys == {assignment_key(sets[0])}
    write(1, sets[2], TrialPhase.RUNNING)
    history = _history(store, "ns", "exp")
    assert history.produced == (sets[0], sets[2])
    assert history.observations == (TrialObservation(sets[0], ObservationStatus.SUCCEEDED, 0.5, 1.0),)
    assert history.keys == {assignment_key(sets[0]), assignment_key(sets[2])}


def _sim_experiment_run(root, commits=None, writes=None):
    """Run a random experiment of 3-tick simulated trials on a file store
    under ``root / "store"`` to the end; with ``commits``, record the
    store's resources and trial index at each commit, by the journal's
    lines before it, and with ``writes``, append each resource the store
    writes."""
    from tunectl.cluster.sim import SimBackend, SimWorld
    from tunectl.controller.reconcile import run_control_loop, submit_experiment
    from tunectl.resources import SimObjectiveDescriptor

    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(-1.0, 1.0))],
        settings={"random_state": 3},
        parallel=3,
        max_trials=7,
        template=TrialTemplate(
            kind=TemplateKind.SIMULATED, payload=SimObjectiveDescriptor("sphere", duration_ticks=3)
        ),
    )
    class Recording(SimBackend):
        def persist(self):
            if commits is not None:
                lines = len((root / "store" / FileResourceStore.JOURNAL).read_bytes().splitlines())
                commits[lines] = (run.store.list(), _index_of(run.store, "ns", "exp"))
            return super().persist()

    def build(store, metrics):
        if writes is not None:
            store.watchers.append(writes.append)
        submit_experiment(store, spec)
        world = SimWorld(seed=4)
        world.add_node(8.0)
        world.add_namespace("ns")
        return Recording(world, metrics)

    run = SimBackend.open_run(root / "store", build)
    run_control_loop(*run, max_ticks=200)
    run.close()
    return run.store


def test_a_trial_record_holds_its_spec_only_where_the_spec_changes(tmp_path):
    # A trial's create holds its spec, its experiment and assignments; every
    # later record, its submit's too, holds only its status.
    _sim_experiment_run(tmp_path)
    records = [json.loads(line) for line in _journal_lines(tmp_path / "store")]
    by_trial = {}
    for doc in records:
        if doc["kind"] == KIND_TRIAL:
            by_trial.setdefault(doc["name"], []).append(doc)
    assert len(by_trial) == 7
    for name, docs in by_trial.items():
        assert len(docs) > 2, name
        assert ["spec" in doc for doc in docs] == [True] + [False] * (len(docs) - 1), name
        assert list(docs[0]["spec"]) == ["experiment", "assignments"]
        assert list(docs[1]) == ["kind", "name", "namespace", "status", "generation"]
    # No write after submit changes an experiment's spec; a suggestion's
    # changes only with a bump of ``requested``.
    experiments = [doc for doc in records if doc["kind"] == KIND_EXPERIMENT]
    assert ["spec" in doc for doc in experiments] == [True] + [False] * (len(experiments) - 1)
    requested = [doc["spec"]["requested"] for doc in records if doc["kind"] == KIND_SUGGESTION and "spec" in doc]
    assert len(requested) > 1 and all(a != b for a, b in zip(requested, requested[1:]))


def test_a_record_of_any_kind_holds_its_spec_exactly_where_the_spec_changes(tmp_path):
    # A key's first record holds its spec, and a later one holds it only
    # when its write changed the spec: the experiment's and suggestion's
    # status updates are status-only, as a trial's are.
    writes = []
    _sim_experiment_run(tmp_path, writes=writes)
    records = [json.loads(line) for line in _journal_lines(tmp_path / "store")]
    assert len(records) == len(writes)
    last, status_only = {}, Counter()
    for doc, resource in zip(records, writes):
        assert (doc["kind"], doc["name"], doc["generation"]) == (resource.kind, resource.name, resource.generation)
        previous = last.get(resource.key)
        assert ("spec" in doc) == (previous is None or resource.spec != previous.spec), doc
        status_only[resource.kind] += "spec" not in doc
        last[resource.key] = resource
    assert status_only[KIND_EXPERIMENT] and status_only[KIND_SUGGESTION] and status_only[KIND_TRIAL]


def test_a_journal_of_status_only_records_reloads_plain_at_every_commit_and_compacted(tmp_path):
    commits = {}
    store = _sim_experiment_run(tmp_path / "run", commits)
    written = (store.list(), _index_of(store, "ns", "exp"))
    journal = (tmp_path / "run" / "store" / FileResourceStore.JOURNAL).read_bytes().splitlines(keepends=True)
    assert any(b'"spec"' not in line for line in journal)

    def opened(at, lines=len(journal), commit=False):
        copy = tmp_path / at
        copy.mkdir()
        (copy / FileResourceStore.JOURNAL).write_bytes(b"".join(journal[:lines]))
        loaded = FileResourceStore(copy, commit=commit)
        return loaded, (loaded.list(), _index_of(loaded, "ns", "exp"))

    plain, reloaded = opened("plain")
    assert reloaded == written
    assert [r.generation for r in reloaded[0]] == [r.generation for r in written[0]]
    assert len(commits) > 5
    # Cut anywhere past a commit, the journal opens at its last commit.
    for lines, expected in commits.items():
        for cut in {lines + 1, *[n for n in commits if n > lines][:1]}:
            assert opened(f"at-{lines}-{cut}", cut, commit=True)[1] == expected, (lines, cut)

    # Compaction writes whole records, and they load to the same store.
    plain.compact()
    assert all("spec" in json.loads(line) for line in _journal_lines(tmp_path / "plain"))
    assert FileResourceStore(tmp_path / "plain").list() == written[0]
    assert _index_of(FileResourceStore(tmp_path / "plain"), "ns", "exp") == written[1]


def test_a_status_only_record_with_no_record_before_it_exits_4_naming_its_line(tmp_path):
    store = FileResourceStore(tmp_path)
    store.create(_experiment_resource())
    store.close()
    orphan = {"kind": KIND_TRIAL, "name": "exp-0000", "namespace": "ns", "status": {"phase": "Running"}, "generation": 2}
    with (tmp_path / FileResourceStore.JOURNAL).open("a") as fp:
        fp.write(json.dumps(orphan) + "\n")
    result = CliRunner().invoke(cli, ["dump", "--store", str(tmp_path)])
    assert result.exit_code == 4, result.output
    assert f"{FileResourceStore.JOURNAL}:2: " in result.output
    assert "status-only record of 'trial/ns/exp-0000'" in result.output


def test_a_broken_spec_under_a_status_only_record_names_the_spec_line(tmp_path):
    store = FileResourceStore(tmp_path)
    store.create(_experiment_resource())
    trial = store.create(
        Resource(KIND_TRIAL, "ns", "exp-0000", TrialSpec("exp", (("x", 0.25),)), TrialStatus())
    )
    store.update(replace(trial, status=replace(trial.status, phase=TrialPhase.RUNNING)))
    store.close()
    journal = tmp_path / FileResourceStore.JOURNAL
    lines = journal.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["spec"]["assignments"] = "x=0.25"
    lines[1] = json.dumps(doc)
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(TunectlError, match=r"journal\.jsonl:3 \(its spec is on line 2\): assignments: expected a list"):
        FileResourceStore(tmp_path)

    # An experiment's inherited spec must keep the rules that span its fields.
    experiment_dir = tmp_path / "experiment"
    store = FileResourceStore(experiment_dir)
    experiment = store.create(_experiment_resource())
    store.update(replace(experiment, status=replace(experiment.status, trials_running=1)))
    store.close()
    journal = experiment_dir / FileResourceStore.JOURNAL
    lines = journal.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["spec"]["parallelTrialCount"] = doc["spec"]["maxTrialCount"] + 1
    lines[0] = json.dumps(doc)
    journal.write_text("\n".join(lines) + "\n")
    assert "spec" not in json.loads(lines[1])
    result = CliRunner().invoke(cli, ["dump", "--store", str(experiment_dir)])
    assert result.exit_code == 4, result.output
    assert f"{FileResourceStore.JOURNAL}:2 (its spec is on line 1): " in result.output
    assert "parallelTrialCount" in result.output


def test_a_journal_that_lost_trials_opens_to_an_error_and_is_left_as_it_is(tmp_path):
    # The experiment counts two spawned trials, and the journal holds one:
    # the reconciler writes the count after its creates, and no trial is
    # ever deleted, so records were lost.
    store = FileResourceStore(tmp_path)
    experiment = store.create(_experiment_resource())
    store.create(Resource(KIND_TRIAL, "ns", "exp-0000", TrialSpec("exp", (("x", 0.25),)), TrialStatus()))
    store.update(replace(experiment, status=replace(experiment.status, total_spawned=2)))
    store.close()
    journal = tmp_path / FileResourceStore.JOURNAL
    with journal.open("ab") as fp:
        fp.write(b'{"kind":"trial","na')  # and a torn tail
    before = journal.read_bytes()
    for readonly, commit in ((False, False), (False, True), (True, False)):
        with pytest.raises(TunectlError) as raised:
            FileResourceStore(tmp_path, readonly=readonly, commit=commit)
        assert f"{journal} holds 1 trials of experiment/ns/exp, fewer than the 2 it spawned" in str(raised.value)
    assert journal.read_bytes() == before


def test_a_store_opened_read_only_at_a_commit_leaves_the_writes_past_it_in_the_journal(tmp_path):
    store = FileResourceStore(tmp_path)
    experiment = store.create(_experiment_resource())
    store.commit('{"tick":1}')
    store.update(replace(experiment, status=replace(experiment.status, trials_pending=1)))
    store.close()
    before = (tmp_path / FileResourceStore.JOURNAL).read_bytes()
    opened = FileResourceStore(tmp_path, readonly=True, commit=True)
    assert opened.get(experiment.key).generation == 1 and opened.committed == '{"tick":1}'
    assert FileResourceStore(tmp_path, readonly=True).get(experiment.key).generation == 2
    assert (tmp_path / FileResourceStore.JOURNAL).read_bytes() == before


def test_a_compacted_journal_ends_with_its_last_commit_and_opens_at_it(tmp_path):
    # The store keeps a commit as the text it was given, and compaction
    # writes the last one after the records, in the same replace.
    store = FileResourceStore(tmp_path)
    for name, commit in (("b", '{"tick":0}'), ("a", '["any", "json"]')):
        experiment = store.create(_experiment_resource(name))
        store.commit(commit)
        store.update(replace(experiment, status=replace(experiment.status, trials_pending=1)))
    store.commit(None)  # a backend that persists nothing commits nothing
    store.compact()
    store.close()
    lines = (tmp_path / FileResourceStore.JOURNAL).read_text().splitlines()
    assert [json.loads(line).get("name") for line in lines] == ["a", "b", None]
    assert lines[-1] == '{"commit":["any", "json"]}'
    for commit in (False, True):
        opened = FileResourceStore(tmp_path, commit=commit)
        assert opened.committed == '["any", "json"]'
        assert [r.status.trials_pending for r in opened.list(KIND_EXPERIMENT)] == [1, 1]
    # A store that never committed compacts to its records alone.
    plain = FileResourceStore(tmp_path / "plain")
    plain.create(_experiment_resource())
    plain.compact()
    assert FileResourceStore(tmp_path / "plain", commit=True).committed is None
    assert b"commit" not in (tmp_path / "plain" / FileResourceStore.JOURNAL).read_bytes()
