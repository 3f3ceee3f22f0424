"""Resource store: CAS semantics and file persistence."""

from __future__ import annotations

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_experiment
from tunectl.controller.model import (
    ExperimentPhase,
    ExperimentStatus,
    KIND_EXPERIMENT,
    KIND_SUGGESTION,
    OptimalResult,
    ProducedSuggestion,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    KIND_TRIAL,
    resource_to_doc,
)
from tunectl.controller import store as store_module
from tunectl.controller.store import FileResourceStore, ResourceStore
from tunectl.errors import CasConflictError, ResourceExistsError
from tunectl.resources import (
    AlgorithmSpec,
    ParameterSpec,
    ParameterType,
    Range,
    TemplateKind,
    TrialTemplate,
    ValueList,
    render_trial_spec,
)


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
    first.status.phase = ExperimentPhase.RUNNING
    updated = store.update(first)
    assert updated.generation == 2
    second.status.phase = ExperimentPhase.FAILED
    with pytest.raises(CasConflictError):
        store.update(second)  # stale generation


def test_get_returns_isolated_copies():
    store = ResourceStore()
    store.create(_experiment_resource())
    a = store.get("experiment/ns/exp")
    a.status.phase = ExperimentPhase.FAILED
    b = store.get("experiment/ns/exp")
    assert b.status.phase is ExperimentPhase.CREATED


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
    got.status.phase = TrialPhase.SUCCEEDED
    got.status.observation = 0.0625
    store.update(got)

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
    res.status.phase = ExperimentPhase.RUNNING
    store.update(res)

    reloaded = FileResourceStore(tmp_path)
    res2 = reloaded.get("experiment/ns/exp")
    assert res2.generation == 2
    res2.status.phase = ExperimentPhase.SUCCEEDED
    assert reloaded.update(res2).generation == 3


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
    concluded = [
        (t.name, t.status.phase, t.spec.assignments, t.status.observation)
        for t in trials
        if t.status.phase in (TrialPhase.SUCCEEDED, TrialPhase.FAILED)
    ]
    counts = (
        phases.count(TrialPhase.CREATED) + phases.count(TrialPhase.PENDING),
        phases.count(TrialPhase.RUNNING),
        phases.count(TrialPhase.SUCCEEDED),
        phases.count(TrialPhase.FAILED),
        len(trials),
    )
    return counts, best, concluded


def _index_of(store, namespace, experiment):
    summary = store.trial_summary(namespace, experiment)
    best = {
        maximize: None if r is None else (r.name, r.observation, r.assignments)
        for maximize, r in ((False, summary.lowest), (True, summary.highest))
    }
    concluded = [
        (r.name, r.phase, r.assignments, r.observation)
        for r in store.concluded_trials(namespace, experiment)
    ]
    counts = (summary.pending, summary.running, summary.succeeded, summary.failed, summary.spawned)
    return counts, best, concluded


def _expected_live(store, kind):
    out = []
    for res in store.list(kind):
        if kind == KIND_TRIAL:
            live = res.status.phase not in (TrialPhase.SUCCEEDED, TrialPhase.FAILED)
        else:
            experiment = store.get(f"{KIND_EXPERIMENT}/{res.namespace}/{res.name}")
            live = experiment is None or experiment.status.phase not in (
                ExperimentPhase.SUCCEEDED,
                ExperimentPhase.FAILED,
            )
        if live:
            out.append(res.key)
    return out


def _assert_indexes(store):
    for kind in (KIND_EXPERIMENT, KIND_SUGGESTION, KIND_TRIAL):
        assert store.live_keys(kind) == _expected_live(store, kind)
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
                spec=SuggestionSpec(experiment=name, algorithm=AlgorithmSpec("random", {}), requested=0),
                status=SuggestionStatus(),
            )
        )
    for write in writes:
        if len(write) == 2:
            experiment = store.get(f"{KIND_EXPERIMENT}/ns/{write[0]}")
            experiment.status.phase = write[1]
            store.update(experiment)
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
            trial.status.phase = phase
            trial.status.observation = observation
            store.update(trial)
        _assert_indexes(store)
    _assert_indexes(FileResourceStore(path))  # loading rebuilds the same indexes


def _resources_of_every_shape():
    """An experiment, a suggestion with consumed and open entries, and a
    trial in each phase, with values YAML must quote or escape."""
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
    produced = [
        ProducedSuggestion(assignments=(("x", 0.1 * i), ("opt", ("yes", "null", "1.0", "é")[i % 4])), consumed=i < 3)
        for i in range(6)
    ]
    suggestion = Resource(
        kind=KIND_SUGGESTION,
        namespace="ns",
        name="exp",
        spec=SuggestionSpec(experiment="exp", algorithm=AlgorithmSpec("random", {"random_state": 7}), requested=6),
        status=SuggestionStatus(produced=produced),
    )
    trials = []
    for i, phase in enumerate(TrialPhase):
        name = f"exp-{i:04d}"
        assignments = produced[i].assignments
        trials.append(
            Resource(
                kind=KIND_TRIAL,
                namespace="ns",
                name=name,
                spec=TrialSpec(
                    experiment="exp",
                    assignments=assignments,
                    run_spec=render_trial_spec(local.trial_template, assignments, name, "ns") if i % 2 else None,
                ),
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


def test_store_files_are_the_pure_python_dump_of_each_resource(tmp_path):
    store = FileResourceStore(tmp_path)
    for resource in _resources_of_every_shape():
        store.create(resource)
    paths = sorted(tmp_path.glob("*s/*.yaml"))
    assert len(paths) == 2 + len(TrialPhase)
    for path in paths:
        kind_dir, stem = path.parent.name, path.stem
        namespace, name = stem.split(".", 1)
        stored = store.get(f"{kind_dir[:-1]}/{namespace}/{name}")
        expected = yaml.safe_dump(resource_to_doc(stored), sort_keys=False, width=2**20)
        assert path.read_text() == expected, path


def test_a_store_written_by_the_pure_python_dumper_loads_to_equal_resources(tmp_path, monkeypatch):
    resources = _resources_of_every_shape()
    with monkeypatch.context() as patched:
        patched.setattr(store_module, "_Dumper", yaml.SafeDumper)
        written = FileResourceStore(tmp_path)
        for resource in resources:
            written.create(resource)
    loaded = FileResourceStore(tmp_path)
    assert loaded.list() == written.list()
    assert {r.key: r.spec for r in loaded.list()} == {r.key: r.spec for r in resources}
    with monkeypatch.context() as patched:
        patched.setattr(store_module, "_Loader", yaml.SafeLoader)
        assert FileResourceStore(tmp_path).list() == loaded.list()
