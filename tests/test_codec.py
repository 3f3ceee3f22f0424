"""The dataclass codec: documents of every persisted kind round-trip."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import pytest

from conftest import make_experiment
from tunectl.codec import DocumentError, Journal, compact_json, from_doc, json_default, sorted_json, to_doc
from tunectl.controller.backend import JobPhase
from tunectl.controller.model import (
    KIND_EXPERIMENT,
    KIND_SUGGESTION,
    KIND_TRIAL,
    ExperimentStatus,
    OptimalResult,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    resource_from_doc,
    resource_to_doc,
)
from tunectl.resources import (
    ParameterSpec,
    ParameterType,
    Range,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
)


class Color(str, Enum):
    RED = "red"


@dataclass
class Inner:
    some_value: float
    label: str | None = None


@dataclass
class Outer:
    color: Color
    pairs: tuple[tuple[str, Any], ...]
    payload: str | Inner
    items: list[Inner] = field(default_factory=list)
    by_name: dict[str, Inner] = field(default_factory=dict)
    extra: Any = None


def _outer() -> Outer:
    return Outer(
        color=Color.RED,
        pairs=(("lr", 0.5), ("opt", "sgd")),
        payload=Inner(1.0),
        items=[Inner(2.0, "b")],
        by_name={"k": Inner(3.0)},
        extra={"nested": [1, 2]},
    )


def test_to_doc_uses_camel_case_keys_in_field_order():
    doc = to_doc(_outer())
    assert list(doc) == ["color", "pairs", "payload", "items", "byName", "extra"]
    assert doc["color"] == "red"
    assert doc["pairs"] == [["lr", 0.5], ["opt", "sgd"]]
    assert doc["payload"] == {"someValue": 1.0, "label": None}


def test_from_doc_inverts_to_doc():
    value = _outer()
    assert from_doc(Outer, to_doc(value)) == value
    plain = Outer(color=Color.RED, pairs=(), payload="a command")
    assert from_doc(Outer, to_doc(plain)) == plain


def test_json_default_writes_what_to_doc_writes():
    value = _outer()
    assert json.dumps(value, default=json_default) == json.dumps(to_doc(value))


def test_from_doc_fills_defaults_and_coerces_ints_to_float():
    assert from_doc(Inner, {"someValue": 4}) == Inner(4.0)
    assert isinstance(from_doc(Inner, {"someValue": 4}).some_value, float)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"someValue": "lots"},
        {"someValue": True},
        {"someValue": 1.0, "label": 7},
        {"someValue": 1.0, "bogus": 1},
        [1.0],
    ],
)
def test_from_doc_rejects_documents_that_do_not_fit(doc):
    with pytest.raises((TypeError, ValueError)):
        from_doc(Inner, doc)


@dataclass
class Bounds:
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("require low <= high")


@dataclass
class Holder:
    bounds: tuple[Bounds, ...]
    label: str


def test_from_doc_reports_a_constructor_check_at_its_path_beside_other_errors():
    with pytest.raises(DocumentError) as exc:
        from_doc(Holder, {"bounds": [{"low": 1, "high": 2}, {"low": 2, "high": 1}], "label": 3})
    assert exc.value.errors == ["bounds[1]: require low <= high", "label: expected str, got 3"]
    assert exc.value.value is None


def test_resources_round_trip_through_their_documents():
    # The template's payload is a union: a simulated objective or a command.
    simulated = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(0.0, 1.0))],
        settings={"random_state": 3},
        template=TrialTemplate(
            kind=TemplateKind.SIMULATED,
            payload=SimObjectiveDescriptor("sphere", duration_ticks=3, noise_std_dev=0.1),
        ),
    )
    command = make_experiment(
        [ParameterSpec("x", ParameterType.INT, Range(0, 4))],
        name="cmd",
        template=TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload="run --x=${x}"),
    )
    resources = [
        Resource(KIND_EXPERIMENT, "ns", "exp", simulated, ExperimentStatus()),
        Resource(KIND_EXPERIMENT, "ns", "cmd", command, ExperimentStatus()),
        Resource(
            KIND_SUGGESTION,
            "ns",
            "exp",
            SuggestionSpec(4),
            SuggestionStatus(2, ((("x", 0.5), ("o", "sgd")),), exhausted=False),
        ),
        Resource(
            KIND_TRIAL,
            "ns",
            "exp-0001",
            TrialSpec("exp", (("x", 0.5),)),
            TrialStatus(TrialPhase.FAILED, restart_count=1, observation=None, reason="boom"),
        ),
        Resource(
            KIND_TRIAL,
            "ns",
            "cmd-0002",
            TrialSpec("cmd", (("x", 1),)),
            TrialStatus(TrialPhase.SUCCEEDED, observation=0.25),
        ),
    ]
    for resource in resources:
        doc = json.loads(json.dumps(resource_to_doc(resource)))
        assert resource_from_doc(doc, generation=resource.generation) == resource


def test_experiment_status_document_keeps_its_shape():
    status = ExperimentStatus(trials_succeeded=2, current_optimal=OptimalResult((("x", 0.5),), 1.25))
    assert to_doc(status) == {
        "phase": "Created",
        "trialsPending": 0,
        "trialsRunning": 0,
        "trialsSucceeded": 2,
        "trialsFailed": 0,
        "totalSpawned": 0,
        "currentOptimal": {"assignments": [["x", 0.5]], "objectiveValue": 1.25},
    }


def test_journal_reads_complete_lines_and_only_a_writer_cuts_the_torn_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": 2}\n{"c"')
    assert Journal(path).read() == [b'{"a": 1}', b'{"b": 2}']
    assert path.read_bytes().endswith(b'{"c"')
    writer = Journal(path)
    assert writer.read() == [b'{"a": 1}', b'{"b": 2}']
    writer.cut_tail()
    assert writer.append(['{"d": 4}\n']) == path.stat().st_size
    assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n{"d": 4}\n'
    writer.close()
    writer.read()  # finds no torn tail, so the next cut cuts nothing
    path.write_bytes(path.read_bytes() + b'{"e"')
    writer.cut_tail()
    assert path.read_bytes().endswith(b'{"d": 4}\n{"e"')
    missing = Journal(tmp_path / "missing.jsonl")
    assert missing.read() == []
    missing.cut_tail()
    assert not missing.path.exists()


def test_journal_replace_truncate_and_remove(tmp_path):
    journal = Journal(tmp_path / "log.jsonl")
    journal.append(["1\n", "2\n"])
    journal.replace(["3\n"])
    assert journal.path.read_bytes() == b"3\n"
    assert not journal.path.with_name("log.jsonl.tmp").exists()
    journal.append(["4\n"])  # the handle follows the replaced file
    journal.truncate(99)  # never lengthens the file
    assert journal.path.read_bytes() == b"3\n4\n"
    journal.truncate(2)
    assert journal.path.read_bytes() == b"3\n"
    journal.path.unlink()
    journal.truncate(0)  # truncating a removed journal creates nothing
    assert not journal.path.exists()


def test_journal_append_reopens_a_path_that_no_longer_names_its_file(tmp_path):
    journal = Journal(tmp_path / "log.jsonl")
    journal.append(["1\n"])
    journal.path.rename(tmp_path / "moved.jsonl")
    journal.append(["2\n"])
    assert journal.path.read_bytes() == b"2\n"
    assert (tmp_path / "moved.jsonl").read_bytes() == b"1\n"
    journal.close()


def _earlier_compact(doc):
    """The ``json.dumps`` call the compact encoder replaces."""
    return json.dumps(doc, default=json_default, separators=(",", ":"))


def _earlier_sorted(doc):
    return json.dumps(doc, sort_keys=True)


def _live_gang_world():
    """A simulated world three ticks into an experiment of 2-worker trials,
    with its jobs live, and the events it has recorded."""
    from tunectl.cluster.sim import SimBackend, SimWorld
    from tunectl.controller.reconcile import run_control_loop, submit_experiment
    from tunectl.controller.store import ResourceStore
    from tunectl.metrics import InMemoryObservationStore

    template = TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor("sphere", duration_ticks=6, noise_std_dev=0.1),
        worker_count=2,
        cpu_per_worker=1.0,
    )
    spec = make_experiment(
        [ParameterSpec("x", ParameterType.DOUBLE, Range(-1.0, 1.0, 0.25))], goal=0.01, parallel=3, template=template
    )
    store, metrics = ResourceStore(), InMemoryObservationStore()
    submit_experiment(store, spec)
    world = SimWorld(seed=9)
    world.add_node(4.0)
    world.add_namespace("ns", 5.0)
    run_control_loop(store, metrics, SimBackend(world, metrics), max_ticks=3)
    return world, store


def test_the_shared_encoders_write_what_json_dumps_wrote():
    from test_store import _resources_of_every_shape

    world, store = _live_gang_world()
    assert any(len(job.units) == 2 and job.phase is JobPhase.RUNNING for job in world.jobs.values())
    assert store.list()[0].spec.objective.goal == 0.01  # an omit_none field that is set
    compact = [
        *_resources_of_every_shape(),
        *store.list(),
        {"world": world, "eventsOffset": 12},
        _outer(),
    ]
    for doc in compact:
        assert compact_json(doc) == _earlier_compact(doc)
    assert world.events
    points = [{"trial": "exp-0000", "metric": "loss", "ts": 3, "value": -0.5}, {"trial": "exp-0000", "deleted": True}]
    for doc in [*world.events, *points, {"é": [1.5, None, "\n"], "a": {"z": 1, "b": 2}}]:
        assert sorted_json(doc) == _earlier_sorted(doc)
    with pytest.raises(TypeError):
        compact_json(object())


def test_journal_append_returns_the_size_and_follows_its_path(tmp_path):
    journal = Journal(tmp_path / "log.jsonl")

    def append_and_check(*lines):
        size = journal.append(list(lines))
        assert size == journal.path.stat().st_size
        return journal.path.read_bytes()

    assert append_and_check() == b""
    assert append_and_check("1\n", "2\n") == b"1\n2\n"
    assert append_and_check("ü\n") == "1\n2\nü\n".encode()
    journal.truncate(2)
    assert append_and_check("3\n") == b"1\n3\n"
    journal.replace(["4\n"])
    assert append_and_check("5\n") == b"4\n5\n"
    journal.path.unlink()
    assert append_and_check("6\n") == b"6\n"
    # Replaced underneath, as another process's compaction would.
    tmp = tmp_path / "other.jsonl"
    tmp.write_bytes(b"7777\n")
    os.replace(tmp, journal.path)
    assert append_and_check("8\n") == b"7777\n8\n"
    journal.close()
    # Reopened on a file grown since, by another writer.
    with journal.path.open("ab") as fp:
        fp.write(b"9\n")
    assert append_and_check("10\n") == b"7777\n8\n9\n10\n"
    journal.close()
