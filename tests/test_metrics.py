"""Observation storage, the metric line format, and objective extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunectl.errors import StorageUnavailableError
from tunectl.metrics import (
    FileObservationStore,
    InMemoryObservationStore,
    MetricPoint,
    ObservationFilter,
    best_objective,
    parse_metric_lines,
)
from tunectl.resources import MetricStrategy, ObjectiveSpec, ObjectiveType


def _point(trial="t1", metric="accuracy", ts=0, value=0.5):
    return MetricPoint(trial=trial, metric=metric, ts=ts, value=value)


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryObservationStore()
    return FileObservationStore(tmp_path / "metrics.jsonl")


def test_register_then_get_in_timestamp_order(store):
    points = [_point(ts=3, value=0.3), _point(ts=1, value=0.1), _point(ts=2, value=0.2)]
    store.register_observation_log(points)
    got = store.get_observation_log("t1")
    assert [p.ts for p in got] == [1, 2, 3]


def test_duplicate_submission_is_idempotent(store):
    points = [_point(ts=1), _point(ts=2)]
    store.register_observation_log(points)
    store.register_observation_log(points)
    assert len(store.get_observation_log("t1")) == 2


def test_multiple_metrics_tracked_simultaneously(store):
    store.register_observation_log(
        [
            _point(metric="Validation-accuracy", ts=1, value=0.95),
            _point(metric="accuracy", ts=1, value=0.97),
        ]
    )
    validation = store.get_observation_log("t1", ObservationFilter(metric_names=("Validation-accuracy",)))
    extra = store.get_observation_log("t1", ObservationFilter(metric_names=("accuracy",)))
    assert [p.value for p in validation] == [0.95]
    assert [p.value for p in extra] == [0.97]


def test_inclusive_timestamp_filter(store):
    store.register_observation_log([_point(ts=t, value=t) for t in (1, 5, 10, 11)])
    got = store.get_observation_log("t1", ObservationFilter(start=5, end=10))
    assert [p.ts for p in got] == [5, 10]


def test_unknown_trial_is_empty_not_error(store):
    assert store.get_observation_log("nobody") == []


def test_delete_round_trip(store):
    store.register_observation_log([_point()])
    store.delete_observation_log("t1")
    assert store.get_observation_log("t1") == []
    store.delete_observation_log("never-existed")  # no-op ack


def test_delete_leaves_other_trials_intact(store):
    store.register_observation_log([_point(trial="t1")])
    store.register_observation_log([_point(trial="t2")])
    store.delete_observation_log("t1")
    assert len(store.get_observation_log("t2")) == 1


def test_ties_broken_by_metric_then_insertion(store):
    store.register_observation_log(
        [
            _point(metric="z", ts=1, value=1.0),
            _point(metric="a", ts=1, value=2.0),
            _point(metric="a", ts=1, value=3.0),
        ]
    )
    got = store.get_observation_log("t1")
    assert [(p.metric, p.value) for p in got] == [("a", 2.0), ("a", 3.0), ("z", 1.0)]


def test_batch_must_share_trial(store):
    with pytest.raises(ValueError):
        store.register_observation_log([_point(trial="a"), _point(trial="b")])


def test_filter_start_after_end_rejected():
    with pytest.raises(ValueError):
        ObservationFilter(start=10, end=5)


def test_file_store_survives_reload(tmp_path):
    path = tmp_path / "metrics.jsonl"
    first = FileObservationStore(path)
    first.register_observation_log([_point(ts=1), _point(ts=2)])
    first.delete_observation_log("t1")
    first.register_observation_log([_point(trial="t2", ts=9, value=0.9)])
    reloaded = FileObservationStore(path)
    assert reloaded.get_observation_log("t1") == []
    assert [p.value for p in reloaded.get_observation_log("t2")] == [0.9]


def test_file_store_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "metrics.jsonl"
    FileObservationStore(path).register_observation_log([_point(ts=1)])
    with path.open("a") as fp:
        fp.write('{"trial": "t1", "metric": "accuracy", "ts": 2, "val')
    reloaded = FileObservationStore(path)
    assert [p.ts for p in reloaded.get_observation_log("t1")] == [1]


def test_point_acked_after_torn_tail_survives_reload(tmp_path):
    path = tmp_path / "metrics.jsonl"
    FileObservationStore(path).register_observation_log([_point(ts=1)])
    with path.open("a") as fp:
        fp.write('{"metric": "loss", "tr')
    FileObservationStore(path).register_observation_log([_point(ts=2)])
    reloaded = FileObservationStore(path)
    assert [p.ts for p in reloaded.get_observation_log("t1")] == [1, 2]


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 6), cut=st.floats(0.0, 1.0))
def test_every_acked_point_survives_a_torn_write_at_any_cut(tmp_path_factory, count, cut):
    # The file is cut at a random byte, as a crash mid-append leaves it.
    # Points whose whole line survived, and every point acked after the
    # reopen, must all come back.
    path = tmp_path_factory.mktemp("torn") / "metrics.jsonl"
    first = FileObservationStore(path)
    for ts in range(count):
        first.register_observation_log([_point(ts=ts, value=ts / 10)])
    data = path.read_bytes()
    kept = data[: int(cut * len(data))]
    path.write_bytes(kept)
    whole_lines = kept.count(b"\n")
    FileObservationStore(path).register_observation_log([_point(ts=99, value=9.9)])
    reloaded = FileObservationStore(path)
    assert [p.ts for p in reloaded.get_observation_log("t1")] == list(range(whole_lines)) + [99]


def test_store_with_no_path_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = FileObservationStore()
    store.register_observation_log([_point(ts=1)])
    store.delete_observation_log("t1")
    store.register_observation_log([_point(ts=2)])
    assert [p.ts for p in store.get_observation_log("t1")] == [2]
    assert list(tmp_path.iterdir()) == []


def _count_opens(monkeypatch) -> list[str]:
    """Record the path of every file the program opens from here on."""
    import builtins
    import io
    import pathlib

    opened: list[str] = []
    real_open = io.open

    def counting(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(pathlib.Path, "open", lambda self, *a, **k: counting(self, *a, **k))
    return opened


def test_appends_go_through_one_kept_open_handle(tmp_path, monkeypatch):
    path = tmp_path / "metrics.jsonl"
    store = FileObservationStore(path)
    opened = _count_opens(monkeypatch)
    for ts in range(20):
        store.register_observation_log([_point(ts=ts)])
    store.delete_observation_log("t0")
    assert opened == [str(path)]
    store.close()
    store.register_observation_log([_point(ts=99)])  # a later append opens it again
    assert opened == [str(path)] * 2
    store.close()
    assert [p.ts for p in FileObservationStore(path).get_observation_log("t1")] == list(range(20)) + [99]


def test_store_with_no_path_opens_nothing(monkeypatch):
    store = InMemoryObservationStore()
    opened = _count_opens(monkeypatch)
    for ts in range(5):
        store.register_observation_log([_point(ts=ts)])
    store.delete_observation_log("t1")
    store.close()
    assert opened == []


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 30),
            st.floats(-5, 5, allow_nan=False),
        ),
        max_size=40,
    ),
    start=st.one_of(st.none(), st.integers(0, 30)),
    end=st.one_of(st.none(), st.integers(0, 30)),
    names=st.one_of(st.none(), st.sets(st.sampled_from(["a", "b", "c"]))),
)
def test_filtered_get_equals_postfiltered_get(points, start, end, names):
    # Oracle: a filtered read must equal the unfiltered read post-filtered.
    if start is not None and end is not None and start > end:
        start, end = end, start
    store = InMemoryObservationStore()
    for metric, ts, value in points:
        store.register_observation_log([_point(metric=metric, ts=ts, value=value)])
    flt = ObservationFilter(
        start=start, end=end, metric_names=None if names is None else tuple(sorted(names))
    )
    assert store.get_observation_log("t1", flt) == [
        p for p in store.get_observation_log("t1") if flt.admits(p)
    ]


# --- line format ------------------------------------------------------------


def test_parse_basic_metric_line():
    points = parse_metric_lines("17 Validation-accuracy=0.977", ["Validation-accuracy"], "t1")
    assert points == [MetricPoint("t1", "Validation-accuracy", 17, 0.977)]


def test_parse_ignores_non_metric_lines():
    assert parse_metric_lines("INFO starting epoch 3", ["accuracy"], "t1") == []


def test_parse_drops_unwatched_metrics():
    text = "1 accuracy=0.8\n1 loss=0.2\n2 accuracy=0.9"
    points = parse_metric_lines(text, ["accuracy"], "t1")
    assert [p.value for p in points] == [0.8, 0.9]


def test_parse_iso_timestamps_become_millis():
    points = parse_metric_lines("2024-01-02T03:04:05Z accuracy=0.5", ["accuracy"], "t1")
    assert points[0].ts == 1704164645000


def test_parse_tolerates_malformed_candidates():
    text = "nonsense accuracy=oops\n= =\n3 accuracy=0.7\nnoise accuracy=nan"
    points = parse_metric_lines(text, ["accuracy"], "t1")
    assert [p.value for p in points] == [0.7]


# --- best objective -----------------------------------------------------------


def _series(values):
    return [_point(metric="accuracy", ts=i + 1, value=v) for i, v in enumerate(values)]


OBJECTIVE = ObjectiveSpec(type=ObjectiveType.MAXIMIZE, objective_metric_name="accuracy")


def test_best_objective_latest_by_default():
    assert best_objective(_series([0.90, 0.95, 0.93]), OBJECTIVE) == 0.93


def test_best_objective_absent_for_empty_series():
    assert best_objective([], OBJECTIVE) is None
    assert best_objective(_series([]), OBJECTIVE) is None


def test_best_objective_meets_goal_at_equality():
    assert best_objective(_series([0.99]), OBJECTIVE) == 0.99


def test_best_objective_strategies():
    series = _series([0.90, 0.95, 0.93])
    assert best_objective(series, OBJECTIVE, MetricStrategy.MAX) == 0.95
    assert best_objective(series, OBJECTIVE, MetricStrategy.MIN) == 0.90


def test_best_objective_ignores_other_metrics():
    series = _series([0.5]) + [_point(metric="loss", ts=9, value=0.1)]
    assert best_objective(series, OBJECTIVE) == 0.5


def test_concurrent_appends_and_reads_are_safe(tmp_path):
    # Per-trial append order is the serialization order readers observe.
    import threading

    for store in (InMemoryObservationStore(), FileObservationStore(tmp_path / "m.jsonl")):
        errors: list[Exception] = []

        def writer(trial: str):
            try:
                for t in range(200):
                    store.register_observation_log(
                        [_point(trial=trial, metric="accuracy", ts=t, value=float(t))]
                    )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        def reader(trial: str):
            try:
                for _ in range(100):
                    points = store.get_observation_log(trial)
                    assert [p.ts for p in points] == sorted(p.ts for p in points)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(f"t{i}",)) for i in range(4)
        ] + [threading.Thread(target=reader, args=(f"t{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(4):
            assert len(store.get_observation_log(f"t{i}")) == 200


def _fail_one_append(monkeypatch) -> None:
    """Make the next metric-log append fail as a full disk does."""
    import errno

    from tunectl.codec import Journal

    append = Journal.append
    failures = [OSError(errno.ENOSPC, "No space left on device")]

    def failing(self, lines):
        if failures:
            raise failures.pop()
        return append(self, lines)

    monkeypatch.setattr(Journal, "append", failing)


def test_a_failed_append_leaves_the_points_unknown_so_the_retry_writes_them(tmp_path, monkeypatch):
    path = tmp_path / "metrics.jsonl"
    store = FileObservationStore(path)
    _fail_one_append(monkeypatch)
    with pytest.raises(StorageUnavailableError):
        store.register_observation_log([_point(ts=1)])
    assert store.get_observation_log("t1") == []
    store.register_observation_log([_point(ts=1)])  # the controller's retry
    store.close()
    assert [p.ts for p in store.get_observation_log("t1")] == [1]
    assert [p.ts for p in FileObservationStore(path).get_observation_log("t1")] == [1]


def test_a_failed_delete_keeps_the_trial_so_the_retry_deletes_it(tmp_path, monkeypatch):
    path = tmp_path / "metrics.jsonl"
    store = FileObservationStore(path)
    store.register_observation_log([_point(ts=1)])
    _fail_one_append(monkeypatch)
    with pytest.raises(StorageUnavailableError):
        store.delete_observation_log("t1")
    assert [p.ts for p in store.get_observation_log("t1")] == [1]
    store.delete_observation_log("t1")
    store.close()
    assert store.get_observation_log("t1") == []
    assert FileObservationStore(path).get_observation_log("t1") == []
