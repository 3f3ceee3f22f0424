"""Local-process execution backend driven through the control loop."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import _until_concluded, make_experiment
from tunectl.cluster import localproc
from tunectl.cluster.localproc import READ_BYTES, LocalProcessBackend
from tunectl.controller.backend import JobPhase, JobRequest
from tunectl.controller.model import KIND_TRIAL, TrialPhase
from tunectl.controller.reconcile import ControllerContext, controller_step, run_control_loop, submit_experiment
from tunectl.controller.store import FileResourceStore, ResourceStore
from tunectl.errors import StorageUnavailableError
from tunectl.metrics import InMemoryObservationStore, MetricPoint
from tunectl.resources import (
    CollectorKind,
    ObjectiveType,
    ParameterSpec,
    ParameterType,
    Range,
    RestartPolicy,
    TemplateKind,
    TrialRunSpec,
    TrialTemplate,
    ValueList,
)

LR = [ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0))]


def _local_experiment(command, *, parallel=2, max_trials=2, collector=CollectorKind.PULL,
                      restart=RestartPolicy.NEVER, params=LR, max_failed=0):
    spec = make_experiment(
        params,
        objective_type=ObjectiveType.MAXIMIZE,
        metric="accuracy",
        parallel=parallel,
        max_trials=max_trials,
        max_failed=max_failed,
        template=TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=command, restart_policy=restart),
    )
    spec.metric_collector_kind = collector
    return spec


def _run(spec):
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=4000)
    return snapshot, store, metrics


def test_echo_metric_script_succeeds():
    spec = _local_experiment(f"{sys.executable} -c \"print('1 accuracy=0.9')\"", max_trials=1, parallel=1)
    snapshot, store, _ = _run(spec)
    result = snapshot["experiments"]["experiment/ns/exp"]
    assert result["phase"] == "Succeeded"
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.observation == 0.9


def test_a_trial_reads_running_once_the_step_that_starts_its_trainer_ends():
    # A started trainer reports no phase change until it exits, so the step
    # that submits it must also record it as running, in the trial and in
    # its experiment's counts.
    spec = _local_experiment("sleep 5", parallel=2, max_trials=2)
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    submit_experiment(store, spec)
    try:
        backend.advance(lambda: controller_step(ctx))
        assert [t.status.phase for t in store.list(KIND_TRIAL)] == [TrialPhase.RUNNING] * 2
        status = store.get("experiment/ns/exp").status
        assert (status.trials_pending, status.trials_running) == (0, 2)
    finally:
        backend.close()


def test_a_local_trial_is_updated_once_at_its_submit_and_once_when_it_concludes():
    # The submit records the started trainer as Running; the trainer's exit,
    # which the backend reports, records the terminal phase. Nothing else
    # writes the trial after its create.
    spec = _local_experiment("echo 1 accuracy=0.9", parallel=3, max_trials=3)
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, spec)
    updates = {}

    def record(resource):
        if resource.kind == KIND_TRIAL and resource.generation > 1:
            updates.setdefault(resource.name, []).append(resource.status.phase)

    store.watchers.append(record)
    try:
        snapshot = run_control_loop(store, metrics, backend, max_ticks=4000)
    finally:
        backend.close()
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert updates == {f"exp-{i:04d}": [TrialPhase.RUNNING, TrialPhase.SUCCEEDED] for i in range(3)}


def test_a_trainer_whose_child_holds_its_output_open_still_concludes():
    # The shell exits at once, but its background child keeps the output
    # pipe open for a second: until then the trial reads Running, and the
    # controller must look at it again once the output is all read.
    spec = _local_experiment("sh -c 'echo 1 accuracy=0.5; sleep 1 & exit 0'", max_trials=1, parallel=1)
    snapshot, store, _ = _run(spec)
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert store.list(KIND_TRIAL)[0].status.phase is TrialPhase.SUCCEEDED


def test_trainers_that_fail_at_once_are_restarted_at_most_once_a_step():
    # Nothing limits restarts, so the experiment never ends; each controller
    # step must still end, and restarts each trial at most once.
    spec = _local_experiment(
        "sh -c 'exit 75'", parallel=3, max_trials=3, restart=RestartPolicy.ON_TEMPORARY_FAILURE
    )
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, spec)
    writes = []

    def count_write():
        writes.append(1)
        if len(writes) > 1000:
            raise AssertionError("a controller step did not end")

    store.watchers.append(lambda _resource: count_write())
    try:
        snapshot = run_control_loop(store, metrics, backend, max_ticks=20)
    finally:
        backend.close()
    assert snapshot["ticks"] == 20
    trials = store.list(KIND_TRIAL)
    assert len(trials) == 3
    assert all(t.status.restart_count <= 20 for t in trials)
    assert max(t.status.restart_count for t in trials) > 1


def test_hyperparameters_reach_command_line(tmp_path):
    script = tmp_path / "train.py"
    script.write_text(
        textwrap.dedent(
            """
            import sys
            lr = float(sys.argv[1].split("=")[1])
            print(f"1 accuracy={1.0 - abs(lr - 0.5)}")
            """
        )
    )
    spec = _local_experiment(
        f"{sys.executable} {script} --lr=${{lr}}", parallel=3, max_trials=3
    )
    snapshot, store, _ = _run(spec)
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    for trial in store.list(KIND_TRIAL):
        lr = dict(trial.spec.assignments)["lr"]
        assert trial.status.observation == pytest.approx(1.0 - abs(lr - 0.5))


def test_temporary_exit_code_restarts_when_policy_allows(tmp_path):
    script = tmp_path / "flaky.py"
    script.write_text(
        textwrap.dedent(
            """
            import os, sys
            if int(os.environ["TUNECTL_RESTART_COUNT"]) == 0:
                sys.exit(75)
            print("1 accuracy=0.7")
            """
        )
    )
    spec = _local_experiment(
        f"{sys.executable} {script}", parallel=1, max_trials=1,
        restart=RestartPolicy.ON_TEMPORARY_FAILURE,
    )
    snapshot, store, _ = _run(spec)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.SUCCEEDED
    assert trial.status.restart_count == 1


def test_a_run_leaves_no_concluded_trainer_behind(tmp_path):
    # Restarted, succeeded and failed trials: each trainer, with the metric
    # points it kept and its output pipe, is dropped once its trial
    # concludes. A pipe left open per trainer would exhaust the open-file
    # limit in a long enough run.
    script = tmp_path / "mixed.py"
    script.write_text(
        textwrap.dedent(
            """
            import os, sys
            if float(sys.argv[1]) < 0.3:
                sys.exit(3)
            if int(os.environ["TUNECTL_RESTART_COUNT"]) == 0:
                sys.exit(75)
            print("1 accuracy=0.7")
            """
        )
    )
    spec = _local_experiment(
        f"{sys.executable} {script} ${{lr}}", parallel=3, max_trials=6, max_failed=6,
        restart=RestartPolicy.ON_TEMPORARY_FAILURE,
    )
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, spec)
    gc.collect()  # so that no earlier test's file closes during the run
    open_files = set(os.listdir("/proc/self/fd"))
    try:
        snapshot = run_control_loop(store, metrics, backend, max_ticks=4000)
        assert set(os.listdir("/proc/self/fd")) <= open_files
    finally:
        backend.close()
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    trials = store.list(KIND_TRIAL)
    assert {t.status.phase for t in trials} == {TrialPhase.SUCCEEDED, TrialPhase.FAILED}
    assert any(t.status.restart_count for t in trials)
    assert backend._jobs == {}


def test_a_released_trainer_leaves_its_output_pipe_closed():
    backend = LocalProcessBackend(InMemoryObservationStore())
    handle = _submit_command(backend, "done", "true")
    job = backend._jobs[handle]
    _until_concluded(backend, handle)
    backend.release(handle)
    assert job.process.stdout.closed
    backend.close()


def test_releasing_a_service_leaves_a_trainer_of_the_same_handle_running():
    # Experiment "0000"'s service and experiment "svc"'s first trial are
    # both "ns/svc-0000"; the service's release must not drop the trainer.
    backend = LocalProcessBackend(InMemoryObservationStore())
    try:
        handle = _submit_command(backend, "svc-0000", "sleep 30")
        backend.reserve_service("ns", "svc-0000", 0.5)
        backend.release_service("ns", "svc-0000")
        assert backend.job_state(handle).phase is JobPhase.RUNNING
        assert backend._jobs[handle].process.poll() is None
    finally:
        backend.close()


class _UnwritableMetrics(InMemoryObservationStore):
    def register_observation_log(self, points):
        raise StorageUnavailableError("metric log: no space left on device")


def test_a_push_trainer_whose_points_fail_to_register_ends_failed_and_exits(tmp_path):
    # After the failed register the reader must keep draining: a trainer
    # that writes 1 MB more would otherwise block on the full pipe, and its
    # trial would read Running for good.
    script = tmp_path / "chatty.py"
    pid_file = tmp_path / "pid"
    script.write_text(
        textwrap.dedent(
            f"""
            import os, sys
            open({str(pid_file)!r}, "w").write(str(os.getpid()))
            print("1 accuracy=0.5", flush=True)
            for _ in range(1024):
                sys.stdout.write("x" * 1023 + "\\n")
            """
        )
    )
    spec = _local_experiment(f"{sys.executable} {script}", parallel=1, max_trials=1, collector=CollectorKind.PUSH)
    store, metrics = ResourceStore(), _UnwritableMetrics()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, spec)
    deadline = time.monotonic() + 5.0
    try:
        run_control_loop(store, metrics, backend, stop=lambda _ticks: time.monotonic() > deadline)
    finally:
        backend.close()
    [trial] = store.list(KIND_TRIAL)
    assert trial.status.phase is TrialPhase.FAILED
    assert "StorageUnavailableError: metric log: no space left on device" in trial.status.reason
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_temporary_exit_code_fails_without_restart_policy(tmp_path):
    script = tmp_path / "flaky.py"
    script.write_text("import sys; sys.exit(75)")
    spec = _local_experiment(f"{sys.executable} {script}", parallel=1, max_trials=1)
    snapshot, store, _ = _run(spec)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Failed"


def test_nonexistent_command_is_permanent_failure():
    spec = _local_experiment("definitely-not-a-real-binary-anywhere --x=1", parallel=1, max_trials=1)
    snapshot, store, _ = _run(spec)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED
    assert "spawn failed" in trial.status.reason


def test_a_trainer_that_cannot_be_spawned_fails_its_trial_in_the_submitting_step():
    spec = _local_experiment("definitely-not-a-real-binary-anywhere --x=1", parallel=1, max_trials=1)
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics)
    ctx = ControllerContext(store=store, metrics=metrics, backend=backend)
    submit_experiment(store, spec)
    controller_step(ctx)
    [trial] = store.list(KIND_TRIAL)
    assert trial.status.phase is TrialPhase.FAILED
    assert trial.status.reason.startswith("spawn failed: ")
    assert trial.status.job_attempt == 0
    assert backend._jobs == {}


def test_nonzero_exit_is_permanent_failure(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.exit(3)")
    spec = _local_experiment(f"{sys.executable} {script}", parallel=1, max_trials=1)
    _, store, _ = _run(spec)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED
    assert "exit code 3" in trial.status.reason


def test_push_and_pull_yield_identical_observations(tmp_path):
    script = tmp_path / "train.py"
    script.write_text(
        textwrap.dedent(
            """
            print("1 accuracy=0.5012")
            print("INFO midway")
            print("2 accuracy=0.93170001")
            """
        )
    )
    command = f"{sys.executable} {script}"
    observations = {}
    for collector in (CollectorKind.PULL, CollectorKind.PUSH):
        spec = _local_experiment(command, parallel=1, max_trials=1, collector=collector)
        _, store, metrics = _run(spec)
        trial = store.list(KIND_TRIAL)[0]
        observations[collector] = trial.status.observation
        points = metrics.get_observation_log("ns/exp-0000")
        assert [p.value for p in points] == [0.5012, 0.93170001]
    assert observations[CollectorKind.PULL] == observations[CollectorKind.PUSH]


def test_job_state_for_unknown_handle_is_missing():
    backend = LocalProcessBackend(InMemoryObservationStore())
    assert backend.job_state("ns/ghost").phase is JobPhase.MISSING


def test_direct_submit_rejects_simulated_payload():
    from tunectl.errors import InvalidPayloadError
    from tunectl.resources import SimObjectiveDescriptor

    backend = LocalProcessBackend(InMemoryObservationStore())
    run_spec = TrialRunSpec(
        trial_name="t", namespace="ns",
        resolved_payload=SimObjectiveDescriptor("sphere"), parameter_assignments=(),
    )
    template = TrialTemplate(kind=TemplateKind.SIMULATED, payload=SimObjectiveDescriptor("sphere"))
    with pytest.raises(InvalidPayloadError):
        backend.submit(JobRequest(run_spec, template, CollectorKind.PULL, ("m",)))


def test_backend_payload_mismatch_fails_trials_permanently():
    # A simulated-template experiment on the local backend is the
    # invalid-payload analog: trials fail, the experiment ends Failed.
    spec = make_experiment(LR, parallel=1, max_trials=1)
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.001)
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=50)
    trial = store.list(KIND_TRIAL)[0]
    assert trial.status.phase is TrialPhase.FAILED
    assert "local-process" in trial.status.reason
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Failed"


def _submit_command(backend, trial, command):
    run_spec = TrialRunSpec(
        trial_name=trial, namespace="ns", resolved_payload=command, parameter_assignments=()
    )
    template = TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=command)
    return backend.submit(JobRequest(run_spec, template, CollectorKind.PULL, ("m",)))


def test_close_stops_running_trainers_and_their_children():
    backend = LocalProcessBackend(InMemoryObservationStore())
    _submit_command(backend, "sleeper", "sleep 30")
    # A shell that ignores SIGTERM and leaves a child behind needs SIGKILL
    # on the whole group.
    _submit_command(backend, "stubborn", "sh -c \"trap '' TERM; sleep 30 & wait\"")
    jobs = list(backend._jobs.values())
    time.sleep(0.2)
    assert all(job.process.poll() is None for job in jobs)
    started = time.monotonic()
    backend.close()
    assert time.monotonic() - started < 2.0
    assert all(job.process.returncode is not None for job in jobs)
    # Each trainer's output is closed, unread.
    assert all(job.process.stdout.closed for job in jobs)
    assert backend.job_state("ns/sleeper").phase is JobPhase.FAILED_PERMANENT
    backend.close()  # a second close is a no-op


def test_a_step_wakes_when_its_trainer_exits_instead_of_sleeping_the_poll_interval():
    backend = LocalProcessBackend(InMemoryObservationStore(), poll_interval=2.0)

    def step():
        _submit_command(backend, "quick", "true")
        return 1

    started = time.monotonic()
    backend.advance(step)
    assert time.monotonic() - started < 1.0
    assert backend.job_state("ns/quick").phase is JobPhase.SUCCEEDED
    backend.close()


def test_the_local_backend_starts_no_thread():
    backend = LocalProcessBackend(InMemoryObservationStore())
    threads = threading.active_count()
    handle = _submit_command(backend, "sleeper", "sleep 1")
    try:
        for _ in range(5):
            backend.advance(lambda: 0)
        assert backend.job_state(handle).phase is JobPhase.RUNNING
        assert threading.active_count() == threads
    finally:
        backend.close()


def test_a_trainer_that_closes_its_output_concludes_once_it_exits_without_holding_up_another():
    # The first trainer closes its output at once and exits at 0.5 s; it
    # concludes within a poll interval of its exit. Waiting for it must not
    # keep the second, which writes a metric and exits at 0.1 s, from
    # concluding then.
    backend = LocalProcessBackend(InMemoryObservationStore(), poll_interval=0.02)
    started = time.monotonic()
    closed = _submit_command(backend, "closed", "sh -c 'exec >&- 2>&-; sleep 0.5'")
    quick = _submit_command(backend, "quick", "sh -c 'sleep 0.1; echo 1 m=1'")
    concluded = {}
    try:
        while len(concluded) < 2 and time.monotonic() - started < 5.0:
            backend.advance(lambda: len(backend.changed_jobs()))
            for handle in (closed, quick):
                if handle not in concluded and backend.job_state(handle).phase is not JobPhase.RUNNING:
                    concluded[handle] = time.monotonic() - started
        assert [backend.job_state(h).phase for h in (closed, quick)] == [JobPhase.SUCCEEDED] * 2
        assert 0.5 <= concluded[closed] < 0.6
        assert concluded[quick] < 0.3
        backend.collect_metrics(quick)
        assert [p.value for p in backend.metrics.get_observation_log(quick)] == [1.0]
    finally:
        backend.close()


def test_a_step_after_an_earlier_exit_still_waits_the_poll_interval():
    backend = LocalProcessBackend(InMemoryObservationStore(), poll_interval=0.2)
    _submit_command(backend, "early", "true")
    _until_concluded(backend, "ns/early")
    backend.changed_jobs()
    started = time.monotonic()
    backend.advance(lambda: 0)
    assert time.monotonic() - started >= 0.2
    backend.close()


# Runs one trainer that prints ``lines`` lines of progress and then one
# metric line, under the given collector kind, in a process of its own, and
# prints that process's peak resident size in KB: what reading its output
# kept shows there.
_CHATTY = """
import resource, sys, time
from tunectl.cluster.localproc import LocalProcessBackend
from tunectl.controller.backend import JobPhase, JobRequest
from tunectl.metrics import InMemoryObservationStore, MetricPoint
from tunectl.resources import CollectorKind, TemplateKind, TrialRunSpec, TrialTemplate

lines, kind = int(sys.argv[1]), CollectorKind(sys.argv[2])
trainer = f"import sys; sys.stdout.write('INFO epoch 1: training on shard 7 of 9\\\\n' * {lines}); print('1 loss=0.5')"
command = f"{sys.executable} -c \\"{trainer}\\""
metrics = InMemoryObservationStore()
backend = LocalProcessBackend(metrics)
run_spec = TrialRunSpec(trial_name="chatty", namespace="ns", resolved_payload=command, parameter_assignments=())
template = TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=command)
handle = backend.submit(JobRequest(run_spec, template, kind, ("loss",)))
deadline = time.monotonic() + 120
while backend.job_state(handle).phase is JobPhase.RUNNING:
    assert time.monotonic() < deadline
    backend.advance(lambda: len(backend.changed_jobs()))
backend.collect_metrics(handle)
assert metrics.get_observation_log(handle) == [MetricPoint(handle, "loss", 1, 0.5)], metrics.get_observation_log(handle)
backend.close()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _chatty_peak_kb(lines: int, kind: CollectorKind) -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", _CHATTY, str(lines), kind.value],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return int(out.stdout.split()[-1])


@pytest.mark.parametrize("kind", [CollectorKind.PULL, CollectorKind.PUSH])
def test_a_chatty_trainer_keeps_the_reader_flat_in_memory(kind):
    # Output that is not a metric line is not kept: a trainer that prints a
    # million lines costs its reader no more memory than one that prints a
    # thousand, and its one metric point is still registered.
    quiet = _chatty_peak_kb(10**3, kind)
    chatty = _chatty_peak_kb(10**6, kind)
    assert chatty - quiet <= 10 * 1024, f"peak RSS {quiet} KB -> {chatty} KB"


def test_a_progress_bar_that_never_ends_its_line_holds_the_tail_at_read_bytes(tmp_path):
    # A trainer redraws a progress bar with carriage returns for 4 MB and
    # prints its metric straight after a redraw, as a print beside a tqdm
    # bar does. A carriage return ends a line for the reader, as it does for
    # the parser, so the bar is let go redraw by redraw and the metric
    # counts. Then 200 KB with no line end at all: the tail is cleared once
    # it passes READ_BYTES and that line dropped up to its end, so the
    # metric after it counts too, and the reader never holds more.
    script = tmp_path / "progress.py"
    script.write_text(
        "import sys, time\n"
        "piece = ''.join(f'epoch 1 [{i:>7}/99999] loss 0.97\\r' for i in range(4000))\n"
        "for _ in range(32):\n"
        "    sys.stdout.write(piece)\n"
        "    sys.stdout.flush()\n"
        "    time.sleep(0.005)\n"
        "sys.stdout.write('\\r1 loss=0.5\\n')\n"
        "for _ in range(4):\n"
        "    sys.stdout.write('x' * 50000)\n"
        "    sys.stdout.flush()\n"
        "    time.sleep(0.005)\n"
        "sys.stdout.write('\\r2 loss=0.25\\n')\n"
    )
    metrics = InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    command = f"{sys.executable} {script}"
    run_spec = TrialRunSpec(trial_name="bar", namespace="ns", resolved_payload=command, parameter_assignments=())
    template = TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=command)
    handle = backend.submit(JobRequest(run_spec, template, CollectorKind.PULL, ("loss",)))
    job = backend._jobs[handle]
    advances = 0
    try:
        deadline = time.monotonic() + 60
        while backend.job_state(handle).phase is JobPhase.RUNNING:
            assert time.monotonic() < deadline
            backend.advance(lambda: len(backend.changed_jobs()))
            assert len(job.tail) <= READ_BYTES
            advances += 1
        assert advances > 5  # the output arrived over many reads
        assert backend.job_state(handle).phase is JobPhase.SUCCEEDED
        backend.collect_metrics(handle)
        assert metrics.get_observation_log(handle) == [
            MetricPoint(handle, "loss", 1, 0.5), MetricPoint(handle, "loss", 2, 0.25),
        ]
    finally:
        backend.close()


def test_an_idle_trainer_adds_no_line_to_the_journal_or_the_event_log(tmp_path):
    # A local run commits when a trainer starts or ends, not at every poll.
    sizes = {}

    def stop(ticks):
        if ticks in (3, 40):
            sizes[ticks] = [(tmp_path / name).stat().st_size for name in ("journal.jsonl", "events.jsonl")]
        return ticks >= 40

    with LocalProcessBackend.open_run(tmp_path, lambda _store, metrics: LocalProcessBackend(metrics, 0.005)) as run:
        submit_experiment(run.store, _local_experiment("sleep 30", parallel=1, max_trials=1))
        run_control_loop(*run, stop=stop)
    assert sizes[3] == sizes[40] and sizes[3][1] > 0
    commit = json.loads(run.store.committed)
    assert list(commit["trainers"]) == ["ns/exp-0000"] and commit["eventsOffset"] == sizes[3][1]


def test_a_local_backend_without_a_state_directory_keeps_no_events_and_reads_no_proc(monkeypatch):
    def no_proc(pid):
        raise AssertionError("read /proc")

    monkeypatch.setattr(localproc, "_start_time", no_proc)
    store, metrics = ResourceStore(), InMemoryObservationStore()
    backend = LocalProcessBackend(metrics, poll_interval=0.005)
    submit_experiment(store, _local_experiment(f"{sys.executable} -c \"print('1 accuracy=0.5')\""))
    run_control_loop(store, metrics, backend, max_ticks=4000)
    assert backend.events == [] and backend.persist() is None


def _recorded_sleeper(tmp_path, started):
    """A ``sleep`` in a session of its own, and a store in ``tmp_path``
    whose commit records it started at ``started``."""
    process = subprocess.Popen(["sleep", "30"], start_new_session=True)
    writer = FileResourceStore(tmp_path)
    writer.commit(f'{{"trainers":{{"ns/t":[{process.pid},{started(process.pid)}]}},"eventsOffset":0}}')
    writer.close()
    return process


def _resume(tmp_path):
    """Open the local run in ``tmp_path`` at its commit, then close it."""
    LocalProcessBackend.open_run(tmp_path, lambda _store, metrics: LocalProcessBackend(metrics)).close()


@pytest.mark.parametrize("proc", [True, False], ids=["proc", "no-proc"])
def test_a_resume_stops_a_recorded_trainer_that_still_runs(tmp_path, monkeypatch, proc):
    # Without /proc a trainer is matched on its pid alone.
    if not proc:
        monkeypatch.setattr(localproc, "_PROC", tmp_path / "no-proc")
    process = _recorded_sleeper(tmp_path, localproc._start_time)
    try:
        _resume(tmp_path)
        assert process.wait(timeout=5) == -15
    finally:
        process.kill()
        process.wait()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads start times from /proc")
def test_a_resume_leaves_a_process_that_reuses_a_recorded_pid_alone(tmp_path):
    process = _recorded_sleeper(tmp_path, lambda pid: localproc._start_time(pid) - 1)
    try:
        _resume(tmp_path)
        assert process.poll() is None
    finally:
        process.kill()
        process.wait()


def test_a_step_that_records_a_trainer_s_end_commits_it_while_another_trainer_runs(tmp_path):
    # At the experiment's last trials no trainer starts in the step that
    # records a trainer's end; that step still commits, so a resume keeps
    # the concluded trial instead of running it again.
    spec = make_experiment(
        [ParameterSpec("t", ParameterType.DISCRETE, ValueList([0, 30]))], algorithm="grid",
        objective_type=ObjectiveType.MAXIMIZE, metric="accuracy", max_trials=2,
        template=TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload='sh -c "sleep ${t}; echo 1 accuracy=0.5"'),
    )
    spec = replace(spec, algorithm=replace(spec.algorithm, settings={}))
    deadline = time.monotonic() + 20

    def quick_succeeded(_ticks):
        assert time.monotonic() < deadline
        return run.store.get(f"{KIND_TRIAL}/ns/exp-0000").status.phase is TrialPhase.SUCCEEDED

    with LocalProcessBackend.open_run(tmp_path, lambda _store, metrics: LocalProcessBackend(metrics, 0.005)) as run:
        submit_experiment(run.store, spec)
        run_control_loop(*run, stop=quick_succeeded)
    resumed = FileResourceStore(tmp_path, commit=True)
    assert resumed.get(f"{KIND_TRIAL}/ns/exp-0000").status.phase is TrialPhase.SUCCEEDED
    resumed.close()
