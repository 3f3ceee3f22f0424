"""Local-process execution backend.

Runs each trial as a real child process with hyperparameters on the command
line, so anything executable can be tuned regardless of language. Stdout is
the metric transport. Each line is parsed as it is read, and only its metric
points are kept. In push mode they are registered at once; in pull mode they
wait on the job until ``collect_metrics``, which the controller calls once
the trainer has succeeded, so a failed trial registers none. After a failed
push the rest is drained unread, and the job fails naming the error.

Exit code 0 is success; exit code 75 (``TEMPORARY_EXIT_CODES``, the
conventional tempfail code) classifies as temporary failure eligible for
restart; anything else is permanent. Restarted processes see their attempt
number in ``TUNECTL_RESTART_COUNT``. A trainer that cannot be spawned fails
its submit, so its trial fails in the step that submits it.

Each trainer runs in a session (and process group) of its own, so closing
the backend can stop it together with any children it started.

A trainer concludes once it has exited and its output is all read; a
grandchild that holds the pipe open keeps it running until then. Its reader
then closes the pipe and reports the trainer through ``changed_jobs``, so
the controller looks at it again in the next step.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import InvalidPayloadError
from ..metrics import MetricPoint, ObservationStore, parse_metric_lines
from ..resources import CollectorKind, TrialRunSpec, TrialTemplate
from ..controller.backend import ExecutionBackend, JobPhase, JobState, job_handle

TEMPORARY_EXIT_CODES = (75,)
# Seconds a trainer gets to exit after SIGTERM before its group is killed.
TERMINATE_GRACE_S = 0.5


@dataclass
class _LocalJob:
    handle: str
    collector: CollectorKind
    watched: tuple[str, ...]
    process: subprocess.Popen
    reader: threading.Thread = field(init=False)
    points: list[MetricPoint] = field(default_factory=list)  # pull: not yet registered; under the lock
    failed_reason: str | None = None  # a failed push registration
    finished: bool = False  # exited with its output all read; under the lock


class LocalProcessBackend(ExecutionBackend):
    def __init__(self, metrics: ObservationStore, poll_interval: float = 0.02):
        self.metrics = metrics
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self._jobs: dict[str, _LocalJob] = {}
        # Set by an output reader once its trainer has exited, to cut
        # ``advance``'s wait short.
        self._exited = threading.Event()
        self._changed: set[str] = set()  # handles for ``changed_jobs``, under the lock

    def submit(
        self,
        run_spec: TrialRunSpec,
        template: TrialTemplate,
        *,
        collector_kind: CollectorKind,
        watched_metrics: Sequence[str],
        restart_count: int = 0,
    ) -> str:
        handle = job_handle(run_spec.namespace, run_spec.trial_name)
        command = run_spec.resolved_payload
        if not isinstance(command, str):
            raise InvalidPayloadError("the local backend runs 'local-process' trial templates only")
        env = {
            **os.environ,
            "TUNECTL_TRIAL_NAME": run_spec.trial_name,
            "TUNECTL_TRIAL_NAMESPACE": run_spec.namespace,
            "TUNECTL_RESTART_COUNT": str(restart_count),
        }
        try:
            process = subprocess.Popen(
                shlex.split(command),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        except (OSError, ValueError) as exc:
            raise InvalidPayloadError(f"spawn failed: {exc}") from exc
        job = _LocalJob(handle, collector_kind, tuple(watched_metrics), process)
        job.reader = threading.Thread(target=self._read_stdout, args=(job,), daemon=True)
        job.reader.start()
        with self._lock:
            self._jobs[handle] = job
        return handle

    def _read_stdout(self, job: _LocalJob) -> None:
        push = job.collector is CollectorKind.PUSH
        try:
            for raw in job.process.stdout:
                if job.failed_reason is not None:
                    continue  # drained unread to EOF
                points = parse_metric_lines(raw.decode("utf-8", errors="replace"), job.watched, job.handle)
                if not points:
                    continue
                if push:
                    try:
                        self.metrics.register_observation_log(points)
                    except Exception as exc:  # any: the trial must end, not hang
                        job.failed_reason = f"metric registration failed: {type(exc).__name__}: {exc}"
                else:
                    with self._lock:
                        job.points.extend(points)
        finally:
            # The trial's only wake-up, even if ingestion failed. The pipe is
            # closed here, not left for the garbage collector.
            job.process.stdout.close()
            job.process.wait()
            with self._lock:
                job.finished = True
                self._changed.add(job.handle)
            self._exited.set()

    def job_state(self, handle: str) -> JobState:
        with self._lock:
            job = self._jobs.get(handle)
            finished = job is not None and job.finished
        if job is None:
            return JobState(phase=JobPhase.MISSING)
        if not finished:
            return JobState(phase=JobPhase.RUNNING)
        if job.failed_reason is not None:
            return JobState(phase=JobPhase.FAILED_PERMANENT, reason=job.failed_reason)
        code = job.process.returncode
        if code == 0:
            return JobState(phase=JobPhase.SUCCEEDED)
        if code in TEMPORARY_EXIT_CODES:
            return JobState(phase=JobPhase.FAILED_TEMPORARY, reason=f"exit code {code} (temporary)")
        return JobState(phase=JobPhase.FAILED_PERMANENT, reason=f"exit code {code}")

    def changed_jobs(self) -> set[str]:
        """The trainers that finished since the last call."""
        with self._lock:
            changed, self._changed = self._changed, set()
        return changed

    def collect_metrics(self, handle: str) -> None:
        with self._lock:
            job = self._jobs.get(handle)
            points = [] if job is None else list(job.points)
        if points:
            self.metrics.register_observation_log(points)
            with self._lock:
                job.points.clear()

    def reserve_service(self, namespace: str, name: str, cpu: float) -> None:
        pass  # no quota model on a bare host

    def release(self, handle: str) -> None:
        """Forget a concluded trainer."""
        with self._lock:
            self._jobs.pop(handle, None)

    def advance(self, step: Callable[[], int]) -> None:
        """Run ``step``, then wait until a trainer exits or ``poll_interval`` passes."""
        self._exited.clear()
        step()
        self._exited.wait(self.poll_interval)

    def close(self) -> None:
        """Stop every trainer still running: SIGTERM to its process group,
        SIGKILL once the grace period is over, then join its output reader.
        Safe to call twice."""
        with self._lock:
            jobs = list(self._jobs.values())
        live = [j for j in jobs if j.process.poll() is None or j.reader.is_alive()]
        for job in live:
            _signal_group(job.process, signal.SIGTERM)
        deadline = time.monotonic() + TERMINATE_GRACE_S
        for job in live:
            try:
                job.process.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            _signal_group(job.process, signal.SIGKILL)
            job.process.wait()
            job.reader.join(timeout=1.0)


def _signal_group(process: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(process.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass  # the whole group has exited already
