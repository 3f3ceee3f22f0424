"""Local-process execution backend.

Runs each trial as a real child process with hyperparameters on the command
line, so anything executable can be tuned regardless of language. Stdout is
the metric transport. ``advance`` reads every trainer's output between
controller steps, on the controller's thread, so a trainer that fills its
64 KiB pipe during a step waits for the next read. Each complete line is
parsed once, and only its metric points are kept: in push mode they are
registered at once; in pull mode they wait on the job until
``collect_metrics``, which the controller calls once the trainer has
succeeded, so a failed trial registers none. After a failed push the rest is
drained unread, and the job fails naming the error. A line ends at ``\\n``
or ``\\r``, as it does for the parser, so each redraw of a ``\\r`` progress
bar is parsed and let go. A line is kept unparsed only while it is no
longer than ``READ_BYTES``: once the bytes after the last line end would
pass that, they are cleared and the rest of that line, up to its end, is
dropped unparsed, so the reader's memory stays flat.

Exit code 0 is success; exit code 75 (``TEMPORARY_EXIT_CODES``, the
conventional tempfail code) classifies as temporary failure eligible for
restart; anything else is permanent. Restarted processes see their attempt
number in ``TUNECTL_RESTART_COUNT``. A trainer that cannot be spawned fails
its submit, so its trial fails in the step that submits it.

Each trainer runs in a session (and process group) of its own, so closing
the backend can stop it together with any children it started.

With a state directory it logs ``job-submitted``, ``job-succeeded`` and
``job-failed`` events, the controller step as their tick, and its commits
hold each trainer that may still run as ``{handle: [pid, start time]}``, so
a commit changes only when a trainer starts or ends. ``restore`` stops each
recorded trainer still running, so none outlives a killed run.

A trainer concludes once it has exited and its output is all read; a
grandchild that holds the pipe open keeps it running until then. One that
closes its output and runs on concludes in the first ``advance`` that finds
it exited. ``changed_jobs`` reports each conclusion, so the controller
looks at the trainer again in the next step.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..codec import from_doc
from ..errors import InvalidPayloadError
from ..metrics import MetricPoint, ObservationStore, parse_metric_lines
from ..resources import CollectorKind
from ..controller.backend import ExecutionBackend, JobPhase, JobRequest, JobState, job_handle

TEMPORARY_EXIT_CODES = (75,)
# Seconds a trainer gets to exit after SIGTERM before its group is killed.
TERMINATE_GRACE_S = 0.5
READ_BYTES = 1 << 16  # the most one read of a trainer's output takes: a full pipe
LAST_LINE_CHARS = 200  # the most of a trainer's last output line a job-failed event keeps
_LINE_END = re.compile(rb"[\r\n]")
_PROC = Path("/proc")


@dataclass
class _LocalJob:
    handle: str
    collector: CollectorKind
    watched: tuple[str, ...]
    process: subprocess.Popen
    tail: bytearray = field(default_factory=bytearray)  # read after the last newline
    dropping: bool = False  # the rest of an over-long line is read and dropped
    points: list[MetricPoint] = field(default_factory=list)  # pull: not yet registered
    failed_reason: str | None = None  # a failed push registration
    started: int | None = None  # the process's start time, with a state directory
    last_line: str = ""  # the last non-empty output line, truncated


class LocalProcessBackend(ExecutionBackend):
    STATE_KEY = "trainers"

    def __init__(self, metrics: ObservationStore, poll_interval: float = 0.02, state_dir: str | Path | None = None):
        self.metrics = metrics
        self.poll_interval = poll_interval
        self._jobs: dict[str, _LocalJob] = {}
        self._selector = selectors.DefaultSelector()  # the open trainer outputs
        self._changed: set[str] = set()  # handles for ``changed_jobs``
        self.events: list[dict] = []
        self._step = 0  # the controller steps taken, the events' tick
        if state_dir is not None:
            self._open_state(Path(state_dir), 0)

    def _open_state(self, state_dir: Path, events_size: int) -> None:
        """Also count the steps on from the tick of the last event logged."""
        super()._open_state(state_dir, events_size)
        self._step = next((json.loads(line)["tick"] for line in self._events.read()[-1:]), 0)

    def emit_event(self, kind: str, payload: dict) -> None:
        """Keep a job event, with a state directory; ``experiment-stats`` is the simulator's series."""
        if self._state_dir is not None and kind.startswith("job-"):
            self.events.append({"tick": self._step, "kind": kind, "payload": payload})

    def state(self) -> dict[str, list]:
        """The trainers that may still run, ``{handle: [pid, start time]}``."""
        return {j.handle: [j.process.pid, j.started] for j in self._jobs.values() if j.process.returncode is None}

    @classmethod
    def restore(cls, state: Any, metrics: ObservationStore, job_request: Callable):
        """A fresh backend, once each recorded trainer still running (same
        pid, same start time) is stopped with its group, whose id is its pid."""
        live = {pid: start for pid, start in from_doc(dict[str, tuple[int, int]], state).values()
                if _start_time(pid) == start}
        _stop_groups(list(live), lambda pid: _start_time(pid) == live[pid])
        return cls(metrics)

    def submit(self, request: JobRequest, restart_count: int = 0) -> str:
        run_spec = request.run_spec
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
        job = self._jobs[handle] = _LocalJob(handle, request.collector_kind, tuple(request.watched_metrics), process)
        self._selector.register(process.stdout, selectors.EVENT_READ, job)
        if self._state_dir is not None:
            job.started = _start_time(process.pid)  # not yet reaped, so it has one
            self.emit_event("job-submitted", {"job": handle, "attempt": restart_count})
        return handle

    def _concluded(self, job: _LocalJob) -> None:
        """Report a trainer that exited and whose output is all read, and log how it ended."""
        self._changed.add(job.handle)
        if self._state_dir is not None:
            state = self.job_state(job.handle)
            if state.phase is JobPhase.SUCCEEDED:
                self.emit_event("job-succeeded", {"job": job.handle})
            else:
                self.emit_event("job-failed", {"job": job.handle, "reason": state.reason, "lastLine": job.last_line})

    def _read(self, job: _LocalJob, deadline: float) -> None:
        """One read of ``job``'s output; at EOF, close it and wait until ``deadline``."""
        chunk = os.read(job.process.stdout.fileno(), READ_BYTES)
        if job.failed_reason is None:  # else drained unread
            data = chunk
            if job.dropping:  # the rest of an over-long line, up to its end
                end = _LINE_END.search(data)
                job.dropping, data = end is None, b"" if end is None else data[end.end():]
            job.tail += data
            # Only the new bytes are searched, so a long line is not rescanned.
            start = len(job.tail) - len(data)
            cut = max(job.tail.rfind(b"\n", start), job.tail.rfind(b"\r", start)) + 1 if chunk else len(job.tail)
            if cut:
                lines = job.tail[:cut].decode("utf-8", errors="replace")
                del job.tail[:cut]
                if text := lines.rstrip():
                    job.last_line = text[max(text.rfind("\n"), text.rfind("\r")) + 1:][:LAST_LINE_CHARS]
                points = parse_metric_lines(lines, job.watched, job.handle)
                if job.collector is CollectorKind.PULL:
                    job.points.extend(points)
                elif points:
                    try:
                        self.metrics.register_observation_log(points)
                    except Exception as exc:  # any: the trial must end, not hang
                        job.failed_reason = f"metric registration failed: {type(exc).__name__}: {exc}"
            if len(job.tail) > READ_BYTES:
                job.tail.clear()
                job.dropping = True
        if not chunk:
            self._selector.unregister(job.process.stdout)
            job.process.stdout.close()
            try:
                job.process.wait(timeout=max(0.0, deadline - time.monotonic()))
                self._concluded(job)
            except subprocess.TimeoutExpired:
                pass  # found exited by a later ``advance``

    def job_state(self, handle: str) -> JobState:
        job = self._jobs.get(handle)
        if job is None:
            return JobState(phase=JobPhase.MISSING)
        if job.process.returncode is None:  # reaped only once its output is closed
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
        """The trainers that concluded since the last call."""
        changed, self._changed = self._changed, set()
        return changed

    def collect_metrics(self, handle: str) -> None:
        job = self._jobs.get(handle)
        if job is not None and job.points:
            self.metrics.register_observation_log(job.points)
            job.points = []

    def release(self, handle: str) -> None:
        """Forget a concluded trainer."""
        self._jobs.pop(handle, None)

    def advance(self, step: Callable[[], int]) -> None:
        """Run ``step``, then read the trainers' output until ``changed_jobs``
        has a trainer to report or ``poll_interval`` passes."""
        self._step += 1
        step()
        deadline = time.monotonic() + self.poll_interval
        for job in self._jobs.values():  # those that closed their output before they exited
            if job.process.stdout.closed and job.process.returncode is None and job.process.poll() is not None:
                self._concluded(job)
        while not self._changed:
            timeout = deadline - time.monotonic()
            for key, _ in self._selector.select(max(timeout, 0.0)):
                self._read(key.data, deadline)
            if timeout <= 0:
                break

    def close(self) -> None:
        """Stop every trainer still running with its group, then close its
        output unread, and the event log. Safe to call twice."""
        live = {job.process.pid: job.process for job in self._jobs.values() if job.process.returncode is None}
        _stop_groups(list(live), lambda pid: live[pid].poll() is None)
        for process in live.values():
            process.wait()
            process.stdout.close()
        self._selector.close()
        super().close()


def _stop_groups(pids: list[int], running: Callable[[int], bool]) -> None:
    """SIGTERM each process group, and SIGKILL each once every leader has
    exited (``running`` says) or the grace period is over."""
    deadline = time.monotonic() + TERMINATE_GRACE_S
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.killpg(pid, sig)
            except (ProcessLookupError, PermissionError):
                pass  # the whole group has exited already
        while sig is signal.SIGTERM and any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)


def _start_time(pid: int) -> int | None:
    """When process ``pid`` started, in clock ticks after boot: field 22 of
    ``/proc/<pid>/stat``, which tells a reused pid apart. None when no
    process has the pid. Without ``/proc`` every pid reads 0, so a trainer
    is matched on its pid alone."""
    try:
        stat = (_PROC / str(pid) / "stat").read_bytes()
    except OSError:
        return None if (_PROC / "self").exists() else 0
    return int(stat[stat.rindex(b")") + 2:].split()[19])
