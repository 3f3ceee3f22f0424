"""Host speed, probed inside the process whose time it corrects.

The 2-vCPU hosts this benchmark runs on change speed by up to 2x, for
seconds to minutes at a time, when another tenant shares the physical core;
CPU time slows as much as wall time. So every timed process runs a fixed
pure-Python probe from a timer signal every ``EVERY_S`` of wall time, from
its start to its end, and records when each probe ran and how much thread
CPU time it took. ``run.py`` leaves the probes' own time out of every
interval it measures, and scales each stretch of host time between probes
by ``REFERENCE_PROBE_S`` over the probe times beside it: the result is the
time the work would take on a host whose probe takes ``REFERENCE_PROBE_S``.

This module imports nothing the program does not import itself.
"""

import signal
import time

# The probe's thread CPU time in the host's fast phase: a 2-vCPU x86-64
# host, Python 3.11.7. Only the ratio to it matters; it sets the scale.
REFERENCE_PROBE_S = 0.001
EVERY_S = 0.2
N_KEYS = 1500


def _job() -> int:
    # Interpreted loops, string formatting, dict building and sorting. The
    # dict holds only floats, so the garbage collector does not track it and
    # the probe leaves the program's collection schedule as it was.
    table = {f"key-{i:05d}": i * 0.5 for i in range(N_KEYS)}
    return len(sorted(table, key=lambda k: table[k] % 7.0))


class Probes:
    """Probe records ``[start, end, cost]``: monotonic seconds (comparable
    across processes on one host) and the probe's thread CPU seconds."""

    def __init__(self) -> None:
        self.records: list[list[float]] = []

    def sample(self, *_signal) -> None:
        start = time.monotonic()
        costs = []
        for _ in range(3):
            c0 = time.thread_time()
            _job()
            costs.append(time.thread_time() - c0)
        self.records.append([start, time.monotonic(), sorted(costs)[1]])

    def start(self) -> None:
        """Probe now, then every ``EVERY_S`` until ``stop``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
