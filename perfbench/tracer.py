"""Spans and counters recorded from outside the program.

The benchmark wraps each layer's public functions at the name its caller
looks them up by (a class attribute, a module global, or a dispatch-table
entry), so no file under ``src/`` changes. A span is (name, start, end,
parent); spans stay in memory in flat arrays and are written out once, when
the process ends. A layer's self time is its spans' duration minus the time
covered by their child spans.

``TickTimer`` is the only hook a timed (untraced) run installs: it times one
backend tick and nothing else. Hooks are installed with ``after_import``, so
they import no module of the program themselves.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from array import array
from pathlib import Path

BOOKKEEPING = "tracer.bookkeeping"  # the tracer's own counting, a child span so no layer pays for it


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._main = threading.get_ident()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        stack = self._stack
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_name.append(nid)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, note=None, heavy=False):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's arguments; ``note(result, args)`` runs after the span closes,
        in a bookkeeping span of its own when it is ``heavy``."""
        fixed = self._id(name) if isinstance(name, str) else None
        main = self._main
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != main:
                return fn(*args, **kwargs)
            idx = self._open(fixed if fixed is not None else self._id(name(*args, **kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None and not heavy:
                note(result, args)
            elif note is not None:
                idx = self._open(self._id(BOOKKEEPING))
                try:
                    note(result, args)
                finally:
                    self._close(idx)
            return result

        traced.perfbench_span = True
        return traced

    def patch(self, owner, attr, name, note=None, heavy=False) -> None:
        """Replace ``owner.attr`` by its ``wrap``, unless it is wrapped already."""
        fn = getattr(owner, attr)
        if not getattr(fn, "perfbench_span", False):
            setattr(owner, attr, self.wrap(fn, name, note, heavy))

    def counted(self, fn, name):
        """Wrap ``fn`` with a call counter and no span."""
        counters = self.counters

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds; plus the
        seconds spent in each (parent name, child name) pair."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        own = [0.0] * n
        pairs: dict[tuple[int, int], float] = {}
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        for i in range(len(starts)):
            nid = names[i]
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d
            p = parents[i]
            if p >= 0:
                pid = names[p]
                own[pid] -= d
                pairs[(pid, nid)] = pairs.get((pid, nid), 0.0) + d
        return {
            "spans": {
                self.names[i]: {"calls": calls[i], "s": total[i], "self_s": own[i]} for i in range(n)
            },
            "pairs": {f"{self.names[a]}>{self.names[b]}": s for (a, b), s in pairs.items()},
            "counters": dict(self.counters),
        }

    def durations(self, name: str) -> list[list[float]]:
        """[start, seconds] of every span named ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            [self.span_start[i], self.span_end[i] - self.span_start[i]]
            for i in range(len(self.span_start))
            if self.span_name[i] == nid
        ]

    def dump(self, path: Path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": ["name:i32", "start:f64", "end:f64", "parent:i32"],
        }
        with path.open("wb") as fp:
            fp.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fp)


class TickTimer:
    """Start and host seconds of every call of a backend tick method."""

    def __init__(self) -> None:
        self.ticks: list[list[float]] = []

    def wrap(self, fn):
        ticks = self.ticks
        clock = time.monotonic

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ticks.append([t0, clock() - t0])

        return timed


class _AfterImport:
    """A meta-path finder that calls back once a named module has executed."""

    def __init__(self) -> None:
        self.pending: dict[str, list] = {}

    def find_spec(self, name, path=None, target=None):
        callbacks = self.pending.pop(name, None)
        if callbacks is None:
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(name, path, target)
                if spec is not None:
                    break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_then_call(module):
            exec_module(module)
            for fn in callbacks:
                fn(module)

        spec.loader.exec_module = exec_then_call
        return spec


_after_import = _AfterImport()


def after_import(name: str, fn) -> None:
    """Call ``fn(module)`` once module ``name`` has executed: now if it has,
    else right after the program imports it. Hooks installed this way load
    no module the program would not load itself, so a program that imports
    lazily keeps its import savings under the benchmark."""
    module = sys.modules.get(name)
    if module is not None:
        fn(module)
        return
    if _after_import not in sys.meta_path:
        sys.meta_path.insert(0, _after_import)
    _after_import.pending.setdefault(name, []).append(fn)


def install_tick_timer(timer: TickTimer) -> None:
    """Time ``SimWorld.advance_tick`` and ``LocalProcessBackend.advance``."""

    def sim(module):
        module.SimWorld.advance_tick = timer.wrap(module.SimWorld.advance_tick)

    def localproc(module):
        module.LocalProcessBackend.advance = timer.wrap(module.LocalProcessBackend.advance)

    after_import("tunectl.cluster.sim", sim)
    after_import("tunectl.cluster.localproc", localproc)


def install_layers(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from, in
    each module once the program has imported it. A function imported by
    name is wrapped where it is defined and again at each importer that
    bound it before; ``Tracer.patch`` never wraps a function twice."""
    patch = tr.patch

    # controller.reconcile: the dispatch table controller_step reads, and
    # the module globals run_control_loop and reconcile_suggestion call.
    def reconcile(m):
        def mutations(result, _args):
            tr.count("reconcile.mutations", result)

        for kind, fn in list(m._RECONCILERS.items()):
            m._RECONCILERS[kind] = tr.wrap(fn, f"reconcile.{kind}", mutations)
        patch(m, "controller_step", "controller.step")
        patch(
            m,
            "get_suggestions",
            lambda request: f"suggest.{request.experiment.algorithm.algorithm_name}",
            lambda r, a: tr.count(
                f"suggest.{a[0].experiment.algorithm.algorithm_name}.sets", len(r.assignment_sets)
            ),
        )

    def store(m):
        cls = m.ResourceStore
        for op in ("get", "keys", "create", "update"):
            patch(cls, op, f"store.{op}")
        patch(cls, "list", "store.list", lambda r, _a: tr.count("store.list.items", len(r)))
        patch(m.FileResourceStore, "_load", "store.load")
        m.clone_resource = tr.counted(m.clone_resource, "store.clone.calls")

    # cluster.sim: tick phases, the tick itself, and the snapshot.
    def sim(m):
        world_cls = m.SimWorld
        for phase in ("chaos", "progress", "autoscale"):
            patch(world_cls, f"{phase}_tick", f"sim.{phase}")

        def after_schedule(placed, args):
            tr.count("sim.placements", placed)
            tr.count("sim.pending_units", len(args[0]._pending_units()))

        patch(world_cls, "schedule_tick", "sim.schedule", after_schedule, True)
        live = (m.JobPhase.PENDING, m.JobPhase.RUNNING)

        def after_tick(_result, args):
            world = args[0]
            tr.count("sim.ticks")
            tr.count("sim.jobs_live", sum(1 for j in world.jobs.values() if j.phase in live))
            tr.counters["sim.jobs_total"] = max(tr.counters.get("sim.jobs_total", 0), len(world.jobs))

        patch(world_cls, "advance_tick", "sim.tick", after_tick, True)

        def after_persist(_result, args):
            backend = args[0]
            if backend._state_dir is not None:
                tr.count("sim.snapshot.bytes", (backend._state_dir / backend.WORLD_FILE).stat().st_size)

        patch(m.SimBackend, "persist", "sim.snapshot", after_persist, True)
        patch(m, "parse_metric_lines", "metrics.parse")

    # metrics: both observation stores and the parser.
    def metrics(m):
        for store_cls in (m.InMemoryObservationStore, m.FileObservationStore):
            patch(
                store_cls,
                "register_observation_log",
                "metrics.register",
                lambda _r, a: tr.count("metrics.register.points", len(a[1])),
            )
            patch(store_cls, "get_observation_log", "metrics.get")
        patch(m, "parse_metric_lines", "metrics.parse")

    def localproc(m):
        lp = m.LocalProcessBackend
        patch(lp, "submit", "localproc.submit")
        patch(lp, "job_state", "localproc.job_state")
        patch(lp, "collect_metrics", "localproc.collect")
        patch(lp, "advance", "localproc.advance")
        patch(m, "parse_metric_lines", "metrics.parse")

    def parse_experiment(m):
        patch(m, "parse_experiment", "resources.parse")

    def results(m):
        patch(m, "build_results_table", "results.build")
        patch(m, "render_csv", "results.render")

    def cli(m):
        parse_experiment(m)
        results(m)

    # BO's only log record is its INFO notice of falling back to random.
    def bayesopt(m):
        import logging

        class CountHandler(logging.Handler):
            def emit(self, record: logging.LogRecord) -> None:
                tr.count("suggest.bo_fallbacks")

        m.logger.addHandler(CountHandler(logging.INFO))
        m.logger.setLevel(logging.INFO)
        m.logger.propagate = False

    for name, install in (
        ("tunectl.resources", parse_experiment),
        ("tunectl.metrics", metrics),
        ("tunectl.results", results),
        ("tunectl.controller.model", parse_experiment),
        ("tunectl.controller.store", store),
        ("tunectl.controller.reconcile", reconcile),
        ("tunectl.cluster.sim", sim),
        ("tunectl.cluster.localproc", localproc),
        ("tunectl.cli", cli),
        ("tunectl.suggest.bayesopt", bayesopt),
    ):
        after_import(name, install)



def read_proc_io() -> tuple[int, int, int]:
    """(rchar, wchar) of this process, and the bytes this read itself took."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return 0, 0, 0
    fields = dict(line.split(": ") for line in text.splitlines() if ": " in line)
    return int(fields.get("rchar", 0)), int(fields.get("wchar", 0)), len(text)


def io_delta(before: tuple[int, int, int], after: tuple[int, int, int]) -> tuple[int, int]:
    """(read, written) bytes between two ``read_proc_io`` calls; the second
    call's rchar counts the first call's read, which is dropped."""
    return after[0] - before[0] - before[2], after[1] - before[1]


IMPORTS_DONE = b"perfbench: entry imports done\n"


def mark_imports_done() -> None:
    """Separate the entry point's own imports from later, lazy ones in the
    ``-X importtime`` stream (both go to file descriptor 2)."""
    os.write(2, IMPORTS_DONE)


def parse_importtime(stderr: str) -> dict:
    """Reduce ``-X importtime`` output to seconds: the entry imports' total,
    and the self time of every numpy and scipy module wherever imported."""
    entry = scipy = numpy = 0.0
    before_marker = True
    for line in stderr.splitlines():
        if line == IMPORTS_DONE.decode().rstrip("\n"):
            before_marker = False
            continue
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            own, cumulative = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        top = name.split(".")[0]
        if top == "scipy":
            scipy += own
        elif top == "numpy":
            numpy += own
        if before_marker and depth == 0 and top == "tunectl":
            entry += cumulative
    return {"import.cli_s": entry / 1e6, "import.scipy_s": scipy / 1e6, "import.numpy_s": numpy / 1e6}
