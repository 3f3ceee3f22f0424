"""Deterministic discrete-tick cluster simulator.

One tick is one simulated minute. Within a tick the order is fixed: chaos
injection, job progress, scheduling, autoscaling, then one controller step.
All randomness (chaos victim draws, metric noise) is derived statelessly
from (seed, purpose, tick, name), so world evolution is a pure function of
the initial state and seed, and a crash-restore replays identically. Chaos
draws from the stdlib port in ``tunectl.pcg``; only metric noise, a normal
draw, imports numpy.

The scheduler is first-fit-decreasing by cpu request with a stable tie-break
on (trial name, worker index); in gang mode all workers of a trial place
atomically or not at all. Namespace quotas are enforced at scheduling time.
Nodes are never scaled down while they hold running work.

A trial's job is released once its trial concludes, so the world holds
live jobs only, and each experiment's service in a table of its own: a
trial and a service never share a job. ``SimBackend`` gives the world's
events and the whole world to the commit path of ``ExecutionBackend``.

``ScenarioConfig``, with ``NodeGroup`` and ``Quota``, is a scenario file's
schema, here so that ``tunectl run`` builds its world without importing
``tunectl.scenarios``.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..codec import DocumentError, from_doc
from ..errors import InvalidPayloadError, UnknownNamespaceError
from ..metrics import MetricPoint, ObservationStore
from ..metrics import parse_metric_lines  # noqa: F401 -- perfbench/tracer.py wraps it under this module
from ..pcg import Generator
from ..resources import CollectorKind, SimObjectiveDescriptor
from ..controller.backend import ExecutionBackend, JobPhase, JobRequest, JobState, job_handle
from .objectives import eval_sim_objective

if TYPE_CHECKING:  # only a noisy metric draws from numpy
    import numpy as np

CHAOS_SALT = 0xC7A05
METRIC_SALT = 0x3E791C
LIVE_PHASES = (JobPhase.PENDING, JobPhase.RUNNING)


class ChaosMode(str, Enum):
    FAIL_TRIAL = "fail-trial"
    KILL_WORKER = "kill-worker"


@dataclass
class ChaosPolicy:
    """Its rules are field metadata, which ``codec.from_doc`` applies."""

    mode: ChaosMode
    fraction: float = field(metadata={"minimum": 0, "maximum": 1})
    interval_ticks: int = field(metadata={"minimum": 1})
    seed: int = field(default=0, metadata={"minimum": 0})


@dataclass
class AutoscalerConfig:
    min_nodes: int = field(metadata={"minimum": 1})
    max_nodes: int
    node_capacity_cpu: float = field(metadata={"exclusive_minimum": 0, "finite": True})
    scale_down_grace_ticks: int = field(default=10, metadata={"minimum": 0})

    def __post_init__(self) -> None:
        if self.min_nodes > self.max_nodes:
            raise ValueError("require minNodes <= maxNodes")


@dataclass(frozen=True)
class NodeGroup:
    capacity_cpu: float = field(metadata={"exclusive_minimum": 0})
    count: int = field(default=1, metadata={"minimum": 1})


@dataclass(frozen=True)
class Quota:
    name: str
    cpu_limit: float | None = field(default=None, metadata={"exclusive_minimum": 0, "finite": True})  # None: no quota


@dataclass(frozen=True)
class ScenarioConfig:
    """A simulated world, as a scenario file describes it. A node is a
    capacity or a group of equal nodes, a namespace a name or a quota, and
    an experiment a file path relative to the scenario file."""

    seed: int = field(default=0, metadata={"minimum": 0})
    gang: bool = True
    nodes: tuple[float | NodeGroup, ...] = ()
    namespaces: tuple[str | Quota, ...] = ()
    autoscaler: AutoscalerConfig | None = None
    chaos: ChaosPolicy | None = None
    experiments: tuple[str, ...] = ()
    max_ticks: int = field(default=10_000, metadata={"minimum": 0})

    def __post_init__(self) -> None:
        """The rules that field metadata cannot state: a bare node capacity
        is above 0, and no namespace is named twice."""
        problems = [
            f"nodes[{i}]: must be > 0"
            for i, node in enumerate(self.nodes)
            if not isinstance(node, NodeGroup) and not node > 0
        ]
        names = [ns.name if isinstance(ns, Quota) else ns for ns in self.namespaces]
        problems += [f"namespaces[{i}]: '{name}' is named twice" for i, name in enumerate(names) if name in names[:i]]
        if problems:
            raise DocumentError(problems)

    def world(self) -> SimWorld:
        world = SimWorld(seed=self.seed, gang=self.gang, autoscaler=self.autoscaler, chaos=self.chaos)
        for node in self.nodes:
            group = node if isinstance(node, NodeGroup) else NodeGroup(node)
            for _ in range(group.count):
                world.add_node(group.capacity_cpu)
        for namespace in self.namespaces:
            quota = namespace if isinstance(namespace, Quota) else Quota(namespace)
            world.add_namespace(quota.name, quota.cpu_limit)
        return world


@dataclass
class SimNode:
    capacity_cpu: float
    allocated_cpu: float = 0.0
    idle_since: int | None = None


@dataclass
class SimNamespace:
    cpu_limit: float | None = None  # None: no quota
    cpu_used: float = 0.0


@dataclass
class SimUnit:
    remaining: int  # ticks left to run; unit i of a job is its worker i, on the job's CPU
    node: str | None = None


@dataclass
class SimService:
    """An experiment's service: one unit of ``cpu`` that runs until released."""

    cpu: float
    node: str | None = None


@dataclass
class SimJob:
    """A trial's job. Its constructor takes what a tick changes, all that a
    commit holds of it. ``with_spec`` sets the rest, fixed at submit,
    from the trial's run spec: on submit, and on resume from the store."""

    phase: JobPhase = JobPhase.PENDING
    reason: str | None = field(default=None, metadata={"omit_none": True})
    completed: int = 0  # checkpoint: ticks finished by the slowest worker
    attempt: int = 1
    units: list[SimUnit] = field(default_factory=list)
    points: list[tuple[int, float]] = field(default_factory=list)  # pull: (tick, value) until collected
    name: str = field(init=False)  # handle: "<namespace>/<trial>"
    cpu: float = field(init=False)  # per worker
    duration: int = field(init=False)
    descriptor: SimObjectiveDescriptor = field(init=False)
    assignments: tuple[tuple[str, Any], ...] = field(init=False)
    collector: CollectorKind = field(init=False)
    watched: tuple[str, ...] = field(init=False)

    def with_spec(self, request: JobRequest) -> SimJob:
        """This job, with its fixed part set from what the trial's submit takes."""
        run_spec, template, self.collector, watched = request
        payload = run_spec.resolved_payload
        if not isinstance(payload, SimObjectiveDescriptor):
            raise InvalidPayloadError("the simulator runs 'simulated' trial templates only")
        self.name = job_handle(run_spec.namespace, run_spec.trial_name)
        self.cpu, self.duration, self.descriptor = template.cpu_per_worker, payload.duration_ticks, payload
        self.assignments, self.watched = run_spec.parameter_assignments, tuple(watched)
        return self


def _name_entropy(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def _namespace(handle: str) -> str:
    return handle.partition("/")[0]


def _awaits_placement(unit: SimUnit) -> bool:
    return unit.node is None and unit.remaining > 0


def _derived_rng(*entropy: int) -> np.random.Generator:
    """The numpy generator of a noisy metric value, which draws normals."""
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


@dataclass(eq=False)
class SimWorld:
    """The simulated cluster. Its fields are the state a commit holds:
    ``jobs`` holds the trial jobs not yet released, the live ones and the
    concluded ones whose trial has not yet recorded it, by handle; and
    ``services`` each experiment's service, by handle, until released. The
    ``events`` emitted (until a backend with a state directory writes them
    to its file), the ``changed`` trial jobs (until ``changed_jobs`` takes
    them), the metric store and the count of placed units on each node and
    in each namespace are attached in ``__post_init__``. A tick phase that
    changes a trial job's phase marks it ``changed``."""

    seed: int = 0
    gang: bool = True
    autoscaler: AutoscalerConfig | None = None
    chaos: ChaosPolicy | None = None
    tick: int = 0
    node_seq: int = 0
    nodes: dict[str, SimNode] = field(default_factory=dict)
    namespaces: dict[str, SimNamespace] = field(default_factory=dict)
    jobs: dict[str, SimJob] = field(default_factory=dict)
    services: dict[str, SimService] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.events: list[dict] = []
        self.changed: set[str] = set()
        self.metrics: ObservationStore | None = None
        self._units_on: Counter[str] = Counter()
        self._units_in: Counter[str] = Counter()
        placed = [(h, u) for h, job in self.jobs.items() for u in job.units] + list(self.services.items())
        for handle, unit in placed:
            if unit.node is not None:
                self._units_on[unit.node] += 1
                self._units_in[_namespace(handle)] += 1

    # -- world construction -------------------------------------------------

    def add_node(self, capacity_cpu: float) -> str:
        node_id = f"node-{self.node_seq:04d}"
        self.node_seq += 1
        self.nodes[node_id] = SimNode(float(capacity_cpu))
        return node_id

    def add_namespace(self, name: str, cpu_limit: float | None = None) -> None:
        self.namespaces[name] = SimNamespace(None if cpu_limit is None else float(cpu_limit))

    # -- events --------------------------------------------------------------

    def emit(self, kind: str, payload: dict) -> None:
        self.events.append({"tick": self.tick, "kind": kind, "payload": payload})

    # -- job lifecycle -------------------------------------------------------

    def submit_job(self, request: JobRequest) -> str:
        run_spec, workers = request.run_spec, request.template.worker_count
        handle = job_handle(run_spec.namespace, run_spec.trial_name)
        if run_spec.namespace not in self.namespaces:
            raise UnknownNamespaceError(f"namespace '{run_spec.namespace}' does not exist")
        existing = self.jobs.get(handle)
        if existing is not None:
            # A live job's resubmission changes nothing, and a concluded job is not restarted.
            if existing.phase is JobPhase.FAILED_TEMPORARY:
                # Redeploy, resuming from the recorded checkpoint.
                existing.attempt += 1
                existing.phase = JobPhase.PENDING
                existing.reason = None
                existing.units = [SimUnit(existing.duration - existing.completed) for _ in existing.units]
                self.emit("job-resumed", {"job": handle, "attempt": existing.attempt,
                                          "checkpoint": existing.completed})
            return handle
        job = self.jobs[handle] = SimJob().with_spec(request)
        job.units = [SimUnit(job.duration) for _ in range(workers)]
        self.emit("job-submitted", {"job": handle, "workers": workers})
        return handle

    def reserve_service(self, namespace: str, name: str, cpu: float) -> str:
        handle = job_handle(namespace, name)
        if handle in self.services:
            return handle
        if namespace not in self.namespaces:
            raise UnknownNamespaceError(f"namespace '{namespace}' does not exist")
        self.services[handle] = SimService(cpu)
        self.emit("service-reserved", {"service": handle, "cpu": cpu})
        return handle

    def release_service(self, namespace: str, name: str) -> None:
        handle = job_handle(namespace, name)
        service = self.services.pop(handle, None)
        if service is not None:
            self._unplace(service, handle, service.cpu)
            self.emit("service-released", {"service": handle})

    def release(self, handle: str) -> None:
        job = self.jobs.pop(handle, None)
        for unit in job.units if job is not None else ():
            self._unplace(unit, handle, job.cpu)

    def job_state(self, handle: str) -> JobState:
        job = self.jobs.get(handle)
        if job is None:
            return JobState(phase=JobPhase.MISSING)
        return JobState(phase=job.phase, reason=job.reason)

    # -- placement bookkeeping ------------------------------------------------

    def _place(self, unit: SimUnit | SimService, node_id: str, handle: str, cpu: float) -> None:
        node, name = self.nodes[node_id], _namespace(handle)
        node.allocated_cpu += cpu
        node.idle_since = None
        self.namespaces[name].cpu_used += cpu
        self._units_on[node_id] += 1
        self._units_in[name] += 1
        unit.node = node_id

    def _unplace(self, unit: SimUnit | SimService, handle: str, cpu: float) -> None:
        """Take the unit of job or service ``handle`` off its node. A node
        or namespace left with no placed unit totals exactly 0.0:
        subtracting CPU values that are not binary fractions (0.1) would
        otherwise leave a residue like 2.8e-17, and the autoscaler never
        sees such a node as empty."""
        if unit.node is None:
            return
        name = _namespace(handle)
        ns = self.namespaces[name]
        self._units_on[unit.node] -= 1
        self._units_in[name] -= 1
        node = self.nodes.get(unit.node)
        if node is not None:
            node.allocated_cpu = node.allocated_cpu - cpu if self._units_on[unit.node] else 0.0
        ns.cpu_used = ns.cpu_used - cpu if self._units_in[name] else 0.0
        unit.node = None

    # -- tick phases -----------------------------------------------------------

    def _live(self) -> list[SimJob]:
        return [job for name in sorted(self.jobs) if (job := self.jobs[name]).phase in LIVE_PHASES]

    def _running_trials(self) -> list[SimJob]:
        return [job for job in self._live() if job.phase is JobPhase.RUNNING]

    def chaos_tick(self) -> None:
        policy = self.chaos
        if policy is None or policy.fraction <= 0.0:
            return
        if self.tick == 0 or self.tick % policy.interval_ticks != 0:
            return
        running = self._running_trials()
        count = min(math.ceil(policy.fraction * len(running)), len(running))
        if count == 0:
            return
        picks = sorted(Generator([self.seed, policy.seed, CHAOS_SALT, self.tick]).sample(len(running), count))
        for i in picks:
            job = running[i]
            for unit in job.units:
                self._unplace(unit, job.name, job.cpu)
            self.changed.add(job.name)
            if policy.mode == ChaosMode.FAIL_TRIAL:
                job.phase = JobPhase.FAILED_PERMANENT
                job.reason = "chaos: trial payload invalidated"
                self.emit("chaos-fail", {"job": job.name})
            else:
                job.phase = JobPhase.FAILED_TEMPORARY
                job.reason = "chaos: worker killed"
                self.emit("chaos-kill", {"job": job.name, "checkpoint": job.completed})

    def _emit_metric(self, job: SimJob, progress: float) -> None:
        if not job.watched:
            return
        value = eval_sim_objective(
            job.descriptor,
            job.assignments,
            progress,
            lambda: _derived_rng(
                self.seed, _name_entropy(job.name), job.descriptor.rng_seed_offset, METRIC_SALT, self.tick
            ),
        )
        if not math.isfinite(value):
            return  # as a trainer's "inf" line, no point: a trial left with none fails for want of metrics
        metric = job.watched[0]
        if job.collector is CollectorKind.PUSH:
            assert self.metrics is not None
            self.metrics.register_observation_log(
                [MetricPoint(trial=job.name, metric=metric, ts=self.tick, value=value)]
            )
        else:
            job.points.append((self.tick, value))

    def progress_tick(self) -> None:
        for job in self._running_trials():
            placed = [u for u in job.units if u.node is not None and u.remaining]
            if not placed:
                continue
            for unit in placed:
                unit.remaining -= 1
            job.completed = job.duration - max(u.remaining for u in job.units)
            chief = job.units[0]
            if chief.node is not None:
                progress = (job.duration - chief.remaining) / job.duration
                self._emit_metric(job, progress)
            for unit in placed:
                if unit.remaining == 0:
                    self._unplace(unit, job.name, job.cpu)
            if all(u.remaining == 0 for u in job.units):
                job.phase = JobPhase.SUCCEEDED
                self.changed.add(job.name)
                self.emit("job-succeeded", {"job": job.name})

    def _pending_units(self) -> list[tuple[float, str, int, SimUnit | SimService]]:
        """What awaits placement, as (CPU, handle, worker index, unit): the
        services not placed, and the unplaced units of live trial jobs."""
        services = [(s.cpu, handle, 0, s) for handle, s in self.services.items() if s.node is None]
        return services + [(job.cpu, job.name, i, u) for job in self._live() for i, u in enumerate(job.units)
                           if _awaits_placement(u)]

    def _fits(self, node: SimNode, ns: SimNamespace, cpu: float) -> bool:
        return (
            node.allocated_cpu + cpu <= node.capacity_cpu + 1e-9
            and (ns.cpu_limit is None or ns.cpu_used + cpu <= ns.cpu_limit + 1e-9)
        )

    def _first_fit(self, ns: SimNamespace, cpu: float) -> str | None:
        for node_id in sorted(self.nodes):
            if self._fits(self.nodes[node_id], ns, cpu):
                return node_id
        return None

    def schedule_tick(self) -> int:
        pending = self._pending_units()
        # Services (deployed per-experiment infrastructure) take their
        # reservation before any trial competes for the same quota.
        pending.sort(key=lambda p: (isinstance(p[3], SimUnit), -p[0], p[1], p[2]))
        placed_count = 0
        handled_jobs: set[str] = set()
        for cpu, handle, index, unit in pending:
            job = self.jobs[handle] if isinstance(unit, SimUnit) else None
            # A gang trial's unplaced workers form one group; any other unit
            # is a group of one. A group places all or nothing.
            group = [(index, unit)]
            if self.gang and job is not None:
                if handle in handled_jobs:
                    continue
                handled_jobs.add(handle)
                group = [(i, u) for i, u in enumerate(job.units) if _awaits_placement(u)]
            ns = self.namespaces[_namespace(handle)]
            staged: list[tuple[int, str]] = []
            for i, member in group:
                node = self._first_fit(ns, cpu)
                if node is None:
                    break
                self._place(member, node, handle, cpu)
                staged.append((i, node))
            if len(staged) < len(group):
                for _, member in group[: len(staged)]:
                    self._unplace(member, handle, cpu)
                continue
            placed_count += len(staged)
            for i, node in staged:
                self.emit("placed", {"job": handle, "worker": i, "node": node})
            if job is not None and job.phase is JobPhase.PENDING:
                job.phase = JobPhase.RUNNING
                self.changed.add(handle)
        return placed_count

    def autoscale_tick(self) -> None:
        cfg = self.autoscaler
        if cfg is None:
            return
        pending_cpu = sum(cpu for cpu, *_ in self._pending_units())
        if pending_cpu > 0 and len(self.nodes) < cfg.max_nodes:
            add = min(
                math.ceil(pending_cpu / cfg.node_capacity_cpu),
                cfg.max_nodes - len(self.nodes),
            )
            for _ in range(add):
                self.emit("node-added", {"node": self.add_node(cfg.node_capacity_cpu)})
        for node in self.nodes.values():
            if node.allocated_cpu <= 0.0:
                if node.idle_since is None:
                    node.idle_since = self.tick
            else:
                node.idle_since = None
        removable = [
            node_id
            for node_id, n in self.nodes.items()
            if n.allocated_cpu <= 0.0
            and n.idle_since is not None
            and self.tick - n.idle_since >= cfg.scale_down_grace_ticks
        ]
        # Newest nodes drain first; never drop below the floor.
        removable.sort(reverse=True)
        for node_id in removable:
            if len(self.nodes) <= cfg.min_nodes:
                break
            del self.nodes[node_id]
            self.emit("node-removed", {"node": node_id})

    def _tick_stats(self) -> None:
        running: dict[str, int] = {}
        for job in self._running_trials():
            namespace = _namespace(job.name)
            running[namespace] = running.get(namespace, 0) + 1
        namespaces = {
            name: {"cpuUsed": self.namespaces[name].cpu_used, "runningTrials": running.get(name, 0)}
            for name in sorted(self.namespaces)
        }
        self.emit(
            "tick-stats",
            {
                "nodes": len(self.nodes),
                "pendingCpu": sum(cpu for cpu, *_ in self._pending_units()),
                "namespaces": namespaces,
            },
        )

    def advance_tick(self, controller_step: Callable[[], int] | None = None) -> None:
        """One tick: chaos, progress, scheduler, autoscaler, controller,
        then the tick's stats. Each is a method of its own, so a caller that
        times the phases or kills a run between them wraps the methods; the
        tick itself takes no hook."""
        self.tick += 1
        self.chaos_tick()
        self.progress_tick()
        self.schedule_tick()
        self.autoscale_tick()
        if controller_step is not None:
            controller_step()
        self._tick_stats()


class SimBackend(ExecutionBackend):
    """Execution backend over a :class:`SimWorld`, whose ``events`` it
    logs and which its commits hold. Of each trial job the world holds what
    a tick changes, not its spec: each unit's ticks left and node, and the
    job's phase, reason, checkpoint, attempt and unregistered points;
    ``restore`` rebuilds the spec from the job's trial in the store."""

    STATE_KEY = "world"

    def __init__(self, world: SimWorld, metrics: ObservationStore, state_dir: str | Path | None = None):
        self.world = world
        self.events = world.events
        self.metrics = metrics
        self.world.metrics = metrics
        if state_dir is not None:
            self._open_state(Path(state_dir), 0)

    def state(self) -> SimWorld:
        return self.world

    @classmethod
    def restore(cls, state: Any, metrics: ObservationStore, job_request: Callable[[str], JobRequest]) -> SimBackend:
        world = from_doc(SimWorld, state)
        for handle, job in world.jobs.items():
            job.with_spec(job_request(handle))
        return cls(world, metrics)

    # -- ExecutionBackend ----------------------------------------------------

    def submit(self, request: JobRequest, restart_count: int = 0) -> str:
        return self.world.submit_job(request)

    def job_state(self, handle: str) -> JobState:
        return self.world.job_state(handle)

    def changed_jobs(self) -> list[str]:
        """The trial jobs the tick phases marked changed since the last
        call, in handle order; the call leaves the world's set empty."""
        changed, self.world.changed = self.world.changed, set()
        return sorted(changed)

    def collect_metrics(self, handle: str) -> None:
        job = self.world.jobs.get(handle)
        if job is None or not job.points:
            return
        self.metrics.register_observation_log(
            [MetricPoint(trial=handle, metric=job.watched[0], ts=tick, value=value) for tick, value in job.points]
        )

    def reserve_service(self, namespace: str, name: str, cpu: float) -> None:
        self.world.reserve_service(namespace, name, cpu)

    def release_service(self, namespace: str, name: str) -> None:
        self.world.release_service(namespace, name)

    def release(self, handle: str) -> None:
        self.world.release(handle)

    def advance(self, controller_step: Callable[[], int]) -> None:
        self.world.advance_tick(controller_step)

    def emit_event(self, kind: str, payload: dict) -> None:
        self.world.emit(kind, payload)
