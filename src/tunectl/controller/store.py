"""Versioned resource store with compare-and-swap updates.

An update is accepted only when the caller's expected generation matches the
stored one; every accepted update increments the generation. The file-backed
variant persists each resource as a canonical YAML document under
``<dir>/<kind>s/<namespace>.<name>.yaml`` plus a generation index, making the
whole control-plane state human-inspectable and diff-friendly.

Every write also keeps two derived indexes current (loading rebuilds them),
so the controllers read what they need without scanning every resource:

- the sorted keys of each kind, and the sorted *live* keys: experiments and
  trials not yet in a terminal phase, and suggestions whose experiment is
  not (a suggestion is named after its experiment);
- per (namespace, experiment), a summary of its trials: phase counts, the
  best succeeded observation in each direction, and the concluded trials in
  name order.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import yaml

from ..errors import CasConflictError, ResourceExistsError, TunectlError
from ..suggest.registry import AssignmentSet
from .model import (
    KIND_EXPERIMENT,
    KIND_SUGGESTION,
    KIND_TRIAL,
    TERMINAL_EXPERIMENT,
    TERMINAL_TRIAL,
    Resource,
    TrialPhase,
    clone_resource,
    resource_from_doc,
    resource_key,
    resource_to_doc,
)

# libyaml reads and writes the same documents as PyYAML's pure-Python
# loader and dumper, several times faster; PyYAML built without it has only
# the latter.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@dataclass(frozen=True)
class TrialRecord:
    """The part of a trial that the experiment and suggestion controllers read."""

    name: str
    phase: TrialPhase
    assignments: AssignmentSet
    observation: float | None


@dataclass(frozen=True)
class TrialSummary:
    """One experiment's trials: phase counts and the best succeeded trial
    each way, ties going to the lowest trial name."""

    pending: int = 0  # Created or Pending
    running: int = 0
    succeeded: int = 0
    failed: int = 0
    spawned: int = 0
    lowest: TrialRecord | None = None
    highest: TrialRecord | None = None


def _improves(record: TrialRecord, best: TrialRecord | None, maximize: bool) -> bool:
    if record.phase is not TrialPhase.SUCCEEDED or record.observation is None:
        return False
    if best is None:
        return True
    if record.observation == best.observation:
        return record.name < best.name
    return (record.observation > best.observation) == maximize


class _ExperimentTrials:
    def __init__(self) -> None:
        self.records: dict[str, TrialRecord] = {}
        self.counts: Counter[TrialPhase] = Counter()
        self.concluded: list[str] = []  # sorted names of terminal trials
        self.best: dict[bool, TrialRecord | None] = {False: None, True: None}  # by maximize

    def put(self, record: TrialRecord) -> None:
        old = self.records.pop(record.name, None)
        if old is not None:
            self.counts[old.phase] -= 1
            if old.phase in TERMINAL_TRIAL:
                del self.concluded[bisect.bisect_left(self.concluded, old.name)]
            if old in self.best.values():  # the best was rewritten: rank again
                self.best = {False: None, True: None}
                for other in self.records.values():
                    self._rank(other)
        self.records[record.name] = record
        self.counts[record.phase] += 1
        if record.phase in TERMINAL_TRIAL:
            bisect.insort(self.concluded, record.name)
        self._rank(record)

    def _rank(self, record: TrialRecord) -> None:
        for maximize, best in self.best.items():
            if _improves(record, best, maximize):
                self.best[maximize] = record

    def summary(self) -> TrialSummary:
        counts = self.counts
        return TrialSummary(
            pending=counts[TrialPhase.CREATED] + counts[TrialPhase.PENDING],
            running=counts[TrialPhase.RUNNING],
            succeeded=counts[TrialPhase.SUCCEEDED],
            failed=counts[TrialPhase.FAILED],
            spawned=len(self.records),
            lowest=self.best[False],
            highest=self.best[True],
        )


class ResourceStore:
    """In-memory store; the base for the file-backed variant.

    Reads hand out clones so callers never alias the stored mutable state;
    experiment specs themselves are shared and treated as immutable once
    parsed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resources: dict[str, Resource] = {}
        self._keys: dict[str, list[str]] = {}  # kind -> sorted keys
        self._live: dict[str, list[str]] = {}  # kind -> sorted live keys
        self._trials: dict[tuple[str, str], _ExperimentTrials] = {}

    def create(self, resource: Resource) -> Resource:
        with self._lock:
            if resource.key in self._resources:
                raise ResourceExistsError(f"resource '{resource.key}' already exists")
            stored = clone_resource(resource)
            stored.generation = 1
            self._put(stored)
            self._persist(stored)
            return clone_resource(stored)

    def get(self, key: str) -> Resource | None:
        with self._lock:
            found = self._resources.get(key)
            return clone_resource(found) if found else None

    def update(self, resource: Resource) -> Resource:
        """CAS write: ``resource.generation`` must equal the stored one."""
        with self._lock:
            current = self._resources.get(resource.key)
            if current is None:
                raise CasConflictError(f"resource '{resource.key}' does not exist")
            if current.generation != resource.generation:
                raise CasConflictError(
                    f"stale write to '{resource.key}': expected generation "
                    f"{current.generation}, got {resource.generation}"
                )
            stored = clone_resource(resource)
            stored.generation = current.generation + 1
            self._put(stored)
            self._persist(stored)
            return clone_resource(stored)

    def keys(self, kind: str | None = None) -> list[str]:
        with self._lock:
            return sorted(self._resources) if kind is None else list(self._keys.get(kind, ()))

    def live_keys(self, kind: str) -> list[str]:
        """Sorted keys of the resources of ``kind`` that can still change."""
        with self._lock:
            return list(self._live.get(kind, ()))

    def list(self, kind: str | None = None, namespace: str | None = None) -> list[Resource]:
        with self._lock:
            keys = sorted(self._resources) if kind is None else self._keys.get(kind, ())
            out = []
            for key in keys:
                res = self._resources[key]
                if namespace is None or res.namespace == namespace:
                    out.append(clone_resource(res))
            return out

    def trial_summary(self, namespace: str, experiment: str) -> TrialSummary:
        with self._lock:
            trials = self._trials.get((namespace, experiment))
            return trials.summary() if trials is not None else TrialSummary()

    def concluded_trials(self, namespace: str, experiment: str) -> list[TrialRecord]:
        """The experiment's succeeded and failed trials in name order."""
        with self._lock:
            trials = self._trials.get((namespace, experiment))
            if trials is None:
                return []
            return [trials.records[name] for name in trials.concluded]

    def _put(self, resource: Resource) -> None:
        key = resource.key
        if key not in self._resources:
            bisect.insort(self._keys.setdefault(resource.kind, []), key)
        self._resources[key] = resource
        self._update_live(resource)
        if resource.kind == KIND_EXPERIMENT:
            suggestion = self._resources.get(
                resource_key(KIND_SUGGESTION, resource.namespace, resource.name)
            )
            if suggestion is not None:
                self._update_live(suggestion)
        elif resource.kind == KIND_TRIAL:
            trials = self._trials.setdefault((resource.namespace, resource.spec.experiment), _ExperimentTrials())
            trials.put(
                TrialRecord(
                    name=resource.name,
                    phase=resource.status.phase,
                    assignments=resource.spec.assignments,
                    observation=resource.status.observation,
                )
            )

    def _update_live(self, resource: Resource) -> None:
        if resource.kind == KIND_TRIAL:
            live = resource.status.phase not in TERMINAL_TRIAL
        else:
            experiment = resource
            if resource.kind == KIND_SUGGESTION:
                experiment = self._resources.get(
                    resource_key(KIND_EXPERIMENT, resource.namespace, resource.spec.experiment)
                )
            live = experiment is None or experiment.status.phase not in TERMINAL_EXPERIMENT
        keys = self._live.setdefault(resource.kind, [])
        i = bisect.bisect_left(keys, resource.key)
        present = i < len(keys) and keys[i] == resource.key
        if live and not present:
            keys.insert(i, resource.key)
        elif present and not live:
            del keys[i]

    def _persist(self, resource: Resource) -> None:
        pass


class FileResourceStore(ResourceStore):
    def __init__(self, root: str | Path):
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "_generations.json"
        self._load()

    def _resource_path(self, resource: Resource) -> Path:
        return self.root / f"{resource.kind}s" / f"{resource.namespace}.{resource.name}.yaml"

    def _load(self) -> None:
        generations: dict[str, int] = {}
        if self._index_path.exists():
            try:
                generations = json.loads(self._index_path.read_text())
            except json.JSONDecodeError:
                generations = {}
        for sub in sorted(self.root.glob("*s/*.yaml")):
            try:
                doc = yaml.load(sub.read_text(), Loader=_Loader)
                key = resource_key(doc["kind"], doc["namespace"], doc["name"])
                resource = resource_from_doc(doc, generation=generations.get(key, 1))
            except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError, TunectlError) as exc:
                raise TunectlError(f"cannot read stored resource {sub}: {exc}") from exc
            self._put(resource)

    def _persist(self, resource: Resource) -> None:
        path = self._resource_path(resource)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = yaml.dump(resource_to_doc(resource), Dumper=_Dumper, sort_keys=False, width=2**20)
        _atomic_write(path, text)
        generations = {key: res.generation for key, res in self._resources.items()}
        _atomic_write(self._index_path, json.dumps(generations, sort_keys=True, indent=0))


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
