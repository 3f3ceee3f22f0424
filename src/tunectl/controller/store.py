"""Versioned resource store with compare-and-swap updates.

An update is accepted only when the caller's expected generation matches the
stored one; every accepted update increments the generation. The file-backed
variant keeps one append-only journal, ``<dir>/journal.jsonl``: each create
or update appends the resource's document plus its generation as one JSON
line, and loading replays the journal, the last record of each key winning.
``compact`` rewrites the journal as one record per resource. ``tunectl dump``
prints the store as YAML for reading and diffing.

Durability: every record is flushed to the operating system as it is
written, and compaction replaces the journal atomically (a temporary file
and ``os.replace``). A store therefore survives the kill of its process at
any point: at worst the last record is cut short, and that torn line is
skipped on load. Nothing calls ``fsync``, so a power loss can lose records
the operating system had not yet written back.

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
from typing import TextIO

from ..codec import complete_lines, from_doc, json_default
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
    resource_fields,
    resource_from_doc,
    resource_key,
)


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
            self._persist(stored)
            self._put(stored)
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
            self._persist(stored)
            self._put(stored)
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

    def trial_records(self, namespace: str, experiment: str) -> dict[str, TrialRecord]:
        """The experiment's trials by name."""
        with self._lock:
            trials = self._trials.get((namespace, experiment))
            return dict(trials.records) if trials is not None else {}

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
    """The store kept in ``<root>/journal.jsonl``.

    Opened ``readonly``, it creates nothing, cuts no torn tail and refuses
    writes, so it can read a store that a running ``tunectl run`` is
    appending to.
    """

    JOURNAL = "journal.jsonl"
    # Directories of the one-YAML-file-per-resource layout of earlier versions.
    _OLD_LAYOUT = ("experiments", "suggestions", "trials")
    # The decoder's message can quote a whole field of the record; an error
    # shows at most this much of it.
    UNREADABLE_DETAIL_CHARS = 300

    def __init__(self, root: str | Path, readonly: bool = False):
        super().__init__()
        self.root = Path(root)
        self.path = self.root / self.JOURNAL
        self._readonly = readonly
        self._journal: TextIO | None = None
        if not readonly:
            self.root.mkdir(parents=True, exist_ok=True)
        self._load()

    def _load(self) -> None:
        if not self.path.exists() and any((self.root / d).is_dir() for d in self._OLD_LAYOUT):
            raise TunectlError(
                f"store {self.root} holds the one-YAML-file-per-resource layout of an "
                "earlier version, which this version does not read; start again in a fresh store"
            )
        latest: dict[str, tuple[int, dict]] = {}
        for number, line in enumerate(complete_lines(self.path, writing=not self._readonly), 1):
            try:
                doc = json.loads(line)
                latest[resource_key(doc["kind"], doc["namespace"], doc["name"])] = (number, doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise self._unreadable(number, exc) from exc
        for number, doc in latest.values():
            try:
                resource = resource_from_doc(doc, generation=from_doc(int, doc["generation"]))
            except (KeyError, TypeError, ValueError, TunectlError) as exc:
                raise self._unreadable(number, exc) from exc
            self._put(resource)

    def _unreadable(self, number: int, exc: Exception) -> TunectlError:
        detail = str(exc)
        if len(detail) > self.UNREADABLE_DETAIL_CHARS:
            detail = detail[: self.UNREADABLE_DETAIL_CHARS] + " ... [cut]"
        return TunectlError(f"cannot read stored resource {self.path}:{number}: {detail}")

    def _persist(self, resource: Resource) -> None:
        if self._journal is None:
            if self._readonly:
                raise TunectlError(f"store {self.root} is open read-only")
            self._journal = self.path.open("a", encoding="utf-8")
        self._journal.write(_record(resource))
        self._journal.flush()

    def compact(self) -> None:
        """Rewrite the journal as one record per resource, in key order."""
        with self._lock:
            tmp = self.path.with_name(self.JOURNAL + ".tmp")
            with tmp.open("w", encoding="utf-8") as fp:
                for key in sorted(self._resources):
                    fp.write(_record(self._resources[key]))
            self.close()
            os.replace(tmp, self.path)

    def close(self) -> None:
        """Close the journal's append handle; a later write opens it again."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None


def _record(resource: Resource) -> str:
    """One journal line: the resource's document plus its generation."""
    doc = resource_fields(resource)
    doc["generation"] = resource.generation
    return json.dumps(doc, default=json_default, separators=(",", ":")) + "\n"
