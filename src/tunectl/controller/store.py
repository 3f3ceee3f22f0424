"""Versioned resource store with compare-and-swap updates.

An update is accepted only when the caller's expected generation matches the
stored one; every accepted update increments the generation. Resources are
frozen values, so ``get`` and ``list`` hand out the stored objects
themselves, and ``create`` and ``update`` each store one new object at the
next generation: no reader can change what the store holds. The file-backed
variant keeps one append-only journal, ``<dir>/journal.jsonl``: each create
or update appends the resource's document plus its generation as one JSON
line, and loading replays the journal, the last record of each key winning;
each experiment's final spec is then checked against the rules that span its
fields, as ``submit`` checks it. ``compact`` rewrites the journal as one
record per resource. ``tunectl dump`` prints the store as YAML for reading
and diffing.

Durability (``codec.Journal``): every record is flushed to the operating
system as it is written, and compaction replaces the journal atomically (a
temporary file and ``os.replace``). A store therefore survives the kill of its process at
any point: at worst the last record is cut short, and that torn line is
skipped on load. Nothing calls ``fsync``, so a power loss can lose records
the operating system had not yet written back.

Every write calls the store's watchers with the stored resource once the
write is done; loading a store calls none. A controller watches the store to
learn which keys it must reconcile again.

Every write also keeps two derived indexes current (loading rebuilds them),
so the controllers read what they need without scanning every resource:

- the sorted keys of each kind;
- per (namespace, experiment), its stored trials and a summary of them:
  phase counts and the best succeeded trial in each direction; and what the
  suggestion controller hands the algorithm: the trials' assignments in
  trial-index order, the concluded trials as ``TrialObservation``s in name
  order, and the ``assignment_key`` of every trial's assignments. These only grow by
  appending as trials are created and conclude, so a suggestion fill copies
  them instead of walking the trials.
"""

from __future__ import annotations

import bisect
import json
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..codec import Journal, from_doc, json_default
from ..errors import CasConflictError, ResourceExistsError, TunectlError, ValidationError
from ..resources import BUDGET_PARAMETER, _check_cross_invariants
from ..suggest.registry import AssignmentSet, ObservationStatus, TrialObservation, assignment_key
from .model import (
    KIND_EXPERIMENT,
    KIND_TRIAL,
    Resource,
    TrialPhase,
    clone_resource,
    resource_fields,
    resource_from_doc,
    resource_key,
    trial_index,
)


@dataclass(frozen=True)
class TrialSummary:
    """One experiment's trials: phase counts and the best succeeded trial
    each way, ties going to the lowest trial name."""

    pending: int = 0  # Created or Pending
    running: int = 0
    succeeded: int = 0
    failed: int = 0
    spawned: int = 0
    lowest: Resource | None = None
    highest: Resource | None = None


@dataclass(frozen=True)
class TrialHistory:
    """One experiment's trials as the suggestion controller reads them."""

    produced: tuple[AssignmentSet, ...] = ()  # in trial-index order
    observations: tuple[TrialObservation, ...] = ()  # concluded, in name order
    keys: frozenset[tuple] = frozenset()  # assignment_key of each trial's assignments


def _observation(trial: Resource) -> TrialObservation | None:
    """The algorithm's view of a concluded trial; None for a live one, and
    for a succeeded one without an observation, which the controller never
    writes."""
    phase, observation, assignments = trial.status.phase, trial.status.observation, trial.spec.assignments
    if phase is TrialPhase.FAILED:
        status, value = ObservationStatus.FAILED, None
    elif phase is TrialPhase.SUCCEEDED and observation is not None:
        status, value = ObservationStatus.SUCCEEDED, observation
    else:
        return None
    budget = dict(assignments).get(BUDGET_PARAMETER)
    return TrialObservation(assignments, status, value, None if budget is None else float(budget))


def _improves(trial: Resource, best: Resource | None, maximize: bool) -> bool:
    observation = trial.status.observation
    if trial.status.phase is not TrialPhase.SUCCEEDED or observation is None:
        return False
    if best is None:
        return True
    if observation == best.status.observation:
        return trial.name < best.name
    return (observation > best.status.observation) == maximize


class _ExperimentTrials:
    def __init__(self, experiment: str) -> None:
        self.experiment = experiment
        self.trials: dict[str, Resource] = {}
        self.counts: Counter[TrialPhase] = Counter()
        self.best: dict[bool, Resource | None] = {False: None, True: None}  # by maximize
        # Set i is trial i's assignments; a gap left while a store loads out
        # of index order is None until its trial arrives.
        self.produced: list[AssignmentSet | None] = []
        self.concluded: list[str] = []  # sorted names of the trials in ``observations``
        self.observations: list[TrialObservation] = []  # parallel to ``concluded``
        self.keys: set[tuple] = set()

    def put(self, trial: Resource) -> None:
        name, assignments = trial.name, trial.spec.assignments
        old = self.trials.pop(name, None)
        if old is not None:
            self.counts[old.status.phase] -= 1
            at = bisect.bisect_left(self.concluded, name)
            if at < len(self.concluded) and self.concluded[at] == name:
                del self.concluded[at], self.observations[at]
            if any(old is best for best in self.best.values()):  # the best was rewritten: rank again
                self.best = {False: None, True: None}
                for other in self.trials.values():
                    self._rank(other)
        self.trials[name] = trial
        self.counts[trial.status.phase] += 1
        observation = _observation(trial)
        if observation is not None:
            at = bisect.bisect_left(self.concluded, name)
            self.concluded.insert(at, name)
            self.observations.insert(at, observation)
        self._rank(trial)
        if old is None or old.spec.assignments != assignments:
            index = trial_index(self.experiment, name)
            if index is not None:
                self.produced.extend([None] * (index + 1 - len(self.produced)))
                self.produced[index] = assignments
            if old is None:
                self.keys.add(assignment_key(assignments))
            else:  # a trial's assignments were rewritten: collect the keys again
                self.keys = {assignment_key(t.spec.assignments) for t in self.trials.values()}

    def _rank(self, trial: Resource) -> None:
        for maximize, best in self.best.items():
            if _improves(trial, best, maximize):
                self.best[maximize] = trial

    def summary(self) -> TrialSummary:
        counts = self.counts
        return TrialSummary(
            pending=counts[TrialPhase.CREATED] + counts[TrialPhase.PENDING],
            running=counts[TrialPhase.RUNNING],
            succeeded=counts[TrialPhase.SUCCEEDED],
            failed=counts[TrialPhase.FAILED],
            spawned=len(self.trials),
            lowest=self.best[False],
            highest=self.best[True],
        )


class ResourceStore:
    """In-memory store; the base for the file-backed variant.

    Resources are frozen values, so reads hand out the stored objects
    themselves, and a write stores one new resource at the next generation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._resources: dict[str, Resource] = {}
        self._keys: dict[str, list[str]] = {}  # kind -> sorted keys
        self._trials: dict[tuple[str, str], _ExperimentTrials] = {}
        # Called with each stored resource after its create or update.
        self.watchers: list[Callable[[Resource], None]] = []

    def create(self, resource: Resource) -> Resource:
        with self._lock:
            if resource.key in self._resources:
                raise ResourceExistsError(f"resource '{resource.key}' already exists")
            stored = clone_resource(resource, 1)
            self._persist(stored)
            self._put(stored)
        for watcher in self.watchers:
            watcher(stored)
        return stored

    def get(self, key: str) -> Resource | None:
        return self._resources.get(key)

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
            stored = clone_resource(resource, current.generation + 1)
            self._persist(stored)
            self._put(stored)
        for watcher in self.watchers:
            watcher(stored)
        return stored

    def keys(self, kind: str | None = None) -> list[str]:
        with self._lock:
            return sorted(self._resources) if kind is None else list(self._keys.get(kind, ()))

    def list(self, kind: str | None = None, namespace: str | None = None) -> list[Resource]:
        with self._lock:
            keys = sorted(self._resources) if kind is None else self._keys.get(kind, ())
            found = [self._resources[key] for key in keys]
        return found if namespace is None else [r for r in found if r.namespace == namespace]

    def trial_summary(self, namespace: str, experiment: str) -> TrialSummary:
        with self._lock:
            trials = self._trials.get((namespace, experiment))
            return trials.summary() if trials is not None else TrialSummary()

    def trial_history(self, namespace: str, experiment: str) -> TrialHistory:
        """Copies of the experiment's produced sets, observations and keys."""
        with self._lock:
            trials = self._trials.get((namespace, experiment))
            if trials is None:
                return TrialHistory()
            return TrialHistory(tuple(trials.produced), tuple(trials.observations), frozenset(trials.keys))

    def _put(self, resource: Resource) -> None:
        key = resource.key
        if key not in self._resources:
            bisect.insort(self._keys.setdefault(resource.kind, []), key)
        self._resources[key] = resource
        if resource.kind == KIND_TRIAL:
            experiment = resource.spec.experiment
            trials = self._trials.get((resource.namespace, experiment))
            if trials is None:
                trials = self._trials[resource.namespace, experiment] = _ExperimentTrials(experiment)
            trials.put(resource)

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
        self._journal = Journal(self.root / self.JOURNAL)
        self.path = self._journal.path
        self._readonly = readonly
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
        for number, line in enumerate(self._journal.read(writing=not self._readonly), 1):
            try:
                doc = json.loads(line)
                latest[resource_key(doc["kind"], doc["namespace"], doc["name"])] = (number, doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise self._unreadable(number, exc) from exc
        for number, doc in latest.values():
            try:
                resource = resource_from_doc(doc, generation=from_doc(int, doc["generation"]))
                # The codec checks each field's own rules; an experiment's
                # final spec must also keep the rules that span fields.
                if resource.kind == KIND_EXPERIMENT and (problems := _check_cross_invariants(resource.spec)):
                    raise ValidationError(problems)
            except (KeyError, TypeError, ValueError, TunectlError) as exc:
                raise self._unreadable(number, exc) from exc
            self._put(resource)

    def _unreadable(self, number: int, exc: Exception) -> TunectlError:
        detail = str(exc)
        if len(detail) > self.UNREADABLE_DETAIL_CHARS:
            detail = detail[: self.UNREADABLE_DETAIL_CHARS] + " ... [cut]"
        return TunectlError(f"cannot read stored resource {self.path}:{number}: {detail}")

    def _persist(self, resource: Resource) -> None:
        if self._readonly:
            raise TunectlError(f"store {self.root} is open read-only")
        self._journal.append([_record(resource)])

    def compact(self) -> None:
        """Rewrite the journal as one record per resource, in key order."""
        with self._lock:
            self._journal.replace(_record(self._resources[key]) for key in sorted(self._resources))

    def close(self) -> None:
        """Close the journal's append handle; a later write opens it again."""
        self._journal.close()


def _record(resource: Resource) -> str:
    """One journal line: the resource's document plus its generation."""
    doc = resource_fields(resource)
    doc["generation"] = resource.generation
    return json.dumps(doc, default=json_default, separators=(",", ":")) + "\n"
