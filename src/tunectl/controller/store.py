"""Versioned resource store with compare-and-swap updates.

An update is accepted only when the caller's expected generation matches the
stored one; every accepted update increments the generation. Resources are
frozen values, so ``get`` and ``list`` hand out the stored objects
themselves, and ``create`` and ``update`` each store one new object at the
next generation: no reader can change what the store holds. A store
opened on a directory keeps one append-only journal there,
``<dir>/journal.jsonl``; one opened without keeps its resources in memory
alone. Each create or update appends the resource's document plus its
generation as one JSON line. An update of any kind that leaves the resource's spec as stored
writes a status-only record: the document without its ``spec``. A trial's
spec never changes after its create, nor an experiment's after its submit,
and a suggestion's changes only at a ``requested`` bump, so most records
carry no spec. Loading replays the journal, the last record of each key
winning; a status-only record takes the spec of its key's last record
before it, and one with no earlier record of its key is unreadable. Each
experiment's final spec is then checked against the rules that span its
fields, as ``submit`` checks it, and its spawned count against its stored
trials, none of which is ever deleted. ``compact`` rewrites the journal as
one whole record per resource, then its last commit. ``tunectl dump``
prints the store as YAML for reading and diffing.

A simulated run commits each tick as a line of the journal after the
tick's records: ``commit`` appends a backend's commit, text the store does
not read. A store opened at its ``commit`` keeps the records up to the last
commit line and the experiment creates after it, which only ``submit``
writes, and drops the rest: the writes of a tick cut short, which the
resumed run makes again.

Durability (``codec.Journal``): a store opened at its ``commit``, as
``tunectl run`` opens it, holds its records until ``flush`` (once a tick,
before the backend's ``persist``), ``commit`` or ``close`` writes them in
one write; any other store writes each record before its write returns.
Compaction replaces the journal atomically (a temporary file and
``os.replace``). A store therefore survives the kill of its process at any
point: a held record lies past the last commit, where loading drops it
anyway, and at worst the last line is cut short, which loading skips.
Nothing calls ``fsync``, so a power loss can lose records the operating
system had not yet written back.

Every write calls the store's watchers with the stored resource once the
write is done; loading a store calls none. A controller watches the store to
learn which keys it must reconcile again.

Every write also keeps two derived indexes current (loading rebuilds them),
so the controllers read what they need without scanning every resource:

- the sorted keys of each kind;
- per (namespace, experiment), an ``ExperimentTrials``: its stored trials,
  their phase counts, the best succeeded trial in each direction, and what
  an algorithm reads: the trials' assignments in trial-index order, the
  concluded trials as ``TrialObservation``s in name order, and the
  ``assignment_key`` of every trial's assignments. ``trials`` hands out the
  index itself, not a copy: the controllers read it in place, never write
  it, and lend its lists to an algorithm for one ``suggest`` call.
"""

from __future__ import annotations

import bisect
import json
import threading
from collections import Counter
from pathlib import Path
from typing import Callable

from ..codec import Journal, compact_json, from_doc
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


class ExperimentTrials:
    """One experiment's trial index; the best trial's ties go to the lowest name."""

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


class ResourceStore:
    """The store kept in ``<root>/journal.jsonl``, or in memory alone
    without a root.

    Resources are frozen values, so reads hand out the stored objects
    themselves, and a write stores one new resource at the next generation.
    Opened ``readonly``, it creates nothing, cuts no torn tail and refuses
    writes, so it can read a store that a running ``tunectl run`` is
    appending to. Opened at its ``commit``, it holds its records until
    ``flush``, ``commit`` or ``close``. ``committed`` is the body of the
    last commit it read or wrote, None before any.
    """

    JOURNAL = "journal.jsonl"
    # Directories of the one-YAML-file-per-resource layout of earlier versions.
    _OLD_LAYOUT = ("experiments", "suggestions", "trials")
    # The simulated world's files of earlier versions, before the journal held its commits.
    _OLD_WORLDS = ("world.json", "world.jsonl")
    # The decoder's message can quote a whole field of the record; an error
    # shows at most this much of it.
    UNREADABLE_DETAIL_CHARS = 300

    def __init__(self, root: str | Path | None = None, readonly: bool = False, commit: bool = False) -> None:
        self._lock = threading.RLock()
        self._resources: dict[str, Resource] = {}
        self._keys: dict[str, list[str]] = {}  # kind -> sorted keys
        self._trials: dict[tuple[str, str], ExperimentTrials] = {}
        # Called with each stored resource after its create or update.
        self.watchers: list[Callable[[Resource], None]] = []
        self.root = self.path = self._journal = None
        self._readonly = readonly
        self.committed: str | None = None
        self._written = False  # a record appended since the last commit
        self._hold = commit  # keep records in ``_held`` until ``flush``
        self._held: list[str] = []
        if root is not None:
            self.root = Path(root)
            self._journal = Journal(self.root / self.JOURNAL)
            self.path = self._journal.path
            if not readonly:
                self.root.mkdir(parents=True, exist_ok=True)
            self._load(commit)

    def create(self, resource: Resource) -> Resource:
        with self._lock:
            if resource.key in self._resources:
                raise ResourceExistsError(f"resource '{resource.key}' already exists")
            stored = clone_resource(resource, 1)
            self._persist(stored, None)
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
            self._persist(stored, current)
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

    def trials(self, namespace: str, experiment: str) -> ExperimentTrials:
        """The experiment's trial index itself; an empty one before its
        first trial. Read it, never write it."""
        index = self._trials.get((namespace, experiment))
        return index if index is not None else ExperimentTrials(experiment)

    def _put(self, resource: Resource) -> None:
        key = resource.key
        if key not in self._resources:
            bisect.insort(self._keys.setdefault(resource.kind, []), key)
        self._resources[key] = resource
        if resource.kind == KIND_TRIAL:
            experiment = resource.spec.experiment
            trials = self._trials.get((resource.namespace, experiment))
            if trials is None:
                trials = self._trials[resource.namespace, experiment] = ExperimentTrials(experiment)
            trials.put(resource)

    def _load(self, commit: bool) -> None:
        if not self.path.exists() and any((self.root / d).is_dir() for d in self._OLD_LAYOUT):
            raise TunectlError(
                f"store {self.root} holds the one-YAML-file-per-resource layout of an "
                "earlier version, which this version does not read; start again in a fresh store"
            )
        for old in (self.root / name for name in self._OLD_WORLDS):
            if old.exists():
                raise TunectlError(f"{old} is the simulated world of an earlier version, which this version "
                                   "does not read; start again in a fresh store")
        latest: dict[str, tuple[int, int, dict]] = {}  # key -> (its line, its spec's line, its document)
        lines = self._journal.read()
        last = next((n for n in range(len(lines), 0, -1) if lines[n - 1].startswith(_COMMIT)), None)
        if last is not None:
            self.committed = lines[last - 1][len(_COMMIT):-1].decode()
        end = last if commit and last is not None else len(lines)  # past it, only experiment creates are kept
        kept: list[bytes] = []
        for number, line in enumerate(lines, 1):
            if line.startswith(_COMMIT):
                kept.append(line)
                continue
            try:
                doc = json.loads(line)
                key = resource_key(doc["kind"], doc["namespace"], doc["name"])
                if number > end and (doc["kind"], doc["generation"]) != (KIND_EXPERIMENT, 1):
                    continue
                if "spec" in doc:
                    spec_line = number
                elif key in latest:  # status-only: the spec is the key's last one
                    _, spec_line, last = latest[key]
                    doc["spec"] = last["spec"]
                else:
                    raise ValueError(f"a status-only record of '{key}' follows no record of it")
            except (ValueError, KeyError, TypeError) as exc:
                raise self._unreadable(number, exc) from exc
            kept.append(line)
            latest[key] = (number, spec_line, doc)
        for number, spec_line, doc in latest.values():
            try:
                resource = resource_from_doc(doc, generation=from_doc(int, doc["generation"]))
                # The codec checks each field's own rules; an experiment's
                # final spec must also keep the rules that span fields.
                if resource.kind == KIND_EXPERIMENT and (problems := _check_cross_invariants(resource.spec)):
                    raise ValidationError(problems)
            except (KeyError, TypeError, ValueError, TunectlError) as exc:
                raise self._unreadable(number, exc, spec_line) from exc
            self._put(resource)
        for experiment in self.list(KIND_EXPERIMENT):  # a journal cut short can hold the count, not the trials
            held = len(self.trials(experiment.namespace, experiment.name).trials)
            if experiment.status.total_spawned > held:
                raise TunectlError(f"{self.path} holds {held} trials of {experiment.key}, "
                                   f"fewer than the {experiment.status.total_spawned} it spawned")
        if not self._readonly:  # cut the writes past the commit and a torn tail: the next line starts a line
            if len(kept) < len(lines):
                self._journal.replace(line.decode("utf-8") + "\n" for line in kept)
            else:
                self._journal.cut_tail()

    def _unreadable(self, number: int, exc: Exception, spec_line: int | None = None) -> TunectlError:
        detail = str(exc)
        if len(detail) > self.UNREADABLE_DETAIL_CHARS:
            detail = detail[: self.UNREADABLE_DETAIL_CHARS] + " ... [cut]"
        spec = "" if spec_line in (None, number) else f" (its spec is on line {spec_line})"
        return TunectlError(f"cannot read stored resource {self.path}:{number}{spec}: {detail}")

    def _persist(self, resource: Resource, previous: Resource | None) -> None:
        """Record the write of ``resource`` over ``previous``, None for a create."""
        if self._journal is not None:
            self._append(_record(resource, previous))
            self._written = True

    def commit(self, body: str | None) -> None:
        """Record a backend's commit, after the writes it covers, in one
        write with any records held; None, a repeat of the last commit with
        no write since, or a store that keeps no journal, records nothing."""
        if self._journal is not None and body is not None and (body != self.committed or self._written):
            with self._lock:
                self._append(_commit_line(body))
                self.flush()
                self.committed, self._written = body, False

    def _append(self, line: str) -> None:
        if self._readonly:
            raise TunectlError(f"store {self.root} is open read-only")
        self._held.append(line)
        if not self._hold:
            self.flush()

    def flush(self) -> None:
        """Write the records held in one write; a store not opened at its
        commit holds none."""
        with self._lock:
            lines, self._held = self._held, []
            if lines:
                self._journal.append(lines)

    def compact(self) -> None:
        """Rewrite the journal as one record per resource, in key order,
        then its last commit; the records held are in it. A no-op in memory."""
        if self._journal is None:
            return
        with self._lock:
            lines = [_record(self._resources[key]) for key in sorted(self._resources)]
            if self.committed is not None:
                lines.append(_commit_line(self.committed))
            self._held = []
            self._journal.replace(lines)

    def close(self) -> None:
        """Write the records held and close the journal's append handle; a
        later write opens it again."""
        if self._journal is not None:
            self.flush()
            self._journal.close()


FileResourceStore = ResourceStore  # its earlier name, under which perfbench/tracer.py patches ``_load``


_COMMIT = b'{"commit":'  # how a commit line starts; a record's starts with its kind
_commit_line = '{{"commit":{}}}\n'.format


def _record(resource: Resource, previous: Resource | None = None) -> str:
    """One journal line: the resource's document plus its generation, less
    the spec of a resource written over ``previous`` with the same spec."""
    doc = resource_fields(resource)
    spec = resource.spec
    if previous is not None and (spec is previous.spec or spec == previous.spec):
        del doc["spec"]
    doc["generation"] = resource.generation
    return compact_json(doc) + "\n"
