"""Observation-log storage, the metric line format, and objective extraction.

One store implements the three-call interface: an append-only JSON-lines
file (one ``{"trial", "metric", "ts", "value"}`` object per line), or, with
no path, the same store kept in memory only. Timestamps are
opaque ordinals to the store: the simulator uses integer ticks, the local
runner wall-clock milliseconds.

The wire format for metric lines is ``<timestamp> <name>=<value>`` with the
timestamp either an integer tick or an ISO-8601 datetime. The local backend
parses each line of a trainer's output as it reads it, for both collector
kinds; the kind decides only when the points are registered.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .codec import Journal, sorted_json
from .errors import StorageUnavailableError
from .resources import MetricStrategy, ObjectiveSpec

logger = logging.getLogger(__name__)

METRIC_LINE_RE = re.compile(r"^(\S+)\s+([^=\s]+)=(\S+)$")


@dataclass(frozen=True)
class MetricPoint:
    trial: str
    metric: str
    ts: float
    value: float

    def __post_init__(self) -> None:
        if not self.metric:
            raise ValueError("metric name must be non-empty")
        if not math.isfinite(self.value):
            raise ValueError("metric value must be finite")


@dataclass(frozen=True)
class ObservationFilter:
    start: float | None = None
    end: float | None = None
    metric_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ValueError("filter start must be <= end")

    def admits(self, point: MetricPoint) -> bool:
        if self.start is not None and point.ts < self.start:
            return False
        if self.end is not None and point.ts > self.end:
            return False
        if self.metric_names is not None and point.metric not in self.metric_names:
            return False
        return True


class ObservationStore(ABC):
    """Pluggable trial-metric storage: register, get, delete."""

    @abstractmethod
    def register_observation_log(self, points: Sequence[MetricPoint]) -> None:
        """Durably append points (all for one trial). Idempotent for
        identical (trial, metric, ts, value) tuples."""

    @abstractmethod
    def get_observation_log(
        self, trial: str, flt: ObservationFilter | None = None
    ) -> list[MetricPoint]:
        """Points for a trial in ascending timestamp order, ties broken by
        metric name then insertion order. Unknown trials yield []."""

    @abstractmethod
    def delete_observation_log(self, trial: str) -> None:
        """Remove a trial's points; unknown trials are a no-op."""


class FileObservationStore(ObservationStore):
    """Append-only JSON-lines backend; with no path it keeps the log in
    memory only.

    Deletions append a tombstone line ``{"trial": ..., "deleted": true}`` so
    the file itself stays append-only and crash-tolerant. Opening the store
    truncates a torn final line left by an interrupted write, so the next
    append starts on a line of its own; opened ``readonly``, it only skips
    that line and refuses appends. Appends go through one handle, kept open
    until ``close``.
    """

    def __init__(self, path: str | Path | None = None, readonly: bool = False):
        self._journal = None if path is None else Journal(path)
        self._readonly = readonly
        self._lock = threading.Lock()
        # Per trial, its points in registration order, keyed by (metric, ts, value).
        self._by_trial: dict[str, dict[tuple, MetricPoint]] = {}
        if self._journal is not None:
            self._load()

    def _load(self) -> None:
        lines = self._journal.read()
        if not self._readonly:
            self._journal.cut_tail()
        for line in lines:
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            trial = doc.get("trial")
            if not isinstance(trial, str) or not trial:
                continue
            if doc.get("deleted"):
                self._by_trial.pop(trial, None)
                continue
            try:
                point = MetricPoint(
                    trial=trial, metric=doc["metric"], ts=doc["ts"], value=doc["value"]
                )
            except (KeyError, TypeError, ValueError):
                continue
            self._remember(trial, [point])

    def _remember(self, trial: str, points: Sequence[MetricPoint]) -> list[MetricPoint]:
        """Index the points of ``trial`` not seen before; return them."""
        known = self._by_trial.setdefault(trial, {})
        fresh = []
        for p in points:
            key = (p.metric, p.ts, p.value)
            if key not in known:
                known[key] = p
                fresh.append(p)
        return fresh

    def _append(self, docs: Iterable[dict]) -> None:
        if self._journal is None:
            return
        if self._readonly:
            raise StorageUnavailableError(f"metric log {self._journal.path} is open read-only")
        try:
            self._journal.append(sorted_json(doc) + "\n" for doc in docs)
        except OSError as exc:
            raise StorageUnavailableError(f"metric log append failed: {exc}") from exc

    def close(self) -> None:
        """Close the metric log's append handle; a later append opens it again."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    def register_observation_log(self, points: Sequence[MetricPoint]) -> None:
        if not points:
            raise ValueError("register requires at least one point")
        trial = points[0].trial
        for p in points:
            if p.trial != trial:
                raise ValueError("all points in one batch must share a trial name")
        with self._lock:
            fresh = self._remember(trial, points)
            if fresh:
                self._append(
                    {"trial": p.trial, "metric": p.metric, "ts": p.ts, "value": p.value}
                    for p in fresh
                )

    def get_observation_log(
        self, trial: str, flt: ObservationFilter | None = None
    ) -> list[MetricPoint]:
        with self._lock:
            points = list(self._by_trial.get(trial, {}).values())
        points.sort(key=lambda p: (p.ts, p.metric))  # stable: ties keep registration order
        if flt is None:
            return points
        return [p for p in points if flt.admits(p)]

    def delete_observation_log(self, trial: str) -> None:
        with self._lock:
            self._by_trial.pop(trial, None)
            self._append([{"trial": trial, "deleted": True}])


# The in-memory store is the file store with no path.
InMemoryObservationStore = FileObservationStore


# ---------------------------------------------------------------------------
# Metric line parsing
# ---------------------------------------------------------------------------


def _parse_timestamp(token: str) -> float | None:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(token.replace("Z", "+00:00"))
    except ValueError:
        return None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp() * 1000)


def parse_metric_lines(
    text: str, watched_metrics: Sequence[str], trial: str
) -> list[MetricPoint]:
    """Lenient parser for ``<timestamp> <name>=<float>`` lines.

    Lines that do not look like metric lines are ignored; lines that look
    like one but fail to parse are counted and reported at debug level,
    never fatally. Only watched metric names are retained.
    """
    watched = set(watched_metrics)
    points: list[MetricPoint] = []
    malformed = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        match = METRIC_LINE_RE.match(line)
        if not match:
            malformed += 1
            continue
        ts = _parse_timestamp(match.group(1))
        if ts is None:
            malformed += 1
            continue
        try:
            value = float(match.group(3))
        except ValueError:
            malformed += 1
            continue
        if not math.isfinite(value):
            malformed += 1
            continue
        name = match.group(2)
        if name in watched:
            points.append(MetricPoint(trial=trial, metric=name, ts=ts, value=value))
    if malformed:
        logger.debug("trial %s: %d malformed metric candidate line(s) skipped", trial, malformed)
    return points


def best_objective(
    points: Sequence[MetricPoint],
    objective: ObjectiveSpec,
    strategy: MetricStrategy | None = None,
) -> float | None:
    """Scalar objective of a trial from its ordered metric series.

    The default ``latest`` strategy takes the last reported value of the
    objective metric; ``max``/``min`` take the extremum. Absent when the
    metric was never reported.
    """
    strategy = strategy or objective.metric_strategy
    series = [p.value for p in points if p.metric == objective.objective_metric_name]
    if not series:
        return None
    if strategy is MetricStrategy.MAX:
        return max(series)
    if strategy is MetricStrategy.MIN:
        return min(series)
    return series[-1]
