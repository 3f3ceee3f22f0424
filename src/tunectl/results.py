"""Per-trial results tables for export (parallel-coordinates plot input).

One row per spawned trial; columns are the trial name, every parameter in
declaration order, the final objective, final values of each additional
metric, the phase, and the restart count. CSV and JSON-lines exports carry
identical data with deterministic row and column order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any

from .controller.backend import job_handle
from .controller.model import KIND_EXPERIMENT, resource_key
from .controller.store import ResourceStore
from .metrics import ObservationStore, best_objective
from .resources import ObjectiveSpec, value_to_string


@dataclass
class ResultsTable:
    columns: list[str]
    rows: list[list[Any]]


def _final_metric(points, metric: str) -> float | None:
    series = [p.value for p in points if p.metric == metric]
    return series[-1] if series else None


def build_results_table(
    store: ResourceStore, metrics: ObservationStore, namespace: str, experiment: str
) -> ResultsTable:
    resource = store.get(resource_key(KIND_EXPERIMENT, namespace, experiment))
    if resource is None:
        raise KeyError(f"experiment '{namespace}/{experiment}' not found")
    spec = resource.spec
    param_names = spec.parameter_names()
    objective: ObjectiveSpec = spec.objective
    columns = [
        "trial",
        *param_names,
        objective.objective_metric_name,
        *objective.additional_metric_names,
        "phase",
        "restartCount",
    ]
    rows: list[list[Any]] = []
    for _, trial in sorted(store.trials(namespace, experiment).trials.items()):
        by_name = dict(trial.spec.assignments)
        points = metrics.get_observation_log(job_handle(namespace, trial.name))
        row: list[Any] = [trial.name]
        row.extend(by_name.get(name) for name in param_names)
        row.append(best_objective(points, objective))
        for extra in objective.additional_metric_names:
            row.append(_final_metric(points, extra))
        row.append(trial.status.phase.value)
        row.append(trial.status.restart_count)
        rows.append(row)
    return ResultsTable(columns=columns, rows=rows)


def _cell(value: Any) -> Any:
    if value is None:
        return ""
    if isinstance(value, (int, float, str)):
        return value_to_string(value) if isinstance(value, float) else value
    return str(value)


def render_csv(table: ResultsTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def render_jsonl(table: ResultsTable) -> str:
    lines = []
    for row in table.rows:
        lines.append(json.dumps(dict(zip(table.columns, row)), sort_keys=False))
    return "\n".join(lines) + ("\n" if lines else "")
