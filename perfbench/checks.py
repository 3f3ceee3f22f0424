"""Output checks and output digests.

The checks recompute each trial's final objective from its exported
parameters with an oracle written here, independently of the program, and
tie the terminal snapshot to the export. The digests cover the terminal
snapshot, the export CSV and, for the in-process simulator workloads, the
event log; store files stay out of them, so a change of store format does
not read as a change of output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from workloads import Experiment, Workload


def _sphere(values: dict[str, str]) -> float:
    return sum(float(v) ** 2 for k, v in values.items() if k.startswith("x"))


def _mnist_surrogate(values: dict[str, str]) -> float:
    lr = float(values["lr"])
    layers = float(values["num-layers"])
    batch = float(values["batch-size"])
    opt_term = {"sgd": 1.0, "adam": 0.90, "ftrl": 0.82}.get(values["optimizer"].lower(), 0.75)
    lr_term = math.exp(-(((lr - 0.24) / 0.16) ** 2)) * (1.0 - math.exp(-lr / 0.02))
    layers_term = 1.0 - 0.03 * (layers - 3.5) ** 2
    batch_term = 1.0 - 0.08 * ((batch - 850.0) / 950.0) ** 2
    return min(max(0.992 * opt_term * lr_term * layers_term * batch_term, 0.0), 1.0)


ORACLES = {
    "sphere": _sphere,
    "mnist-surrogate": _mnist_surrogate,
    "echo-x1": lambda values: float(values["x1"]),
}


def _in_space(param, raw: str) -> bool:
    if param.kind == "categorical":
        return raw in param.values
    value = float(raw)
    if param.kind == "int" and value != int(value):
        return False
    return param.low <= value <= param.high


def check_experiment(exp: Experiment, result: dict | None, csv_text: str) -> tuple[list[str], int]:
    """Errors found, and the number of trials that ended Failed."""
    errors: list[str] = []
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    failed = sum(1 for r in rows if r.get("phase") != "Succeeded")
    where = f"{exp.namespace}/{exp.name}"
    if len(rows) != exp.trials:
        errors.append(f"{where}: export has {len(rows)} rows, want {exp.trials}")
    if failed:
        errors.append(f"{where}: {failed} trial(s) did not succeed")
    oracle = ORACLES[exp.objective]
    best = None
    for row in rows:
        for param in exp.params:
            if not _in_space(param, row[param.name]):
                errors.append(f"{where}: {row['trial']} {param.name}={row[param.name]} is infeasible")
        try:
            got = float(row[exp.metric])
        except ValueError:
            errors.append(f"{where}: {row['trial']} has no objective value")
            continue
        want = oracle(row)
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"{where}: {row['trial']} objective {got!r}, oracle says {want!r}")
        if best is None or (got > best if exp.maximize else got < best):
            best = got
    if result is None:
        errors.append(f"{where}: missing from the terminal snapshot")
        return errors, failed
    want_counts = {"phase": "Succeeded", "trialsSucceeded": exp.trials, "trialsFailed": 0,
                   "totalSpawned": exp.trials, "trialsRunning": 0, "trialsPending": 0}
    for key, want in want_counts.items():
        if result.get(key) != want:
            errors.append(f"{where}: snapshot {key}={result.get(key)!r}, want {want!r}")
    optimal = result.get("currentOptimal") or {}
    if best is not None and optimal.get("objectiveValue") != best:
        errors.append(f"{where}: snapshot optimum {optimal.get('objectiveValue')!r}, export best {best!r}")
    return errors, failed


def check_outputs(wl: Workload, snapshot: dict, csvs: dict[str, str]) -> tuple[list[str], int]:
    errors: list[str] = []
    failed = 0
    for exp in wl.experiments:
        result = snapshot.get("experiments", {}).get(f"experiment/{exp.namespace}/{exp.name}")
        e, f = check_experiment(exp, result, csvs.get(exp.name, ""))
        errors.extend(e)
        failed += f
    return errors, failed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def events_text(events: list[dict]) -> str:
    """The event log exactly as ``events.jsonl`` would hold it."""
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


def digests(wl: Workload, snapshot: dict, csvs: dict[str, str], events_sha: str | None) -> dict:
    if wl.name == "local-200":
        # Wall-clock ticks: how many polls a run takes is not an output.
        snapshot = {k: v for k, v in snapshot.items() if k != "ticks"}
    out = {
        "snapshot": sha256(json.dumps(snapshot, sort_keys=True)),
        "csv": sha256("".join(csvs[e.name] for e in wl.experiments)),
    }
    if events_sha is not None:
        out["events"] = events_sha
    return out
