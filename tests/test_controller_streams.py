"""Pinned trial streams of the five built-ins, driven by the controller.

Each algorithm runs one experiment through ``run_control_loop`` on the
simulated backend with a file-backed store, over a ``double``, an ``int``, a
``categorical`` and a ``discrete`` parameter. Fail-trial chaos concludes some
trials as failed, so the history holds both outcomes. The sha256 of the
``repr`` of the trials' assignments in trial-index order is pinned.

A second run stops at a fixed tick and resumes from the files alone: a fresh
``FileResourceStore``, ``FileObservationStore``, ``SimBackend.resume`` and
controller context. It must give the same digest, so whatever the
suggestion path derives from the store is rebuilt exactly on a resume.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from conftest import make_experiment
from tunectl.cluster.sim import ChaosMode, ChaosPolicy, SimBackend, SimWorld
from tunectl.controller.reconcile import run_control_loop, submit_experiment, trial_name_for
from tunectl.controller.store import FileResourceStore
from tunectl.resources import (
    AlgorithmSpec,
    ParameterSpec,
    ParameterType,
    Range,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
    ValueList,
)

PARAMS = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0, 0.25)),
    ParameterSpec("layers", ParameterType.INT, Range(1, 8)),
    ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("sgd", "adam", "ftrl"))),
    ParameterSpec("batch", ParameterType.DISCRETE, ValueList((16, 32, 64, 128))),
]

SETTINGS = {
    "random": {"random_state": 13},
    "grid": {},
    "bayesianoptimization": {"random_state": 13},
    "tpe": {"random_state": 13},
    "hyperband": {"random_state": 13, "max_resource": 9, "eta": 3},
}

MAX_TRIALS = 30  # hyperband's whole R=9, eta=3 schedule is 22 sets
STOP_TICK = 9

# sha256 of repr(assignments in trial-index order), recorded before the
# suggestion path kept its per-experiment state in the store's trial index.
DIGESTS = {
    "random": "b8e5e7a274c6eb510b9a65d3d204c2aca7547b431160c509af6a34cf782e73d9",
    "grid": "438eaee2a5538049a49646995602bd4067ad020865a07efcf0d84882e86c07b7",
    "bayesianoptimization": "465c742836dd34d4b54ca4ee8a218a4b0948aef4ad1f823dfcd828b8a1789e64",
    "tpe": "ea7b5179a92a755fa7ef7fd30a3d5c39a4db7fb95f673d04645fe34b028ddb05",
    "hyperband": "48d4b23e1b28af81ac7b38fc90a59ea8ba0905411b7f718e4e91c0cb3d6d5f57",
}


def _spec(algorithm: str):
    spec = make_experiment(
        PARAMS,
        algorithm=algorithm,
        settings=SETTINGS[algorithm],
        parallel=3,
        max_trials=MAX_TRIALS,
        max_failed=MAX_TRIALS,
        template=TrialTemplate(
            kind=TemplateKind.SIMULATED,
            payload=SimObjectiveDescriptor("sphere", duration_ticks=2, noise_std_dev=0.1),
            cpu_per_worker=1.0,
        ),
    )
    # make_experiment reads empty settings as random_state 0, which grid rejects.
    return dataclasses.replace(spec, algorithm=AlgorithmSpec(algorithm, SETTINGS[algorithm]))


def _run(directory, algorithm: str, stop_tick: int | None = None) -> dict:
    def build(store, metrics):
        world = SimWorld(seed=17, chaos=ChaosPolicy(ChaosMode.FAIL_TRIAL, fraction=0.3, interval_ticks=3, seed=2))
        world.add_node(4.0)
        world.add_namespace("ns")
        submit_experiment(store, _spec(algorithm))
        return SimBackend(world, metrics)

    run = SimBackend.open_run(directory, build)
    stop = None if stop_tick is None else (lambda tick: tick == stop_tick)
    snapshot = run_control_loop(*run, stop=stop)
    run.close()
    return snapshot


def _digest(directory) -> str:
    store = FileResourceStore(directory, readonly=True)
    spawned = len(store.trials("ns", "exp").trials)
    produced = tuple(store.get(f"trial/ns/{trial_name_for('exp', i)}").spec.assignments for i in range(spawned))
    return hashlib.sha256(repr(produced).encode()).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(DIGESTS))
def test_controller_stream_matches_pinned_digest(tmp_path, algorithm):
    snapshot = _run(tmp_path, algorithm)
    assert snapshot["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert _digest(tmp_path) == DIGESTS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(DIGESTS))
def test_controller_stream_resumed_from_the_files_is_unchanged(tmp_path, algorithm):
    first = _run(tmp_path, algorithm, stop_tick=STOP_TICK)
    assert first["ticks"] == STOP_TICK
    assert first["experiments"]["experiment/ns/exp"]["phase"] == "Running"
    resumed = _run(tmp_path, algorithm)
    assert resumed["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert _digest(tmp_path) == DIGESTS[algorithm]
