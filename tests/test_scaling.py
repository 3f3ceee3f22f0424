"""Scaling guards: a tick's controller work follows the live trials, and a
suggestion fill's work and memory follow the sets it asks for, not the
trials ever spawned. The work guards count calls only, so they are
deterministic."""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import make_experiment
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller import reconcile
from tunectl.controller.model import KIND_SUGGESTION, KIND_TRIAL
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.controller.store import ResourceStore
from tunectl.metrics import InMemoryObservationStore
from tunectl.resources import (
    ParameterSpec,
    ParameterType,
    Range,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
)
from tunectl.suggest import randomsearch


def _count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for kind, fn in list(reconcile._RECONCILERS.items()):
        def counted(ctx, key, _fn=fn, _kind=kind):
            calls[_kind] += 1
            return _fn(ctx, key)

        monkeypatch.setitem(reconcile._RECONCILERS, kind, counted)
    return calls


def _run(trials: int, stop=None) -> None:
    """A 10-parallel random-search experiment of ``trials`` sphere trials."""
    spec = make_experiment(
        [ParameterSpec(f"x{i}", ParameterType.DOUBLE, Range(-2.0, 2.0)) for i in (1, 2)],
        parallel=10,
        max_trials=trials,
        template=TrialTemplate(
            kind=TemplateKind.SIMULATED,
            payload=SimObjectiveDescriptor("sphere", duration_ticks=3),
            cpu_per_worker=1.0,
        ),
    )
    world = SimWorld(seed=3)
    world.add_node(16.0)
    world.add_namespace("ns")
    store = ResourceStore()
    metrics = InMemoryObservationStore()
    submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, SimBackend(world, metrics), stop=stop)
    assert snapshot["experiments"]["experiment/ns/exp"]["totalSpawned"] == trials
    assert len(store.keys(KIND_TRIAL)) == trials


def _flat(per_step: list[int]) -> tuple[float, float]:
    """The mean of the first and of the last fifth."""
    fifth = len(per_step) // 5
    return sum(per_step[:fifth]) / fifth, sum(per_step[-fifth:]) / fifth


@pytest.mark.parametrize("trials", [200, 400])
def test_reconcile_calls_per_tick_stay_flat_as_trials_accumulate(monkeypatch, trials):
    calls = _count_calls(monkeypatch)
    per_tick: list[int] = []
    last = [0]

    def record(_tick: int) -> bool:
        total = sum(calls.values())
        per_tick.append(total - last[0])
        last[0] = total
        return False

    _run(trials, stop=record)
    first, final = _flat(per_tick)
    assert final <= 1.5 * first, (first, final)
    assert calls[KIND_TRIAL] <= 10 * trials, calls


def _count_keys(monkeypatch) -> Counter:
    """Count ``assignment_key`` calls through every module that binds it."""
    import tunectl.suggest.bayesopt  # noqa: F401  (binds it too)

    keys: Counter = Counter()
    original = randomsearch.assignment_key

    def counted(*args, **kwargs):
        keys["computed"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tunectl") and getattr(module, "assignment_key", None) is original:
            monkeypatch.setattr(module, "assignment_key", counted)
    return keys


@pytest.mark.parametrize("trials", [200, 400])
def test_key_computations_per_fill_stay_flat_as_trials_accumulate(monkeypatch, trials):
    keys = _count_keys(monkeypatch)
    per_fill: list[int] = []
    filled = [False]
    get_suggestions = reconcile.get_suggestions

    def fill(request):
        filled[0] = True
        return get_suggestions(request)

    reconcile_suggestion = reconcile._RECONCILERS[KIND_SUGGESTION]

    def counted(ctx, key):
        before, filled[0] = keys["computed"], False
        try:
            return reconcile_suggestion(ctx, key)
        finally:
            if filled[0]:
                per_fill.append(keys["computed"] - before)

    monkeypatch.setattr(reconcile, "get_suggestions", fill)
    monkeypatch.setitem(reconcile._RECONCILERS, KIND_SUGGESTION, counted)
    _run(trials)
    assert len(per_fill) >= trials // 10
    first, final = _flat(per_fill)
    assert final <= 1.5 * first, (first, final)


@pytest.mark.parametrize("trials", [200, 400])
def test_bytes_allocated_per_fill_stay_flat_as_trials_accumulate(monkeypatch, trials):
    # The bytes a suggestion reconcile allocates up to its call of the
    # algorithm: the peak traced at ``get_suggestions`` less what was traced
    # when the reconcile began. Building the request copies nothing of the
    # trial index, so this stays flat.
    per_fill: list[int] = []
    began = [0]
    get_suggestions = reconcile.get_suggestions

    def fill(request):
        per_fill.append(tracemalloc.get_traced_memory()[1] - began[0])
        return get_suggestions(request)

    reconcile_suggestion = reconcile._RECONCILERS[KIND_SUGGESTION]

    def traced(ctx, key):
        tracemalloc.reset_peak()
        began[0] = tracemalloc.get_traced_memory()[0]
        return reconcile_suggestion(ctx, key)

    monkeypatch.setattr(reconcile, "get_suggestions", fill)
    monkeypatch.setitem(reconcile._RECONCILERS, KIND_SUGGESTION, traced)
    tracemalloc.start()
    try:
        _run(trials)
    finally:
        tracemalloc.stop()
    assert len(per_fill) >= trials // 10
    first, final = _flat(per_fill)
    assert final <= 1.5 * first, (first, final)
