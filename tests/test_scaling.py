"""Scaling guard: a tick's controller work follows the live trials, not the
trials ever spawned. Counts reconciler calls only, so it is deterministic."""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import make_experiment
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller import reconcile
from tunectl.controller.model import KIND_TRIAL
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


def _count_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for kind, fn in list(reconcile._RECONCILERS.items()):
        def counted(ctx, key, _fn=fn, _kind=kind):
            calls[_kind] += 1
            return _fn(ctx, key)

        monkeypatch.setitem(reconcile._RECONCILERS, kind, counted)
    return calls


@pytest.mark.parametrize("trials", [200, 400])
def test_reconcile_calls_per_tick_stay_flat_as_trials_accumulate(monkeypatch, trials):
    calls = _count_calls(monkeypatch)
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

    per_tick: list[int] = []
    last = [0]

    def record(_tick: int) -> bool:
        total = sum(calls.values())
        per_tick.append(total - last[0])
        last[0] = total
        return False

    snapshot = run_control_loop(store, metrics, SimBackend(world, metrics), stop=record)
    assert snapshot["experiments"]["experiment/ns/exp"]["totalSpawned"] == trials
    assert len(store.keys(KIND_TRIAL)) == trials

    fifth = len(per_tick) // 5
    first = sum(per_tick[:fifth]) / fifth
    final = sum(per_tick[-fifth:]) / fifth
    assert final <= 1.5 * first, (first, final)
    assert calls[KIND_TRIAL] <= 10 * trials, calls
