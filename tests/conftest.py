"""Shared builders, hypothesis strategies and the simulated tick's kill points."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest
from hypothesis import strategies as st

from tunectl.controller.backend import JobPhase
from tunectl.resources import (
    AlgorithmSpec,
    ExperimentSpec,
    ObjectiveSpec,
    ObjectiveType,
    ParameterSpec,
    ParameterType,
    Range,
    RestartPolicy,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialTemplate,
    ValueList,
)

_NAMES = st.from_regex(r"[a-z][a-z0-9-]{0,6}[a-z0-9]", fullmatch=True)


def make_experiment(
    parameters,
    *,
    name="exp",
    namespace="ns",
    algorithm="random",
    settings=None,
    objective_type=ObjectiveType.MINIMIZE,
    metric="loss",
    goal=None,
    parallel=2,
    max_trials=8,
    max_failed=0,
    template=None,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        namespace=namespace,
        objective=ObjectiveSpec(type=objective_type, objective_metric_name=metric, goal=goal),
        algorithm=AlgorithmSpec(algorithm, dict(settings or {"random_state": 0})),
        parameters=list(parameters),
        trial_template=template
        or TrialTemplate(
            kind=TemplateKind.SIMULATED,
            payload=SimObjectiveDescriptor("sphere", duration_ticks=1),
            cpu_per_worker=1.0,
        ),
        parallel_trial_count=parallel,
        max_trial_count=max_trials,
        max_failed_trial_count=max_failed,
    )


def _until_concluded(backend, handle: str, bound: float = 5.0) -> None:
    """Advance ``backend`` as the control loop does, each step draining
    ``changed_jobs``, until job ``handle`` no longer reads Running; fail
    after ``bound`` seconds."""
    deadline = time.monotonic() + bound
    while backend.job_state(handle).phase is JobPhase.RUNNING:
        assert time.monotonic() < deadline, f"{handle} still running after {bound} s"
        backend.advance(lambda: len(backend.changed_jobs()))


class SimulatedCrash(Exception):
    """Raised by a tick hook or a store watcher to kill a control loop mid-run."""


TICK_POINTS = ("chaos", "progress", "schedule", "autoscale", "controller", "persist")


@contextmanager
def tick_hook(hook: Callable[[int, str], None]) -> Iterator[None]:
    """Call ``hook(tick, point)`` at the six points of every simulated tick
    run inside, with the world's tick: before its chaos, progress, schedule
    and autoscale phases and its controller step, each under its name, and
    ``persist`` after its stats, the tick's last work before its commit.
    The tick's methods are wrapped for the duration, as the benchmark's
    tracer wraps them to time the phases."""
    from tunectl.cluster.sim import SimWorld

    def before(point: str, method: Callable) -> Callable:
        def wrapped(world, *args):
            hook(world.tick, point)
            return method(world, *args)

        return wrapped

    def advance_tick(world, controller_step=None):
        def step():
            hook(world.tick, "controller")
            return None if controller_step is None else controller_step()

        advance(world, step)

    def tick_stats(world):
        stats(world)
        hook(world.tick, "persist")

    advance, stats = SimWorld.advance_tick, SimWorld._tick_stats
    with pytest.MonkeyPatch.context() as patch:
        for point in TICK_POINTS[:4]:
            patch.setattr(SimWorld, f"{point}_tick", before(point, getattr(SimWorld, f"{point}_tick")))
        patch.setattr(SimWorld, "advance_tick", advance_tick)
        patch.setattr(SimWorld, "_tick_stats", tick_stats)
        yield


@st.composite
def parameter_specs(draw: st.DrawFn, name: str) -> ParameterSpec:
    kind = draw(st.sampled_from(list(ParameterType)))
    if kind is ParameterType.INT:
        lo = draw(st.integers(-50, 50))
        hi = draw(st.integers(lo + 1, lo + 100))
        step = draw(st.one_of(st.none(), st.integers(1, max(1, hi - lo))))
        return ParameterSpec(name, kind, Range(lo, hi, step))
    if kind is ParameterType.DOUBLE:
        lo = draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False))
        width = draw(st.floats(0.5, 100, allow_nan=False, allow_infinity=False))
        steps = draw(st.one_of(st.none(), st.integers(1, 20)))
        step = None if steps is None else width / steps
        return ParameterSpec(name, kind, Range(lo, lo + width, step))
    if kind is ParameterType.DISCRETE:
        values = draw(
            st.lists(
                st.one_of(st.integers(-1000, 1000), st.floats(-10, 10, allow_nan=False)),
                min_size=1,
                max_size=6,
                unique=True,
            )
        )
        return ParameterSpec(name, kind, ValueList(tuple(values)))
    values = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    return ParameterSpec(name, kind, ValueList(tuple(values)))


@st.composite
def experiment_specs(draw: st.DrawFn) -> ExperimentSpec:
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    parameters = [draw(parameter_specs(n)) for n in names]
    max_trials = draw(st.integers(1, 30))
    parallel = draw(st.integers(1, max_trials))
    goal = draw(st.one_of(st.none(), st.floats(-100, 100, allow_nan=False)))
    algorithm = draw(st.sampled_from(["random", "bayesianoptimization", "tpe"]))
    restart = draw(st.sampled_from(list(RestartPolicy)))
    template = TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor(
            "sphere",
            duration_ticks=draw(st.integers(1, 5)),
            noise_std_dev=draw(st.floats(0, 1, allow_nan=False)),
            rng_seed_offset=draw(st.integers(0, 9)),
        ),
        worker_count=draw(st.integers(1, 3)),
        cpu_per_worker=draw(st.floats(0.5, 4, allow_nan=False)),
        restart_policy=restart,
    )
    return make_experiment(
        parameters,
        name=draw(_NAMES),
        namespace=draw(_NAMES),
        algorithm=algorithm,
        settings={"random_state": draw(st.integers(0, 2**32 - 1))},
        objective_type=draw(st.sampled_from(list(ObjectiveType))),
        goal=goal,
        parallel=parallel,
        max_trials=max_trials,
        max_failed=draw(st.integers(0, 5)),
        template=template,
    )
