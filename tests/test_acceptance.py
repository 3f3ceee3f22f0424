"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the criterion. Scenario-based criteria reuse the canned
scenario runners, so the CLI `scenario` subcommand checks the same
assertions these tests do.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

import numpy as np
import pytest

from conftest import TICK_POINTS, SimulatedCrash, _until_concluded, make_experiment, tick_hook
from tunectl.cluster.localproc import LocalProcessBackend
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller.backend import JobPhase, JobRequest
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.controller.store import FileResourceStore
from tunectl.errors import ExhaustedSearchSpace
from tunectl.metrics import (
    FileObservationStore,
    InMemoryObservationStore,
    MetricPoint,
    ObservationFilter,
    best_objective,
)
from tunectl.resources import (
    CollectorKind,
    ObjectiveSpec,
    ObjectiveType,
    ParameterSpec,
    ParameterType,
    Range,
    TemplateKind,
    TrialRunSpec,
    TrialTemplate,
    ValueList,
)
from tunectl.scenarios import ScenarioConfig, run_scenario, run_simulated, _sphere_experiment
from tunectl.suggest import (
    ObservationStatus,
    SuggestionRequest,
    TrialObservation,
    get_suggestions,
)
from tunectl.suggest.grid import grid_enumerate, grid_size
from tunectl.suggest.hyperband import successive_halving_brackets
from tunectl.suggest.space import feasible


def _report(criterion: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def _scenario_criterion(number: int, name: str, seed: int = 7) -> None:
    outcome = run_scenario(name, seed=seed)
    detail = "; ".join(f"{c.name}[{'ok' if c.passed else 'FAIL'}]" for c in outcome.checks)
    for check in outcome.checks:
        if not check.passed:
            detail += f" | {check.name}: {check.detail}"
    _report(number, name, outcome.passed, detail)


def test_criterion_1_multi_tenancy():
    _scenario_criterion(1, "multi-tenancy")


def test_criterion_2_autoscaling():
    _scenario_criterion(2, "autoscale")


def test_criterion_3_fault_tolerance_failure_rates():
    _scenario_criterion(3, "chaos-fail")


def test_criterion_4_fault_tolerance_kill_worker():
    _scenario_criterion(4, "chaos-kill")


def test_criterion_5_portability_narrative():
    _scenario_criterion(5, "portability", seed=100)


# ---------------------------------------------------------------------------
# Criterion 6: algorithm suite
# ---------------------------------------------------------------------------

ALGORITHMS = ("random", "grid", "bayesianoptimization", "tpe", "hyperband")


def _random_space(rng: np.random.Generator) -> list[ParameterSpec]:
    parameters = []
    for i in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 4))
        name = f"p{i}"
        if kind == 0:
            lo = float(rng.uniform(-5, 5))
            parameters.append(
                ParameterSpec(name, ParameterType.DOUBLE, Range(lo, lo + float(rng.uniform(0.5, 5)),
                                                                step=float(rng.uniform(0.2, 1.0))))
            )
        elif kind == 1:
            lo = int(rng.integers(-10, 10))
            parameters.append(
                ParameterSpec(name, ParameterType.INT, Range(lo, lo + int(rng.integers(1, 6))))
            )
        elif kind == 2:
            count = int(rng.integers(1, 4))
            values = tuple(round(float(v), 3) for v in rng.uniform(-3, 3, count))
            values = tuple(dict.fromkeys(values)) or (0.0,)
            parameters.append(ParameterSpec(name, ParameterType.DISCRETE, ValueList(values)))
        else:
            count = int(rng.integers(1, 4))
            parameters.append(
                ParameterSpec(
                    name, ParameterType.CATEGORICAL,
                    ValueList(tuple(f"c{j}" for j in range(count))),
                )
            )
    return parameters


def _random_history(rng, parameters, algorithm, case_index):
    # Most cases stay below the model-based fit thresholds; every 25th case
    # exceeds them so the fitted paths get exercised too.
    size = int(rng.integers(0, 6)) if case_index % 25 else int(rng.integers(12, 16))
    observations = []
    for _ in range(size):
        assignments = []
        for p in parameters:
            if isinstance(p.feasible_space, Range):
                lo, hi = p.feasible_space.min, p.feasible_space.max
                if p.parameter_type is ParameterType.INT:
                    assignments.append((p.name, int(rng.integers(lo, hi + 1))))
                else:
                    assignments.append((p.name, float(rng.uniform(lo, hi))))
            else:
                values = p.feasible_space.values
                assignments.append((p.name, values[int(rng.integers(0, len(values)))]))
        failed = rng.random() < 0.2
        extra = (("budget", 1),) if algorithm == "hyperband" else ()
        observations.append(
            TrialObservation(
                assignments=tuple(assignments) + extra,
                status=ObservationStatus.FAILED if failed else ObservationStatus.SUCCEEDED,
                objective_value=None if failed else float(rng.normal()),
                resource_consumed=None if failed else (1.0 if algorithm == "hyperband" else None),
            )
        )
    return tuple(observations)


def test_criterion_6_algorithm_suite():
    rng = np.random.default_rng(20240817)
    cases = 0
    for i in range(1000):
        algorithm = ALGORITHMS[i % len(ALGORITHMS)]
        parameters = _random_space(rng)
        settings = {"random_state": int(rng.integers(0, 2**31))}
        if algorithm == "hyperband":
            settings.update({"max_resource": 9, "eta": 3})
        spec = make_experiment(
            parameters,
            algorithm=algorithm,
            settings=settings,
            parallel=4,
            max_trials=1000,
        )
        history = _random_history(rng, parameters, algorithm, i)
        count = int(rng.integers(1, 4))
        request = SuggestionRequest(experiment=spec, history=history, count=count)
        try:
            first = get_suggestions(request)
            second = get_suggestions(
                SuggestionRequest(experiment=spec, history=history, count=count)
            )
        except ExhaustedSearchSpace:
            continue
        # Feasibility: every emitted set covers every declared parameter in-space.
        for assignments in first.assignment_sets:
            assert feasible(parameters, assignments), (algorithm, assignments)
        # Determinism: identical request -> byte-identical suggestions.
        assert first.assignment_sets == second.assignment_sets, algorithm
        cases += 1
    _report(6, "feasibility+determinism", cases >= 900, f"{cases} generated cases checked")

    # Grid completeness: enumeration equals the full cross-product, exactly once.
    rng = np.random.default_rng(77)
    for _ in range(1000):
        parameters = _random_space(rng)
        total = grid_size(parameters)
        if total > 80:
            continue
        seen = []
        cursor = 0
        while True:
            try:
                sets, cursor, exhausted = grid_enumerate(
                    parameters, count=int(rng.integers(1, 8)), cursor=cursor
                )
            except ExhaustedSearchSpace:
                break
            seen.extend(sets)
            if exhausted and cursor >= total:
                break
        assert len(seen) == total
        assert len(set(seen)) == total
    _report(6, "grid-completeness", True, "1000 generated grids enumerate exactly once")

    # Benchmark dominance: BO and TPE median best <= random's median on the
    # 3-D sphere with a 50-trial budget over 20 seeds.
    def best_on_sphere(algorithm: str, seed: int) -> float:
        parameters = [
            ParameterSpec(f"x{i}", ParameterType.DOUBLE, Range(-2.0, 2.0)) for i in range(3)
        ]
        spec = make_experiment(
            parameters,
            algorithm=algorithm,
            settings={"random_state": seed},
            objective_type=ObjectiveType.MINIMIZE,
            parallel=1,
            max_trials=50,
        )
        history: list[TrialObservation] = []
        produced: tuple = ()
        best = math.inf
        for _ in range(50):
            result = get_suggestions(
                SuggestionRequest(experiment=spec, history=tuple(history), count=1, produced=produced)
            )
            produced += result.assignment_sets
            assignments = result.assignment_sets[0]
            value = sum(v * v for _, v in assignments)
            best = min(best, value)
            history.append(
                TrialObservation(
                    assignments=assignments,
                    status=ObservationStatus.SUCCEEDED,
                    objective_value=value,
                )
            )
        return best

    medians = {}
    for algorithm in ("random", "bayesianoptimization", "tpe"):
        medians[algorithm] = statistics.median(
            best_on_sphere(algorithm, seed) for seed in range(20)
        )
    dominance = (
        medians["bayesianoptimization"] <= medians["random"]
        and medians["tpe"] <= medians["random"]
    )
    _report(
        6,
        "benchmark-dominance",
        dominance,
        f"median best on sphere: random={medians['random']:.4f}, "
        f"bo={medians['bayesianoptimization']:.4f}, tpe={medians['tpe']:.4f}",
    )

    # Hyperband rung table vs the independent successive-halving oracle.
    s_max = 4
    budget = (s_max + 1) * 81
    oracle = []
    for s in range(s_max, -1, -1):
        n = math.ceil(budget / 81 * (3**s) / (s + 1) - 1e-12)
        r = 81 / (3**s)
        rungs = []
        for _ in range(s + 1):
            rungs.append((n, r))
            n, r = n // 3, r * 3
        oracle.append(rungs)
    got = [
        [(rung.configs, rung.resource) for rung in bracket.rungs]
        for bracket in successive_halving_brackets(81, 3)
    ]
    _report(6, "hyperband-rung-table", got == oracle, f"(R=81, eta=3): {got[0]}")


# ---------------------------------------------------------------------------
# Criterion 7: storage
# ---------------------------------------------------------------------------


def test_criterion_7_storage(tmp_path):
    rng = np.random.default_rng(1234)
    memory = InMemoryObservationStore()
    disk = FileObservationStore(tmp_path / "metrics.jsonl")
    trials = [f"trial-{i:02d}" for i in range(12)]
    metrics = ["accuracy", "loss", "Validation-accuracy"]
    checked = 0
    for _ in range(10_000):
        op = rng.random()
        trial = trials[int(rng.integers(0, len(trials)))]
        if op < 0.55:
            points = [
                MetricPoint(
                    trial=trial,
                    metric=metrics[int(rng.integers(0, 3))],
                    ts=int(rng.integers(0, 50)),
                    value=float(round(rng.normal(), 3)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            memory.register_observation_log(points)
            disk.register_observation_log(points)
        elif op < 0.95:
            bounds = sorted(int(v) for v in rng.integers(0, 50, 2))
            flt = ObservationFilter(
                start=bounds[0] if rng.random() < 0.5 else None,
                end=bounds[1] if rng.random() < 0.5 else None,
                metric_names=tuple(sorted(rng.choice(metrics, 2, replace=False)))
                if rng.random() < 0.5
                else None,
            )
            assert memory.get_observation_log(trial, flt) == disk.get_observation_log(trial, flt)
            checked += 1
        else:
            memory.delete_observation_log(trial)
            disk.delete_observation_log(trial)
    # The log must also come back whole from the file alone.
    reloaded = FileObservationStore(tmp_path / "metrics.jsonl")
    for trial in trials:
        assert memory.get_observation_log(trial) == disk.get_observation_log(trial)
        assert memory.get_observation_log(trial) == reloaded.get_observation_log(trial)
    _report(7, "backend-differential", True, f"10000 randomized calls, {checked} compared reads, reload")

    # Push vs pull on an identical byte stream, written by a trainer in
    # random chunks that split lines: bit-exact best objective.
    rng = np.random.default_rng(5)
    lines = [f"{t} accuracy={repr(float(rng.normal()))}" for t in range(200)]
    stream = "\n".join(lines) + "\n"
    chunks, cut = [], 0
    while cut < len(stream):
        step = int(rng.integers(1, 40))
        chunks.append(stream[cut : cut + step])
        cut += step
    (tmp_path / "chunks.json").write_text(json.dumps(chunks))
    trainer = tmp_path / "chunked.py"
    trainer.write_text(
        "import json, sys\n"
        f"for chunk in json.load(open({str(tmp_path / 'chunks.json')!r})):\n"
        "    sys.stdout.write(chunk)\n"
        "    sys.stdout.flush()\n"
    )
    command = f"{sys.executable} {trainer}"
    objective = ObjectiveSpec(type=ObjectiveType.MAXIMIZE, objective_metric_name="accuracy")
    logs = {}
    for collector in (CollectorKind.PULL, CollectorKind.PUSH):
        store = InMemoryObservationStore()
        backend = LocalProcessBackend(store)
        run_spec = TrialRunSpec(trial_name="t", namespace="ns", resolved_payload=command, parameter_assignments=())
        handle = backend.submit(JobRequest(
            run_spec,
            TrialTemplate(kind=TemplateKind.LOCAL_PROCESS, payload=command),
            collector_kind=collector,
            watched_metrics=("accuracy",),
        ))
        _until_concluded(backend, handle, bound=60)
        assert backend.job_state(handle).phase is JobPhase.SUCCEEDED
        backend.collect_metrics(handle)
        backend.close()
        logs[collector] = store.get_observation_log(handle)
    pull_best = best_objective(logs[CollectorKind.PULL], objective)
    push_best = best_objective(logs[CollectorKind.PUSH], objective)
    bit_exact = (
        pull_best == push_best
        and pull_best is not None
        and logs[CollectorKind.PULL] == logs[CollectorKind.PUSH]
        and len(logs[CollectorKind.PULL]) == len(lines)
    )
    _report(
        7,
        "push-pull-equivalence",
        bit_exact,
        f"{len(chunks)} chunks; best via pull={pull_best!r}, push={push_best!r}; "
        f"{len(logs[CollectorKind.PULL])} and {len(logs[CollectorKind.PUSH])} points",
    )

    # The same equivalence holds end to end through the simulator backend.
    finals = {}
    for collector in (CollectorKind.PULL, CollectorKind.PUSH):
        exp = _sphere_experiment("pp", "user1", parallel=2, max_trials=4, seed=3, duration=3)
        exp.metric_collector_kind = collector
        run = run_simulated(ScenarioConfig(9, nodes=(8.0,), namespaces=("user1",), max_ticks=60), [exp])
        finals[collector] = json.dumps(run.snapshot["experiments"], sort_keys=True)
    _report(
        7,
        "push-pull-simulated",
        finals[CollectorKind.PULL] == finals[CollectorKind.PUSH],
        "identical terminal snapshots under push and pull collection",
    )


# ---------------------------------------------------------------------------
# Criterion 8: recovery
# ---------------------------------------------------------------------------

def _recovery_experiment():
    return _sphere_experiment("rec", "user1", parallel=3, max_trials=10, seed=11, duration=2)


def _build_recovery(store, metrics):
    """The world of a store that holds no commit yet; ``SimBackend.open_run``
    resumes one that does at its last commit."""
    world = SimWorld(seed=11)
    world.add_node(6.0)  # tight: trials queue across waves
    world.add_namespace("user1", None)
    if store.get("experiment/user1/rec") is None:
        submit_experiment(store, _recovery_experiment())
    return SimBackend(world, metrics)


def _on_writes(store, hook) -> None:
    """Call ``hook`` after each write of ``store``, a commit's append included."""
    store.watchers.append(lambda _resource: hook())
    commit = store.commit

    def committed(body):
        last = store.committed
        commit(body)
        if store.committed is not last:  # appended: a repeat or None writes nothing
            hook()

    store.commit = committed


def _fingerprint(snapshot) -> str:
    return json.dumps(snapshot["experiments"], sort_keys=True)


def test_criterion_8_recovery(tmp_path):
    mutations = 0

    def count_mutation():
        nonlocal mutations
        mutations += 1

    run = SimBackend.open_run(tmp_path / "clean", _build_recovery)
    store, metrics, backend = run
    _on_writes(store, count_mutation)
    clean = run_control_loop(store, metrics, backend)
    run.close()
    clean_fp = _fingerprint(clean)
    terminal_tick = clean["ticks"]
    total_mutations = mutations
    assert clean["experiments"]["experiment/user1/rec"]["phase"] == "Succeeded"

    rng = np.random.default_rng(0xC0FFEE)
    identical = 0
    for case in range(100):
        directory = tmp_path / f"kill-{case:03d}"
        if case % 2 == 0:
            kill_tick = int(rng.integers(1, terminal_tick + 1))
            kill_phase = TICK_POINTS[int(rng.integers(0, len(TICK_POINTS)))]

            def hook(tick, phase, kt=kill_tick, kp=kill_phase):
                if tick == kt and phase == kp:
                    raise SimulatedCrash(f"kill at tick {kt} phase {kp}")

            store, metrics, backend = SimBackend.open_run(directory, _build_recovery)
            with tick_hook(hook), pytest.raises(SimulatedCrash):
                run_control_loop(store, metrics, backend)
        else:
            kill_at = int(rng.integers(1, total_mutations + 1))
            seen = 0

            def mutation_hook(ka=kill_at):
                nonlocal seen
                seen += 1
                if seen == ka:
                    raise SimulatedCrash(f"kill at mutation {ka}")

            store, metrics, backend = SimBackend.open_run(directory, _build_recovery)
            _on_writes(store, mutation_hook)
            try:
                run_control_loop(store, metrics, backend)
            except SimulatedCrash:
                pass  # crashed mid-write sequence as intended
        backend.close()

        run = SimBackend.open_run(directory, _build_recovery)
        resumed = run_control_loop(*run)
        run.close()
        if _fingerprint(resumed) == clean_fp:
            identical += 1
    _report(
        8,
        "recovery-equivalence",
        identical == 100,
        f"{identical}/100 randomized kill-points matched the uninterrupted terminal state",
    )
