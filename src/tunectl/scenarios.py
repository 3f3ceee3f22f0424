"""Canned simulator scenarios and the scenario file format.

Five named scenarios reproduce the headline behaviors on the deterministic
simulator: quota-bound multi-tenancy, cluster autoscaling, fault tolerance
under fail-trial and kill-worker chaos, and the narrow-after-wide
portability workflow. Each runs a fixed configuration and evaluates its
acceptance checks, returning a structured report the CLI prints one line
per check.

A scenario *file* (YAML) describes a custom world for ``tunectl run``:
initial nodes, per-namespace quotas, autoscaler and chaos policies, gang
scheduling, a seed, and experiment file references. It is the document of
:class:`ScenarioConfig`, decoded by ``codec.from_doc``, and
``ScenarioConfig.world`` builds every simulated world the CLI and the
canned scenarios run. The schema lives in ``cluster.sim``, re-exported
here, so a run without a scenario file never imports this module.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from .cluster.objectives import mnist_surrogate
from .codec import DocumentError, Journal, from_doc
from .cluster.sim import AutoscalerConfig, ChaosMode, ChaosPolicy, NodeGroup, Quota, ScenarioConfig, SimBackend
from .controller.backend import job_handle
from .controller.model import KIND_EXPERIMENT, TrialPhase
from .controller.reconcile import run_control_loop, submit_experiment
from .controller.store import ResourceStore
from .errors import TunectlError, ValidationError
from .metrics import InMemoryObservationStore
from .resources import (
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
    parse_experiment,
)

@dataclass
class ScenarioCheck:
    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioOutcome:
    name: str
    seed: int
    checks: list[ScenarioCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(ScenarioCheck(name=name, passed=bool(passed), detail=detail))


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, list[ExperimentSpec]]:
    """Read a scenario file and the experiment files it names."""
    import yaml  # here, so a run without a scenario file never loads PyYAML

    path = Path(path)
    try:
        cfg = from_doc(ScenarioConfig, yaml.safe_load(path.read_text()))
    except yaml.YAMLError as exc:
        raise ValidationError([f"scenario: yaml syntax error: {exc}"]) from exc
    except DocumentError as exc:
        raise ValidationError([f"scenario: {e}" for e in exc.errors]) from exc
    specs: list[ExperimentSpec] = []
    errors: list[str] = []
    for i, ref in enumerate(cfg.experiments):
        try:
            specs.append(parse_experiment((path.parent / ref).read_text()))
        except OSError as exc:
            errors.append(f"scenario: experiments[{i}]: {ref}: {exc.strerror}")
        except ValidationError as exc:
            errors.extend(f"scenario: experiments[{i}]: {ref}: {e}" for e in exc.errors)
    if errors:
        raise ValidationError(errors)
    return cfg, specs


# ---------------------------------------------------------------------------
# Simulation runner
# ---------------------------------------------------------------------------


@dataclass
class SimRun:
    snapshot: dict
    store: ResourceStore
    events: list[dict]


def run_simulated(
    cfg: ScenarioConfig,
    experiments: Sequence[ExperimentSpec],
    *,
    state_dir: str | Path | None = None,
    drain_to_min_nodes: bool = False,
) -> SimRun:
    """Build the world ``cfg`` describes, submit the experiments, and drive
    them to termination.

    With ``drain_to_min_nodes`` the world keeps ticking after termination
    until the autoscaler has shrunk back to its floor (bounded by grace).
    With a ``state_dir`` the resources start afresh in its journal, which
    ends compacted with the last commit, and the events are read back from
    its event log. A journal there that holds an experiment this run does
    not submit is another store's: the run refuses it and writes nothing.
    """
    world = cfg.world()
    if state_dir is not None:
        ours = {(spec.namespace, spec.name) for spec in experiments}
        held = ResourceStore(state_dir, readonly=True)
        if any((e.namespace, e.name) not in ours for e in held.list(KIND_EXPERIMENT)):
            raise TunectlError(f"{held.path} holds experiments that this scenario "
                               "does not submit; give the scenario a directory of its own")
        held.path.unlink(missing_ok=True)
    store = ResourceStore(state_dir)
    metrics = InMemoryObservationStore()
    backend = SimBackend(world, metrics, state_dir=state_dir)
    for spec in experiments:
        submit_experiment(store, spec)
    snapshot = run_control_loop(store, metrics, backend, max_ticks=cfg.max_ticks)
    autoscaler = cfg.autoscaler
    if drain_to_min_nodes and autoscaler is not None:
        budget = autoscaler.scale_down_grace_ticks + 15
        for _ in range(budget):
            if len(world.nodes) <= autoscaler.min_nodes:
                break
            backend.advance(lambda: 0)
    store.commit(backend.persist())
    backend.close()
    if state_dir is not None:
        store.compact()
        store.close()
        lines = Journal(Path(state_dir) / SimBackend.EVENTS_FILE).read()
        return SimRun(snapshot=snapshot, store=store, events=[json.loads(line) for line in lines])
    return SimRun(snapshot=snapshot, store=store, events=world.events)


def _sphere_parameters(count: int = 3) -> list[ParameterSpec]:
    return [
        ParameterSpec(
            name=f"x{i + 1}",
            parameter_type=ParameterType.DOUBLE,
            feasible_space=Range(min=-2.0, max=2.0),
        )
        for i in range(count)
    ]


def _simulated_template(
    function: str,
    duration: int,
    cpu: float,
    workers: int = 1,
    restart: RestartPolicy = RestartPolicy.NEVER,
    noise: float = 0.0,
) -> TrialTemplate:
    return TrialTemplate(
        kind=TemplateKind.SIMULATED,
        payload=SimObjectiveDescriptor(
            function_name=function, duration_ticks=duration, noise_std_dev=noise
        ),
        worker_count=workers,
        cpu_per_worker=cpu,
        restart_policy=restart,
    )


def _sphere_experiment(
    name: str,
    namespace: str,
    *,
    parallel: int,
    max_trials: int,
    max_failed: int = 0,
    seed: int = 0,
    duration: int = 5,
    cpu: float = 2.0,
    workers: int = 1,
    restart: RestartPolicy = RestartPolicy.NEVER,
) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        namespace=namespace,
        objective=ObjectiveSpec(
            type=ObjectiveType.MINIMIZE, objective_metric_name="loss"
        ),
        algorithm=AlgorithmSpec(algorithm_name="random", settings={"random_state": seed}),
        parameters=_sphere_parameters(),
        trial_template=_simulated_template("sphere", duration, cpu, workers, restart),
        parallel_trial_count=parallel,
        max_trial_count=max_trials,
        max_failed_trial_count=max_failed,
    )


def _peak_running(events: list[dict], namespace: str) -> int:
    peak = 0
    for event in events:
        if event["kind"] != "tick-stats":
            continue
        stats = event["payload"]["namespaces"].get(namespace)
        if stats:
            peak = max(peak, stats["runningTrials"])
    return peak


def _node_counts(events: list[dict]) -> list[tuple[int, int]]:
    return [
        (e["tick"], e["payload"]["nodes"]) for e in events if e["kind"] == "tick-stats"
    ]


def _experiment_result(snapshot: dict, namespace: str, name: str) -> dict:
    return snapshot["experiments"][f"experiment/{namespace}/{name}"]


def _completion_order(run: SimRun, namespace: str, experiment: str) -> list[tuple[int, str, float]]:
    """(completion tick, trial name, observation) for succeeded trials."""
    finished_at = {
        e["payload"]["job"]: e["tick"] for e in run.events if e["kind"] == "job-succeeded"
    }
    out = []
    for trial in run.store.trials(namespace, experiment).trials.values():
        if trial.status.phase is not TrialPhase.SUCCEEDED:
            continue
        handle = job_handle(namespace, trial.name)
        out.append((finished_at.get(handle, 1 << 30), trial.name, trial.status.observation))
    return sorted(out)


# ---------------------------------------------------------------------------
# Canned scenarios
# ---------------------------------------------------------------------------


def _scenario_multi_tenancy(seed: int, state_dir: Path | None) -> ScenarioOutcome:
    outcome = ScenarioOutcome(name="multi-tenancy", seed=seed)
    started = time.monotonic()
    experiments = [
        _sphere_experiment(f"tenancy-{user}", user, parallel=12, max_trials=12, seed=seed)
        for user in ("user1", "user2")
    ]
    cfg = ScenarioConfig(
        seed, nodes=(24.0,), namespaces=(Quota("user1", 18.0), Quota("user2", 6.0)), max_ticks=400
    )
    run = run_simulated(cfg, experiments, state_dir=state_dir)
    elapsed = time.monotonic() - started
    peaks = {user: _peak_running(run.events, user) for user in ("user1", "user2")}
    outcome.check(
        "user1-peak-concurrency",
        peaks["user1"] == 8,
        f"peak parallel trials for user1 (quota 18, 0.5 reserved): {peaks['user1']} (want exactly 8)",
    )
    outcome.check(
        "user2-peak-concurrency",
        peaks["user2"] == 2,
        f"peak parallel trials for user2 (quota 6, 0.5 reserved): {peaks['user2']} (want exactly 2)",
    )
    for user in ("user1", "user2"):
        result = _experiment_result(run.snapshot, user, f"tenancy-{user}")
        outcome.check(
            f"{user}-all-trials-succeed",
            result["phase"] == "Succeeded" and result["trialsSucceeded"] == 12,
            f"{user}: phase={result['phase']}, succeeded={result['trialsSucceeded']}/12",
        )
    outcome.check("runtime", elapsed < 10.0, f"simulated scenario took {elapsed:.2f}s (< 10s)")
    return outcome


def _scenario_autoscale(seed: int, state_dir: Path | None) -> ScenarioOutcome:
    outcome = ScenarioOutcome(name="autoscale", seed=seed)
    started = time.monotonic()
    autoscaler = AutoscalerConfig(
        min_nodes=3, max_nodes=50, node_capacity_cpu=4.0, scale_down_grace_ticks=10
    )
    experiment = _sphere_experiment(
        "autoscale-exp", "user1", parallel=250, max_trials=250, seed=seed, duration=3
    )
    cfg = ScenarioConfig(
        seed, nodes=(NodeGroup(4.0, 3),), namespaces=("user1",), autoscaler=autoscaler, max_ticks=600
    )
    run = run_simulated(cfg, [experiment], state_dir=state_dir, drain_to_min_nodes=True)
    elapsed = time.monotonic() - started
    counts = _node_counts(run.events)
    lo = min(c for _, c in counts)
    hi = max(c for _, c in counts)
    outcome.check(
        "node-count-bounds", 3 <= lo and hi <= 50, f"node count stayed in [{lo}, {hi}] (want within [3, 50])"
    )
    outcome.check("scale-up-to-max", hi == 50, f"peak node count {hi} (want 50)")
    final = counts[-1][1]
    outcome.check("scale-down-to-min", final == 3, f"final node count {final} (want 3)")
    last_completion = max(
        (e["tick"] for e in run.events if e["kind"] == "job-succeeded"), default=0
    )
    returned = next((t for t, c in counts if t > last_completion and c == 3), None)
    within = returned is not None and returned <= last_completion + autoscaler.scale_down_grace_ticks + 5
    outcome.check(
        "scale-down-within-grace",
        within,
        f"back to 3 nodes at tick {returned} after last completion at {last_completion} "
        f"(grace {autoscaler.scale_down_grace_ticks})",
    )
    result = _experiment_result(run.snapshot, "user1", "autoscale-exp")
    outcome.check(
        "all-trials-succeed",
        result["phase"] == "Succeeded" and result["trialsSucceeded"] == 250,
        f"phase={result['phase']}, succeeded={result['trialsSucceeded']}/250",
    )
    outcome.check("runtime", elapsed < 60.0, f"simulated scenario took {elapsed:.2f}s (< 60s)")
    return outcome


CHAOS_FAIL_RATES = (0.0, 0.05, 0.5, 1.0)


def _scenario_chaos_fail(seed: int, state_dir: Path | None) -> ScenarioOutcome:
    outcome = ScenarioOutcome(name="chaos-fail", seed=seed)
    for rate in CHAOS_FAIL_RATES:
        label = f"{int(rate * 100)}pct"
        experiment = _sphere_experiment(
            f"chaos-{label}", "user1", parallel=10, max_trials=150, max_failed=100, seed=seed
        )
        chaos = (
            ChaosPolicy(mode=ChaosMode.FAIL_TRIAL, fraction=rate, interval_ticks=20, seed=seed)
            if rate > 0
            else None
        )
        cfg = ScenarioConfig(seed, nodes=(24.0,), namespaces=("user1",), chaos=chaos, max_ticks=1500)
        run = run_simulated(cfg, [experiment], state_dir=None if state_dir is None else state_dir / label)
        result = _experiment_result(run.snapshot, "user1", f"chaos-{label}")
        failures = result["trialsFailed"]
        outcome.check(
            f"{label}-succeeds-within-error-budget",
            result["phase"] == "Succeeded" and failures <= 100,
            f"rate {label}: phase={result['phase']}, failed={failures} (budget 100)",
        )
        if rate > 0:
            outcome.check(
                f"{label}-failures-injected",
                failures > 0,
                f"rate {label}: {failures} failed trials (want > 0)",
            )
        order = _completion_order(run, "user1", f"chaos-{label}")
        best_so_far = []
        best = math.inf
        for _, _, value in order:
            best = min(best, value)
            best_so_far.append(best)
        monotone = all(b2 <= b1 for b1, b2 in zip(best_so_far, best_so_far[1:]))
        outcome.check(
            f"{label}-exploration-monotone",
            monotone and bool(best_so_far),
            f"rate {label}: best-so-far non-increasing over {len(best_so_far)} succeeded trials",
        )
    return outcome


def _scenario_chaos_kill(seed: int, state_dir: Path | None) -> ScenarioOutcome:
    outcome = ScenarioOutcome(name="chaos-kill", seed=seed)
    experiment = _sphere_experiment(
        "chaos-kill",
        "user1",
        parallel=8,
        max_trials=24,
        seed=seed,
        duration=12,
        cpu=1.0,
        workers=2,
        restart=RestartPolicy.ON_TEMPORARY_FAILURE,
    )
    chaos = ChaosPolicy(mode=ChaosMode.KILL_WORKER, fraction=0.05, interval_ticks=20, seed=seed)
    cfg = ScenarioConfig(seed, nodes=(NodeGroup(8.0, 3),), namespaces=("user1",), chaos=chaos, max_ticks=600)
    run = run_simulated(cfg, [experiment], state_dir=state_dir)
    trials = run.store.trials("user1", "chaos-kill").trials.values()
    failed = sum(1 for t in trials if t.status.phase is TrialPhase.FAILED)
    restarted = sum(1 for t in trials if t.status.restart_count > 0)
    kills = sum(1 for e in run.events if e["kind"] == "chaos-kill")
    outcome.check("zero-failed-trials", failed == 0, f"{failed} trials in Failed phase (want 0)")
    outcome.check(
        "restarts-observed",
        restarted > 0 and kills > 0,
        f"{kills} worker kills injected; {restarted} trials restarted (want > 0)",
    )
    result = _experiment_result(run.snapshot, "user1", "chaos-kill")
    outcome.check(
        "experiment-succeeds",
        result["phase"] == "Succeeded" and result["trialsSucceeded"] == 24,
        f"phase={result['phase']}, succeeded={result['trialsSucceeded']}/24",
    )
    return outcome


def _portability_parameters(narrowed: bool) -> list[ParameterSpec]:
    if narrowed:
        return [
            ParameterSpec("lr", ParameterType.DOUBLE, Range(min=0.0, max=0.3)),
            ParameterSpec("batch-size", ParameterType.INT, Range(min=600, max=1000)),
            ParameterSpec("num-layers", ParameterType.INT, Range(min=2, max=4)),
            ParameterSpec("optimizer", ParameterType.CATEGORICAL, ValueList(values=("sgd",))),
        ]
    return [
        ParameterSpec("lr", ParameterType.DOUBLE, Range(min=0.0, max=1.0)),
        ParameterSpec("batch-size", ParameterType.INT, Range(min=10, max=1000)),
        ParameterSpec("num-layers", ParameterType.INT, Range(min=1, max=5)),
        ParameterSpec(
            "optimizer", ParameterType.CATEGORICAL, ValueList(values=("sgd", "adam", "ftrl"))
        ),
    ]


def _portability_experiment(name: str, *, narrowed: bool, algorithm: str, trials: int,
                            parallel: int, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        namespace="user1",
        objective=ObjectiveSpec(
            type=ObjectiveType.MAXIMIZE,
            objective_metric_name="Validation-accuracy",
            additional_metric_names=("accuracy",),
        ),
        algorithm=AlgorithmSpec(algorithm_name=algorithm, settings={"random_state": seed}),
        parameters=_portability_parameters(narrowed),
        trial_template=_simulated_template("mnist-surrogate", duration=1, cpu=2.0),
        parallel_trial_count=parallel,
        max_trial_count=trials,
    )


@lru_cache(maxsize=1)
def surrogate_brute_force_max() -> float:
    """Grid maximum of the final-progress surrogate over the narrowed space."""
    best = -math.inf
    for layers in (2, 3, 4):
        for batch in range(600, 1001, 5):
            for i in range(0, 301):
                lr = i / 1000.0
                value = mnist_surrogate(
                    {"lr": lr, "num-layers": layers, "batch-size": batch, "optimizer": "sgd"},
                    1.0,
                )
                best = max(best, value)
    return best


PORTABILITY_PAIRS = 20


def run_portability_pair(seed: int, state_dir: Path | None = None) -> tuple[float, float]:
    """One wide-random-then-narrow-bayesian pair; returns (best1, best2)."""
    phase1 = _portability_experiment(
        "port-wide", narrowed=False, algorithm="random", trials=15, parallel=15, seed=seed
    )
    run1 = run_simulated(
        ScenarioConfig(seed, nodes=(34.0,), namespaces=("user1",), max_ticks=100),
        [phase1],
        state_dir=None if state_dir is None else state_dir / "wide",
    )
    phase2 = _portability_experiment(
        "port-narrow", narrowed=True, algorithm="bayesianoptimization",
        trials=50, parallel=5, seed=seed,
    )
    run2 = run_simulated(
        ScenarioConfig(seed, nodes=(16.0,), namespaces=("user1",), max_ticks=400),
        [phase2],
        state_dir=None if state_dir is None else state_dir / "narrow",
    )
    best1 = _experiment_result(run1.snapshot, "user1", "port-wide")["currentOptimal"]
    best2 = _experiment_result(run2.snapshot, "user1", "port-narrow")["currentOptimal"]
    return (
        best1["objectiveValue"] if best1 else -math.inf,
        best2["objectiveValue"] if best2 else -math.inf,
    )


def _scenario_portability(seed: int, state_dir: Path | None) -> ScenarioOutcome:
    import statistics

    outcome = ScenarioOutcome(name="portability", seed=seed)
    started = time.monotonic()
    wide_bests: list[float] = []
    narrow_bests: list[float] = []
    for i in range(PORTABILITY_PAIRS):
        sub_dir = None if state_dir is None else state_dir / f"pair-{i:02d}"
        best1, best2 = run_portability_pair(seed + i, sub_dir)
        wide_bests.append(best1)
        narrow_bests.append(best2)
    elapsed = time.monotonic() - started
    median_wide = statistics.median(wide_bests)
    median_narrow = statistics.median(narrow_bests)
    optimum = surrogate_brute_force_max()
    outcome.check(
        "narrowed-run-dominates",
        median_narrow >= median_wide,
        f"median best: narrowed {median_narrow:.4f} vs wide {median_wide:.4f} over "
        f"{PORTABILITY_PAIRS} seeds",
    )
    outcome.check(
        "narrowed-run-near-optimum",
        median_narrow >= 0.99 * optimum,
        f"median narrowed best {median_narrow:.4f} within 1% of brute-force optimum {optimum:.4f}",
    )
    outcome.check("runtime", elapsed < 60.0, f"{PORTABILITY_PAIRS} paired runs took {elapsed:.1f}s (< 60s)")
    return outcome


SCENARIOS = {
    "multi-tenancy": _scenario_multi_tenancy,
    "autoscale": _scenario_autoscale,
    "chaos-fail": _scenario_chaos_fail,
    "chaos-kill": _scenario_chaos_kill,
    "portability": _scenario_portability,
}


def run_scenario(name: str, seed: int = 0, state_dir: str | Path | None = None) -> ScenarioOutcome:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario '{name}' (choose from {', '.join(SCENARIOS)})")
    return SCENARIOS[name](seed, None if state_dir is None else Path(state_dir))
