"""The benchmark's four workloads: their experiment files and world shapes.

Every input is derived from the workload seed. ``full`` sizes are the timed
benchmark; ``smoke`` sizes keep each workload's shape but finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("cli-file", "sim-800", "tenants-bo", "local-200")

# The seed whose output digests are committed in reference.json.
REFERENCE_SEED = 1

# trials: maxTrialCount per experiment; parallel: parallelTrialCount.
SIZES = {
    "full": {
        "cli-file": {"trials": 200, "parallel": 10},
        "sim-800": {"trials": 800, "parallel": 10},
        "tenants-bo": {"trials": 100, "parallel": 4},
        "local-200": {"trials": 200, "parallel": 2},
    },
    "smoke": {
        "cli-file": {"trials": 12, "parallel": 4},
        "sim-800": {"trials": 40, "parallel": 10},
        "tenants-bo": {"trials": 10, "parallel": 4},
        "local-200": {"trials": 6, "parallel": 2},
    },
}


@dataclass
class Param:
    name: str
    kind: str  # "double" | "int" | "categorical"
    low: float | None = None
    high: float | None = None
    values: tuple[str, ...] = ()


@dataclass
class Experiment:
    """What the output checks need to know about one submitted experiment."""

    name: str
    namespace: str
    maximize: bool
    metric: str
    objective: str  # oracle for the final objective: "mnist-surrogate" | "sphere" | "echo-x1"
    trials: int
    params: list[Param]
    algorithm: str
    yaml: str


@dataclass
class World:
    """Simulated cluster for the in-process simulator workloads."""

    nodes: list[float]
    namespaces: dict[str, float | None]
    autoscaler: dict | None = None
    chaos: dict | None = None


@dataclass
class Workload:
    name: str
    experiments: list[Experiment]
    world: World | None = None  # None: the local-process backend, or the CLI's own world
    # The run waits on trainer processes, not on the host's speed, so its
    # times are reported as measured, not scaled to the reference speed.
    wall_clock: bool = False


MNIST_PARAMS = [
    Param("lr", "double", 0.0, 0.3),
    Param("batch-size", "int", 600, 1000),
    Param("num-layers", "int", 2, 4),
    Param("optimizer", "categorical", values=("sgd",)),
]
SPHERE_PARAMS = [Param(f"x{i}", "double", -2.0, 2.0) for i in (1, 2, 3)]
LOCAL_TRAINER = 'sh -c "sleep 0.05; for i in 1 2 3 4 5 6 7 8 9 10; do echo $i loss=${x1}; done"'


def _params_yaml(params: list[Param]) -> str:
    lines = ["parameters:"]
    for p in params:
        if p.kind == "categorical":
            space = "{values: [%s]}" % ", ".join(p.values)
        elif p.kind == "int":
            space = "{min: %d, max: %d}" % (p.low, p.high)
        else:
            space = "{min: %r, max: %r}" % (p.low, p.high)
        lines.append(f"  - {{name: {p.name}, parameterType: {p.kind}, feasibleSpace: {space}}}")
    return "\n".join(lines)


def _experiment_yaml(
    *,
    name: str,
    namespace: str,
    objective: str,
    algorithm: str,
    random_state: int,
    parallel: int,
    trials: int,
    params: list[Param],
    template: str,
    extra_top: str = "",
) -> str:
    return (
        f"name: {name}\n"
        f"namespace: {namespace}\n"
        f"objective:\n{objective}\n"
        f"algorithm:\n  algorithmName: {algorithm}\n  settings: {{random_state: {random_state}}}\n"
        f"parallelTrialCount: {parallel}\n"
        f"maxTrialCount: {trials}\n"
        f"{extra_top}"
        f"{_params_yaml(params)}\n"
        f"trialTemplate:\n{template}\n"
    )


def _sphere_template(duration: int, workers: int, cpu: float, restart: str) -> str:
    return (
        "  kind: simulated\n"
        f"  workerCount: {workers}\n"
        f"  cpuPerWorker: {cpu}\n"
        f"  restartPolicy: {restart}\n"
        f"  payload: {{functionName: sphere, durationTicks: {duration}}}"
    )


MINIMIZE_LOSS = "  type: minimize\n  objectiveMetricName: loss"


def cli_file(seed: int, size: str) -> Workload:
    """The README quick-start experiment: random search, no goal."""
    s = SIZES[size]["cli-file"]
    text = _experiment_yaml(
        name="mnist-demo",
        namespace="user1",
        objective=(
            "  type: maximize\n"
            "  objectiveMetricName: Validation-accuracy\n"
            "  additionalMetricNames: [accuracy]"
        ),
        algorithm="random",
        random_state=seed,
        parallel=s["parallel"],
        trials=s["trials"],
        params=MNIST_PARAMS,
        template=(
            "  kind: simulated\n"
            "  cpuPerWorker: 2.0\n"
            "  payload: {functionName: mnist-surrogate, durationTicks: 3}"
        ),
    )
    exp = Experiment("mnist-demo", "user1", True, "Validation-accuracy", "mnist-surrogate",
                     s["trials"], MNIST_PARAMS, "random", text)
    return Workload("cli-file", [exp])


def sim_800(seed: int, size: str) -> Workload:
    """One random sphere experiment; many spawned trials, few live ones."""
    s = SIZES[size]["sim-800"]
    text = _experiment_yaml(
        name="sphere",
        namespace="bench",
        objective=MINIMIZE_LOSS,
        algorithm="random",
        random_state=seed,
        parallel=s["parallel"],
        trials=s["trials"],
        params=SPHERE_PARAMS,
        template=_sphere_template(3, 1, 1.0, "never"),
    )
    exp = Experiment("sphere", "bench", False, "loss", "sphere", s["trials"], SPHERE_PARAMS, "random", text)
    return Workload("sim-800", [exp], World(nodes=[16.0] * 4, namespaces={"bench": None}))


def tenants_bo(seed: int, size: str) -> Workload:
    """Two BO and two TPE experiments sharing one quota-bound namespace,
    under an autoscaler and kill-worker chaos."""
    s = SIZES[size]["tenants-bo"]
    experiments = []
    for i, (name, algorithm, workers, cpu) in enumerate(
        (
            ("bo-a", "bayesianoptimization", 1, 2.0),
            ("bo-b", "bayesianoptimization", 1, 2.0),
            ("tpe-a", "tpe", 2, 1.0),
            ("tpe-b", "tpe", 2, 1.0),
        )
    ):
        text = _experiment_yaml(
            name=name,
            namespace="tenants",
            objective=MINIMIZE_LOSS,
            algorithm=algorithm,
            random_state=seed * 10 + i,
            parallel=s["parallel"],
            trials=s["trials"],
            params=SPHERE_PARAMS,
            template=_sphere_template(5, workers, cpu, "on-temporary-failure"),
        )
        experiments.append(
            Experiment(name, "tenants", False, "loss", "sphere", s["trials"], SPHERE_PARAMS, algorithm, text)
        )
    world = World(
        nodes=[8.0] * 3,
        namespaces={"tenants": 24.0},
        autoscaler={"min_nodes": 3, "max_nodes": 12, "node_capacity_cpu": 8.0},
        chaos={"mode": "kill-worker", "fraction": 0.2, "interval_ticks": 15, "seed": seed},
    )
    return Workload("tenants-bo", experiments, world)


def local_200(seed: int, size: str) -> Workload:
    """One random experiment whose trials are real `sh` processes."""
    s = SIZES[size]["local-200"]
    params = SPHERE_PARAMS[:1]
    text = _experiment_yaml(
        name="local",
        namespace="host",
        objective=MINIMIZE_LOSS,
        algorithm="random",
        random_state=seed,
        parallel=s["parallel"],
        trials=s["trials"],
        params=params,
        template=f"  kind: local-process\n  payload: '{LOCAL_TRAINER}'",
        extra_top="metricCollectorKind: pull\n",
    )
    exp = Experiment("local", "host", False, "loss", "echo-x1", s["trials"], params, "random", text)
    return Workload("local-200", [exp], wall_clock=True)


BUILDERS = {"cli-file": cli_file, "sim-800": sim_800, "tenants-bo": tenants_bo, "local-200": local_200}


def build(name: str, seed: int, size: str) -> Workload:
    return BUILDERS[name](seed, size)
