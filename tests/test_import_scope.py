"""Cold commands import only what they use: scipy loads for BO alone, which
runs none of its subpackages' ``__init__``, and numpy only for BO, TPE and
noisy simulated objectives: random search, Hyperband and the simulator's
chaos draw from the stdlib port in ``tunectl.pcg``. PyYAML loads only for
the commands that read or write YAML, ``tunectl.scenarios`` only for a
scenario file, and a run imports only the backend it runs. ``--help`` loads
the CLI alone, ``submit`` no reconciler, and ``export`` no reconciler."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EXPERIMENT = """
name: scope
namespace: team
objective: {type: minimize, objectiveMetricName: loss}
algorithm:
  algorithmName: random
  settings: {random_state: 3}
parallelTrialCount: 2
maxTrialCount: 4
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -1.0, max: 1.0}}
trialTemplate:
  kind: simulated
  cpuPerWorker: 1.0
  payload: {functionName: sphere, durationTicks: 2}
"""


def _cli(*modules: str) -> str:
    """A script that runs one tunectl command the way the console script
    does, then reports which of ``modules`` were imported on the way."""
    return f"""
import sys
from tunectl.cli import cli
try:
    cli.main(args=sys.argv[1:], prog_name="tunectl")
except SystemExit as exc:
    assert not exc.code, exc.code
print("loaded:", *[m for m in {modules!r} if m in sys.modules])
"""


_CLI = _cli("numpy", "scipy")
# What a command loads only when it calls it: PyYAML to read or write YAML,
# ``statistics`` for the portability scenario's medians, the scenarios for a
# scenario file, and each backend to run it.
_SCOPE = _cli("yaml", "statistics", "tunectl.scenarios", "tunectl.cluster.sim", "tunectl.cluster.localproc")


def _python(code: str, *args: str, cwd: Path) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout.strip().splitlines()[-1]


def test_cli_commands_on_a_random_experiment_leave_scipy_unloaded(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    for command, loaded in (
        (["--help"], "loaded:"),
        (["submit", "exp.yaml", "--store", "store"], "loaded:"),
        (["run", "--store", "store", "--seed", "1"], "loaded:"),
        (["export", "scope", "--store", "store"], "loaded:"),
    ):
        assert _python(_CLI, *command, cwd=tmp_path) == loaded, command


def test_only_the_commands_that_read_or_write_yaml_load_it_and_a_run_loads_only_its_backend(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    for command, loaded in (
        (["--help"], "loaded:"),
        (["submit", "exp.yaml", "--store", "store"], "loaded: yaml"),
        (["run", "--store", "store", "--seed", "1", "--max-ticks", "2"], "loaded: tunectl.cluster.sim"),
        (["run", "--store", "store"], "loaded: tunectl.cluster.sim"),  # resumed at the commit of tick 2
        (["export", "scope", "--store", "store"], "loaded:"),
        (["dump", "--store", "store"], "loaded: yaml"),
    ):
        assert _python(_SCOPE, *command, cwd=tmp_path) == loaded, command
    assert "Succeeded" in (tmp_path / "store" / "journal.jsonl").read_text()


def test_a_run_with_a_scenario_file_loads_yaml_and_the_scenarios(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    (tmp_path / "scenario.yaml").write_text("seed: 4\nnodes: [4]\nnamespaces: [team]\nexperiments: [exp.yaml]\n")
    command = ["run", "--store", "store", "--scenario", "scenario.yaml"]
    assert _python(_SCOPE, *command, cwd=tmp_path) == "loaded: yaml tunectl.scenarios tunectl.cluster.sim"
    assert "Succeeded" in (tmp_path / "store" / "journal.jsonl").read_text()


def test_a_local_run_loads_no_simulator_and_no_yaml(tmp_path):
    experiment = EXPERIMENT[: EXPERIMENT.index("trialTemplate:")] + (
        f"trialTemplate:\n  kind: local-process\n  payload: \"{sys.executable} -c 'print(\\\"1 loss=0.5\\\")'\"\n"
    )
    (tmp_path / "exp.yaml").write_text(experiment)
    assert _python(_SCOPE, "submit", "exp.yaml", "--store", "store", cwd=tmp_path) == "loaded: yaml"
    command = ["run", "--store", "store", "--backend", "local"]
    assert _python(_SCOPE, *command, cwd=tmp_path) == "loaded: tunectl.cluster.localproc"
    assert "Succeeded" in (tmp_path / "store" / "journal.jsonl").read_text()


def test_help_submit_and_export_load_only_the_modules_they_call(tmp_path):
    # --help loads click and the CLI alone; submit needs the store and the
    # parser, not the reconcilers, the backends or the metric log; export
    # reads the store and the metric log, and runs no reconciler and no YAML.
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    package = ("tunectl.resources", "tunectl.controller", "tunectl.metrics", "tunectl.results", "logging")
    assert _python(_cli(*package), "--help", cwd=tmp_path) == "loaded:"
    controller = ("tunectl.controller.reconcile", "tunectl.controller.backend", "tunectl.metrics")
    assert _python(_cli(*controller), "submit", "exp.yaml", "--store", "store", cwd=tmp_path) == "loaded:"
    assert _python(_cli(), "run", "--store", "store", "--seed", "1", cwd=tmp_path) == "loaded:"
    assert _python(_cli("tunectl.controller.reconcile", "yaml"), "export", "scope", "--store", "store",
                   cwd=tmp_path) == "loaded:"

# Runs the simulated control loop on the store and kills it inside the
# controller step of tick 3, at its first store write.
_KILL = """
import sys
from tunectl.cluster.sim import SimBackend
from tunectl.controller.reconcile import run_control_loop
from tunectl.scenarios import ScenarioConfig

class Killed(Exception):
    pass

world = ScenarioConfig(1, nodes=(4.0,), namespaces=("team",)).world()
store, metrics, backend = SimBackend.open_run("store", lambda _store, metrics: SimBackend(world, metrics))

def kill(_resource):
    if backend.world.tick == 3:
        raise Killed

store.watchers.append(kill)
try:
    run_control_loop(store, metrics, backend)
except Killed:
    print("killed")
"""


def test_submit_on_a_killed_store_leaves_numpy_unloaded(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT)
    (tmp_path / "late.yaml").write_text(EXPERIMENT.replace("name: scope", "name: late"))
    assert _python(_CLI, "submit", "exp.yaml", "--store", "store", cwd=tmp_path) == "loaded:"
    assert _python(_KILL, cwd=tmp_path) == "killed"
    assert _python(_CLI, "submit", "late.yaml", "--store", "store", cwd=tmp_path) == "loaded:"
    assert _python(_CLI, "run", "--store", "store", cwd=tmp_path) == "loaded:"
    assert "late" in (tmp_path / "store" / "journal.jsonl").read_text()


def test_a_random_experiment_under_kill_worker_chaos_leaves_numpy_unloaded(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT.replace("durationTicks: 2", "durationTicks: 6"))
    (tmp_path / "scenario.yaml").write_text(
        "seed: 4\nnodes: [4]\nnamespaces: [team]\nexperiments: [exp.yaml]\n"
        "chaos: {mode: kill-worker, fraction: 0.5, intervalTicks: 2, seed: 1}\n"
    )
    assert _python(_CLI, "run", "--store", "store", "--scenario", "scenario.yaml", cwd=tmp_path) == "loaded:"
    assert "chaos-kill" in (tmp_path / "store" / "events.jsonl").read_text()


def test_a_hyperband_experiment_on_the_local_backend_leaves_numpy_unloaded(tmp_path):
    experiment = EXPERIMENT.replace(
        "algorithmName: random\n  settings: {random_state: 3}",
        "algorithmName: hyperband\n  settings: {random_state: 3, max_resource: 3, eta: 3}",
    ).replace("maxTrialCount: 4", "maxTrialCount: 8")
    experiment = experiment[: experiment.index("trialTemplate:")] + (
        f"trialTemplate:\n  kind: local-process\n  payload: \"{sys.executable} -c 'print(\\\"1 loss=0.5\\\")'\"\n"
    )
    (tmp_path / "exp.yaml").write_text(experiment)
    assert _python(_CLI, "submit", "exp.yaml", "--store", "store", cwd=tmp_path) == "loaded:"
    assert _python(_CLI, "run", "--store", "store", "--backend", "local", cwd=tmp_path) == "loaded:"
    assert "budget" in (tmp_path / "store" / "journal.jsonl").read_text()


# Fails the run if numpy is loaded before the simulator's first noisy draw.
_NOISY = """
import sys
from tunectl.cluster import sim
derived_rng, draws = sim._derived_rng, []

def first_draw_loads_numpy(*entropy):
    assert draws or "numpy" not in sys.modules, "numpy loaded before the first noisy draw"
    draws.append(entropy)
    return derived_rng(*entropy)

sim._derived_rng = first_draw_loads_numpy
""" + _CLI


def test_a_noisy_objective_loads_numpy_for_its_noise_draws_only(tmp_path):
    (tmp_path / "exp.yaml").write_text(EXPERIMENT.replace("durationTicks: 2", "durationTicks: 2, noiseStdDev: 0.1"))
    assert _python(_CLI, "submit", "exp.yaml", "--store", "store", cwd=tmp_path) == "loaded:"
    assert _python(_NOISY, "run", "--store", "store", cwd=tmp_path) == "loaded: numpy"


@pytest.mark.parametrize("name, loads_scipy", [("random", False), ("bayesianoptimization", True)])
def test_get_algorithm_imports_scipy_only_for_bayesian_optimization(tmp_path, name, loads_scipy):
    code = (
        "import sys\n"
        "from tunectl.suggest import get_algorithm\n"
        f"get_algorithm({name!r})\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _python(code, cwd=tmp_path) == str(loads_scipy)


def test_bayesian_optimization_leaves_scipy_stats_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from tunectl.suggest import get_algorithm\n"
        "get_algorithm('bayesianoptimization')\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    assert _python(code, cwd=tmp_path) == "False"


# Runs one BO suggestion that fits a Gaussian process, reports which scipy
# packages that loaded, then imports the public modules and compares the
# routines BO calls with theirs.
_BO = """
import sys
from tunectl.resources import parse_experiment
from tunectl.suggest import ObservationStatus, SuggestionRequest, TrialObservation, get_algorithm

spec = parse_experiment(sys.argv[1])
plugin = get_algorithm("bayesianoptimization")
from tunectl.suggest import bayesopt

fits = []
fit_gp = bayesopt.fit_gp
bayesopt.fit_gp = lambda x, y: fits.append(fit_gp(x, y)) or fits[-1]
history = tuple(
    TrialObservation(assignments=(("x", x),), status=ObservationStatus.SUCCEEDED, objective_value=x * x)
    for x in (-0.9, -0.4, 0.1, 0.6, 0.8)
)
assert len(plugin.suggest(SuggestionRequest(experiment=spec, history=history, count=2)).assignment_sets) == 2
assert len(fits) == 1 and fits[0] is not None
loaded = [m for m in ("scipy.linalg", "scipy.special", "scipy._lib._array_api") if m in sys.modules]
import scipy.linalg.lapack, scipy.special
assert bayesopt.dpotrf is scipy.linalg.lapack.dpotrf
assert bayesopt.dpotrs is scipy.linalg.lapack.dpotrs
assert bayesopt.ndtr is scipy.special.ndtr
print("loaded:", *loaded)
"""


def test_a_bayesian_optimization_fit_runs_no_scipy_package_init_and_calls_the_public_routines(tmp_path):
    experiment = EXPERIMENT.replace("algorithmName: random", "algorithmName: bayesianoptimization")
    assert _python(_BO, experiment, cwd=tmp_path) == "loaded:"
