"""Compare a file-backed simulated run with an in-memory one, in process.

    python3 tools/file_ratio.py [--rounds N] [--seed S]

Runs the ``cli-file`` and ``sim-800`` shapes of ``perfbench/workloads.py``
(their experiment and world) through ``run_control_loop`` in this process.
Each round runs every shape twice, opened by ``SimBackend.open_run`` as
``tunectl run`` opens a run: once in memory, and once file-backed in a fresh
temporary directory, compaction and closes included; which of the two goes
first alternates from round to round. A first round of each shape warms
the interpreter and is not counted. Prints, per shape, the median seconds
of each and their ratio, file-backed over in memory. Imports are not
timed: a cold CLI process pays them once, and ``perfbench`` measures that.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402 -- perfbench/workloads.py, found through the path above
from tunectl.cluster.sim import SimBackend, SimWorld  # noqa: E402
from tunectl.controller.reconcile import run_control_loop, submit_experiment  # noqa: E402
from tunectl.resources import parse_experiment  # noqa: E402

SHAPES = ("cli-file", "sim-800")
CLI_NODES = (8.0,) * 4  # the world ``tunectl run`` builds without ``--scenario``


def _world(workload: workloads.Workload, seed: int) -> SimWorld:
    world = SimWorld(seed=seed)
    shape = workload.world
    for capacity in CLI_NODES if shape is None else shape.nodes:
        world.add_node(capacity)
    limits = {e.namespace: None for e in workload.experiments} if shape is None else shape.namespaces
    for namespace, limit in limits.items():
        world.add_namespace(namespace, limit)
    return world


def run_once(workload: workloads.Workload, seed: int, directory: Path | None) -> float:
    """Seconds to drive the workload to its end; file-backed in ``directory``
    when one is given, compaction and closes included."""
    specs = [parse_experiment(e.yaml) for e in workload.experiments]
    world = _world(workload, seed)
    with SimBackend.open_run(directory, lambda _store, metrics: SimBackend(world, metrics)) as run:
        for spec in specs:
            submit_experiment(run.store, spec)
        start = time.perf_counter()
        run_control_loop(*run)
        run.store.compact()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=11, help="counted rounds per shape (default 11)")
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    args = parser.parse_args()
    for name in SHAPES:
        workload = workloads.build(name, args.seed, "full")
        times: dict[str, list[float]] = {"memory": [], "file": []}
        with tempfile.TemporaryDirectory(prefix="file-ratio-") as tmp:
            for round_ in range(args.rounds + 1):
                order = ("memory", "file") if round_ % 2 == 0 else ("file", "memory")
                for side in order:
                    directory = None if side == "memory" else Path(tmp) / f"{round_}"
                    seconds = run_once(workload, args.seed, directory)
                    if round_:
                        times[side].append(seconds)
        memory, file = statistics.median(times["memory"]), statistics.median(times["file"])
        trials = sum(e.trials for e in workload.experiments)
        print(f"{name}: in memory {memory:.3f} s ({trials / memory:,.0f} trials/s), "
              f"file-backed {file:.3f} s ({trials / file:,.0f} trials/s), ratio {file / memory:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
