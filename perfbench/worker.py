"""One iteration of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE RECORD TRACE

Imports the program, builds the world and stores, submits, loads every
algorithm the workload uses, then reports ready and drives every experiment
to a terminal phase. Writes what it measured and produced to RECORD (JSON):
monotonic timestamps, which ``run.py`` turns into durations corrected for
host speed with the probe records. With TRACE=1 it installs the layer spans
instead of the tick timer and probes, and writes the spans beside RECORD.
"""

import sys
import time

from hostspeed import Probes

ROUNDS_S = 1.0


def main() -> None:
    workload_name, seed, size, record_path, trace = sys.argv[1:6]
    seed, trace = int(seed), trace == "1"
    probes = Probes()
    if not trace:
        probes.start()

    import tracer
    import workloads

    wl = workloads.build(workload_name, seed, size)
    tr = timer = None
    if trace:
        tr = tracer.Tracer()
        tracer.install_layers(tr)
    else:
        timer = tracer.TickTimer()
        tracer.install_tick_timer(timer)

    import tunectl
    import tunectl.controller.reconcile as reconcile
    import tunectl.resources as resources
    import tunectl.results as results
    from tunectl.controller.store import ResourceStore
    from tunectl.metrics import InMemoryObservationStore
    from tunectl.suggest import get_algorithm

    metrics = InMemoryObservationStore()
    world = None
    if wl.world is None:
        from tunectl.cluster.localproc import LocalProcessBackend

        backend = LocalProcessBackend(metrics)
    else:
        from tunectl.cluster.sim import AutoscalerConfig, ChaosPolicy, SimBackend, SimWorld

        w = wl.world
        world = SimWorld(
            seed=seed,
            autoscaler=AutoscalerConfig(**w.autoscaler) if w.autoscaler else None,
            chaos=ChaosPolicy(**w.chaos) if w.chaos else None,
        )
        for capacity in w.nodes:
            world.add_node(capacity)
        for namespace, limit in w.namespaces.items():
            world.add_namespace(namespace, limit)
        backend = SimBackend(world, metrics)
    tracer.mark_imports_done()

    # Lazy loading finishes here, so no timed step pays for it.
    for exp in wl.experiments:
        get_algorithm(exp.algorithm)

    store = ResourceStore()
    for exp in wl.experiments:
        reconcile.submit_experiment(store, resources.parse_experiment(exp.yaml))

    ready = time.monotonic()
    io_before = tracer.read_proc_io()
    run_start = time.monotonic()
    snapshot = reconcile.run_control_loop(store, metrics, backend)
    run_end = time.monotonic()
    io_after = tracer.read_proc_io()
    backend.close()

    # Submitting and exporting take milliseconds: time at least 25 rounds
    # and at least ROUNDS_S of them, after the run so set-up stays one
    # submission. The traced run exports once, so its counts are those of
    # one export.
    rounds = []
    first = time.monotonic()
    while True:
        t0 = time.monotonic()
        scratch = ResourceStore()
        for exp in wl.experiments:
            reconcile.submit_experiment(scratch, resources.parse_experiment(exp.yaml))
        t1 = time.monotonic()
        csvs = {
            exp.name: results.render_csv(
                results.build_results_table(store, metrics, exp.namespace, exp.name)
            )
            for exp in wl.experiments
        }
        rounds.append([t0, t1, time.monotonic()])
        if trace or (len(rounds) >= 25 and time.monotonic() - first >= ROUNDS_S):
            break
    if not trace:
        probes.stop()

    import json
    import resource
    from pathlib import Path

    import checks

    record_path = Path(record_path)
    record = {
        "ready": ready,
        "run": [run_start, run_end],
        "rounds": rounds,
        "probes": probes.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ticks": timer.ticks if timer is not None else tr.durations(
            "sim.tick" if world is not None else "localproc.advance"
        ),
        "io": tracer.io_delta(io_before, io_after),
        "snapshot": snapshot,
        "csv": csvs,
        "events_sha": checks.sha256(checks.events_text(world.events)) if world is not None else None,
        "program": tunectl.__file__,
        "trace": tr.summary() if tr is not None else None,
    }
    record_path.write_text(json.dumps(record))
    if tr is not None:
        tr.dump(record_path.with_suffix(".spans"))


if __name__ == "__main__":
    main()
