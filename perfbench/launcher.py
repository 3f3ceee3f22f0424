"""Run one ``tunectl`` command with the benchmark's hooks installed.

    python3 perfbench/launcher.py RECORD TRACE -- ARGS...

Installs the layer spans (TRACE=1) or, for ``run``, the tick timer, as
hooks that wait for the program to import each module, then imports
``tunectl.cli`` and calls its ``main()`` with ARGS, as
``python -m tunectl.cli ARGS`` would. A timed command probes host speed
from its start to its end. At exit it writes RECORD (JSON):
peak RSS, tick times, host-speed probes, the terminal snapshot of a
``run``, I/O counts and the trace summary.
"""

import sys

from hostspeed import Probes


def main() -> None:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    probes = Probes()
    if not trace:
        probes.start()

    import tracer

    tr = timer = None
    if trace:
        tr = tracer.Tracer()
        tracer.install_layers(tr)
    elif cli_args[:1] == ["run"]:
        timer = tracer.TickTimer()
        tracer.install_tick_timer(timer)

    import tunectl.cli

    tracer.mark_imports_done()

    captured = {}
    run_control_loop = tunectl.cli.run_control_loop

    def capture(*args, **kwargs):
        captured["snapshot"] = run_control_loop(*args, **kwargs)
        return captured["snapshot"]

    tunectl.cli.run_control_loop = capture

    sys.argv = ["tunectl", *cli_args]
    io_before = tracer.read_proc_io()
    code = 0
    try:
        tunectl.cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        io_after = tracer.read_proc_io()
        if not trace:
            probes.stop()

        import json
        import resource
        from pathlib import Path

        if tr is not None:
            ticks = tr.durations("sim.tick")
        else:
            ticks = timer.ticks if timer is not None else []
        record = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ticks": ticks,
            "probes": probes.records,
            "snapshot": captured.get("snapshot"),
            "io": tracer.io_delta(io_before, io_after),
            "program": tunectl.__file__,
            "trace": tr.summary() if tr is not None else None,
        }
        Path(record_path).write_text(json.dumps(record))
        if tr is not None:
            tr.dump(Path(record_path).with_suffix(".spans"))
    sys.exit(code)


if __name__ == "__main__":
    main()
