"""tunectl benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs from the root of a checkout and measures the program in ``src/``.
A timed run (``--trace 0``) repeats the workload, each iteration in fresh
interpreters, until ``--seconds`` have passed (at least two iterations),
and reports the end-to-end metrics as medians, in seconds at the reference
host speed (see ``hostspeed.py``). A traced run (``--trace 1``)
makes one iteration with tracing off and one with spans on every layer
boundary, and reports the per-layer metrics. Every iteration's outputs are
checked; the last line of standard output is one JSON object.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
REFERENCE = BENCH / "reference.json"

MIN_ITERATIONS = 2
# Cold processes per cli-file iteration: its set-up, submit and export samples.
HELP_SAMPLES, SUBMIT_SAMPLES, EXPORT_SAMPLES = 3, 3, 2
BUDGET_S = 150.0  # a run stops starting iterations once this much has passed

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "submit_s": "s",
    "export_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _calls_self(prefix: str, ops: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for op in ops:
        out[f"{prefix}.{op}.calls"] = "count"
        out[f"{prefix}.{op}.self_s"] = "s"
    return out


ALGORITHMS = ("random", "bayesianoptimization", "tpe")
PER_LAYER = {
    **_calls_self("reconcile", ("experiment", "suggestion", "trial")),
    "reconcile.useful_ratio": "ratio",
    "controller.step.calls": "count",
    "controller.step.s": "s",
    **_calls_self("store", ("get", "list", "keys")),
    "store.list.items": "count",
    "store.clone.calls": "count",
    **_calls_self("store", ("create", "update")),
    "store.load.s": "s",
    "io.write_bytes": "B",
    "io.read_bytes": "B",
    **{k: u for a in ALGORITHMS for k, u in (
        (f"suggest.{a}.calls", "count"), (f"suggest.{a}.self_s", "s"), (f"suggest.{a}.sets", "count"))},
    "suggest.bo_fallbacks": "count",
    **{f"sim.{p}.s": "s" for p in ("chaos", "progress", "schedule", "autoscale", "controller", "stats", "snapshot")},
    "sim.snapshot.bytes": "B",
    "sim.placements": "count",
    "sim.jobs_total": "count",
    "sim.jobs_live_mean": "count",
    "sim.pending_units_mean": "count",
    "tick.growth": "ratio",
    **_calls_self("metrics", ("register", "get", "parse")),
    "metrics.register.points": "count",
    **_calls_self("resources", ("parse",)),
    "results.build.s": "s",
    "results.render.s": "s",
    **_calls_self("localproc", ("submit", "job_state", "collect")),
    "localproc.poll_wait_s": "s",
    "import.cli_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "trace.trials_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class IterationFailed(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(cmd: list[str], deadline: float) -> tuple[float, float, str, str]:
    """Run ``cmd`` in its own process group; (monotonic start, monotonic
    end, stdout, stderr). Past ``deadline`` the whole group is killed."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise IterationFailed(f"timed out: {' '.join(cmd[-6:])}") from None
    t1 = time.monotonic()
    if proc.returncode != 0:
        raise IterationFailed(f"exit code {proc.returncode}: {' '.join(cmd[-6:])}\n{err[-2000:]}")
    return t0, t1, out, err


def _factor(probes: list, t: float) -> float:
    """Reference seconds per host second at host time ``t``, from the
    probes just before and just after it; 1 without probes."""
    if not probes:
        return 1.0
    i = bisect.bisect_right(probes, t, key=lambda p: p[0])
    near = [probes[j][2] for j in (i - 1, i) if 0 <= j < len(probes)]
    return hostspeed.REFERENCE_PROBE_S * len(near) / sum(near)


def reference_s(start: float, end: float, probes: list, scale: bool = True) -> float:
    """The host interval [start, end] without the probes' own time, each
    stretch between probes scaled to the reference host speed (``scale``)
    or left in host seconds."""
    total, edge = 0.0, start
    for p0, p1, _ in [p for p in probes if start < p[0] < end] + [(end, end, 0.0)]:
        if p0 > edge:
            total += (p0 - edge) * (_factor(probes, (edge + p0) / 2) if scale else 1.0)
        edge = max(edge, p1)
    return total


def reference_ticks(ticks: list, probes: list, scale: bool = True) -> list[float]:
    return [reference_s(t, t + d, probes, scale) for t, d in ticks]


def _python(trace: bool) -> list[str]:
    return [sys.executable, "-X", "importtime"] if trace else [sys.executable]


def _check_program(record: dict) -> None:
    if not Path(record["program"]).resolve().is_relative_to(SRC.resolve()):
        raise IterationFailed(f"imported tunectl from {record['program']}, not from {SRC}")


def _merge_traces(summaries: list[dict]) -> dict:
    merged = {"spans": {}, "pairs": {}, "counters": {}}
    for s in summaries:
        for name, v in s["spans"].items():
            m = merged["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in m:
                m[k] += v[k]
        for key in ("pairs", "counters"):
            for name, v in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
    return merged


def run_inprocess(wl: workloads.Workload, seed: int, size: str, trace: bool, it_dir: Path, deadline: float) -> dict:
    record_path = it_dir / "record.json"
    cmd = [*_python(trace), str(BENCH / "worker.py"), wl.name, str(seed), size, str(record_path), str(int(trace))]
    spawned, _, _, err = _spawn(cmd, deadline)
    rec = json.loads(record_path.read_text())
    _check_program(rec)
    probes, scale = rec["probes"], not wl.wall_clock
    return {
        "setup_s": [reference_s(spawned, rec["ready"], probes)],
        "setup_host_s": [reference_s(spawned, rec["ready"], probes, False)],
        "run_s": reference_s(*rec["run"], probes, scale),
        "run_host_s": reference_s(*rec["run"], probes, False),
        "submit_s": [statistics.median(reference_s(t0, t1, probes) for t0, t1, _ in rec["rounds"])],
        "export_s": [statistics.median(reference_s(t1, t2, probes) for _, t1, t2 in rec["rounds"])],
        "submit_host_s": [statistics.median(reference_s(t0, t1, probes, False) for t0, t1, _ in rec["rounds"])],
        "export_host_s": [statistics.median(reference_s(t1, t2, probes, False) for _, t1, t2 in rec["rounds"])],
        "peak_rss_mb": rec["peak_rss_mb"],
        "ticks": reference_ticks(rec["ticks"], probes, scale),
        "io": rec["io"],
        "snapshot": rec["snapshot"],
        "csv": rec["csv"],
        "events_sha": rec["events_sha"],
        "trace": rec["trace"],
        "imports": tracer.parse_importtime(err) if trace else None,
    }


def run_cli(wl: workloads.Workload, seed: int, size: str, trace: bool, it_dir: Path, deadline: float) -> dict:
    exp = wl.experiments[0]
    exp_file = it_dir / "experiment.yaml"
    exp_file.write_text(exp.yaml)
    records, imports, walls, host_walls = [], [], {}, {}

    def command(label: str, *args: str) -> str:
        record_path = it_dir / f"{label}.json"
        cmd = [*_python(trace), str(BENCH / "launcher.py"), str(record_path), str(int(trace)), "--", *args]
        t0, t1, out, err = _spawn(cmd, deadline)
        rec = json.loads(record_path.read_text())
        _check_program(rec)
        label = label.rstrip("0123456789")
        walls.setdefault(label, []).append(reference_s(t0, t1, rec["probes"]))
        host_walls.setdefault(label, []).append(reference_s(t0, t1, rec["probes"], False))
        rec["ticks"] = reference_ticks(rec["ticks"], rec["probes"])
        records.append(rec)
        if trace:
            imports.append(tracer.parse_importtime(err))
        return out

    helps, submits, exports = (1, 1, 1) if trace else (HELP_SAMPLES, SUBMIT_SAMPLES, EXPORT_SAMPLES)
    for i in range(helps):
        command(f"help{i}", "--help")
    # Each submit goes to a fresh store; the run and the exports use the first.
    for i in range(submits):
        command(f"submit{i}", "submit", str(exp_file), "--store", str(it_dir / f"store{i}"))
    store = it_dir / "store0"
    command("run", "run", "--store", str(store), "--backend", "sim", "--seed", str(seed))
    run_rec = records[-1]
    csvs = {command(f"export{i}", "export", exp.name, "--store", str(store), "--format", "csv")
            for i in range(exports)}
    if len(csvs) != 1:
        raise IterationFailed("two exports of one store differ")
    if run_rec["snapshot"] is None:
        raise IterationFailed("`run` returned no terminal snapshot")
    return {
        "setup_s": walls["help"],
        "run_s": walls["run"][0],
        "run_host_s": host_walls["run"][0],
        "setup_host_s": host_walls["help"],
        "submit_host_s": host_walls["submit"],
        "export_host_s": host_walls["export"],
        "submit_s": walls["submit"],
        "export_s": walls["export"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "ticks": run_rec["ticks"],
        "io": [sum(r["io"][0] for r in records), sum(r["io"][1] for r in records)],
        "snapshot": run_rec["snapshot"],
        "csv": {exp.name: csvs.pop()},
        "events_sha": None,
        "trace": _merge_traces([r["trace"] for r in records]) if trace else None,
        "imports": {k: sum(i[k] for i in imports) for k in imports[0]} if trace else None,
    }


def run_iteration(wl, seed, size, trace, index, deadline) -> dict:
    it_dir = OUT / "work" / f"{wl.name}-seed{seed}-{size}-{index}"
    if it_dir.exists():
        shutil.rmtree(it_dir)
    it_dir.mkdir(parents=True)
    runner = run_cli if wl.name == "cli-file" else run_inprocess
    try:
        it = runner(wl, seed, size, trace, it_dir, deadline)
        errors, failed = checks.check_outputs(wl, it["snapshot"], it["csv"])
        it["digests"] = checks.digests(wl, it["snapshot"], it["csv"], it["events_sha"])
    except (IterationFailed, OSError, ValueError, KeyError) as exc:
        it, errors, failed = {"digests": None}, [f"{type(exc).__name__}: {exc}"], 0
    finally:
        # Keep the spans; the stores and records of an iteration are scratch.
        for spans in it_dir.glob("*.spans"):
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            spans.replace(OUT / "spans" / f"{it_dir.name}-{spans.name}")
        shutil.rmtree(it_dir)
    it["errors"] = errors
    it["trials"] = sum(e.trials for e in wl.experiments)
    it["failed"] = it["trials"] if errors else failed
    it["trace_on"] = trace
    return it


def check_digests(name: str, seed: int, size: str, iterations: list[dict]) -> list[str]:
    """Every iteration of a run must produce identical digests, and the
    reference seed's digests must equal the committed ones."""
    found = [it["digests"] for it in iterations if it["digests"] is not None]
    if not found:
        return []
    errors = [f"iteration {i} digests {d} differ from iteration 0 {found[0]}"
              for i, d in enumerate(found) if d != found[0]]
    if seed == workloads.REFERENCE_SEED:
        want = json.loads(REFERENCE.read_text()).get(size, {}).get(name)
        if want is None:
            errors.append(f"no reference digests for {size}/{name} in {REFERENCE.name}")
        elif want != found[0]:
            errors.append(f"digests {found[0]} differ from the reference {want}")
    return errors


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the mean of every order
    statistic weighted by the Beta(p(n+1), (1-p)(n+1)) density at its rank.
    One or two order statistics jump across a gap in a bimodal sample, such
    as cli-file's ticks, half idle and half busy; this estimate does not."""
    if not values:
        return 0.0
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log(r) + (b - 1) * math.log1p(-r) for r in ((i + 0.5) / n for i in range(n))]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def end_to_end(iterations: list[dict], attempted: int, failed: int) -> dict[str, float]:
    ok = [it for it in iterations if not it["errors"]]
    ticks = [t for it in ok for t in it["ticks"]]
    return {
        "setup_s": _median([s for it in ok for s in it["setup_s"]]),
        "trials_per_s": _median([it["trials"] / it["run_s"] for it in ok]),
        "tick_ms_p50": quantile(ticks, 0.5) * 1e3,
        "tick_ms_p90": quantile(ticks, 0.9) * 1e3,
        "submit_s": _median([s for it in ok for s in it["submit_s"]]),
        "export_s": _median([s for it in ok for s in it["export_s"]]),
        "peak_rss_mb": _median([it["peak_rss_mb"] for it in ok]),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    t = traced["trace"]
    spans, pairs, counters = t["spans"], t["pairs"], t["counters"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            m[name] = span(layer, field)
    reconcile_calls = sum(span(f"reconcile.{k}", "calls") for k in ("experiment", "suggestion", "trial"))
    sim_ticks = counters.get("sim.ticks", 0)
    ticks = traced["ticks"]
    fifth = max(1, len(ticks) // 5)
    untraced_tps = untraced["trials"] / untraced["run_host_s"]
    traced_tps = traced["trials"] / traced["run_host_s"]
    m.update({
        "reconcile.useful_ratio": counters.get("reconcile.mutations", 0) / reconcile_calls if reconcile_calls else 0.0,
        "controller.step.s": span("controller.step", "s"),
        "store.list.items": counters.get("store.list.items", 0),
        "store.clone.calls": counters.get("store.clone.calls", 0),
        "store.load.s": span("store.load", "s"),
        "io.read_bytes": traced["io"][0],
        "io.write_bytes": traced["io"][1],
        "suggest.bo_fallbacks": counters.get("suggest.bo_fallbacks", 0),
        "sim.controller.s": pairs.get("sim.tick>controller.step", 0.0),
        "sim.stats.s": span("sim.tick", "self_s"),
        "sim.snapshot.s": span("sim.snapshot", "s"),
        "sim.snapshot.bytes": counters.get("sim.snapshot.bytes", 0),
        "sim.placements": counters.get("sim.placements", 0),
        "sim.jobs_total": counters.get("sim.jobs_total", 0),
        "sim.jobs_live_mean": counters.get("sim.jobs_live", 0) / sim_ticks if sim_ticks else 0.0,
        "sim.pending_units_mean": counters.get("sim.pending_units", 0) / sim_ticks if sim_ticks else 0.0,
        "tick.growth": statistics.median(ticks[-fifth:]) / statistics.median(ticks[:fifth]) if ticks else 0.0,
        "metrics.register.points": counters.get("metrics.register.points", 0),
        "results.build.s": span("results.build", "s"),
        "results.render.s": span("results.render", "s"),
        "localproc.poll_wait_s": span("localproc.advance", "self_s"),
        **traced["imports"],
        "trace.trials_per_s": traced_tps,
        "trace.overhead_ratio": untraced_tps / traced_tps,
    })
    for a in ALGORITHMS:
        m[f"suggest.{a}.sets"] = counters.get(f"suggest.{a}.sets", 0)
    for p in ("chaos", "progress", "schedule", "autoscale"):
        m[f"sim.{p}.s"] = span(f"sim.{p}", "s")
    return {name: m.get(name, 0) for name in PER_LAYER}


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(seed: int, iterations: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "libyaml": importlib.util.find_spec("yaml._yaml") is not None,
        "git_commit": _git_commit(),
        "seed": seed,
        "runs": iterations,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    wl = workloads.build(name, seed, size)
    start = time.monotonic()
    deadline = start + BUDGET_S + 20
    iterations: list[dict] = []
    if trace:
        for index, traced in enumerate((False, True)):
            iterations.append(run_iteration(wl, seed, size, traced, index, deadline))
            if iterations[-1]["errors"]:
                break
    else:
        while True:
            iterations.append(run_iteration(wl, seed, size, False, len(iterations), deadline))
            elapsed = time.monotonic() - start
            if iterations[-1]["errors"]:
                break
            if len(iterations) >= MIN_ITERATIONS and elapsed >= seconds:
                break
            if elapsed * (len(iterations) + 1) / len(iterations) > BUDGET_S:
                break
    errors = [e for it in iterations for e in it["errors"]]
    errors += check_digests(name, seed, size, iterations)
    attempted = sum(it["trials"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    if errors and failed == 0:
        failed = attempted  # a digest mismatch fails every trial of the run
    if trace:
        ok = not errors and len(iterations) == 2
        metrics = per_layer(iterations[1], iterations[0]) if ok else {k: 0 for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = end_to_end(iterations, attempted, failed)
        units = END_TO_END
    return {
        "workload": name,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "record": run_record(seed, len(iterations)),
        "samples": [
            {k: it.get(k) for k in (
                "setup_s", "setup_host_s", "run_s", "run_host_s", "submit_s", "submit_host_s",
                "export_s", "export_host_s", "peak_rss_mb", "digests", "trace_on")}
            for it in iterations
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()
    if not (SRC / "tunectl" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'tunectl'} is missing", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
        results.append(result)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        out = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}-{size}.json"
        out.write_text(json.dumps(result, indent=1))
        runs = result["record"]["runs"]
        for metric, v in result["metrics"].items():
            print(f"{name:<11} {metric:<36} {v['value']:>14.6g} {v['unit']:<6} (runs={runs})")
        for error in result["errors"]:
            print(f"{name}: CHECK FAILED: {error}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
