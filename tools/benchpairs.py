"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 tools/benchpairs.py --parent REV --pr N

For every workload ``BENCHMARK.json`` names, ten pairs each run
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
on the parent and once on the working tree, with the same seed (101 for the
first pair, 110 for the last) and the run length ``T`` that
``BENCHMARK.json`` fixes; which side runs first alternates from pair to
pair. The parent is the committed tree of REV, extracted with ``git archive`` into a temporary
directory (the same files a fresh checkout holds, and no worktree left
behind in the repository). The change is the working tree's tracked and
untracked files, less the ignored ones, copied into a second temporary
directory: both sides run from fresh copies, with no caches or earlier run
outputs that only one of them has.

Writes ``BENCH_<N>.json`` at the repository root: for every workload, each
pair's end-to-end metrics, and per metric the medians, the parent's
quartiles and IQR, how many pairs the change won (in the direction
``BENCHMARK.json`` names) and the change of the median against the metric's
bound; plus the machine and both commits. A metric is ``unresolved`` when the
parent's IQR, relative to its median, is wider than the bound and the change
did not win every pair: the runs then spread too widely to say the metric
held, and ``within_bound`` is false. A metric shows a ``gain`` when the change
won at least nine in ten pairs (a tie counts for neither side) and its median
is better than the parent's by more than the parent's IQR. The run prints one line per run and
takes about (10 x workloads x 2) times the run length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
FIRST_SEED = 101


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def copy_working_tree(root: Path, into: Path) -> None:
    """Copy the tracked and untracked files of the working tree at ``root``
    that git does not ignore; a tracked file deleted in the tree is left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root).split("\0"):
        source = root / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed benchmark run; its summary is the last line it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        what = f"ended on a line that is not JSON, {lines[-1][:200]!r}," if lines else "printed nothing"
        raise RuntimeError(
            f"{' '.join(cmd)} in {root} {what} (exit {out.returncode}):\n{out.stderr[-2000:]}"
        ) from None
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Medians, the parent's quartiles, the win count and the verdicts of
    each metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        med_p, med_c = statistics.median(parent), statistics.median(change)
        worse = (med_c - med_p if lower else med_p - med_c) / med_p if med_p else 0.0
        wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        spread = (q3 - q1) / med_p if med_p else 0.0
        unresolved = spread > metric["bound"] and wins < len(pairs)
        better_by = med_p - med_c if lower else med_c - med_p
        out[name] = {
            "parent_median": med_p,
            "change_median": med_c,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr": q3 - q1,
            "wins": wins,
            "pairs": len(pairs),
            "worse_by": worse,
            "bound": metric["bound"],
            "unresolved": unresolved,
            "within_bound": worse <= metric["bound"] and not unresolved,
            "gain": 10 * wins >= 9 * len(pairs) and better_by > q3 - q1,
        }
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Set, cold ``cli-file`` processes compile every module they import, and
    # its ``setup_s``, ``submit_s`` and ``export_s`` include that time.
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform(), "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--pr", required=True, help="names the output file, BENCH_<pr>.json")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    parent_commit = git("rev-parse", args.parent)
    result = {
        "parent": parent_commit,
        "change": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "command": bench["command"],
        "seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        parent_root, change_root = Path(tmp) / "parent", Path(tmp) / "change"
        parent_root.mkdir()
        extract(parent_commit, parent_root)
        copy_working_tree(ROOT, change_root)
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(parent_root if side == "parent" else change_root, workload, seed, seconds)
                    shown = {k: round(v, 4) for k, v in pair[side]["metrics"].items()}
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: {shown}", flush=True)
                pairs.append(pair)
            result["workloads"][workload] = {
                "pairs": pairs,
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "metrics": compare(pairs, bench["end_to_end"]),
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
