"""The verdicts ``tools/benchpairs.py`` gives each metric of paired runs."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_SPEC = importlib.util.spec_from_file_location("benchpairs", _PATH)
benchpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(benchpairs)

RATE = {"name": "trials_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "submit_s", "better": "lower", "bound": 0.25}


def _pairs(name, parent, change):
    return [
        {"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
        for p, c in zip(parent, change, strict=True)
    ]


PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_a_clear_win_in_every_pair_is_a_gain():
    change = [v * 1.8 for v in PARENT]
    verdict = benchpairs.compare(_pairs("trials_per_s", PARENT, change), [RATE])["trials_per_s"]
    assert verdict["wins"] == 10
    assert verdict["gain"] is True
    assert verdict["within_bound"] is True
    assert verdict["unresolved"] is False


@pytest.mark.parametrize(
    "change, why",
    [
        # Nine wins, but by less than the parent's own spread.
        ([v + 0.1 for v in PARENT[:9]] + [PARENT[9] - 0.1], "gap inside the parent IQR"),
        # A wide gap, but only eight of ten pairs won.
        ([v * 1.8 for v in PARENT[:8]] + [PARENT[8] - 1.0, PARENT[9]], "eight wins and a tie"),
    ],
)
def test_no_gain_without_nine_wins_and_a_gap_beyond_the_parent_iqr(change, why):
    verdict = benchpairs.compare(_pairs("trials_per_s", PARENT, change), [RATE])["trials_per_s"]
    assert verdict["gain"] is False, why
    assert verdict["within_bound"] is True


def test_a_parent_spread_wider_than_the_bound_is_unresolved_and_no_gain():
    parent = [0.10, 0.30, 0.12, 0.28, 0.11, 0.29, 0.13, 0.27, 0.10, 0.30]
    change = [0.20] * 10  # wins the five slow parent runs, loses the five fast ones
    verdict = benchpairs.compare(_pairs("submit_s", parent, change), [LATENCY])["submit_s"]
    assert verdict["wins"] == 5
    assert verdict["unresolved"] is True
    assert verdict["within_bound"] is False
    assert verdict["gain"] is False


@pytest.mark.parametrize(
    "stdout, what",
    [("", "printed nothing"), ("iteration 1 done\nTraceback (most recent call last):\n", "not JSON")],
    ids=["empty", "not-json"],
)
def test_a_run_without_a_json_summary_names_its_command_exit_and_stderr(monkeypatch, tmp_path, stdout, what):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode=3, stdout=stdout, stderr="worker died: out of memory\n")

    monkeypatch.setattr(benchpairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError) as caught:
        benchpairs.run_once(tmp_path, "tenants-bo", 101, 15)
    message = str(caught.value)
    assert "perfbench/run.py --workload tenants-bo --seed 101 --seconds 15 --trace 0" in message
    assert what in message
    assert "(exit 3)" in message
    assert message.endswith("worker died: out of memory\n")


def test_the_change_is_measured_from_a_copy_of_the_tracked_and_untracked_files_only(tmp_path):
    tree, copy = tmp_path / "tree", tmp_path / "copy"
    (tree / "src").mkdir(parents=True)
    (tree / ".gitignore").write_text("__pycache__/\n.perfbench_runs/\n")
    (tree / "src" / "tracked.py").write_text("tracked = 1\n")
    (tree / "src" / "deleted.py").write_text("deleted = 1\n")
    subprocess.run(["git", "init", "-q", str(tree)], check=True)
    subprocess.run(["git", "add", "-A"], cwd=tree, check=True)
    (tree / "src" / "deleted.py").unlink()
    (tree / "src" / "untracked.py").write_text("untracked = 1\n")
    for ignored in ("__pycache__/tracked.cpython-311.pyc", ".perfbench_runs/results/old.json"):
        (tree / "src" / ignored).parent.mkdir(parents=True, exist_ok=True)
        (tree / "src" / ignored).write_text("stale\n")
    benchpairs.copy_working_tree(tree, copy)
    copied = sorted(str(p.relative_to(copy)) for p in copy.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/tracked.py", "src/untracked.py"]
    assert (copy / "src" / "tracked.py").read_text() == "tracked = 1\n"


@pytest.mark.parametrize("value, recorded", [(None, False), ("", False), ("1", True)])
def test_the_machine_says_whether_cold_processes_compile_their_imports(monkeypatch, value, recorded):
    # Python reads any non-empty PYTHONDONTWRITEBYTECODE as set.
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert benchpairs.machine()["dont_write_bytecode"] is recorded
