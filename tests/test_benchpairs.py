"""The verdicts ``tools/benchpairs.py`` gives each metric of paired runs."""

from __future__ import annotations

import importlib.util
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
