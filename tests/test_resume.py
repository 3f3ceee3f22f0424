"""A killed run resumes from its last commit to the uninterrupted run's outputs.

Each tick commits as a line of the resource journal, after the tick's
records, so a resume opens the world and the store at the same tick: the
journal's last commit line. These tests kill the recorded run of
``test_world_journal`` at every store write, its commits' appends included,
and at every (tick, phase) point, and cut its journal at every line
boundary; they resume each to the end and compare what it leaves with the
uninterrupted run: ``events.jsonl``, ``metrics.jsonl``, every stored
resource with its generation and the last commit (the compacted journal),
each export CSV and the summary.
"""

from __future__ import annotations

import pytest

from test_world_journal import _kill, _lay_out, _outputs, _run, recorded  # noqa: F401 -- recorded is a fixture
from tunectl.controller.store import FileResourceStore

WRITES = 179  # the store writes of the recorded run: the bootstrap step's, and a commit before it and per tick
TICKS = 26  # its last tick
LINES = 181  # its journal's lines before compaction: the two experiments' creates, then its writes
PHASES = ("chaos", "progress", "schedule", "autoscale", "controller", "persist")


@pytest.mark.parametrize("point", range(WRITES))
def test_a_run_killed_at_a_store_write_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, point  # noqa: F811 -- the imported fixture
):
    assert recorded.mutations == WRITES
    _kill(tmp_path, "mutation", point + 1, None, recorded.mutations)
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("tick", range(1, TICKS + 1))
def test_a_run_killed_at_a_tick_phase_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, tick, phase  # noqa: F811 -- the imported fixture
):
    assert max(recorded.lines) == TICKS
    _kill(tmp_path, "tick", tick, phase, recorded.mutations)
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final


@pytest.mark.parametrize("cut", range(LINES + 1))
def test_a_journal_cut_at_a_line_boundary_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, cut  # noqa: F811 -- the imported fixture
):
    """The journal of a run killed before its compaction, cut after its
    first ``cut`` lines, with the event and metric logs the run left. No
    prefix of a live journal holds an experiment that counts more trials
    than the prefix holds, so a reader opens each whole."""
    lines = recorded.journal.splitlines(keepends=True)
    assert len(lines) == LINES
    _lay_out(tmp_path, recorded, b"".join(lines[:cut]))
    FileResourceStore(tmp_path, readonly=True)
    assert _run(tmp_path) is None
    assert _outputs(tmp_path) == recorded.final
