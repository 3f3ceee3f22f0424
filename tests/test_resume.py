"""A killed run resumes from its last commit to the uninterrupted run's outputs.

Each ``world.jsonl`` line commits a tick and records the resource journal's
record count, so a resume opens the world and the store at the same tick.
These tests kill the recorded run of ``test_world_journal`` at every store
write and at every (tick, phase) point, resume it to the end, and compare
what it leaves with the uninterrupted run: ``world.jsonl``, ``events.jsonl``,
``metrics.jsonl``, every stored resource with its generation, each export
CSV and the summary.
"""

from __future__ import annotations

import pytest

from test_world_journal import _kill, _outputs, _run, recorded  # noqa: F401 -- recorded is a fixture

WRITES = 152  # the store writes of the recorded run, the bootstrap step's included
TICKS = 26  # its last tick
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
