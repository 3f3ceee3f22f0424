"""A resumed run goes on with its next tick, without a bootstrap step.

A kill part way through a tick's controller step leaves the store holding
writes of a tick the world never persisted. A bootstrap step on resume would
act on them at once, submitting that tick's new trials a scheduling pass
before the uninterrupted run does. These tests kill the recorded run of
``test_world_journal`` at store writes spread across it, resume it to the
end, and compare its final world with the uninterrupted one.

The event log is left out of the comparison: a resume still drops the last
persisted tick's ``experiment-stats`` events, which ``test_golden`` pins.
The run's last write is left out too. It makes the last experiment terminal,
so a run resumed from it has nothing left to reconcile and ends a tick short.
"""

from __future__ import annotations

import json

import pytest

from test_world_journal import WORLD, _kill, _run, recorded  # noqa: F401 -- recorded is a fixture

KILL_POINTS = 21


@pytest.mark.parametrize("point", range(KILL_POINTS))
def test_a_run_killed_at_a_store_write_resumes_to_the_uninterrupted_world(
    recorded, tmp_path, point  # noqa: F811 -- the imported fixture
):
    at = 1 + point * (recorded.mutations - 2) // (KILL_POINTS - 1)  # from the first write to the last but one
    _kill(tmp_path, "mutation", at, None, recorded.mutations)
    assert _run(tmp_path) is None
    final = json.loads((tmp_path / WORLD).read_bytes())["world"]
    assert final == json.loads(recorded.final[WORLD])["world"]
