"""``ExecutionBackend.open_run`` owns its run directory: the store it opens
holds ``<dir>/.lock`` until the run closes, a ``with`` block closes the run
and compacts nothing, and an open that raises closes what it opened, so the
directory opens again in the same process."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from conftest import make_experiment
from tunectl import scenarios
from tunectl.cluster.localproc import LocalProcessBackend
from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller.reconcile import run_control_loop, submit_experiment
from tunectl.controller.store import FileResourceStore
from tunectl.errors import TunectlError, ValidationError
from tunectl.resources import ParameterSpec, ParameterType, Range

README = Path(__file__).resolve().parent.parent / "README.md"


def _build(store, metrics):
    """A one-node world and an experiment of eight trials, for a store that holds no commit yet."""
    world = SimWorld(seed=1)
    world.add_node(4.0)
    world.add_namespace("ns")
    if store.get("experiment/ns/exp") is None:
        submit_experiment(store, make_experiment([ParameterSpec("x", ParameterType.DOUBLE, Range(-1.0, 1.0))]))
    return SimBackend(world, metrics)


def _commits(directory) -> int:
    return sum(line.startswith(b'{"commit":') for line in (directory / "journal.jsonl").read_bytes().splitlines())


def test_a_second_opener_of_a_run_directory_is_refused_until_the_run_closes(tmp_path):
    with SimBackend.open_run(tmp_path, _build) as run:
        run_control_loop(*run, max_ticks=3)
        for second in (lambda: SimBackend.open_run(tmp_path, _build), lambda: FileResourceStore(tmp_path)):
            with pytest.raises(TunectlError) as raised:
                second()
            assert f"store {tmp_path} is in use by another" in str(raised.value)
        assert FileResourceStore(tmp_path, readonly=True).list() == run.store.list()  # a reader takes no lock
    with SimBackend.open_run(tmp_path, _build) as run:
        assert run.store.committed is not None
        assert run_control_loop(*run)["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"


def test_an_open_run_refused_at_the_other_backend_s_commit_leaves_the_directory_free(tmp_path):
    with SimBackend.open_run(tmp_path, _build) as run:
        run_control_loop(*run, max_ticks=3)
    # The error kept in ``refused`` keeps the failed open's frames, and with them anything it left open.
    with pytest.raises(TunectlError, match=re.escape("was written by 'tunectl run --backend sim'")) as refused:
        LocalProcessBackend.open_run(tmp_path, lambda _store, metrics: LocalProcessBackend(metrics))
    with SimBackend.open_run(tmp_path, _build) as run:
        assert run_control_loop(*run)["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert "start again in a fresh store" in str(refused.value)


def test_an_open_run_whose_build_raises_leaves_the_directory_free(tmp_path):
    def invalid(_store, _metrics):
        raise ValidationError(["scenario: experiments[0]: invalid"])

    with pytest.raises(ValidationError) as refused:
        SimBackend.open_run(tmp_path, invalid)
    with SimBackend.open_run(tmp_path, _build) as run:
        assert run_control_loop(*run)["experiments"]["experiment/ns/exp"]["phase"] == "Succeeded"
    assert refused.value.errors == ["scenario: experiments[0]: invalid"]


def test_a_with_block_that_raises_closes_the_run_and_compacts_nothing(tmp_path):
    class Stop(Exception):
        pass

    with pytest.raises(Stop), SimBackend.open_run(tmp_path, _build) as run:
        run_control_loop(*run, max_ticks=3)
        raise Stop
    assert _commits(tmp_path) > 1
    FileResourceStore(tmp_path).close()


def test_a_scenario_run_whose_control_loop_raises_leaves_its_directory_free(tmp_path, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("the control loop failed")

    monkeypatch.setattr(scenarios, "run_control_loop", broken)
    with pytest.raises(RuntimeError) as failed:
        scenarios.run_scenario("chaos-kill", state_dir=tmp_path)
    FileResourceStore(tmp_path).close()
    assert str(failed.value) == "the control loop failed"


def test_the_readme_library_use_runs_as_written(tmp_path, monkeypatch):
    """The experiment of the quick start, run in memory and then in a run
    directory, ends the same both ways, and the directory is free after."""
    quick_start = README.read_text().split("## Quick start", 1)[1]
    (tmp_path / "mnist.yaml").write_text(re.search(r"<<'EOF'\n(.*?)\nEOF\n", quick_start, re.S).group(1))
    in_memory, file_backed = re.findall(r"```python\n(.*?)```", README.read_text().split("## Library use", 1)[1],
                                        re.S)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(in_memory, namespace)
    experiments = namespace["snapshot"]["experiments"]
    exec(file_backed, namespace)
    assert namespace["snapshot"]["experiments"] == experiments
    assert _commits(tmp_path / "run") == 1
    FileResourceStore(tmp_path / "run").close()
