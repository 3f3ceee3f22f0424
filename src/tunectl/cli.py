"""Operator command line: submit experiments, run the control loop against a
backend, export per-trial results, print the store as YAML, and execute
canned scenarios.

Each command imports what it calls: ``run`` the one backend it runs, and
``scenarios`` only for a ``--scenario`` file, and ``scenario`` the
simulator. PyYAML loads only for ``submit``, ``dump``, ``scenario`` and
``run --scenario``. No command imports numpy itself: a run loads it only
for Bayesian optimization, TPE or a noisy simulated objective. ``run``
opens its store with ``ExecutionBackend.open_run``, as ``scenario --store``
does: it resumes either backend at the store's last commit, exits 4 at one
the other backend wrote, and ends by compacting the journal.

Exit codes: 0 success, 2 validation failure, 3 name conflict, 4 runtime
error, 5 scenario assertion failure.
"""

from __future__ import annotations

import fcntl
import logging
import sys
from dataclasses import replace
from pathlib import Path

import click

from .controller.backend import ExecutionBackend
from .controller.model import KIND_EXPERIMENT, resource_to_doc
from .controller.reconcile import run_control_loop, submit_experiment
from .controller.store import ResourceStore
from .errors import ResourceExistsError, TunectlError, ValidationError
from .metrics import FileObservationStore
from .resources import _yaml, parse_experiment
from .results import build_results_table, render_csv, render_jsonl

EXIT_VALIDATION = 2
EXIT_CONFLICT = 3
EXIT_RUNTIME = 4
EXIT_ASSERTION = 5

store_option = click.option(
    "--store",
    "store_dir",
    envvar="TUNECTL_STORE",
    required=True,
    type=click.Path(file_okay=False, path_type=Path),
    help="Resource store directory (env: TUNECTL_STORE).",
)


def _open_store(store_dir: Path, readonly: bool = False) -> ResourceStore:
    try:
        return ResourceStore(store_dir, readonly=readonly)
    except TunectlError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_RUNTIME)


def _exclusive(store_dir: Path) -> None:
    """Hold ``<store>/.lock`` until the command ends, so that a second ``run``,
    ``submit`` or ``scenario`` on the store exits instead of interleaving its
    writes with this one, or appending while a run compacts the journal."""
    store_dir.mkdir(parents=True, exist_ok=True)
    lock = click.get_current_context().with_resource(open(store_dir / ".lock", "a"))
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        click.echo(f"store {store_dir} is in use by another 'tunectl run', 'submit' or 'scenario'", err=True)
        sys.exit(EXIT_RUNTIME)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def cli(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@cli.command()
@click.argument("experiment_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@store_option
def submit(experiment_file: Path, store_dir: Path) -> None:
    """Validate an experiment file and persist it in the Created phase."""
    try:
        spec = parse_experiment(experiment_file.read_text())
    except ValidationError as exc:
        for error in exc.errors:
            click.echo(f"{experiment_file}: {error}", err=True)
        sys.exit(EXIT_VALIDATION)
    _exclusive(store_dir)
    store = _open_store(store_dir)
    try:
        resource = submit_experiment(store, spec)
    except ResourceExistsError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFLICT)
    finally:
        store.close()
    click.echo(resource.key)


def _print_summary(snapshot: dict) -> None:
    for key, result in snapshot["experiments"].items():
        optimal = result["currentOptimal"]
        click.echo(
            f"{key}: {result['phase']}  "
            f"succeeded={result['trialsSucceeded']} failed={result['trialsFailed']} "
            f"running={result['trialsRunning']} spawned={result['totalSpawned']}"
        )
        if optimal is not None:
            assignments = " ".join(f"{n}={v}" for n, v in optimal["assignments"])
            click.echo(f"  best: {optimal['objectiveValue']} @ {assignments}")


@cli.command()
@store_option
@click.option("--backend", "backend_name", type=click.Choice(["sim", "local"]), default="sim")
@click.option(
    "--scenario",
    "scenario_file",
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    default=None,
    help="Scenario file describing the simulated world (sim backend).",
)
@click.option("--seed", type=click.IntRange(min=0), default=0, help="World seed (sim backend).")
@click.option("--max-ticks", type=click.IntRange(min=0), default=100_000)
def run(store_dir: Path, backend_name: str, scenario_file: Path | None, seed: int, max_ticks: int) -> None:
    """Drive every experiment in the store to a terminal phase."""
    if backend_name == "local" and scenario_file is not None:
        raise click.UsageError("--scenario describes a simulated world; the local backend runs none")
    _exclusive(store_dir)
    if backend_name == "sim":
        from .cluster.sim import NodeGroup, Quota, ScenarioConfig, SimBackend as backend_cls
    else:
        from .cluster.localproc import LocalProcessBackend as backend_cls

    def build(store: ResourceStore, metrics: FileObservationStore) -> ExecutionBackend:
        """The backend of a store that holds no commit yet."""
        nonlocal max_ticks
        if backend_name == "local":
            return backend_cls(metrics)
        cfg = ScenarioConfig(seed, nodes=(NodeGroup(8.0, 4),), max_ticks=max_ticks)
        if scenario_file is not None:
            from .scenarios import load_scenario

            cfg, specs = load_scenario(scenario_file)
            for spec in specs:
                try:
                    submit_experiment(store, spec)
                except ResourceExistsError:
                    pass
        max_ticks = min(max_ticks, cfg.max_ticks)
        # Convenience: every submitted experiment needs its namespace.
        named = {ns.name if isinstance(ns, Quota) else ns for ns in cfg.namespaces}
        unnamed = dict.fromkeys(e.namespace for e in store.list(KIND_EXPERIMENT) if e.namespace not in named)
        return backend_cls(replace(cfg, namespaces=(*cfg.namespaces, *unnamed)).world(), metrics)

    try:
        opened = backend_cls.open_run(store_dir, build)
    except ValidationError as exc:
        for error in exc.errors:
            click.echo(error, err=True)
        sys.exit(EXIT_VALIDATION)
    except TunectlError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_RUNTIME)
    store, metrics, backend = opened
    if scenario_file is not None and store.committed is not None:
        click.echo("resuming persisted world; --scenario ignored", err=True)
    try:
        if not store.list(KIND_EXPERIMENT):
            click.echo("store has no experiments; submit one first", err=True)
            sys.exit(EXIT_RUNTIME)
        snapshot = run_control_loop(store, metrics, backend, max_ticks=max_ticks)
        store.compact()
    except KeyboardInterrupt:
        click.echo("interrupted; state persisted, re-run to resume", err=True)
        sys.exit(EXIT_RUNTIME)
    finally:
        opened.close()
    _print_summary(snapshot)


@cli.command()
@click.argument("experiment")
@store_option
@click.option("--namespace", default=None, help="Disambiguate when the name exists in several namespaces.")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option(
    "--output",
    "output_path",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="Write to a file instead of stdout.",
)
def export(
    experiment: str, store_dir: Path, namespace: str | None, fmt: str, output_path: Path | None
) -> None:
    """Export the per-trial results table (parallel-coordinates input)."""
    store = _open_store(store_dir, readonly=True)
    metrics = FileObservationStore(store_dir / ExecutionBackend.METRICS_FILE, readonly=True)
    matches = [e for e in store.list(KIND_EXPERIMENT)
               if e.name == experiment and (namespace is None or e.namespace == namespace)]
    if not matches:
        click.echo(f"unknown experiment '{experiment}'", err=True)
        sys.exit(EXIT_RUNTIME)
    if len(matches) > 1:
        click.echo(
            f"experiment '{experiment}' exists in namespaces "
            f"{', '.join(sorted(e.namespace for e in matches))}; pass --namespace",
            err=True,
        )
        sys.exit(EXIT_RUNTIME)
    table = build_results_table(store, metrics, matches[0].namespace, experiment)
    text = render_csv(table) if fmt == "csv" else render_jsonl(table)
    if output_path is None:
        click.echo(text, nl=False)
    else:
        output_path.write_text(text)
        click.echo(f"wrote {len(table.rows)} rows to {output_path}")


@cli.command()
@store_option
def dump(store_dir: Path) -> None:
    """Print every stored resource as a YAML document, in key order."""
    store = _open_store(store_dir, readonly=True)
    yaml, dumper = _yaml("Dumper")
    docs = (yaml.dump(resource_to_doc(r), Dumper=dumper, sort_keys=False, width=2**20) for r in store.list())
    click.echo("---\n".join(docs), nl=False)


@cli.command()
@click.argument("name")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option(
    "--store",
    "store_dir",
    type=click.Path(file_okay=False, path_type=Path),
    default=None,
    help="Optional run directory of its own (keeps its journal, its metric log and its event log).",
)
def scenario(name: str, seed: int, store_dir: Path | None) -> None:
    """Run a canned evaluation scenario and check its acceptance assertions.

    An unknown NAME is refused with the list of scenarios."""
    from .scenarios import SCENARIOS, run_scenario

    if name not in SCENARIOS:
        raise click.BadParameter(f"choose from {', '.join(SCENARIOS)}", param_hint="NAME")
    if store_dir is not None:
        _exclusive(store_dir)
    try:
        outcome = run_scenario(name, seed=seed, state_dir=store_dir)
    except TunectlError as exc:
        click.echo(f"scenario failed to run: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    for check in outcome.checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"{status} {outcome.name}/{check.name}: {check.detail}")
    if not outcome.passed:
        failed = sum(1 for c in outcome.checks if not c.passed)
        click.echo(f"{failed} assertion(s) failed", err=True)
        sys.exit(EXIT_ASSERTION)
    click.echo(f"scenario '{outcome.name}' passed ({len(outcome.checks)} checks)")


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
