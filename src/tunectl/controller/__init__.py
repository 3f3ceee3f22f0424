"""Resource store and the reconciliation control plane."""

from .backend import ExecutionBackend, JobPhase, JobState
from .model import (
    ExperimentPhase,
    ExperimentStatus,
    OptimalResult,
    Resource,
    SuggestionSpec,
    SuggestionStatus,
    TrialPhase,
    TrialSpec,
    TrialStatus,
    resource_key,
)
from .reconcile import (
    ControllerContext,
    all_experiments_terminal,
    controller_step,
    reconcile_experiment,
    reconcile_suggestion,
    reconcile_trial,
    run_control_loop,
    submit_experiment,
    terminal_snapshot,
)
from .store import FileResourceStore, ResourceStore

__all__ = [
    "ControllerContext",
    "ExecutionBackend",
    "ExperimentPhase",
    "ExperimentStatus",
    "FileResourceStore",
    "JobPhase",
    "JobState",
    "OptimalResult",
    "Resource",
    "ResourceStore",
    "SuggestionSpec",
    "SuggestionStatus",
    "TrialPhase",
    "TrialSpec",
    "TrialStatus",
    "all_experiments_terminal",
    "controller_step",
    "reconcile_experiment",
    "reconcile_suggestion",
    "reconcile_trial",
    "resource_key",
    "run_control_loop",
    "submit_experiment",
    "terminal_snapshot",
]
