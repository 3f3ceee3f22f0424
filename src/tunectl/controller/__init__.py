"""Resource store and the reconciliation control plane.

Importing the package loads none of its modules: each public name imports
the module that defines it when it is first read, so ``submit``, which
needs only the store and the model, never loads the reconcilers.
"""

from __future__ import annotations

from .. import _lazy

_EXPORTS = {
    name: module
    for module, names in {
        ".backend": ("ExecutionBackend", "JobPhase", "JobState"),
        ".model": (
            "ExperimentPhase", "ExperimentStatus", "OptimalResult", "Resource", "SuggestionSpec",
            "SuggestionStatus", "TrialPhase", "TrialSpec", "TrialStatus", "resource_key",
        ),
        ".reconcile": (
            "ControllerContext", "all_experiments_terminal", "controller_step", "reconcile_experiment",
            "reconcile_suggestion", "reconcile_trial", "run_control_loop", "terminal_snapshot",
        ),
        ".store": ("ResourceStore", "submit_experiment"),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
