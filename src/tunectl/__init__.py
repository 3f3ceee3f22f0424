"""tunectl: a framework-agnostic hyperparameter tuning engine.

Declarative experiments, pluggable search algorithms, pluggable metric
storage, idempotent reconciliation controllers, and two execution backends:
a deterministic multi-tenant cluster simulator and a local-process runner.

``import tunectl`` loads none of its modules: each public name imports the
module that defines it when it is first read (PEP 562), so a command pays
only for what it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module

__version__ = "0.1.0"


def _lazy(module: str, exports: dict[str, str]):
    """The ``__getattr__`` and ``__dir__`` of ``module``: each name in
    ``exports`` imports its defining module, named relative to ``module``'s
    package, when it is first read, and stays a global of ``module`` after."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        owner = sys.modules[module]
        value = getattr(import_module(exports[name], owner.__package__), name)
        setattr(owner, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[module]), *exports})

    return __getattr__, __dir__


_EXPORTS = {
    name: module
    for module, names in {
        ".errors": (
            "AlgorithmStateError", "CasConflictError", "ExhaustedSearchSpace", "InvalidPayloadError",
            "MissingResourceReport", "RenderError", "ResourceExistsError", "StorageUnavailableError",
            "TunectlError", "UnknownNamespaceError", "ValidationError",
        ),
        ".metrics": (
            "FileObservationStore", "InMemoryObservationStore", "MetricPoint", "ObservationFilter",
            "ObservationStore", "best_objective", "parse_metric_lines",
        ),
        ".resources": (
            "AlgorithmSpec", "CollectorKind", "ExperimentSpec", "MetricStrategy", "ObjectiveSpec",
            "ObjectiveType", "ParameterSpec", "ParameterType", "Range", "RestartPolicy",
            "SimObjectiveDescriptor", "TemplateKind", "TrialRunSpec", "TrialTemplate", "ValueList",
            "canonical_yaml", "parse_experiment", "render_trial_spec", "validate_experiment",
        ),
        ".suggest": (
            "SuggestionRequest", "SuggestionResult", "TrialObservation", "get_suggestions",
            "register_algorithm",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy(__name__, _EXPORTS)
