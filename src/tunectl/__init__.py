"""tunectl: a framework-agnostic hyperparameter tuning engine.

Declarative experiments, pluggable search algorithms, pluggable metric
storage, idempotent reconciliation controllers, and two execution backends:
a deterministic multi-tenant cluster simulator and a local-process runner.
"""

from .errors import (
    AlgorithmStateError,
    CasConflictError,
    ExhaustedSearchSpace,
    InvalidPayloadError,
    MissingResourceReport,
    RenderError,
    ResourceExistsError,
    StorageUnavailableError,
    TunectlError,
    UnknownNamespaceError,
    ValidationError,
)
from .metrics import (
    FileObservationStore,
    InMemoryObservationStore,
    MetricPoint,
    ObservationFilter,
    ObservationStore,
    best_objective,
    parse_metric_lines,
)
from .resources import (
    AlgorithmSpec,
    CollectorKind,
    ExperimentSpec,
    MetricStrategy,
    ObjectiveSpec,
    ObjectiveType,
    ParameterSpec,
    ParameterType,
    Range,
    RestartPolicy,
    SimObjectiveDescriptor,
    TemplateKind,
    TrialRunSpec,
    TrialTemplate,
    ValueList,
    canonical_yaml,
    parse_experiment,
    render_trial_spec,
    validate_experiment,
)
from .suggest import (
    SuggestionRequest,
    SuggestionResult,
    TrialObservation,
    get_suggestions,
    register_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "AlgorithmStateError",
    "CasConflictError",
    "CollectorKind",
    "ExhaustedSearchSpace",
    "ExperimentSpec",
    "FileObservationStore",
    "InMemoryObservationStore",
    "InvalidPayloadError",
    "MetricPoint",
    "MetricStrategy",
    "MissingResourceReport",
    "ObjectiveSpec",
    "ObjectiveType",
    "ObservationFilter",
    "ObservationStore",
    "ParameterSpec",
    "ParameterType",
    "Range",
    "RenderError",
    "ResourceExistsError",
    "RestartPolicy",
    "SimObjectiveDescriptor",
    "StorageUnavailableError",
    "SuggestionRequest",
    "SuggestionResult",
    "TemplateKind",
    "TrialObservation",
    "TrialRunSpec",
    "TrialTemplate",
    "TunectlError",
    "UnknownNamespaceError",
    "ValidationError",
    "ValueList",
    "best_objective",
    "canonical_yaml",
    "get_suggestions",
    "parse_experiment",
    "parse_metric_lines",
    "register_algorithm",
    "render_trial_spec",
    "validate_experiment",
]
