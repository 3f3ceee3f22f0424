"""Declarative resource model: experiment format, validation, trial rendering.

The user-facing experiment document is YAML with camelCase keys. It decodes
through the one codec (:func:`tunectl.codec.from_doc`) into the typed
dataclasses below, whose fields declare their own rules (a minimum, a
finite number, a non-empty string or list) and whose field order is the
document's canonical key order. :func:`_check_cross_invariants` then checks
the rules that span fields. Both report every violation at once, each as
``path: message``. :func:`canonical_yaml` emits the byte-stable form, and
:func:`render_trial_spec` turns a trial template into a concrete run spec.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

import yaml

from .codec import DocumentError, from_doc, to_doc
from .errors import RenderError, ValidationError

IDENTIFIER_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
PLACEHOLDER_RE = re.compile(r"\$\{([^}]*)\}")

# Placeholders resolvable without a declared parameter.
BUILTIN_PLACEHOLDERS = frozenset({"trial.name", "trial.namespace", "hyperparameters"})

# Reserved assignment name used by budget-aware schedulers; templates may
# reference it only when the experiment uses such an algorithm.
BUDGET_PARAMETER = "budget"

# The built-in algorithms' numeric settings: an integer, or a finite number,
# and its least value.
SETTING_RULES = {"random_state": (int, 0), "eta": (int, 2), "max_resource": (float, 1)}
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class ObjectiveType(str, Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class MetricStrategy(str, Enum):
    """How a trial's scalar objective is extracted from its metric series."""

    LATEST = "latest"
    MAX = "max"
    MIN = "min"


class ParameterType(str, Enum):
    INT = "int"
    DOUBLE = "double"
    DISCRETE = "discrete"
    CATEGORICAL = "categorical"


class CollectorKind(str, Enum):
    PUSH = "push"
    PULL = "pull"


class TemplateKind(str, Enum):
    SIMULATED = "simulated"
    LOCAL_PROCESS = "local-process"


class RestartPolicy(str, Enum):
    NEVER = "never"
    ON_TEMPORARY_FAILURE = "on-temporary-failure"


# Field rules, read by the codec.
_NON_EMPTY = {"non_empty": True}
_FINITE = {"finite": True}


@dataclass(frozen=True)
class Range:
    """Numeric feasible space. ``step`` is required for double parameters
    under grid search and optional otherwise."""

    min: float | int = field(metadata=_FINITE)
    max: float | int = field(metadata=_FINITE)
    step: float | int | None = field(
        default=None, metadata={"finite": True, "exclusive_minimum": 0, "omit_none": True}
    )


# Slack on ``(max - min) / step`` for float rounding: a step that spans the
# range, as ``min: 0.24, max: 2.24001, step: 2.00001`` does, gives a ratio
# of 0.9999999999999998 and still counts as one whole step.
STEP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ValueList:
    """Enumerated feasible space for discrete/categorical parameters."""

    values: tuple[Any, ...] = field(metadata=_NON_EMPTY)


@dataclass(frozen=True)
class ParameterSpec:
    name: str = field(metadata=_NON_EMPTY)
    parameter_type: ParameterType
    feasible_space: Range | ValueList

    def contains(self, value: Any) -> bool:
        """True when ``value`` lies inside this parameter's feasible space."""
        space = self.feasible_space
        if self.parameter_type is ParameterType.INT:
            return (
                isinstance(space, Range)
                and isinstance(value, int)
                and not isinstance(value, bool)
                and space.min <= value <= space.max
            )
        if self.parameter_type is ParameterType.DOUBLE:
            return (
                isinstance(space, Range)
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
                and space.min <= value <= space.max
            )
        if not isinstance(space, ValueList):
            return False
        if self.parameter_type is ParameterType.CATEGORICAL:
            return value in space.values
        # discrete: numeric equality against the listed values
        return any(value == v for v in space.values)


@dataclass(frozen=True, kw_only=True)
class ObjectiveSpec:
    type: ObjectiveType
    goal: float | None = field(default=None, metadata={"finite": True, "omit_none": True})
    objective_metric_name: str = field(metadata=_NON_EMPTY)
    additional_metric_names: tuple[str, ...] = ()
    metric_strategy: MetricStrategy = MetricStrategy.LATEST


@dataclass
class AlgorithmSpec:
    """``settings`` are kept in key order, so that the order they were
    given in never shows in a document."""

    algorithm_name: str = field(metadata=_NON_EMPTY)
    settings: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.settings = dict(sorted(self.settings.items()))


@dataclass(frozen=True)
class SimObjectiveDescriptor:
    """Payload of a simulated trial: which synthetic objective to run, for
    how many ticks, and how noisy its metric stream is."""

    function_name: str = field(metadata=_NON_EMPTY)
    duration_ticks: int = field(default=1, metadata={"minimum": 1})
    noise_std_dev: float = field(default=0.0, metadata={"minimum": 0})
    rng_seed_offset: int = 0


@dataclass(kw_only=True)
class TrialTemplate:
    kind: TemplateKind
    worker_count: int = field(default=1, metadata={"minimum": 1})
    cpu_per_worker: float = field(default=1.0, metadata={"exclusive_minimum": 0})
    restart_policy: RestartPolicy = RestartPolicy.NEVER
    payload: str | SimObjectiveDescriptor = field(metadata=_NON_EMPTY)


@dataclass(kw_only=True)
class ExperimentSpec:
    name: str = field(metadata=_NON_EMPTY)
    namespace: str = field(metadata=_NON_EMPTY)
    objective: ObjectiveSpec
    algorithm: AlgorithmSpec
    parallel_trial_count: int = field(metadata={"minimum": 1})
    max_trial_count: int = field(metadata={"minimum": 1})
    max_failed_trial_count: int = field(default=0, metadata={"minimum": 0})
    metric_collector_kind: CollectorKind = CollectorKind.PULL
    parameters: list[ParameterSpec] = field(metadata=_NON_EMPTY)
    trial_template: TrialTemplate

    def parameter_names(self) -> list[str]:
        return [p.name for p in self.parameters]


@dataclass(frozen=True)
class TrialRunSpec:
    """A trial template with every placeholder substituted."""

    trial_name: str
    namespace: str
    resolved_payload: str | SimObjectiveDescriptor
    parameter_assignments: tuple[tuple[str, str], ...]


def value_to_string(value: Any) -> str:
    """Render a parameter value for command lines and export tables.

    Floats use the shortest round-trip decimal representation so rendering
    is reproducible across platforms.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _check_cross_invariants(spec: ExperimentSpec) -> list[str]:
    """The rules that span fields: one ``path: message`` line per
    violation. The spec's fields have the right types but may break their
    own rules, which the codec reports."""
    errors: list[str] = []

    def err(path: str, message: str) -> None:
        errors.append(f"{path}: {message}")

    if spec.parallel_trial_count > spec.max_trial_count:
        err("parallelTrialCount", "must not exceed maxTrialCount")
    for label, ident in (("name", spec.name), ("namespace", spec.namespace)):
        if ident and not IDENTIFIER_RE.match(ident):
            err(label, f"'{ident}' is not a valid identifier (lowercase alphanumerics and dashes)")

    objective = spec.objective
    if "" in objective.additional_metric_names:
        err("objective.additionalMetricNames", "expected non-empty strings")
    if objective.objective_metric_name in objective.additional_metric_names:
        err(
            "objective.additionalMetricNames",
            f"must not repeat the objective metric '{objective.objective_metric_name}'",
        )

    from .suggest.registry import BUILTINS, allowed_settings, is_registered

    algorithm = spec.algorithm.algorithm_name
    registered = is_registered(algorithm)
    if algorithm and not registered:
        err("algorithm.algorithmName", f"unknown algorithm '{algorithm}'")
    for key, value in spec.algorithm.settings.items():
        if isinstance(value, (dict, list)):
            err(f"algorithm.settings.{key}", "settings must be scalars")
        if registered and key not in allowed_settings(algorithm):
            err("algorithm.settings", f"unknown setting key '{key}' for algorithm '{algorithm}'")
        elif algorithm in BUILTINS and key in SETTING_RULES:
            kind, least = SETTING_RULES[key]
            number = not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))
            if not (number and math.isfinite(value) and value >= least):
                what = "an integer" if kind is int else "a finite number"
                err(f"algorithm.settings.{key}", f"must be {what} >= {least}")

    seen: set[str] = set()
    for i, p in enumerate(spec.parameters):
        _check_parameter(p, f"parameters[{i}].feasibleSpace", algorithm == "grid", err)
        if p.name in seen:
            err("parameters", f"duplicate parameter name '{p.name}'")
        seen.add(p.name)
    if BUDGET_PARAMETER in seen:
        err("parameters", f"'{BUDGET_PARAMETER}' is reserved for scheduler-assigned budgets")

    template = spec.trial_template
    simulated = template.kind is TemplateKind.SIMULATED
    if simulated != isinstance(template.payload, SimObjectiveDescriptor):
        err("trialTemplate.payload", f"{template.kind.value} templates take " + (
            "a {functionName, ...} mapping" if simulated else "a command string"
        ))
    elif simulated:
        from .cluster.objectives import is_registered_function

        function = template.payload.function_name
        if function and not is_registered_function(function):
            err("trialTemplate.payload.functionName", f"unknown simulated objective '{function}'")
    declared = seen | BUILTIN_PLACEHOLDERS
    if algorithm == "hyperband":
        declared.add(BUDGET_PARAMETER)
    command = template.payload if isinstance(template.payload, str) else ""
    for ref in sorted(set(PLACEHOLDER_RE.findall(command))):
        if ref not in declared:
            err("trialTemplate.payload", f"unresolved placeholder '${{{ref}}}'")
    return errors


def _check_parameter(p: ParameterSpec, path: str, grid: bool, err: Callable[[str, str], None]) -> None:
    space = p.feasible_space
    numeric = p.parameter_type in (ParameterType.INT, ParameterType.DOUBLE)
    if numeric != isinstance(space, Range):
        err(path, f"{p.parameter_type.value} parameters take " + ("{min, max, step}" if numeric else "{values}"))
    elif isinstance(space, Range):
        lo, hi, step = space.min, space.max, space.step
        if p.parameter_type is ParameterType.INT:
            for label, v in (("min", lo), ("max", hi), ("step", step)):
                if v is not None and not isinstance(v, int):
                    err(f"{path}.{label}", "must be an integer for int parameters")
                elif label != "step" and not INT64_MIN <= v <= INT64_MAX:
                    err(f"{path}.{label}", "must fit in a signed 64-bit integer")
        if not lo < hi:
            err(path, f"min < max violated (min={lo}, max={hi})")
        if step is not None and step > 0 and (hi - lo) / step + STEP_TOLERANCE < 1:
            err(f"{path}.step", "(max-min)/step must be >= 1")
        if grid and step is None and p.parameter_type is ParameterType.DOUBLE:
            err(f"parameters.{p.name}", "double parameters require a step under grid search")
    else:
        for i, v in enumerate(space.values):
            if any(v == s for s in space.values[:i]):
                err(f"{path}.values", f"duplicate value {v!r}")
            if p.parameter_type is ParameterType.CATEGORICAL:
                if not isinstance(v, str):
                    err(f"{path}.values[{i}]", "categorical values must be strings")
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                err(f"{path}.values[{i}]", "discrete values must be numbers")
            elif not math.isfinite(v):
                err(f"{path}.values[{i}]", "must be finite")


def _decode_experiment(doc: Any) -> tuple[ExperimentSpec | None, list[str]]:
    """The spec and every violation: the codec's, then, on a spec it could
    build, the cross-field ones."""
    try:
        spec, errors = from_doc(ExperimentSpec, doc), []
    except DocumentError as exc:
        spec, errors = exc.value, exc.errors
    if spec is not None:
        errors += _check_cross_invariants(spec)
    return spec, errors


def validate_experiment(spec: ExperimentSpec) -> list[str]:
    """Re-check every invariant on an already-constructed experiment.

    Returns the list of violations (empty when everything holds). Used by
    property tests and by callers that build experiments programmatically.
    """
    return _decode_experiment(to_doc(spec))[1]


# libyaml's parser and emitter, where PyYAML has them, read and write a
# document several times faster than the pure-Python ones, with the same
# values and (for what ``tunectl dump`` emits) the same bytes.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate a YAML experiment document.

    Syntax errors are reported with their line/column position. Everything
    else is reported all at once in one :class:`ValidationError`: what the
    codec finds, or else what :func:`_check_cross_invariants` finds. Missing
    optional fields take their defaults (``metricCollectorKind: pull``,
    ``maxFailedTrialCount: 0``, ...).
    """
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc)
        if mark is not None:
            raise ValidationError(
                [f"line {mark.line + 1}, column {mark.column + 1}: {problem}"]
            ) from exc
        raise ValidationError([f"yaml syntax error: {problem}"]) from exc
    spec, errors = _decode_experiment(doc)
    if errors:
        raise ValidationError(errors)
    return spec


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------


def canonical_yaml(spec: ExperimentSpec) -> str:
    """Emit the byte-stable canonical YAML form: every key in field order,
    defaults materialized.

    Round-trip stable: ``parse_experiment(canonical_yaml(s)) == s``. Two specs
    differing only in input key order produce identical bytes.
    """
    return yaml.safe_dump(
        to_doc(spec),
        sort_keys=False,
        default_flow_style=False,
        width=2**20,
    )


# ---------------------------------------------------------------------------
# Template rendering
# ---------------------------------------------------------------------------


def render_trial_spec(
    template: TrialTemplate,
    assignments: tuple[tuple[str, Any], ...],
    trial_name: str,
    namespace: str,
) -> TrialRunSpec:
    """Substitute ``${...}`` placeholders and produce a concrete run spec.

    ``${name}`` resolves to the assignment of that parameter, ``${trial.name}``
    and ``${trial.namespace}`` to the trial identity, and
    ``${hyperparameters}`` expands to space-joined ``--name=value`` pairs in
    assignment order. Deterministic and pure; a placeholder with no matching
    assignment raises :class:`RenderError` naming it.
    """
    rendered = tuple((name, value_to_string(value)) for name, value in assignments)
    by_name = dict(rendered)

    if isinstance(template.payload, SimObjectiveDescriptor):
        return TrialRunSpec(
            trial_name=trial_name,
            namespace=namespace,
            resolved_payload=template.payload,
            parameter_assignments=rendered,
        )

    def substitute(match: re.Match[str]) -> str:
        ref = match.group(1)
        if ref == "trial.name":
            return trial_name
        if ref == "trial.namespace":
            return namespace
        if ref == "hyperparameters":
            return " ".join(f"--{n}={v}" for n, v in rendered)
        if ref in by_name:
            return by_name[ref]
        raise RenderError(f"no assignment for placeholder '${{{ref}}}'")

    resolved = PLACEHOLDER_RE.sub(substitute, template.payload)
    return TrialRunSpec(
        trial_name=trial_name,
        namespace=namespace,
        resolved_payload=resolved,
        parameter_assignments=rendered,
    )
