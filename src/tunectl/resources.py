"""Declarative resource model: experiment format, validation, trial rendering.

The user-facing experiment document is YAML with camelCase keys; this module
parses it into typed, immutable-by-convention dataclasses, validates every
structural invariant (aggregating errors rather than failing fast), emits a
canonical byte-stable YAML form, and renders trial templates into concrete
run specs.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import yaml

from .codec import to_doc
from .errors import RenderError, ValidationError

IDENTIFIER_RE = re.compile(r"^[a-z0-9]([a-z0-9-]*[a-z0-9])?$")
PLACEHOLDER_RE = re.compile(r"\$\{([^}]*)\}")

# Placeholders resolvable without a declared parameter.
BUILTIN_PLACEHOLDERS = frozenset({"trial.name", "trial.namespace", "hyperparameters"})

# Reserved assignment name used by budget-aware schedulers; templates may
# reference it only when the experiment uses such an algorithm.
BUDGET_PARAMETER = "budget"


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


@dataclass(frozen=True)
class Range:
    """Numeric feasible space. ``step`` is required for double parameters
    under grid search and optional otherwise."""

    min: float | int
    max: float | int
    step: float | int | None = None


@dataclass(frozen=True)
class ValueList:
    """Enumerated feasible space for discrete/categorical parameters."""

    values: tuple[Any, ...]


@dataclass(frozen=True)
class ParameterSpec:
    name: str
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


@dataclass(frozen=True)
class ObjectiveSpec:
    type: ObjectiveType
    objective_metric_name: str
    goal: float | None = None
    additional_metric_names: tuple[str, ...] = ()
    metric_strategy: MetricStrategy = MetricStrategy.LATEST


@dataclass
class AlgorithmSpec:
    algorithm_name: str
    settings: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SimObjectiveDescriptor:
    """Payload of a simulated trial: which synthetic objective to run, for
    how many ticks, and how noisy its metric stream is."""

    function_name: str
    duration_ticks: int = 1
    noise_std_dev: float = 0.0
    rng_seed_offset: int = 0


@dataclass
class TrialTemplate:
    kind: TemplateKind
    payload: str | SimObjectiveDescriptor
    worker_count: int = 1
    cpu_per_worker: float = 1.0
    restart_policy: RestartPolicy = RestartPolicy.NEVER


@dataclass
class ExperimentSpec:
    name: str
    namespace: str
    objective: ObjectiveSpec
    algorithm: AlgorithmSpec
    parameters: list[ParameterSpec]
    trial_template: TrialTemplate
    parallel_trial_count: int
    max_trial_count: int
    max_failed_trial_count: int = 0
    metric_collector_kind: CollectorKind = CollectorKind.PULL

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


class _Reader:
    """Collects validation errors while walking a parsed YAML document."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def err(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def mapping(self, value: Any, path: str) -> dict:
        if not isinstance(value, dict):
            self.err(path, f"expected a mapping, got {type(value).__name__}")
            return {}
        return value

    def require(self, doc: dict, key: str, path: str) -> Any:
        if key not in doc:
            self.err(path, f"missing required field '{key}'")
            return None
        return doc[key]

    def string(self, value: Any, path: str) -> str:
        if not isinstance(value, str) or not value:
            self.err(path, "expected a non-empty string")
            return ""
        return value

    def integer(self, value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            self.err(path, "expected an integer")
            return 0
        return value

    def number(self, value: Any, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.err(path, "expected a number")
            return 0.0
        return value

    def enum(self, cls: type[Enum], value: Any, path: str) -> Any:
        try:
            return cls(value)
        except (ValueError, TypeError):
            allowed = ", ".join(m.value for m in cls)  # type: ignore[attr-defined]
            self.err(path, f"expected one of [{allowed}], got {value!r}")
            return next(iter(cls))

    def reject_unknown(self, doc: dict, known: set[str], path: str) -> None:
        for key in doc:
            if key not in known:
                self.err(path, f"unknown field '{key}'")


def _read_objective(r: _Reader, doc: Any) -> ObjectiveSpec:
    doc = r.mapping(doc, "objective")
    r.reject_unknown(
        doc,
        {"type", "goal", "objectiveMetricName", "additionalMetricNames", "metricStrategy"},
        "objective",
    )
    obj_type = r.enum(ObjectiveType, r.require(doc, "type", "objective"), "objective.type")
    metric = r.string(r.require(doc, "objectiveMetricName", "objective"), "objective.objectiveMetricName")
    goal = doc.get("goal")
    if goal is not None:
        goal = r.number(goal, "objective.goal")
        if not math.isfinite(goal):
            r.err("objective.goal", "must be finite")
        goal = float(goal)
    additional: tuple[str, ...] = ()
    raw_additional = doc.get("additionalMetricNames", [])
    if not isinstance(raw_additional, list):
        r.err("objective.additionalMetricNames", "expected a list of strings")
    else:
        additional = tuple(r.string(v, f"objective.additionalMetricNames[{i}]") for i, v in enumerate(raw_additional))
    strategy = r.enum(MetricStrategy, doc.get("metricStrategy", "latest"), "objective.metricStrategy")
    if metric and metric in additional:
        r.err("objective.additionalMetricNames", f"must not repeat the objective metric '{metric}'")
    return ObjectiveSpec(
        type=obj_type,
        objective_metric_name=metric,
        goal=goal,
        additional_metric_names=additional,
        metric_strategy=strategy,
    )


def _read_algorithm(r: _Reader, doc: Any) -> AlgorithmSpec:
    doc = r.mapping(doc, "algorithm")
    r.reject_unknown(doc, {"algorithmName", "settings"}, "algorithm")
    name = r.string(r.require(doc, "algorithmName", "algorithm"), "algorithm.algorithmName")
    settings_doc = doc.get("settings", {})
    if not isinstance(settings_doc, dict):
        r.err("algorithm.settings", "expected a mapping of scalar settings")
        settings_doc = {}
    settings: dict[str, Any] = {}
    for key, value in settings_doc.items():
        if isinstance(value, (dict, list)):
            r.err(f"algorithm.settings.{key}", "settings must be scalars")
            continue
        settings[str(key)] = value
    if name:
        from .suggest.registry import allowed_settings, is_registered

        if not is_registered(name):
            r.err("algorithm.algorithmName", f"unknown algorithm '{name}'")
        else:
            allowed = allowed_settings(name)
            for key in settings:
                if key not in allowed:
                    r.err("algorithm.settings", f"unknown setting key '{key}' for algorithm '{name}'")
    return AlgorithmSpec(algorithm_name=name, settings=settings)


def _read_parameter(r: _Reader, doc: Any, path: str) -> ParameterSpec:
    doc = r.mapping(doc, path)
    r.reject_unknown(doc, {"name", "parameterType", "feasibleSpace"}, path)
    name = r.string(r.require(doc, "name", path), f"{path}.name")
    ptype = r.enum(ParameterType, r.require(doc, "parameterType", path), f"{path}.parameterType")
    space_doc = r.mapping(r.require(doc, "feasibleSpace", path), f"{path}.feasibleSpace")
    space: Range | ValueList
    if ptype in (ParameterType.INT, ParameterType.DOUBLE):
        r.reject_unknown(space_doc, {"min", "max", "step"}, f"{path}.feasibleSpace")
        lo = r.number(r.require(space_doc, "min", f"{path}.feasibleSpace"), f"{path}.feasibleSpace.min")
        hi = r.number(r.require(space_doc, "max", f"{path}.feasibleSpace"), f"{path}.feasibleSpace.max")
        step = space_doc.get("step")
        if step is not None:
            step = r.number(step, f"{path}.feasibleSpace.step")
        for label, v in (("min", lo), ("max", hi), ("step", step)):
            if v is not None and not math.isfinite(v):
                r.err(f"{path}.feasibleSpace.{label}", "must be finite")
        if ptype is ParameterType.INT:
            for label, v in (("min", lo), ("max", hi), ("step", step)):
                if v is not None and not isinstance(v, int):
                    r.err(f"{path}.feasibleSpace.{label}", "must be an integer for int parameters")
        if not lo < hi:
            r.err(f"{path}.feasibleSpace", f"min < max violated (min={lo}, max={hi})")
        if step is not None:
            if step <= 0:
                r.err(f"{path}.feasibleSpace.step", "must be > 0")
            elif (hi - lo) / step < 1:
                r.err(f"{path}.feasibleSpace.step", "(max-min)/step must be >= 1")
        space = Range(min=lo, max=hi, step=step)
    else:
        r.reject_unknown(space_doc, {"values"}, f"{path}.feasibleSpace")
        raw_values = r.require(space_doc, "values", f"{path}.feasibleSpace")
        values: tuple[Any, ...] = ()
        if not isinstance(raw_values, list) or not raw_values:
            r.err(f"{path}.feasibleSpace.values", "expected a non-empty list")
        else:
            values = tuple(raw_values)
            seen: list[Any] = []
            for v in values:
                if any(v == s for s in seen):
                    r.err(f"{path}.feasibleSpace.values", f"duplicate value {v!r}")
                seen.append(v)
            if ptype is ParameterType.CATEGORICAL:
                for i, v in enumerate(values):
                    if not isinstance(v, str):
                        r.err(f"{path}.feasibleSpace.values[{i}]", "categorical values must be strings")
            else:
                for i, v in enumerate(values):
                    if isinstance(v, bool) or not isinstance(v, (int, float)):
                        r.err(f"{path}.feasibleSpace.values[{i}]", "discrete values must be numbers")
                    elif not math.isfinite(v):
                        r.err(f"{path}.feasibleSpace.values[{i}]", "must be finite")
        space = ValueList(values=values)
    return ParameterSpec(name=name, parameter_type=ptype, feasible_space=space)


def _read_template(r: _Reader, doc: Any) -> TrialTemplate:
    doc = r.mapping(doc, "trialTemplate")
    r.reject_unknown(
        doc,
        {"kind", "workerCount", "cpuPerWorker", "restartPolicy", "payload"},
        "trialTemplate",
    )
    kind = r.enum(TemplateKind, r.require(doc, "kind", "trialTemplate"), "trialTemplate.kind")
    worker_count = r.integer(doc.get("workerCount", 1), "trialTemplate.workerCount")
    if worker_count < 1:
        r.err("trialTemplate.workerCount", "must be >= 1")
    cpu = r.number(doc.get("cpuPerWorker", 1.0), "trialTemplate.cpuPerWorker")
    if not cpu > 0:
        r.err("trialTemplate.cpuPerWorker", "must be > 0")
    policy = r.enum(RestartPolicy, doc.get("restartPolicy", "never"), "trialTemplate.restartPolicy")
    raw_payload = r.require(doc, "payload", "trialTemplate")
    payload: str | SimObjectiveDescriptor
    if kind is TemplateKind.LOCAL_PROCESS:
        payload = r.string(raw_payload, "trialTemplate.payload")
    else:
        pdoc = r.mapping(raw_payload, "trialTemplate.payload")
        r.reject_unknown(
            pdoc,
            {"functionName", "durationTicks", "noiseStdDev", "rngSeedOffset"},
            "trialTemplate.payload",
        )
        fn = r.string(r.require(pdoc, "functionName", "trialTemplate.payload"), "trialTemplate.payload.functionName")
        duration = r.integer(pdoc.get("durationTicks", 1), "trialTemplate.payload.durationTicks")
        if duration < 1:
            r.err("trialTemplate.payload.durationTicks", "must be >= 1")
        noise = float(r.number(pdoc.get("noiseStdDev", 0.0), "trialTemplate.payload.noiseStdDev"))
        if noise < 0:
            r.err("trialTemplate.payload.noiseStdDev", "must be >= 0")
        offset = r.integer(pdoc.get("rngSeedOffset", 0), "trialTemplate.payload.rngSeedOffset")
        if fn:
            from .cluster.objectives import is_registered_function

            if not is_registered_function(fn):
                r.err("trialTemplate.payload.functionName", f"unknown simulated objective '{fn}'")
        payload = SimObjectiveDescriptor(
            function_name=fn,
            duration_ticks=duration,
            noise_std_dev=noise,
            rng_seed_offset=offset,
        )
    return TrialTemplate(
        kind=kind,
        payload=payload,
        worker_count=worker_count,
        cpu_per_worker=float(cpu),
        restart_policy=policy,
    )


_TOP_LEVEL_KEYS = {
    "name",
    "namespace",
    "objective",
    "algorithm",
    "parallelTrialCount",
    "maxTrialCount",
    "maxFailedTrialCount",
    "metricCollectorKind",
    "parameters",
    "trialTemplate",
}


def _template_placeholders(template: TrialTemplate) -> set[str]:
    if isinstance(template.payload, str):
        return set(PLACEHOLDER_RE.findall(template.payload))
    return set()


def _check_cross_invariants(r: _Reader, spec: ExperimentSpec) -> None:
    if spec.parallel_trial_count < 1:
        r.err("parallelTrialCount", "must be >= 1")
    if spec.max_trial_count < 1:
        r.err("maxTrialCount", "must be >= 1")
    if spec.parallel_trial_count > spec.max_trial_count:
        r.err("parallelTrialCount", "must not exceed maxTrialCount")
    if spec.max_failed_trial_count < 0:
        r.err("maxFailedTrialCount", "must be >= 0")
    for label, ident in (("name", spec.name), ("namespace", spec.namespace)):
        if ident and not IDENTIFIER_RE.match(ident):
            r.err(label, f"'{ident}' is not a valid identifier (lowercase alphanumerics and dashes)")

    names = [p.name for p in spec.parameters]
    seen: set[str] = set()
    for n in names:
        if n in seen:
            r.err("parameters", f"duplicate parameter name '{n}'")
        seen.add(n)
    if BUDGET_PARAMETER in seen:
        r.err("parameters", f"'{BUDGET_PARAMETER}' is reserved for scheduler-assigned budgets")

    declared = set(names) | BUILTIN_PLACEHOLDERS
    if spec.algorithm.algorithm_name == "hyperband":
        declared.add(BUDGET_PARAMETER)
    for ref in sorted(_template_placeholders(spec.trial_template)):
        if ref not in declared:
            r.err("trialTemplate.payload", f"unresolved placeholder '${{{ref}}}'")

    if spec.algorithm.algorithm_name == "grid":
        for p in spec.parameters:
            if p.parameter_type is ParameterType.DOUBLE and isinstance(p.feasible_space, Range):
                if p.feasible_space.step is None:
                    r.err(
                        f"parameters.{p.name}",
                        "double parameters require a step under grid search",
                    )


def validate_experiment(spec: ExperimentSpec) -> list[str]:
    """Re-check every invariant on an already-constructed experiment.

    Returns the list of violations (empty when everything holds). Used by
    property tests and by callers that build experiments programmatically.
    """
    doc = experiment_to_doc(spec)
    try:
        parse_experiment(yaml.safe_dump(doc, sort_keys=False))
    except ValidationError as exc:
        return exc.errors
    return []


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse and validate a YAML experiment document.

    Applies defaults (``metricCollectorKind: pull``, ``maxFailedTrialCount: 0``)
    and raises :class:`ValidationError` carrying *all* violations found.
    Syntax errors are reported with their line/column position.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc)
        if mark is not None:
            raise ValidationError(
                [f"line {mark.line + 1}, column {mark.column + 1}: {problem}"]
            ) from exc
        raise ValidationError([f"yaml syntax error: {problem}"]) from exc

    r = _Reader()
    doc = r.mapping(doc, "document")
    r.reject_unknown(doc, _TOP_LEVEL_KEYS, "document")

    name = r.string(r.require(doc, "name", "document"), "name")
    namespace = r.string(r.require(doc, "namespace", "document"), "namespace")
    objective = _read_objective(r, r.require(doc, "objective", "document"))
    algorithm = _read_algorithm(r, r.require(doc, "algorithm", "document"))
    parallel = r.integer(r.require(doc, "parallelTrialCount", "document"), "parallelTrialCount")
    max_trials = r.integer(r.require(doc, "maxTrialCount", "document"), "maxTrialCount")
    max_failed = r.integer(doc.get("maxFailedTrialCount", 0), "maxFailedTrialCount")
    collector = r.enum(CollectorKind, doc.get("metricCollectorKind", "pull"), "metricCollectorKind")

    raw_params = r.require(doc, "parameters", "document")
    parameters: list[ParameterSpec] = []
    if not isinstance(raw_params, list) or not raw_params:
        r.err("parameters", "expected a non-empty list")
    else:
        parameters = [_read_parameter(r, p, f"parameters[{i}]") for i, p in enumerate(raw_params)]

    template = _read_template(r, r.require(doc, "trialTemplate", "document"))

    spec = ExperimentSpec(
        name=name,
        namespace=namespace,
        objective=objective,
        algorithm=algorithm,
        parameters=parameters,
        trial_template=template,
        parallel_trial_count=parallel,
        max_trial_count=max_trials,
        max_failed_trial_count=max_failed,
        metric_collector_kind=collector,
    )
    _check_cross_invariants(r, spec)
    if r.errors:
        raise ValidationError(r.errors)
    return spec


# ---------------------------------------------------------------------------
# Canonical emission
# ---------------------------------------------------------------------------


def experiment_to_doc(spec: ExperimentSpec) -> dict:
    """Plain-dict form of a spec with a fixed key order; defaults materialized."""
    objective: dict[str, Any] = {"type": spec.objective.type.value}
    if spec.objective.goal is not None:
        objective["goal"] = spec.objective.goal
    objective["objectiveMetricName"] = spec.objective.objective_metric_name
    objective["additionalMetricNames"] = list(spec.objective.additional_metric_names)
    objective["metricStrategy"] = spec.objective.metric_strategy.value
    return {
        "name": spec.name,
        "namespace": spec.namespace,
        "objective": objective,
        "algorithm": {
            "algorithmName": spec.algorithm.algorithm_name,
            "settings": {k: spec.algorithm.settings[k] for k in sorted(spec.algorithm.settings)},
        },
        "parallelTrialCount": spec.parallel_trial_count,
        "maxTrialCount": spec.max_trial_count,
        "maxFailedTrialCount": spec.max_failed_trial_count,
        "metricCollectorKind": spec.metric_collector_kind.value,
        "parameters": [
            {
                "name": p.name,
                "parameterType": p.parameter_type.value,
                # An absent step is left out, not written as null.
                "feasibleSpace": {k: v for k, v in to_doc(p.feasible_space).items() if v is not None},
            }
            for p in spec.parameters
        ],
        "trialTemplate": {
            "kind": spec.trial_template.kind.value,
            "workerCount": spec.trial_template.worker_count,
            "cpuPerWorker": spec.trial_template.cpu_per_worker,
            "restartPolicy": spec.trial_template.restart_policy.value,
            "payload": to_doc(spec.trial_template.payload),
        },
    }


def canonical_yaml(spec: ExperimentSpec) -> str:
    """Emit the byte-stable canonical YAML form.

    Round-trip stable: ``parse_experiment(canonical_yaml(s)) == s``. Two specs
    differing only in input key order produce identical bytes.
    """
    return yaml.safe_dump(
        experiment_to_doc(spec),
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
