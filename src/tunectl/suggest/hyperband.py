"""Hyperband: successive-halving brackets driving per-trial budgets.

Expressed as a schedule generator rather than a stateless sampler: each
emitted assignment set carries an extra ``budget`` assignment naming the
rung resource, and promotions into higher rungs wait until every member of
the previous rung has reported back with its consumed budget.

Brackets run sequentially (largest exploration bracket first). The whole
schedule position is reconstructed on every call from what was already
emitted plus the observation history, so the algorithm survives process
restarts with no private state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Sequence

from ..errors import ExhaustedSearchSpace, MissingResourceReport
from ..resources import BUDGET_PARAMETER, ExperimentSpec, ObjectiveType
from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
    TrialObservation,
    assignment_key,
)
from . import randomsearch

RNG_SALT = 4


@dataclass(frozen=True)
class Rung:
    configs: int
    resource: float


@dataclass(frozen=True)
class Bracket:
    s: int
    rungs: tuple[Rung, ...]


def _as_budget(resource: float) -> int | float:
    return int(resource) if float(resource).is_integer() else float(resource)


def successive_halving_brackets(max_resource: float, eta: int) -> tuple[Bracket, ...]:
    """The full bracket/rung table for (R, eta).

    Bracket s starts ``ceil((B/R) * eta^s / (s+1))`` configs at resource
    ``R * eta^-s``; each following rung keeps the top ``floor(n/eta)`` at
    ``eta`` times the resource.
    """
    # maxResource < eta degenerates to a single bracket with a single rung.
    if eta < 2 or max_resource < 1:
        raise ValueError(f"require eta >= 2 and maxResource >= 1, got R={max_resource}, eta={eta}")
    s_max = int(math.floor(math.log(max_resource) / math.log(eta) + 1e-9))
    budget = (s_max + 1) * max_resource
    brackets: list[Bracket] = []
    for s in range(s_max, -1, -1):
        n = math.ceil((budget / max_resource) * eta**s / (s + 1) - 1e-9)
        r = max_resource * eta**-s
        rungs: list[Rung] = []
        for _ in range(s + 1):
            rungs.append(Rung(configs=n, resource=float(r)))
            n = n // eta
            r = r * eta
        brackets.append(Bracket(s=s, rungs=tuple(rungs)))
    return tuple(brackets)


def _schedule_settings(experiment: ExperimentSpec) -> tuple[float, int]:
    settings = experiment.algorithm.settings
    return float(settings.get("max_resource", 81)), int(settings.get("eta", 3))


def _strip_budget(assignments: AssignmentSet) -> AssignmentSet:
    return tuple((n, v) for n, v in assignments if n != BUDGET_PARAMETER)


def _with_budget(assignments: AssignmentSet, resource: float) -> AssignmentSet:
    return _strip_budget(assignments) + ((BUDGET_PARAMETER, _as_budget(resource)),)


def _rung_observations(
    experiment: ExperimentSpec,
    history: Sequence[TrialObservation],
    configs: Sequence[AssignmentSet],
    resource: float,
) -> dict[tuple, TrialObservation]:
    """Map config identity -> observation reported at this rung's budget."""
    names = experiment.parameter_names()
    wanted = {assignment_key(c, names) for c in configs}
    found: dict[tuple, TrialObservation] = {}
    for obs in history:
        key = assignment_key(obs.assignments, names)
        if key not in wanted:
            continue
        consumed = obs.resource_consumed
        if obs.status is ObservationStatus.SUCCEEDED and consumed is None:
            raise MissingResourceReport(
                "hyperband requires resourceConsumed on succeeded trials"
            )
        budget = dict(obs.assignments).get(BUDGET_PARAMETER)
        reported = consumed if consumed is not None else budget
        if reported is not None and float(reported) == float(resource):
            found.setdefault(key, obs)
    return found


def promote(
    experiment: ExperimentSpec,
    members: Sequence[AssignmentSet],
    observed: dict[tuple, TrialObservation],
    keep: int,
) -> list[AssignmentSet]:
    """Top ``keep`` configs of a finished rung by objective; failed members
    never promote, so a rung may shrink below the nominal count."""
    sign = 1.0 if experiment.objective.type is ObjectiveType.MINIMIZE else -1.0
    names = experiment.parameter_names()
    ranked = sorted(
        (
            (sign * observed[assignment_key(m, names)].objective_value, assignment_key(m, names), m)
            for m in members
            if observed[assignment_key(m, names)].status is ObservationStatus.SUCCEEDED
        ),
        key=lambda item: (item[0], item[1]),
    )
    return [m for _, _, m in ranked[:keep]]


def suggest(request: SuggestionRequest) -> SuggestionResult:
    experiment = request.experiment
    max_resource, eta = _schedule_settings(experiment)
    brackets = successive_halving_brackets(max_resource, eta)

    produced = request.produced
    idx = 0  # cursor into produced: emission strictly follows schedule order

    def emit(new_sets: list[AssignmentSet]) -> SuggestionResult:
        return SuggestionResult(assignment_sets=tuple(new_sets[: request.count]))

    for bracket in brackets:
        members: list[AssignmentSet] = []
        for rung_index, rung in enumerate(bracket.rungs):
            if rung_index == 0:
                expected = rung.configs
                have = min(expected, len(produced) - idx)
                members = [_strip_budget(p) for p in produced[idx : idx + have]]
                idx += have
                if have < expected:
                    # idx == len(produced) here, so the draw sees the whole request.
                    # Its candidates carry no budget, so it dedupes against
                    # budget-less keys.
                    seen = chain(produced, (obs.assignments for obs in request.history))
                    sub = replace(
                        request,
                        count=min(request.count, expected - have),
                        produced_keys=frozenset(assignment_key(_strip_budget(a)) for a in seen),
                    )
                    fresh: list[AssignmentSet] = []
                    for cand in randomsearch.sample_batch(sub, salt=RNG_SALT):
                        fresh.append(_with_budget(cand, rung.resource))
                    return emit(fresh)
            else:
                prev = bracket.rungs[rung_index - 1]
                observed = _rung_observations(experiment, request.history, members, prev.resource)
                names = experiment.parameter_names()
                if any(assignment_key(m, names) not in observed for m in members):
                    return emit([])  # previous rung still running
                keep = min(prev.configs // eta, rung.configs)
                promoted = promote(experiment, members, observed, keep)
                if not promoted:
                    members = []
                    break  # every member failed: abandon the bracket
                expected = len(promoted)
                have = min(expected, len(produced) - idx)
                idx += have
                members = promoted
                if have < expected:
                    fresh = [_with_budget(c, rung.resource) for c in promoted[have:]]
                    return emit(fresh)
        # bracket finished (or abandoned): verify its last rung is observed
        if members:
            last = bracket.rungs[-1]
            observed = _rung_observations(experiment, request.history, members, last.resource)
            names = experiment.parameter_names()
            if any(assignment_key(m, names) not in observed for m in members):
                return emit([])

    raise ExhaustedSearchSpace("hyperband schedule complete: all brackets finished")


PLUGIN = AlgorithmPlugin(name="hyperband", allowed_settings=BUILTINS["hyperband"].settings, suggest=suggest)
