"""Pinned suggestion streams of the five built-ins over a mixed space.

Each algorithm runs against one fixed experiment with a ``double``, an
``int``, a ``categorical`` and a ``discrete`` parameter. A synthetic driver
asks for 1–4 sets per call, concludes every set at once (every 7th trial
fails) and keeps going well past BO's and TPE's minimum history. The sha256
of the stream's ``repr`` is pinned, so any change to what an algorithm emits,
down to the last bit of a float or the Python type of a value, shows here.

A second run stops half-way and resumes from the produced sets alone,
rebuilding the history from them, and must give the same stream.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import make_experiment
from tunectl.errors import ExhaustedSearchSpace
from tunectl.resources import BUDGET_PARAMETER, ParameterSpec, ParameterType, Range, ValueList
from tunectl.suggest import ObservationStatus, SuggestionRequest, TrialObservation, get_suggestions

PARAMS = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(0.0, 1.0, 0.25)),
    ParameterSpec("layers", ParameterType.INT, Range(1, 8)),
    ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("sgd", "adam", "ftrl"))),
    ParameterSpec("batch", ParameterType.DISCRETE, ValueList((16, 32, 64, 128))),
]

SETTINGS = {
    "random": {"random_state": 11},
    "grid": {},
    "bayesianoptimization": {"random_state": 11},
    "tpe": {"random_state": 11},
    "hyperband": {"random_state": 11, "max_resource": 9, "eta": 3},
}

STREAM_LENGTH = 40
HYPERBAND_SETS = 22  # the whole R=9, eta=3 schedule
RESUME_AT = 21  # a batch boundary
FAIL_EVERY = 7
OPT_PENALTY = {"sgd": 0.0, "adam": 0.05, "ftrl": 0.2}

# sha256 of repr(stream) for each algorithm, recorded before the model-based
# algorithms moved to array scoring.
DIGESTS = {
    "random": "a1aa9c05081ef5e45301b30634e6f609c4248f6d78722d43fc5a29b01536cc4e",
    "grid": "6158bf90a9f322c621fc4712a47abc8eda5817d3b393aff0adb3443a30931860",
    "bayesianoptimization": "388f790a6bf6c27f3dc7ae8819ee17ee34933fd302f91bc6a213d870d06feba0",
    "tpe": "fb62287305575ab1991a1135e09bea0c02655540289feb9f615de6a67b31e5f7",
    "hyperband": "2bbe806862d2aea3dbc69fef719e0206175467234e99a536444ca18be6c37dbd",
}


def _spec(algorithm: str):
    return make_experiment(PARAMS, algorithm=algorithm, settings=SETTINGS[algorithm], max_trials=STREAM_LENGTH)


def _conclude(index: int, assignments) -> TrialObservation:
    """The deterministic outcome of trial ``index``."""
    values = dict(assignments)
    budget = values.get(BUDGET_PARAMETER)
    consumed = float(budget) if budget is not None else None
    if (index + 1) % FAIL_EVERY == 0:
        return TrialObservation(assignments, ObservationStatus.FAILED, resource_consumed=consumed)
    loss = (
        (float(values["lr"]) - 0.3) ** 2
        + 0.1 * abs(values["layers"] - 3)
        + OPT_PENALTY[values["opt"]]
        + 0.001 * values["batch"]
    )
    if budget is not None:
        loss += 1.0 / float(budget)
    return TrialObservation(assignments, ObservationStatus.SUCCEEDED, objective_value=loss, resource_consumed=consumed)


def _run(algorithm: str, produced: tuple = (), stop_at: int = STREAM_LENGTH) -> tuple:
    """Drive the algorithm until ``stop_at`` sets exist, the schedule runs
    out or a call returns nothing; return every set produced."""
    spec = _spec(algorithm)
    history = tuple(_conclude(i, s) for i, s in enumerate(produced))
    while len(produced) < stop_at:
        # The batch size follows from the produced count alone (1, 2, 4, 3,
        # repeating), so a resumed run asks for the same batches.
        count = min(1 + len(produced) % 5 % 4, stop_at - len(produced))
        try:
            result = get_suggestions(SuggestionRequest(spec, history, count, produced))
        except ExhaustedSearchSpace:
            break
        if not result.assignment_sets:
            break
        history += tuple(_conclude(len(produced) + i, s) for i, s in enumerate(result.assignment_sets))
        produced += result.assignment_sets
    return produced


def _digest(produced: tuple) -> str:
    return hashlib.sha256(repr(produced).encode()).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(DIGESTS))
def test_stream_matches_pinned_digest(algorithm):
    produced = _run(algorithm)
    assert len(produced) == (HYPERBAND_SETS if algorithm == "hyperband" else STREAM_LENGTH)
    assert _digest(produced) == DIGESTS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(DIGESTS))
def test_stream_resumed_from_produced_alone_is_unchanged(algorithm):
    whole = _run(algorithm)
    first = _run(algorithm, stop_at=RESUME_AT)
    # Rebuild the produced sets as a fresh process would: new tuples, no
    # shared objects with the first run.
    rebuilt = tuple(tuple((name, value) for name, value in s) for s in first)
    resumed = _run(algorithm, produced=rebuilt)
    assert resumed == whole
    assert _digest(resumed) == DIGESTS[algorithm]
