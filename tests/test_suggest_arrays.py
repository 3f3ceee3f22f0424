"""The array paths of the model-based algorithms against the per-candidate
arithmetic they replace, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parameter_specs
from tunectl.resources import ParameterSpec, ParameterType, Range, ValueList
from tunectl.suggest.arrays import decode_unit_vector, encode_assignments, encode_unit_matrix, encoded_width
from tunectl.suggest.tpe import _NumericParzen


def _edges(param: ParameterSpec) -> list[float]:
    """Unit coordinates where decoding changes its answer, and the floats
    just below them: half steps of an int range, the cell edges of a value
    list, and the ends of the unit interval and beyond."""
    space = param.feasible_space
    if isinstance(space, ValueList):
        cuts = [k / len(space.values) for k in range(len(space.values) + 1)]
    elif param.parameter_type is ParameterType.INT:
        span = int(space.max) - int(space.min)
        cuts = [(k + 0.5) / span for k in range(span)]
    else:
        cuts = []
    below = [float(np.nextafter(c, -np.inf)) for c in cuts]
    return cuts + below + [0.0, 1.0, 0.5, float(np.nextafter(0.5, 0.0)), -0.25, 1.5]


@st.composite
def spaces_and_unit_matrices(draw):
    params = [draw(parameter_specs(f"p{i}")) for i in range(draw(st.integers(1, 6)))]
    rows = draw(st.integers(1, 12))
    unit = np.array(
        [
            [
                draw(st.one_of(st.sampled_from(_edges(p)), st.floats(0.0, 1.0)))
                for p in params
            ]
            for _ in range(rows)
        ]
    )
    return params, unit


@settings(max_examples=150, deadline=None)
@given(spaces_and_unit_matrices())
def test_pool_encoding_equals_decoding_then_encoding_bit_for_bit(case):
    params, unit = case
    expected = encode_assignments(params, [decode_unit_vector(params, row) for row in unit])
    got = encode_unit_matrix(params, unit)
    assert got.dtype == expected.dtype == np.float64
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


MIXED = [
    ParameterSpec("lr", ParameterType.DOUBLE, Range(1e-4, 0.3)),
    ParameterSpec("layers", ParameterType.INT, Range(-3, 17)),
    ParameterSpec("opt", ParameterType.CATEGORICAL, ValueList(("sgd", "adam", "ftrl"))),
    ParameterSpec("batch", ParameterType.DISCRETE, ValueList((16, 32.5, 64, 128, 7))),
]


def test_pool_encoding_of_a_sobol_pool_over_a_mixed_space():
    from scipy.stats import qmc

    unit = qmc.Sobol(d=len(MIXED), scramble=True, seed=np.random.default_rng(3)).random(1024)
    expected = encode_assignments(MIXED, [decode_unit_vector(MIXED, row) for row in unit])
    assert encode_unit_matrix(MIXED, unit).tobytes() == expected.tobytes()


def _encode_one_value_at_a_time(parameters, assignment_sets):
    """The per-set, per-value encoding the column-wise one replaced, kept as
    the reference."""
    rows = np.zeros((len(assignment_sets), encoded_width(parameters)))
    for i, assignments in enumerate(assignment_sets):
        by_name = dict(assignments)
        col = 0
        for p in parameters:
            value = by_name[p.name]
            space = p.feasible_space
            if isinstance(space, ValueList):
                idx = next(j for j, v in enumerate(space.values) if v == value)
                rows[i, col + idx] = 1.0
                col += len(space.values)
            else:
                lo, hi = float(space.min), float(space.max)
                rows[i, col] = (float(value) - lo) / (hi - lo)
                col += 1
    return rows


def _in_space_values(param: ParameterSpec):
    """Values an observation may carry: any in the space, its ends, and a
    discrete number as the other numeric type (64.0 for 64)."""
    space = param.feasible_space
    if isinstance(space, ValueList):
        equal = [float(v) for v in space.values if not isinstance(v, str)]
        return st.sampled_from(list(space.values) + equal)
    if param.parameter_type is ParameterType.INT:
        return st.integers(int(space.min), int(space.max))
    return st.one_of(st.sampled_from([space.min, space.max]), st.floats(space.min, space.max))


@st.composite
def spaces_and_assignment_sets(draw):
    params = [draw(parameter_specs(f"p{i}")) for i in range(draw(st.integers(1, 6)))]
    sets = draw(st.lists(st.tuples(*map(_in_space_values, params)), max_size=12))
    # An assignment set may list its parameters in any order.
    return params, [draw(st.permutations([(p.name, v) for p, v in zip(params, values)])) for values in sets]


def _assert_encodings_agree(params, sets):
    expected = _encode_one_value_at_a_time(params, sets)
    got = encode_assignments(params, sets)
    assert got.shape == expected.shape and got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(spaces_and_assignment_sets())
def test_column_encoding_equals_the_per_value_encoding_bit_for_bit(case):
    _assert_encodings_agree(*case)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_column_encoding_of_the_mixed_spaces_equals_the_per_value_encoding(seed):
    from test_suggest_bo import MIXED as BO_MIXED

    rng = np.random.default_rng(seed)
    for params in (MIXED, BO_MIXED):
        sets = [decode_unit_vector(params, row) for row in rng.random((200, len(params)))]
        _assert_encodings_agree(params, sets)
        _assert_encodings_agree(params, [tuple(reversed(s)) for s in sets])


def _log_density_one_at_a_time(parzen: _NumericParzen, value: float) -> float:
    """The scalar density the batched one replaced, kept as the reference."""
    if not len(parzen.centers):
        return math.log(parzen.uniform_density)
    z = (value - parzen.centers) / parzen.bandwidth
    norm = 1.0 / (parzen.bandwidth * math.sqrt(2.0 * math.pi))
    density = float(np.mean(norm * np.exp(-0.5 * z**2)))
    return math.log(max(density, 1e-300))


@pytest.mark.parametrize("centers", [0, 1, 2, 7, 8, 9, 16, 17, 31, 100, 129, 300])
def test_batched_parzen_log_densities_equal_the_scalar_ones_bit_for_bit(centers):
    rng = np.random.default_rng(centers)
    param = ParameterSpec("x", ParameterType.DOUBLE, Range(-2.0, 3.0))
    parzen = _NumericParzen(param, [float(v) for v in rng.uniform(-2.0, 3.0, centers)])
    # 24 candidates as TPE draws them, plus the bounds and far tails where
    # the density underflows to the 1e-300 floor.
    values = [float(v) for v in rng.uniform(-2.0, 3.0, 24)] + [-2.0, 3.0, -1e6, 1e6]
    got = parzen.log_densities(values)
    expected = [_log_density_one_at_a_time(parzen, v) for v in values]
    assert [v.hex() for v in got] == [v.hex() for v in expected]
