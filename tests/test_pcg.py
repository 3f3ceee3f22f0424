"""The stdlib PCG64 port against numpy, draw for draw: it defines the random
search, Hyperband and chaos streams, so any difference changes seeded runs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunectl import pcg


def _numpy(entropy, spawn_key=()) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key)))


def _numpy_state(entropy, spawn_key=()) -> tuple[int, ...]:
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return tuple(int(w) for w in seq.generate_state(4, np.uint64))


ENTROPY = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1, 2**64, 2**64 + 3, 2**100 + 9]


@pytest.mark.parametrize("entropy", ENTROPY)
@pytest.mark.parametrize("spawn_key", [(), (3,), (1, 17), (2, 0, 2**33)])
def test_generate_state_matches_numpy_for_integer_entropy(entropy, spawn_key):
    assert pcg.generate_state(entropy, spawn_key) == _numpy_state(entropy, spawn_key)


@pytest.mark.parametrize(
    "entropy", [[], [5], [1, 2, 3], [1, 0, 0xC7A05, 40], [9, 2**32, 2**70, 4, 5, 6], [0] * 9, list(range(20))]
)
@pytest.mark.parametrize("spawn_key", [(), (0,), (2, 40), (1, 2, 3)])
def test_generate_state_matches_numpy_for_lists(entropy, spawn_key):
    assert pcg.generate_state(entropy, spawn_key) == _numpy_state(entropy, spawn_key)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.integers(0, 2**130), st.lists(st.integers(0, 2**70), max_size=8)),
    st.lists(st.integers(0, 2**40), max_size=3),
)
def test_generate_state_matches_numpy_on_any_entropy(entropy, spawn_key):
    assert pcg.generate_state(entropy, tuple(spawn_key)) == _numpy_state(entropy, tuple(spawn_key))


def test_negative_entropy_raises_numpys_error():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        pcg.Generator(-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(-1)


SPANS = [1, 2, 401, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62 + 3]


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("low", [0, -5, -(2**40), 3])
def test_integers_match_numpy_and_a_one_value_range_draws_nothing(span, low):
    mine, theirs = pcg.Generator(11, (1, 4)), _numpy(11, (1, 4))
    for _ in range(40):
        assert mine.integers(low, low + span) == int(theirs.integers(low, low + span))
        # A draw after each one, from a range that takes half a 64-bit word.
        assert mine.integers(0, 10) == int(theirs.integers(0, 10))


def test_the_whole_int64_range_draws_whole_words_as_numpy_does():
    mine, theirs = pcg.Generator(5), _numpy(5)
    for _ in range(20):
        assert mine.integers(-(2**63), 2**63) == int(theirs.integers(-(2**63), 2**63))
        assert mine.integers(0, 2**32) == int(theirs.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.one_of(
            st.just(None),
            st.tuples(st.integers(-(2**61), 2**61), st.sampled_from(SPANS + [3, 1000, 2**31, 2**33 - 7])),
        ),
        max_size=60,
    ),
)
def test_interleaved_random_and_integers_streams_match_numpy(entropy, draws):
    mine, theirs = pcg.Generator(entropy, (0, 9)), _numpy(entropy, (0, 9))
    for draw in draws:
        if draw is None:
            assert mine.random() == theirs.random()
        else:
            low, span = draw
            assert mine.integers(low, low + span) == int(theirs.integers(low, low + span))


@pytest.mark.parametrize(
    "n, k",
    [(1, 1), (5, 5), (10, 1), (50, 7), (10000, 5000), (10001, 200), (10001, 201), (20000, 300), (20000, 500),
     (30000, 30000)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_is_the_set_numpy_choice_picks(n, k, seed):
    entropy = [seed, 0, 0xC7A05, 40]
    picked = pcg.Generator(entropy).sample(n, k)
    assert len(picked) == k
    assert picked == set(_numpy(entropy).choice(n, k, replace=False).tolist())
