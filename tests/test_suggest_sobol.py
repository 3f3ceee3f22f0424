"""The numpy Sobol port and the scipy.stats-free expected improvement give
the same bits as the scipy.stats code they replaced."""

from __future__ import annotations

import numpy as np
import pytest

from tunectl.suggest import sobol
from tunectl.suggest.bayesopt import CANDIDATE_POOL, expected_improvement


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
def test_port_pool_has_the_bytes_of_scipy_sobol(d):
    from scipy.stats import qmc

    for seed in range(30):
        theirs_rng = np.random.default_rng(seed)
        ours_rng = np.random.default_rng(seed)
        theirs = qmc.Sobol(d=d, scramble=True, seed=theirs_rng).random(CANDIDATE_POOL)
        ours = sobol.scrambled_sobol(d, CANDIDATE_POOL, ours_rng)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape == (CANDIDATE_POOL, d)
        assert ours.tobytes() == theirs.tobytes(), (seed, d)
        # The parent generator is left as scipy leaves it: one child spawned
        # from its SeedSequence, and no draws of its own.
        ours_seq, theirs_seq = ours_rng.bit_generator.seed_seq, theirs_rng.bit_generator.seed_seq
        assert ours_seq.n_children_spawned == theirs_seq.n_children_spawned == 1
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


def test_direction_numbers_are_built_once_and_read_only():
    first = sobol._directions(4)
    assert sobol._directions(4) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0, 0] = 1.0


def test_too_many_dimensions_are_rejected():
    with pytest.raises(ValueError, match="dimensionality"):
        sobol.scrambled_sobol(sobol.MAXDIM + 1, 2, np.random.default_rng(0))


def test_expected_improvement_equals_the_norm_formula_bit_for_bit():
    from scipy.stats import norm

    magnitudes = np.concatenate([np.linspace(0.0, 10.0, 2001), np.logspace(1, 300, 300)])
    z = np.concatenate([-magnitudes[::-1], magnitudes])
    stds = np.array([1e-6, 1e-3, 0.37, 1.0, 2.5, 40.0])
    for std in stds:
        mean = -z * std  # best = 0 gives z = (best - mean) / std
        std_arr = np.full_like(mean, std)
        with np.errstate(over="ignore"):  # z**2 overflows to inf for |z| near 1e300
            expected = (0.0 - mean) * norm.cdf((0.0 - mean) / std_arr) + std_arr * norm.pdf(
                (0.0 - mean) / std_arr
            )
            got = expected_improvement(mean, std_arr, best=0.0)
        assert got.tobytes() == expected.tobytes(), std
