"""Synthetic objectives: determinism, progress laws, surrogate calibration."""

from __future__ import annotations

import numpy as np
import pytest

from tunectl.cluster.objectives import (
    eval_sim_objective,
    is_registered_function,
    mnist_surrogate,
    sphere,
)
from tunectl.resources import SimObjectiveDescriptor


def _rng(seed=0):
    return lambda: np.random.default_rng(seed)


def test_sphere_zero_at_origin_full_progress():
    descriptor = SimObjectiveDescriptor("sphere")
    value = eval_sim_objective(
        descriptor, (("x1", 0.0), ("x2", 0.0), ("x3", 0.0)), 1.0, _rng()
    )
    assert value == 0.0


def test_sphere_accepts_string_rendered_values():
    assert sphere({"x": "2.0", "opt": "sgd"}, 1.0) == 4.0


def test_sphere_descends_with_progress():
    descriptor = SimObjectiveDescriptor("sphere")
    early = eval_sim_objective(descriptor, (("x", 1.0),), 0.2, _rng())
    late = eval_sim_objective(descriptor, (("x", 1.0),), 1.0, _rng())
    assert early > late == 1.0


def test_budget_assignment_excluded_from_sphere():
    assert sphere({"x": 2.0, "budget": 81}, 1.0) == 4.0


def test_same_seed_same_value():
    descriptor = SimObjectiveDescriptor("sphere", noise_std_dev=0.5)
    a = eval_sim_objective(descriptor, (("x", 0.3),), 0.5, _rng(7))
    b = eval_sim_objective(descriptor, (("x", 0.3),), 0.5, _rng(7))
    c = eval_sim_objective(descriptor, (("x", 0.3),), 0.5, _rng(8))
    assert a == b != c


def test_unknown_function_is_an_error():
    with pytest.raises(ValueError):
        eval_sim_objective(SimObjectiveDescriptor("warp-drive"), (), 1.0, _rng())
    assert not is_registered_function("warp-drive")
    assert is_registered_function("mnist-surrogate")


def test_surrogate_argmax_in_reported_promising_region():
    # Brute force over the full wide domain: the optimum must sit at the SGD
    # optimizer with a learning rate below 0.3 (calibration target).
    best = (-1.0, None)
    for optimizer in ("sgd", "adam", "ftrl"):
        for layers in range(1, 6):
            for batch in range(10, 1001, 15):
                for lr_milli in range(0, 1001, 2):
                    lr = lr_milli / 1000.0
                    acc = mnist_surrogate(
                        {"lr": lr, "num-layers": layers, "batch-size": batch, "optimizer": optimizer},
                        1.0,
                    )
                    if acc > best[0]:
                        best = (acc, (optimizer, lr, layers, batch))
    accuracy, (optimizer, lr, layers, batch) = best
    assert optimizer == "sgd"
    assert lr < 0.3
    assert accuracy > 0.95


def test_surrogate_promising_band_matches_reported_shape():
    # Accuracy exceeds 95% in the sgd/low-lr region and not with other optimizers.
    good = mnist_surrogate({"lr": 0.22, "num-layers": 3, "batch-size": 800, "optimizer": "sgd"}, 1.0)
    assert good > 0.95
    adam = mnist_surrogate({"lr": 0.22, "num-layers": 3, "batch-size": 800, "optimizer": "adam"}, 1.0)
    assert adam < good
    high_lr = mnist_surrogate({"lr": 0.9, "num-layers": 3, "batch-size": 800, "optimizer": "sgd"}, 1.0)
    assert high_lr < 0.95


def test_surrogate_rises_with_progress():
    point = {"lr": 0.25, "num-layers": 3, "batch-size": 850, "optimizer": "sgd"}
    values = [mnist_surrogate(point, p) for p in (0.25, 0.5, 0.75, 1.0)]
    assert values == sorted(values)
