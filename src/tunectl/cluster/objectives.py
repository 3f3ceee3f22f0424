"""Synthetic objectives for simulated trials.

Each function maps (assignments, progress fraction) to a deterministic metric
value; seeded noise is layered on top by the evaluator. Values move toward
the final objective as progress approaches 1, imitating a training curve.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable

from ..resources import BUDGET_PARAMETER, SimObjectiveDescriptor

if TYPE_CHECKING:  # experiment validation imports this module, without numpy
    import numpy as np


def _as_float(value: Any) -> float | None:
    """Coerce a native or string-rendered numeric value; None otherwise.

    Run specs carry assignments as round-trip-rendered strings, so float()
    recovers the exact original value.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _numeric_inputs(by_name: dict[str, Any]) -> list[float]:
    out = []
    for name, v in by_name.items():
        if name == BUDGET_PARAMETER:
            continue
        value = _as_float(v)
        if value is not None:
            out.append(value)
    return out


def sphere(by_name: dict[str, Any], progress: float) -> float:
    base = sum(x * x for x in _numeric_inputs(by_name))
    return base + 2.0 * (1.0 - progress)


def rosenbrock(by_name: dict[str, Any], progress: float) -> float:
    x = _numeric_inputs(by_name)
    base = sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(len(x) - 1))
    return base + 100.0 * (1.0 - progress)


def mnist_surrogate(by_name: dict[str, Any], progress: float) -> float:
    """Closed-form pseudo-accuracy over (lr, num-layers, batch-size, optimizer).

    Peaks with the SGD optimizer at a learning rate just below 0.3, mid-size
    layer counts, and batch sizes around 850; accuracy climbs with progress
    the way a short training run would.
    """
    lr = _as_float(by_name.get("lr", 0.24))
    layers = _as_float(by_name.get("num-layers", 3))
    batch = _as_float(by_name.get("batch-size", 850))
    if lr is None or layers is None or batch is None:
        raise ValueError("mnist-surrogate requires numeric lr, num-layers, and batch-size")
    optimizer = str(by_name.get("optimizer", "sgd")).lower()

    opt_term = {"sgd": 1.0, "adam": 0.90, "ftrl": 0.82}.get(optimizer, 0.75)
    lr_term = math.exp(-(((lr - 0.24) / 0.16) ** 2)) * (1.0 - math.exp(-lr / 0.02))
    layers_term = 1.0 - 0.03 * (layers - 3.5) ** 2
    batch_term = 1.0 - 0.08 * ((batch - 850.0) / 950.0) ** 2
    accuracy = 0.992 * opt_term * lr_term * layers_term * batch_term
    accuracy = min(max(accuracy, 0.0), 1.0)
    return accuracy * (0.30 + 0.70 * progress)


SIM_FUNCTIONS: dict[str, Callable[[dict[str, Any], float], float]] = {
    "sphere": sphere,
    "rosenbrock": rosenbrock,
    "mnist-surrogate": mnist_surrogate,
}


def is_registered_function(name: str) -> bool:
    return name in SIM_FUNCTIONS


def eval_sim_objective(
    descriptor: SimObjectiveDescriptor,
    assignments: tuple[tuple[str, Any], ...],
    progress_fraction: float,
    rng: Callable[[], np.random.Generator],
) -> float:
    """Deterministic base value plus seeded Gaussian noise. ``rng`` builds
    the noise generator; it is called only when the descriptor has noise,
    so a noiseless point builds none."""
    try:
        fn = SIM_FUNCTIONS[descriptor.function_name]
    except KeyError:
        raise ValueError(f"unknown simulated objective '{descriptor.function_name}'") from None
    value = fn(dict(assignments), progress_fraction)
    if descriptor.noise_std_dev > 0:
        value += descriptor.noise_std_dev * float(rng().standard_normal())
    return value
