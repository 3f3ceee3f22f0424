"""Bayesian optimization: GP surrogate with expected improvement.

The surrogate is a Gaussian process with a squared-exponential kernel, unit
signal variance, and a small observation-noise jitter. A single isotropic
length scale is chosen by maximum marginal likelihood over a short log-grid.
The squared distances between the observed points, times -0.5, are computed
once and shared by every length scale of the grid.

The kernel is factored and solved by LAPACK's ``dpotrf`` and ``dpotrs``:
the routines ``cho_factor`` and ``cho_solve`` call, without their per-call
wrappers. Each kernel is built in one buffer and finished in place, with the
floating-point operations, in their order, of the plain NumPy expressions
and ``cho_factor``/``cho_solve``, so the fit and the scores have their bits
(``tests/test_suggest_bo.py`` compares them). One finiteness check,
``_check_finite``, stands in for scipy's ``check_finite``: LAPACK sees no
kernel, target or candidate kernel that it has not passed, and a non-finite
one raises the same ``ValueError``.

The acquisition (expected improvement) is maximized over a scrambled Sobol
pool of the unit hypercube, kept as one matrix. ``encode_unit_matrix`` takes
it straight to the kernel encoding with whole-column array operations:
ranges scaled, integers rounded and clamped, value lists one-hot. The
surrogate scores the whole pool at once, and only candidates taken in
expected-improvement order are decoded into assignment sets, until the batch
holds ``count`` sets not produced or observed before.

With too little history, or when every fit attempt fails numerically, the
batch falls back to random sampling.

BO runs no scipy subpackage's ``__init__``. ``load_scipy_extension`` loads
the two compiled modules that hold its three routines straight from their
files in the installed scipy: ``scipy.linalg._flapack`` (``dpotrf`` and
``dpotrs``) and ``scipy.special._special_ufuncs`` (``ndtr``, the normal
cdf). They are the objects ``scipy.linalg.lapack`` and ``scipy.special``
hand out, since those packages, imported later, find the modules already
loaded. These private module names are part of what the scipy 1.17.1 pin
covers; a scipy without them stops the import with an ``ImportError``. The
Sobol pool, and so the BO suggestion stream, is defined by the numpy port in
``sobol``, which reads the direction numbers scipy ships; it matches
``scipy.stats.qmc.Sobol`` bit for bit, but no longer depends on it.
"""

from __future__ import annotations

import importlib.util
import logging
import math
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from types import ModuleType

import numpy as np
import scipy

from ..resources import ObjectiveType
from .registry import (
    BUILTINS,
    AlgorithmPlugin,
    AssignmentSet,
    ObservationStatus,
    SuggestionRequest,
    SuggestionResult,
    assignment_key,
)
from . import randomsearch
from .arrays import decode_unit_vector, encode_assignments, encode_unit_matrix, request_generator
from .sobol import scrambled_sobol

logger = logging.getLogger(__name__)


def load_scipy_extension(name: str) -> ModuleType:
    """The compiled module ``scipy.<name>`` (``"linalg._flapack"``), loaded
    from its file in the installed scipy without running the ``__init__`` of
    its package, or an ``ImportError`` naming the file and the installed
    scipy when there is none. A module already loaded, by an earlier call or
    by importing its package, is returned as it is."""
    fullname = f"scipy.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    base = Path(scipy.__file__).parent.joinpath(*name.split("."))
    path = next((p for p in map(base.with_suffix, EXTENSION_SUFFIXES) if p.is_file()), None)
    if path is None:
        raise ImportError(
            f"{base.with_suffix(EXTENSION_SUFFIXES[0])} not found: scipy {scipy.__version__} has no "
            f"compiled {fullname}, which Bayesian optimization loads (it is pinned on scipy 1.17.1)",
            name=fullname,
        )
    loader = ExtensionFileLoader(fullname, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(fullname, path, loader=loader))
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


_flapack = load_scipy_extension("linalg._flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
ndtr = load_scipy_extension("special._special_ufuncs").ndtr

CANDIDATE_POOL = 1024
JITTER = 1e-6
LENGTH_SCALE_GRID = np.logspace(-1.3, 0.5, 10)
RNG_SALT = 2

# Minimum succeeded observations before fitting: dimension + this margin.
MIN_HISTORY_MARGIN = 2


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max(|a_i|^2 + |b_j|^2 - (2 a) @ b.T, 0)``, finished in the array it returns."""
    d = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
    np.subtract(d, 2.0 * a @ b.T, out=d)
    return np.maximum(d, 0.0, out=d)


def _check_finite(a: np.ndarray) -> None:
    """What ``check_finite=True`` checks in ``scipy.linalg``, with its error."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class GaussianProcess:
    """Minimal GP regressor on standardized targets."""

    def __init__(self, x: np.ndarray, y: np.ndarray, length_scale: float, neg_half: np.ndarray):
        """``neg_half`` is ``-0.5 * _sq_dists(x, x)``, which every length
        scale shares; Fortran order lets LAPACK factor the kernel in place."""
        self.x = x
        self.length_scale = length_scale
        k = np.divide(neg_half, length_scale**2)
        np.exp(k, out=k)
        k.flat[:: len(k) + 1] += JITTER
        _check_finite(k)
        self._factor, info = dpotrf(k, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
        _check_finite(y)
        self.alpha, _ = dpotrs(self._factor, y, lower=1)
        self.log_likelihood = (
            -0.5 * float(y @ self.alpha)
            - float(np.log(self._factor.diagonal()).sum())
            - 0.5 * len(y) * math.log(2.0 * math.pi)
        )

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k_star = _sq_dists(x_new, self.x)
        np.multiply(k_star, -0.5, out=k_star)
        np.divide(k_star, self.length_scale**2, out=k_star)
        np.exp(k_star, out=k_star)
        _check_finite(k_star)
        mean = k_star @ self.alpha
        v, _ = dpotrs(self._factor, k_star.T, lower=1)
        # k_star * v.T goes into v's storage, a C-ordered (m, n) view: the
        # layout, and so the order of the row sums, the streams are pinned on.
        prod = np.multiply(k_star, v.T, out=v.T)
        var = np.sum(prod, axis=1)
        np.subtract(1.0, var, out=var)
        np.maximum(var, 1e-12, out=var)
        return mean, np.sqrt(var, out=var)


def fit_gp(x: np.ndarray, y: np.ndarray) -> GaussianProcess | None:
    best: GaussianProcess | None = None
    neg_half = np.multiply(-0.5, _sq_dists(x, x), order="F")
    for ls in LENGTH_SCALE_GRID:
        try:
            gp = GaussianProcess(x, y, float(ls), neg_half)
        except np.linalg.LinAlgError:
            continue
        if not math.isfinite(gp.log_likelihood):
            continue
        if best is None or gp.log_likelihood > best.log_likelihood:
            best = gp
    return best


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    z = (best - mean) / std
    # The standard normal pdf in scipy.stats' own form, so EI keeps its bits.
    pdf = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)
    return (best - mean) * ndtr(z) + std * pdf


def _candidate_pool(request: SuggestionRequest) -> np.ndarray:
    """The Sobol points of the unit hypercube, one row per candidate."""
    rng = request_generator(request, len(request.produced), salt=RNG_SALT)
    return scrambled_sobol(len(request.experiment.parameters), CANDIDATE_POOL, rng)


def suggest(request: SuggestionRequest) -> SuggestionResult:
    params = request.experiment.parameters
    observed = [o for o in request.history if o.status is ObservationStatus.SUCCEEDED]

    def fallback(reason: str) -> SuggestionResult:
        if reason:
            logger.info("bayesianoptimization falling back to random: %s", reason)
        return SuggestionResult(assignment_sets=randomsearch.sample_batch(request, salt=RNG_SALT))

    if len(observed) < len(params) + MIN_HISTORY_MARGIN:
        return fallback("")

    sign = 1.0 if request.experiment.objective.type is ObjectiveType.MINIMIZE else -1.0
    x = encode_assignments(params, [o.assignments for o in observed])
    y_raw = sign * np.array([o.objective_value for o in observed], dtype=float)
    spread = float(np.std(y_raw))
    if spread < 1e-12:
        return fallback("degenerate objective history")
    y = (y_raw - float(np.mean(y_raw))) / spread

    gp = fit_gp(x, y)
    if gp is None:
        return fallback("surrogate fit failed for every length scale")

    unit = _candidate_pool(request)
    mean, std = gp.predict(encode_unit_matrix(params, unit))
    ei = expected_improvement(mean, std, best=float(np.min(y)))
    ranked = np.argsort(-ei, kind="stable")

    taken = request.produced_keys
    picked_keys: set[tuple] = set()
    picked: list[AssignmentSet] = []
    for i in ranked:
        cand = decode_unit_vector(params, unit[i])
        key = assignment_key(cand)
        if key in taken or key in picked_keys:
            continue
        picked_keys.add(key)
        picked.append(cand)
        if len(picked) == request.count:
            break
    # Pool exhausted by duplicates: accept the best ones rather than livelock.
    picked += [decode_unit_vector(params, unit[i]) for i in ranked[: request.count - len(picked)]]

    return SuggestionResult(assignment_sets=tuple(picked))


PLUGIN = AlgorithmPlugin(
    name="bayesianoptimization",
    allowed_settings=BUILTINS["bayesianoptimization"].settings,
    suggest=suggest,
)
