"""Scrambled Sobol points of the unit hypercube, in numpy.

A port of ``scipy.stats.qmc.Sobol(d, scramble=True, seed=rng).random(n)``
that gives the same bytes without importing ``scipy.stats``. It reads the
Joe–Kuo direction numbers that scipy ships (``poly`` and ``vinit``) once,
when this module loads, so no ``suggest`` call pays for the file, and
builds the unscrambled 30-bit direction matrix of each dimension count
once.

Each draw spawns one child generator from the caller's ``SeedSequence``, as
scipy's engine does, so the caller's generator is left as scipy would leave
it. From the child it draws the digital shift first, then the
lower-triangular bits of the linear matrix scramble (LMS). The scrambled
directions are ``L @ v (mod 2)`` on the bits of each direction number, most
significant bit first, and the points follow the Gray-code order: point
``k`` is the shift XORed with the direction of the lowest zero bit of every
index below ``k``.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

BITS = 30
_SCALE = 1.0 / 2**BITS
_LSB_FIRST = 2 ** np.arange(BITS, dtype=np.uint32)
_MSB_SHIFTS = np.arange(BITS - 1, -1, -1)
_MSB_FIRST = 2.0**_MSB_SHIFTS

with np.load(Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz") as _npz:
    _POLY = _npz["poly"]
    _VINIT = _npz["vinit"]
MAXDIM = len(_POLY)


@lru_cache(maxsize=None)
def _directions(d: int) -> np.ndarray:
    """The bits of the unscrambled direction numbers, most significant first:
    ``(d, direction, bit)`` as read-only float64 0/1, ready for a BLAS
    matmul whose sums stay exact."""
    if d > MAXDIM:
        raise ValueError(f"Maximum supported dimensionality is {MAXDIM}.")
    v = np.zeros((d, BITS), dtype=np.int64)
    v[:1] = 1
    for row in range(1, d):
        p = int(_POLY[row])
        m = p.bit_length() - 1
        v[row, :m] = _VINIT[row, :m]
        for j in range(m, BITS):
            new = int(v[row, j - m])
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= int(v[row, j - k - 1]) << (k + 1)
            v[row, j] = new
    v <<= _MSB_SHIFTS
    bits = ((v[:, :, None] >> _MSB_SHIFTS) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


def scrambled_sobol(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first ``n`` points of a LMS+shift scrambled Sobol sequence in
    ``d`` dimensions, ``(n, d)`` float64, seeded by a child of ``rng``."""
    bits = _directions(d)
    child = np.random.Generator(type(rng.bit_generator)(rng.bit_generator.seed_seq.spawn(1)[0]))
    shift = np.dot(child.integers(2, size=(d, BITS), dtype=np.uint32), _LSB_FIRST)
    ltm = np.tril(child.integers(2, size=(d, BITS, BITS), dtype=np.uint32))
    ltm[:, np.arange(BITS), np.arange(BITS)] = 1
    scrambled = np.matmul(bits, ltm.transpose(0, 2, 1).astype(np.float64)) % 2
    sv = (scrambled @ _MSB_FIRST).astype(np.uint32)
    # The lowest zero bit of k - 1 is the lowest set bit of k.
    k = np.arange(1, n, dtype=np.int64)
    lowest_zero = np.frexp(k & -k)[1] - 1
    steps = np.concatenate([shift[None, :], sv[:, lowest_zero].T])
    return np.bitwise_xor.accumulate(steps, axis=0) * _SCALE
