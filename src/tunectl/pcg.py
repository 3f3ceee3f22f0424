"""numpy's PCG64 ``Generator``, the part the control plane draws from, in
the standard library. ``Generator(entropy, spawn_key)`` draws what
``numpy.random.Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key)))``
draws, bit for bit, so this module, not numpy, defines the random-search,
Hyperband and chaos streams; ``tests/test_pcg.py`` compares the two.

Seeding is ``SeedSequence``'s hash mix. Its constants do not depend on the
data, and the pool mixed from all entropy words but the last (for a
suggestion: its ``random_state``, padding and salt) is cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
POOL_SIZE = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _steps(init: int, mult: int, start: int, n: int) -> tuple[tuple[int, int], ...]:
    """The hash constant before and after each hash step from ``start`` on."""
    return tuple(
        (init * pow(mult, i, 1 << 32) & M32, init * pow(mult, i + 1, 1 << 32) & M32) for i in range(start, start + n)
    )


_POOL_STEPS = _steps(_INIT_A, _MULT_A, 0, POOL_SIZE * POOL_SIZE)
_STATE_STEPS = _steps(_INIT_B, _MULT_B, 0, 2 * POOL_SIZE)  # eight 32-bit words: four 64-bit ones


@lru_cache(maxsize=64)
def _word_steps(index: int) -> tuple[tuple[int, int], ...]:
    """The hash steps of entropy word ``POOL_SIZE + index``."""
    return _steps(_INIT_A, _MULT_A, POOL_SIZE * (POOL_SIZE + index), POOL_SIZE)


def _hash(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & M32
    return value ^ value >> 16


def _words(value: int | Sequence[int]) -> list[int]:
    """The 32-bit words numpy reads entropy as: least significant first."""
    if not isinstance(value, int):
        return [w for v in value for w in _words(v)]
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & M32]
    while value := value >> 32:
        words.append(value & M32)
    return words


def _mix_in(pool: Sequence[int], word: int, index: int) -> list[int]:
    """``pool`` with entropy word ``POOL_SIZE + index`` hashed into each of its words."""
    return [_mix(p, _hash(word, xor, mult)) for p, (xor, mult) in zip(pool, _word_steps(index))]


@lru_cache(maxsize=1024)
def _pool(words: tuple[int, ...]) -> tuple[int, ...]:
    """The pool ``words`` mix into: the first four hashed in and mixed
    through one another, then each further one into every pool word."""
    steps = iter(_POOL_STEPS)
    pool = [_hash(w, *next(steps)) for w in words[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(steps)))
    for index, word in enumerate(words[POOL_SIZE:]):
        pool = _mix_in(pool, word, index)
    return tuple(pool)


def generate_state(entropy: int | Sequence[int], spawn_key: Sequence[int] = ()) -> tuple[int, int, int, int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, uint64)``.
    Short entropy is padded with zeros, as numpy pads it before a spawn key
    and hashes zeros without one."""
    words = _words(entropy)
    words += [0] * (POOL_SIZE - len(words)) + _words(spawn_key)
    if len(words) == POOL_SIZE:
        pool: Sequence[int] = _pool(tuple(words))
    else:
        pool = _mix_in(_pool(tuple(words[:-1])), words[-1], len(words) - POOL_SIZE - 1)
    a, b, c, d, e, f, g, h = [_hash(p, xor, mult) for p, (xor, mult) in zip(pool * 2, _STATE_STEPS)]
    return a | b << 32, c | d << 32, e | f << 32, g | h << 32


class Generator:
    """A PCG64 (XSL-RR) stream seeded as numpy seeds one. ``next32`` keeps
    the upper half of the word it drew for its next call, as numpy does."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int | Sequence[int], spawn_key: Sequence[int] = ()):
        s0, s1, i0, i1 = generate_state(entropy, spawn_key)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & M128
        self._state = ((self._inc + (s0 << 64 | s1)) * PCG_MULT + self._inc) & M128
        self._half: int | None = None

    def next64(self) -> int:
        self._state = state = (self._state * PCG_MULT + self._inc) & M128
        x, rot = (state >> 64 ^ state) & M64, state >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def next32(self) -> int:
        if (half := self._half) is not None:
            self._half = None
            return half
        word = self.next64()
        self._half = word >> 32
        return word & M32

    def random(self) -> float:
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """A draw from ``[low, high)``, by numpy's unmasked Lemire method."""
        return low + self._bounded(high - 1 - low)

    def _bounded(self, top: int) -> int:
        """A draw from ``[0, top]``: none for one value, 32-bit words for a 32-bit top."""
        if top == 0:
            return 0
        draw, bits, mask = (self.next32, 32, M32) if top <= M32 else (self.next64, 64, M64)
        if top == mask:
            return draw()
        span = top + 1
        m = draw() * span
        if m & mask < span:
            threshold = (mask - top) % span
            while m & mask < threshold:
                m = draw() * span
        return m >> bits

    def sample(self, n: int, k: int) -> set[int]:
        """The ``k`` of ``range(n)`` that ``choice(n, k, replace=False)``
        picks: a shuffle of the tail of ``range(n)`` when ``n > 10000`` and
        ``k > n // 50``, else Floyd's algorithm. (numpy then shuffles the
        picks, which changes only their order.)"""
        if n > 10000 and k > n // 50:
            pool = list(range(n))
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = self._bounded(i)
                pool[i], pool[j] = pool[j], pool[i]
            return set(pool[n - k :])
        picked: set[int] = set()
        for j in range(n - k, n):
            value = self._bounded(j)
            picked.add(j if value in picked else value)
        return picked
