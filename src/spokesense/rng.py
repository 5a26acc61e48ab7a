"""Deterministic random number generation.

A counter-based variant of the splitmix64 generator: draw ``i`` (0-based)
of a stream with seed ``s`` is ``mix64(s + (i + 1) * GOLDEN)`` where
``GOLDEN`` is the 64-bit golden-ratio increment.  Because each draw is a
pure function of ``(seed, i)``, blocks of any size can be produced with
vectorized arithmetic and the stream is identical regardless of how it is
chunked.  All arithmetic is modulo 2**64: scalar and block draws run the
one ``mix64``, on a Python int or on a uint64 array; an array is mixed in
one copy, in place.  Seeds, bounds and sizes must be integers.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, _count, _seed

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2**-53; (u64 >> 11) + 1 scaled by this lands in (0, 1].
_U53_SCALE = 1.0 / (1 << 53)


def mix64(value):
    """splitmix64 finalizer on an int, or elementwise on a uint64 array, whose
    arithmetic wraps (never on a numpy uint64 scalar: its overflow warns).
    An array is mixed in one copy, in place; the argument is left as it was."""
    z = value & _MASK
    z ^= z >> 30
    z *= _MIX1
    z &= _MASK
    z ^= z >> 27
    z *= _MIX2
    z &= _MASK
    z ^= z >> 31
    return z


def derive_seed(seed: int, *salts: int | str) -> int:
    """Fold integer or string salts into ``seed`` to name an independent substream."""
    h = mix64(_seed(seed))
    for salt in salts:
        if isinstance(salt, str):
            for ch in salt:
                h = mix64(h ^ ord(ch))
        else:
            h = mix64(h ^ _seed(salt, "salt"))
    return h


class Prng:
    """Counter-based splitmix64 stream with uniform and Gaussian output.

    Scalar and block methods consume the same underlying counter, so a
    sequence of draws does not depend on the block sizes used to obtain it.
    """

    def __init__(self, seed: int):
        self._seed = _seed(seed)
        self._counter = 0

    @property
    def counter(self) -> int:
        return self._counter

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws as a uint64 array."""
        n = _count(n, "block size", 0)
        base = self._counter
        self._counter += n
        return mix64(np.arange(base + 1, base + n + 1, dtype=np.uint64) * _GOLDEN + self._seed)

    def u64(self) -> int:
        self._counter += 1
        return mix64(self._seed + self._counter * _GOLDEN)

    def below(self, n: int) -> int:
        """Integer in [0, n) for an integer bound ``n`` >= 1."""
        return self.u64() % _count(n, "bound", 1)

    def uniform_block(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in the half-open interval (0, 1]."""
        return ((self.u64_block(n) >> 11) + 1.0) * _U53_SCALE  # 53 bits: exact in a double

    def uniform(self) -> float:
        return ((self.u64() >> 11) + 1) * _U53_SCALE

    def gaussian_block(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal draws via the Box-Muller transform.

        Consumes ``2 * ceil(n / 2)`` raw draws so the counter advance is a
        function of ``n`` alone.  The cosines and sines are scaled in place,
        so a block holds about twice its output at its peak.
        """
        n = _count(n, "block size", 0)
        pairs = (n + 1) // 2
        radius = np.sqrt(-2.0 * np.log(self.uniform_block(pairs)))
        angle = 2.0 * np.pi * self.uniform_block(pairs)
        cos = np.cos(angle)
        cos *= radius
        radius *= np.sin(angle, out=angle)
        del angle
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = cos
        out[1::2] = radius
        return out[:n]

    def shuffle(self, items: list | np.ndarray) -> None:
        """In-place Fisher-Yates shuffle of a list or a one-dimensional array."""
        if not (isinstance(items, list) or isinstance(items, np.ndarray) and items.ndim == 1):
            kind = type(items).__name__
            raise ValidationError(f"shuffle needs a list or a 1-D array, got a {kind}")
        n = len(items)
        if n < 2:
            return
        # Draw m picks a place below n - m, as below() would, in one block.
        picks = self.u64_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> np.ndarray:
        idx = np.arange(_count(n, "permutation size", 0))
        self.shuffle(idx)
        return idx
