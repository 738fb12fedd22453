"""Deterministic, implementation-portable pseudo-randomness.

Parameter init and dataset shuffles must reproduce bit-for-bit across runs
and platforms, so everything here is built on SplitMix64 (the published
constants) instead of a library generator whose stream may change.

meltag ships no weight files: every registry model is its init stream, so a
changed bit in `normals` would change every registry weight, tag listing and
bench digest. The block draws therefore compute each element as a function of
its absolute index alone. The state after k steps is state + k*GOLDEN, so any
stretch of the stream can be mixed without walking the steps before it.
`uniforms` and `normals` fill their output in chunks of _CHUNK draws (pairs
for `normals`), whose few scratch arrays stay inside a core's L2 cache, with
in-place ufuncs and no full-length temporaries, so a draw's peak memory is its
output plus a fixed scratch. Chunking only decides where an element is
computed, never its value: each transcendental runs on a contiguous float64
chunk, as a one-shot call would, and is then stored at the element's place in
the output.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigInvalidError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_CHUNK = 1 << 15  # 256 KiB per scratch array
_K = np.arange(1, _CHUNK + 1, dtype=np.uint32)  # step numbers within a chunk
_ULP53 = 2.0**-53
_TWO_PI = 2.0 * np.pi


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def layer_seed(seed: int, layer_name: str) -> int:
    """Per-layer stream seed: mixes the model seed with the layer name."""
    return (fnv1a64(layer_name.encode("utf-8")) ^ (seed & _MASK)) & _MASK


def _draws53(base: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Top 53 bits of the outputs at states base + k*GOLDEN, k = 1..len(z), into z.

    t is scratch of z's length; uint64 arithmetic wraps silently.
    """
    z[...] = _K[: len(z)]
    z *= np.uint64(_GOLDEN)
    z += np.uint64(base & _MASK)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, 31, out=t)
    z ^= t
    z >>= 11
    return z


def _count(n: int) -> int:
    if n < 0:
        raise ConfigInvalidError(f"cannot draw a negative number of values: {n}")
    return n


class SplitMix64:
    """SplitMix64 stream with vectorized block generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53-bit resolution; the stream moves n steps."""
        out = np.empty(_count(n))
        start = self._state
        z, t = (np.empty(min(n, _CHUNK), np.uint64) for _ in range(2))
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            out[lo:hi] = _draws53(start + lo * _GOLDEN, z[: hi - lo], t[: hi - lo])
            out[lo:hi] *= _ULP53
        self._state = (start + n * _GOLDEN) & _MASK
        return out

    def normals(self, n: int) -> np.ndarray:
        """n standard-normal doubles via Box-Muller; the stream moves 2*ceil(n/2) steps.

        Pair i takes u1 from step i+1 and u2 from step pairs+i+1, and gives
        out[2i] = r*cos(theta) and out[2i+1] = r*sin(theta), with
        r = sqrt(-2 ln u1) and theta = 2 pi u2. Pairs are made in chunks of
        _CHUNK (see the module docstring); log, sqrt, cos and sin each run on
        a contiguous chunk, so every value has the bits of a one-shot
        evaluation.
        """
        pairs = (_count(n) + 1) // 2
        out = np.empty(2 * pairs)
        start = self._state
        # one array each, not one block: freeing a large block would raise
        # malloc's mmap threshold for the rest of the process. For the same
        # reason the draws are cast by assignment, not through ufuncs, which
        # allocate buffers.
        m = min(pairs, _CHUNK)
        scratch = [np.empty(m) for _ in range(3)] + [np.empty(m, np.uint64) for _ in range(2)]
        for lo in range(0, pairs, _CHUNK):
            hi = min(lo + _CHUNK, pairs)
            r, theta, trig, z, t = (a[: hi - lo] for a in scratch)
            r[...] = _draws53(start + lo * _GOLDEN, z, t)
            r += 1.0
            r *= _ULP53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta[...] = _draws53(start + (pairs + lo) * _GOLDEN, z, t)
            theta *= _ULP53
            theta *= _TWO_PI
            np.multiply(r, np.cos(theta, out=trig), out=out[2 * lo : 2 * hi : 2])
            np.multiply(r, np.sin(theta, out=trig), out=out[2 * lo + 1 : 2 * hi : 2])
        self._state = (start + 2 * pairs * _GOLDEN) & _MASK
        return out[:n]

    def randbelow(self, n: int) -> int:
        """Integer in [0, n). Modulo reduction; bias is irrelevant here,
        determinism is what matters."""
        if n < 1:
            raise ConfigInvalidError(f"randbelow needs a positive bound, got {n}")
        return self.next_uint64() % n

    def shuffled(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n)."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx
