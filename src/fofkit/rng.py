"""Deterministic, platform-independent PRNG for seeded experiment artifacts.

Occlusion masks, surface samples and noise fills must reproduce bit-exactly
across machines, so randomness is drawn from a fully specified generator
instead of a library default whose stream may change between versions:

* state seeding: splitmix64 applied to ``seed + stream * 0x9E3779B97F4A7C15``
  (mod 2^64), four consecutive outputs become the xoshiro state;
* stream: xoshiro256** (rotl(s1 * 5, 7) * 9 output, standard state update);
* floats: ``(next_u64() >> 11) * 2^-53`` uniform in [0, 1);
* normals: Box-Muller on two uniforms, pairs cached.

Distinct ``stream`` values give decorrelated generators for the same seed and
are used for retry/reseed loops.
"""

import math

from .errors import integer

SEED = integer(0)  # the seed argument of every seeded library function
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix_next(state):
    state = (state + _GOLDEN) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** stream seeded via splitmix64."""

    def __init__(self, seed, stream=0):
        state = (int(seed) + int(stream) * _GOLDEN) & _MASK
        s = []
        for _ in range(4):
            state, out = _splitmix_next(state)
            s.append(out)
        self._s = s
        self._spare_normal = None

    def next_u64(self):
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self):
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def uniforms(self, n):
        return [self.random() for _ in range(n)]

    def below(self, n):
        """Integer in [0, n). Negligible modulo bias for n << 2**53."""
        return min(int(self.random() * n), n - 1)

    def normal(self):
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] so log() is finite.
        u1 = (self.next_u64() >> 11) * 1.1102230246251565e-16 + 1.1102230246251565e-16
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, n):
        return [self.normal() for _ in range(n)]
