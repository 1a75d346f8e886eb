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

``uniforms(n)`` draws the same n floats as n calls of ``random()``, and
leaves the generator where those calls would, but steps up to ``_LANES``
copies of the generator side by side as numpy uint64 lanes. Lane j starts
j * m draws ahead (m = ceil(n / _LANES)) and makes draws j * m .. j * m + m - 1.
The state update is linear over GF(2) (Haramoto et al., "Efficient Jump
Ahead for F2-Linear Random Number Generators", 2008): the jump by m draws
is the 256 x 256 bit matrix whose column k is unit state k stepped m times,
found by stepping the 256 unit states as lanes, and each lane's start is
that matrix applied to the previous lane's start. The scalar ``next_u64``
is the oracle the lanes are checked against (``selftest.check_uniform_lanes``).
"""

import math

import numpy as np

from .errors import integer, zeros

SEED = integer(0)  # the seed argument of every seeded library function
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANES = 256  # generators that uniforms steps side by side


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
        """[self.random() for _ in range(n)] as a float64 array, drawn in
        lanes (see the module docstring). The draws' buffer is made before
        the lanes' starts, whose loop takes m steps, so an n whose draws
        cannot be held fails at once (SizeError or MemoryError)."""
        if n <= 0:
            return np.zeros(0)
        m = -(-n // _LANES)  # draws per lane
        lanes = -(-n // m)
        s1 = zeros((m, lanes), "uniforms' draw buffer", np.uint64)
        s = list(_lane_starts(self._s, m, lanes).T)
        tail = n - (lanes - 1) * m  # the draws of the last lane that are kept
        for i in range(m):
            s1[i] = s[1]
            _step(s)
            if i + 1 == tail:
                self._s = [int(w[-1]) for w in s]
        x = s1.T.ravel()[:n]  # draw j * m + i is lane j's i-th
        x *= 5
        x = (x << 7) | (x >> 57)
        x *= 9
        return (x >> 11) * 1.1102230246251565e-16  # 2**-53

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


def _step(s):
    """One xoshiro256** state update of every lane: s holds the four state
    words as uint64 arrays, which wrap as the masked ints of next_u64 do."""
    s0, s1, s2, s3 = s
    t = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[3] = (s3 << 45) | (s3 >> 19)


def _lane_starts(state, m, lanes):
    """(lanes, 4) uint64: the state words of lane j, state stepped j * m times."""
    k = np.arange(256)
    unit = np.zeros((4, 256), dtype=np.uint64)  # unit[:, k] is the state with only bit k set
    unit[k // 64, k] = np.left_shift(np.uint64(1), (k % 64).astype(np.uint64))
    unit = list(unit)
    for _ in range(m):
        _step(unit)
    # The jump by m draws, a byte at a time: jump[b, v] is the XOR of the
    # stepped unit states of the set bits of value v at byte b, and bit i of
    # byte b (of the little-endian words) is unit state 8b + i.
    images = np.stack(unit, axis=1).reshape(32, 8, 4)
    jump = np.zeros((32, 256, 4), dtype=np.uint64)
    for i in range(8):
        jump[:, 1 << i:2 << i] = jump[:, :1 << i] ^ images[:, i, None]
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    byte = np.arange(32)
    for j in range(1, lanes):
        octets = starts[j - 1].astype("<u8").view(np.uint8)
        starts[j] = np.bitwise_xor.reduce(jump[byte, octets], axis=0)
    return starts
