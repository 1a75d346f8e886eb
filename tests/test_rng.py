import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fofkit import selftest
from fofkit.rng import _LANES, Xoshiro256StarStar

# The first eight next_u64 outputs of a few (seed, stream) pairs, as the
# scalar generator gave them before uniforms was drawn in lanes.
FIRST_OUTPUTS = {
    (0, 0): [0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
             0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f],
    (0, 1): [0x422ea740d0977210, 0xe062b061b42e2928, 0x5a071fc5930841b6, 0x01334ef8ed3cc2bd,
             0xe45cbd6a2d9e96db, 0x3bc1fe841a5f292f, 0x60001d95ebbbd8e6, 0xa0aee00b5b303762],
    (7, 2): [0xadb16112f6ac5b9d, 0xfb353f22417eab89, 0xc142bc0a7dc1acdf, 0x8f223bcae56c55f8,
             0x74c21066d760d696, 0xfbe552475ac5dd08, 0x1c1e881b130c9ed2, 0x2d189f93c013b83e],
    (2**64 - 1, 0): [0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e,
                     0xbf658d7e065f3c2f, 0x913593fda1bca32a, 0xbb535e93941ba525,
                     0x5ecda415c3c6dfde, 0xc487398fc9de9ae2],
    (123456789, 3): [0x9446f862787de9c9, 0xb1fb5fcc23dd8bde, 0x137cd1f411eaef30,
                     0x78a27c4e8fb49346, 0xba2db7e173bb660b, 0x2f06eeac617f3a8e,
                     0xab0e55c373f4256e, 0x887c828cb03b7539],
}


@pytest.mark.parametrize("seed, stream", list(FIRST_OUTPUTS))
def test_first_outputs_are_pinned(seed, stream):
    rng = Xoshiro256StarStar(seed, stream)
    assert [rng.next_u64() for _ in range(8)] == FIRST_OUTPUTS[seed, stream]


def test_uniform_lanes_match_the_scalar_stream():
    assert selftest.check_uniform_lanes()["ok"]


# Sizes below one lane's worth, and on and next to the sizes where the draws
# per lane (ceil(n / _LANES)) or the number of lanes in use change.
_NEAR_BOUNDARY = st.builds(lambda k, d: max(0, k * _LANES + d), st.integers(0, 19),
                           st.integers(-2, 2))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**16),
       n=st.one_of(st.integers(0, 5000), _NEAR_BOUNDARY),
       spare=st.booleans())
@example(seed=2**64 - 1, stream=0, n=_LANES, spare=True)
@example(seed=0, stream=0, n=_LANES + 1, spare=False)
def test_uniforms_are_scalar_draws(seed, stream, n, spare):
    drawn, scalar = Xoshiro256StarStar(seed, stream), Xoshiro256StarStar(seed, stream)
    if spare:  # a pending second normal, which uniforms must leave alone
        assert drawn.normal() == scalar.normal()
    got = drawn.uniforms(n)
    want = np.array([scalar.random() for _ in range(n)], dtype=np.float64)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # The generator goes on as n scalar draws leave it.
    assert [drawn.random(), drawn.below(7), drawn.normal(), drawn.normal()] == \
        [scalar.random(), scalar.below(7), scalar.normal(), scalar.normal()]
