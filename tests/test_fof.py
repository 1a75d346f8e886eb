import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofkit.errors import DomainError, ShapeError
from fofkit.fof import (BasisConfig, FourierField, IntervalList, basis_eval,
                        decode_grid, decode_ray, depth_samples, interval_terms,
                        intervals_to_coeffs, parseval_energy)
from fofkit.selftest import (coeffs_by_quadrature, quadrature_grid,
                             random_snapped_intervals)


class TestBasisConfig:
    def test_channels(self):
        assert BasisConfig(0).channels == 1
        assert BasisConfig(15).channels == 31

    def test_default_order(self):
        assert BasisConfig().order == 15

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            BasisConfig(-1)


class TestBasisEval:
    def test_z0_n1(self):
        assert np.allclose(basis_eval(0.0, BasisConfig(1)), [1.0, 1.0, 0.0], atol=1e-15)

    def test_z1_n1(self):
        b = basis_eval(1.0, BasisConfig(1))
        assert b[0] == 1.0
        assert b[1] == pytest.approx(-1.0, abs=1e-15)
        assert b[2] == pytest.approx(0.0, abs=1e-15)

    def test_z_half_n2(self):
        # [1, cos(pi/2), sin(pi/2), cos(pi), sin(pi)]
        b = basis_eval(0.5, BasisConfig(2))
        assert np.allclose(b, [1.0, 0.0, 1.0, -1.0, 0.0], atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            basis_eval(1.5, BasisConfig(1))
        with pytest.raises(DomainError):
            basis_eval(-1.0000001, BasisConfig(1))

    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_alternating_cos_sin_layout(self, z):
        cfg = BasisConfig(3)
        b = basis_eval(z, cfg)
        for n in range(1, 4):
            assert b[2 * n - 1] == np.cos(n * np.pi * z)
            assert b[2 * n] == np.sin(n * np.pi * z)


class TestIntervalList:
    def test_empty_ok(self):
        assert len(IntervalList()) == 0

    def test_rejects_reversed(self):
        with pytest.raises(DomainError):
            IntervalList([(0.5, 0.2)])

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            IntervalList([(-0.5, 0.1), (0.0, 0.5)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            IntervalList([(-1.5, 0.0)])

    def test_total_length(self):
        assert IntervalList([(-1.0, -0.5), (0.0, 0.25)]).total_length() == pytest.approx(0.75)


class TestIntervalsToCoeffs:
    def test_empty_all_zero(self):
        assert np.array_equal(intervals_to_coeffs(IntervalList(), BasisConfig(5)),
                              np.zeros(11))

    def test_full_ray(self):
        # Whole-axis occupancy: harmonic terms integrate to zero by periodicity.
        c = intervals_to_coeffs(IntervalList([(-1.0, 1.0)]), BasisConfig(2))
        assert c[0] == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(c[1:], 0.0, atol=1e-15)

    def test_half_interval_n1(self):
        c = intervals_to_coeffs(IntervalList([(0.0, 0.5)]), BasisConfig(1))
        assert c[0] == pytest.approx(0.25)
        assert c[1] == pytest.approx(1.0 / np.pi, abs=1e-12)
        assert c[2] == pytest.approx(1.0 / np.pi, abs=1e-12)

    def test_against_quadrature_oracle(self, rng):
        # Endpoint-snapped trapezoid quadrature of the indicator (oracle).
        z = quadrature_grid()
        cfg = BasisConfig(15)
        for _ in range(50):
            idx = random_snapped_intervals(rng, z)
            exact = intervals_to_coeffs(IntervalList(z[idx]), cfg)
            quad = coeffs_by_quadrature(idx, cfg, z)
            assert np.max(np.abs(exact - quad)) <= 1e-6

    def test_linearity_disjoint_union(self, rng):
        cfg = BasisConfig(15)
        for _ in range(50):
            pts = np.sort(rng.uniform(-1, 1, size=8))
            iv_a = IntervalList([(pts[0], pts[1]), (pts[4], pts[5])])
            iv_b = IntervalList([(pts[2], pts[3]), (pts[6], pts[7])])
            union = IntervalList(np.sort(np.vstack([iv_a.intervals, iv_b.intervals]), axis=0))
            lhs = intervals_to_coeffs(union, cfg)
            rhs = intervals_to_coeffs(iv_a, cfg) + intervals_to_coeffs(iv_b, cfg)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def intervals_to_coeffs_by_interval(iv, cfg):
    """Reference: intervals_to_coeffs as it was when it wrote the closed form
    out itself, one update per interval in ascending order, kept as it was."""
    coeffs = np.zeros(cfg.channels, dtype=np.float64)
    freqs = cfg.freqs()
    for a, b in IntervalList(iv).intervals:
        coeffs[0] += (b - a) / 2.0
        coeffs[1::2] += (np.sin(freqs * b) - np.sin(freqs * a)) / freqs
        coeffs[2::2] += (np.cos(freqs * a) - np.cos(freqs * b)) / freqs
    return coeffs


# Disjoint ascending intervals: sorted distinct depths, paired in order.
_INTERVALS = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=12, unique=True).map(
    lambda zs: np.sort(np.array(zs[:len(zs) // 2 * 2], dtype=np.float64)).reshape(-1, 2))


class TestIntervalTerms:
    """intervals_to_coeffs and the batched encoder share interval_terms; the
    sum of its rows must equal the per-interval closed form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(iv=_INTERVALS, order=st.integers(0, 31))
    def test_matches_per_interval_loop(self, iv, order):
        cfg = BasisConfig(order)
        got = intervals_to_coeffs(iv, cfg)
        assert np.array_equal(bits(got), bits(intervals_to_coeffs_by_interval(iv, cfg)))

    def test_touching_and_full_range_intervals(self):
        cfg = BasisConfig(15)
        for iv in ([(-1.0, 1.0)], [(-1.0, -0.25), (-0.25, 0.5), (0.5, 1.0)],
                   [(-5e-324, 5e-324)], [(0.3, 0.3 + 2.0 ** -50)]):
            got = intervals_to_coeffs(iv, cfg)
            assert np.array_equal(bits(got), bits(intervals_to_coeffs_by_interval(iv, cfg)))

    def test_one_row_per_interval(self, rng):
        cfg = BasisConfig(4)
        iv = np.sort(rng.uniform(-1, 1, size=10)).reshape(-1, 2)
        terms = interval_terms(iv[:, 0], iv[:, 1], cfg)
        assert terms.shape == (5, cfg.channels)
        for row, (a, b) in zip(terms, iv):
            assert np.array_equal(bits(row), bits(intervals_to_coeffs([(a, b)], cfg)))
        assert interval_terms(np.empty(0), np.empty(0), cfg).shape == (0, cfg.channels)


class TestDecodeRay:
    def test_constant_field(self):
        assert decode_ray([1.0, 0.0, 0.0], 0.3) == 1.0

    def test_zero_field(self):
        assert decode_ray(np.zeros(31), 0.7) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            decode_ray([1.0, 0.0], 0.0)
        with pytest.raises(ShapeError):
            decode_ray(np.zeros(5), 0.0, BasisConfig(15))

    def test_interval_sign(self):
        # Brute-force series summation oracle for [(0, 0.5)] at N=15.
        c = intervals_to_coeffs(IntervalList([(0.0, 0.5)]), BasisConfig(15))
        assert decode_ray(c, 0.25) > 0.5
        assert decode_ray(c, 0.75) < 0.5

    def test_sign_correctness_random(self, rng):
        # Intervals of length >= 0.2; points >= 0.05 away from boundaries.
        cfg = BasisConfig(15)
        for _ in range(100):
            a = rng.uniform(-1.0, 0.7)
            b = a + rng.uniform(0.2, min(0.9, 1.0 - a))
            c = intervals_to_coeffs(IntervalList([(a, b)]), cfg)
            inner = rng.uniform(a + 0.05, b - 0.05)
            assert decode_ray(c, inner) > 0.5
            if a - 0.05 >= -1.0:
                assert decode_ray(c, rng.uniform(-1.0, a - 0.05)) < 0.5
            if b + 0.05 <= 1.0:
                assert decode_ray(c, rng.uniform(b + 0.05, 1.0)) < 0.5


class TestDecodeGrid:
    def test_constant_one(self):
        field = np.zeros((1, 1, 31))
        field[..., 0] = 1.0
        assert np.array_equal(decode_grid(FourierField(field), 4), np.ones((1, 1, 4)))

    def test_all_zero(self):
        assert np.array_equal(decode_grid(FourierField(np.zeros((2, 3, 31))), 5),
                              np.zeros((2, 3, 5)))

    def test_depth_res_validation(self):
        with pytest.raises(DomainError):
            decode_grid(FourierField(np.zeros((1, 1, 3))), 1)

    def test_matches_decode_ray_exactly(self, rng):
        field = FourierField(rng.normal(size=(4, 3, 31)))
        depth_res = 17
        grid = decode_grid(field, depth_res)
        zs = depth_samples(depth_res)
        for r in range(4):
            for c in range(3):
                for k in range(depth_res):
                    assert grid[r, c, k] == decode_ray(field.data[r, c], zs[k])


def channel_order_decode(data, depth_res):
    """Every pixel decoded by a dense loop that adds the channels in order."""
    basis = basis_eval(depth_samples(depth_res), BasisConfig((data.shape[2] - 1) // 2))
    out = np.zeros(data.shape[:2] + (depth_res,))
    for c in range(data.shape[2]):
        out += data[:, :, c, None] * basis[None, None, :, c]
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestSparseDecode:
    """decode_grid decodes only pixels with a non-zero coefficient; the
    result must equal the dense loop and decode_ray bit for bit."""

    @staticmethod
    def mixed_field(rng):
        data = rng.normal(size=(9, 7, 31))
        data[rng.random((9, 7)) < 0.5] = 0.0
        data[0, 0] = -0.0                      # negative zeros only
        data[0, 1] = 0.0
        data[0, 1, 5] = 5e-324                 # one subnormal coefficient
        data[0, 2] = -0.0
        data[0, 2, 0] = -2.2e-308              # subnormal DC
        data[1, 1, ::3] = -0.0                 # negative zeros in a live pixel
        return data

    def check(self, data, depth_res, rays=None):
        grid = decode_grid(FourierField(data), depth_res)
        assert np.array_equal(bits(grid), bits(channel_order_decode(data, depth_res)))
        zs = depth_samples(depth_res)
        h, w = data.shape[:2]
        pixels = [(r, c) for r in range(h) for c in range(w)] if rays is None else rays
        for r, c in pixels:
            ray = [decode_ray(data[r, c], z) for z in zs]
            assert np.array_equal(bits(grid[r, c]), bits(ray))
        return grid

    @pytest.mark.parametrize("depth_res", [2, 17])
    def test_mixed_zero_negative_zero_and_subnormal(self, rng, depth_res):
        grid = self.check(self.mixed_field(rng), depth_res)
        assert not np.signbit(grid[0, 0]).any()

    def test_all_zero_is_positive_zero(self):
        data = np.zeros((3, 4, 7))
        data[1] = -0.0
        grid = self.check(data, 5)
        assert not grid.any() and not np.signbit(grid).any()

    def test_single_live_pixel(self, rng):
        data = np.zeros((6, 5, 31))
        data[4, 2] = rng.normal(size=31)
        self.check(data, 2)
        self.check(data, 33)

    def test_more_live_pixels_than_a_chunk(self, rng):
        # 37 x 29 = 1073 live pixels: two full chunks of 512 and one of 49.
        data = np.zeros((40, 29, 7))
        data[3:] = rng.normal(size=(37, 29, 7))
        data[3:, :, 2] = -0.0
        rays = [(3, 0), (20, 14), (21, 0), (39, 28)]
        self.check(data, 2, rays)
        self.check(data, 9, rays)


class TestParseval:
    def test_constant(self):
        assert parseval_energy([1.0, 0.0, 0.0]) == 2.0

    def test_zeros(self):
        assert parseval_energy(np.zeros(7)) == 0.0

    def test_half_interval_value(self):
        c = intervals_to_coeffs(IntervalList([(0.0, 0.5)]), BasisConfig(1))
        expected = 2 * 0.25 ** 2 + 2 * (1 / np.pi) ** 2
        assert parseval_energy(c) == pytest.approx(expected, abs=1e-12)
        assert parseval_energy(c) <= 0.5  # Bessel: bounded by occupied length

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_bessel_bound(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.uniform(-1, 1, size=4))
        if pts[0] == pts[1] or pts[2] == pts[3]:
            return
        iv = IntervalList([(pts[0], pts[1]), (pts[2], pts[3])])
        for order in (1, 5, 15, 40):
            energy = parseval_energy(intervals_to_coeffs(iv, BasisConfig(order)))
            assert energy <= iv.total_length() + 1e-12


class TestFourierField:
    def test_rejects_nan(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            FourierField(data)

    def test_rejects_even_channels(self):
        with pytest.raises(ShapeError):
            FourierField(np.zeros((2, 2, 4)))

    def test_channel0_range_after_encoding(self, sphere_field):
        c0 = sphere_field.data[:, :, 0]
        assert c0.min() >= 0.0
        assert c0.max() <= 1.0


class TestSuperlevelVolume:
    def test_sphere_voxel_count_matches_volume(self, sphere_field, frame128):
        # 0.5-superlevel set of the decoded grid counts voxels matching the
        # analytic ball volume within 3%
        grid = decode_grid(sphere_field, 128)
        voxel_vol = (2.0 / 128) * (2.0 / 128) * (2.0 / 127)
        measured = float((grid > 0.5).sum()) * voxel_vol
        analytic = 4.0 / 3.0 * np.pi * 0.6 ** 3
        assert measured == pytest.approx(analytic, rel=0.03)
