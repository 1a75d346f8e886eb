import numpy as np
import pytest

from fofkit.errors import DomainError, ShapeError
from fofkit.fof import FourierField
from fofkit.occlusion import MaskPair, OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.render import render_silhouette
from fofkit.shapes import make_sphere


@pytest.fixture(scope="module")
def body(frame128):
    return render_silhouette(make_sphere(0.6, 3), frame128)


class TestOccluderSpec:
    def test_ratio_range(self):
        with pytest.raises(DomainError):
            OccluderSpec("rectangle", 0, 0.96)
        with pytest.raises(DomainError):
            OccluderSpec("rectangle", 0, -0.1)

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            OccluderSpec("blob", 0, 0.5)


class TestSynthesize:
    def test_zero_ratio(self, body):
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 0, 0.0))
        assert not pair.M.any()
        assert np.array_equal(pair.V, body)

    def test_target_band(self, body):
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 7, 0.4))
        achieved = pair.M.sum() / body.sum()
        assert 0.38 <= achieved <= 0.42

    def test_partition_invariant(self, body):
        for seed in range(10):
            for ratio in (0.1, 0.5, 0.9):
                pair = synthesize_occlusion(body, OccluderSpec("ellipse", seed, ratio))
                assert pair.check_partition()

    def test_ratio_accuracy_sweep(self, body):
        # +-2 percentage points across kinds, targets and seeds
        rng = np.random.default_rng(1)
        for trial in range(40):
            kind = ("rectangle", "ellipse", "capsule")[trial % 3]
            target = float(rng.uniform(0.1, 0.9))
            pair = synthesize_occlusion(body, OccluderSpec(kind, trial, target))
            achieved = pair.M.sum() / body.sum()
            assert abs(achieved - target) <= 0.02

    def test_deterministic(self, body):
        spec = OccluderSpec("capsule", 13, 0.6)
        a = synthesize_occlusion(body, spec)
        b = synthesize_occlusion(body, spec)
        assert np.array_equal(a.M, b.M)
        assert np.array_equal(a.V, b.V)

    def test_empty_body_rejected(self):
        with pytest.raises(DomainError):
            synthesize_occlusion(np.zeros((8, 8), dtype=bool), OccluderSpec("rectangle", 0, 0.5))

    def test_full_frame_body_half_rectangle(self):
        body = np.ones((64, 64), dtype=bool)
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 2, 0.5))
        assert abs(pair.M.sum() / body.sum() - 0.5) <= 0.02


class TestOccludeField:
    def test_empty_mask_unchanged(self, sphere_field, body):
        pair = MaskPair(body, np.zeros_like(body), body)
        out = occlude_field(sphere_field, pair, "zero")
        assert np.array_equal(out.data, sphere_field.data)

    def test_zero_policy(self, sphere_field, body):
        pair = MaskPair(np.zeros_like(body), body, body)
        out = occlude_field(sphere_field, pair, "zero")
        assert not out.data[body].any()
        assert np.array_equal(out.data[~body], sphere_field.data[~body])

    def test_noise_policy_deterministic(self, sphere_field, body):
        pair = MaskPair(np.zeros_like(body), body, body)
        a = occlude_field(sphere_field, pair, "noise", sigma=0.05, seed=3)
        b = occlude_field(sphere_field, pair, "noise", sigma=0.05, seed=3)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, sphere_field.data)

    def test_dimension_mismatch(self, sphere_field):
        small = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ShapeError):
            occlude_field(sphere_field, MaskPair(small, small, small))

    @pytest.mark.parametrize("policy", ["zero", "noise"])
    def test_raw_array_taken_as_a_field(self, sphere_field, body, policy):
        # decode_grid and field_to_grid take an (H, W, K) array too.
        pair = MaskPair(np.zeros_like(body), body, body)
        want = occlude_field(sphere_field, pair, policy)
        got = occlude_field(sphere_field.data.tolist(), pair, policy)
        assert np.array_equal(got.data, want.data)


    @pytest.mark.parametrize("policy", ["zero", "noise"])
    def test_window_is_the_whole_frame_cropped(self, sphere_field, body, policy):
        # A window that cuts through M: its pixels take the whole frame's
        # values, the noise being drawn for every pixel of M.
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 3, 0.5))
        window = (slice(40, 70), slice(50, 100))
        assert 0 < pair.M[window].sum() < pair.M.sum()
        want = occlude_field(sphere_field, pair, policy, sigma=0.05, seed=3)
        got = occlude_field(FourierField(sphere_field.data[window], window), pair, policy,
                            sigma=0.05, seed=3)
        assert got.window == window
        assert got.data.tobytes() == want.data[window].tobytes()

    @pytest.mark.parametrize("policy", ["zero", "noise"])
    def test_overwrite_fof(self, sphere_field, body, policy):
        # Corrupting fof's own coefficients gives the copy's values bit for
        # bit and holds fof's memory; without the flag fof is kept.
        pair = synthesize_occlusion(body, OccluderSpec("ellipse", 2, 0.4))
        before = sphere_field.data.copy()
        want = occlude_field(sphere_field, pair, policy, sigma=0.05, seed=3)
        assert np.array_equal(sphere_field.data, before)
        field = sphere_field.copy()
        got = occlude_field(field, pair, policy, sigma=0.05, seed=3, overwrite_fof=True)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.shares_memory(got.data, field.data)
        assert not np.array_equal(want.data, before)

    def test_window_off_the_masks_frame(self, sphere_field, body):
        field = FourierField(sphere_field.data[:30, 100:], (slice(0, 30), slice(100, 128)))
        small = np.zeros((40, 120), dtype=bool)
        with pytest.raises(ShapeError, match="does not match frame"):
            occlude_field(field, MaskPair(small, small, small))


class TestUnreachableRatio:
    def test_single_pixel_body_raises(self):
        from fofkit.errors import OcclusionError
        body = np.zeros((16, 16), dtype=bool)
        body[8, 8] = True  # achievable ratios are only {0, 1}
        with pytest.raises(OcclusionError):
            synthesize_occlusion(body, OccluderSpec("rectangle", 0, 0.5))
