import numpy as np
import pytest

from fofkit.errors import DomainError, ShapeError
from fofkit.occlusion import (MaskPair, OccluderSpec, occlude_field, occlude_image,
                              synthesize_occlusion, weight_map)
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


class TestWeightMap:
    def test_case_table(self):
        # paper case table on all 8 per-pixel (V, M, body) combinations
        bits = [(v, m, b) for v in (0, 1) for m in (0, 1) for b in (0, 1)]
        pair = MaskPair(
            np.array([[v for v, _, _ in bits]], dtype=bool),
            np.array([[m for _, m, _ in bits]], dtype=bool),
            np.array([[b for _, _, b in bits]], dtype=bool))
        omega = weight_map(pair, 2.5, 1.5)
        expected = [2.5 if m else (1.5 if v else 0.0) for v, m, _ in bits]
        assert np.array_equal(omega[0], expected)

    def test_no_background_support(self, body):
        rng = np.random.default_rng(2)
        for seed in range(20):
            pair = synthesize_occlusion(body, OccluderSpec("rectangle", seed,
                                                           float(rng.uniform(0.1, 0.8))))
            omega = weight_map(pair, 2.0, 1.0)
            assert omega[~pair.body].sum() == 0.0

    def test_negative_weights_rejected(self, body):
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 0, 0.3))
        with pytest.raises(DomainError):
            weight_map(pair, -1.0, -2.0)
        with pytest.raises(DomainError):
            weight_map(pair, 1.0, 2.0)  # lam_occ < lam_vis


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


class TestOccludeImage:
    def test_empty_mask_identity(self, body, rng):
        img = rng.random((128, 128, 3))
        pair = MaskPair(body, np.zeros_like(body), body)
        assert np.array_equal(occlude_image(img, pair, "gray"), img)

    def test_gray_fill(self, body, rng):
        img = rng.random((128, 128, 3))
        pair = MaskPair(np.zeros_like(body), body, body)
        out = occlude_image(img, pair, "gray")
        assert np.all(out[body] == 0.5)

    def test_psnr_decreases_with_ratio(self, body, rng):
        from fofkit.metrics import psnr

        img = rng.random((128, 128, 3))
        values = []
        for ratio in (0.2, 0.4, 0.6, 0.8):
            pair = synthesize_occlusion(body, OccluderSpec("rectangle", 5, ratio))
            values.append(psnr(occlude_image(img, pair, "gray"), img))
        assert all(values[i] > values[i + 1] for i in range(3))


class TestUnreachableRatio:
    def test_single_pixel_body_raises(self):
        from fofkit.errors import OcclusionError
        body = np.zeros((16, 16), dtype=bool)
        body[8, 8] = True  # achievable ratios are only {0, 1}
        with pytest.raises(OcclusionError):
            synthesize_occlusion(body, OccluderSpec("rectangle", 0, 0.5))
