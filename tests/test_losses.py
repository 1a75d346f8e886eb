import numpy as np
import pytest

from fofkit.errors import DomainError, ShapeError
from fofkit.losses import (PERCEPTUAL_LABEL, FeaturePyramid, LevelWeights, feat_loss,
                           geo_loss, image_loss, mse_coeff_loss, normal_loss,
                           resample_nearest)
from fofkit.render import NormalMap
from fofkit.selftest import finite_difference, rel_grad_err


def random_pyramids(rng, n_levels=2):
    shapes = [(6, 8, 3), (3, 4, 5), (2, 2, 7)][:n_levels]
    f = FeaturePyramid([rng.normal(size=s) for s in shapes])
    f_sup = FeaturePyramid([lv + rng.normal(size=lv.shape) for lv in f.levels])
    return f, f_sup


class TestLevelWeights:
    def test_monotone_enforced(self):
        with pytest.raises(DomainError):
            LevelWeights([1.0, 1.0])
        with pytest.raises(DomainError):
            LevelWeights([2.0, 1.0])
        with pytest.raises(DomainError):
            LevelWeights([-1.0, 0.5])

    def test_linear_ramp(self):
        w = LevelWeights.linear(4)
        assert np.allclose(w.w, [0.25, 0.5, 0.75, 1.0])


class TestMseCoeffLoss:
    def test_identity_zero(self, rng):
        c = rng.normal(size=(3, 3, 5))
        loss, grad = mse_coeff_loss(c, c)
        assert loss == 0.0
        assert not grad.any()

    def test_single_unit(self):
        loss, grad = mse_coeff_loss(np.array([[[1.0]]]), np.array([[[0.0]]]))
        assert loss == 1.0
        assert grad[0, 0, 0] == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_coeff_loss(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))

    def test_gradient_fd(self, rng):
        # relative error <= 1e-6 on random 8x8x31 pairs (central differences)
        for _ in range(3):
            c = rng.normal(size=(8, 8, 31))
            c_gt = rng.normal(size=(8, 8, 31))
            loss, grad = mse_coeff_loss(c, c_gt)
            fd = finite_difference(lambda x: mse_coeff_loss(x, c_gt)[0], c)
            assert rel_grad_err(grad, fd) <= 1e-6


class TestFeatLoss:
    def test_identity_zero(self, rng):
        f, _ = random_pyramids(rng)
        loss, grads = feat_loss(f, f)
        assert loss == 0.0
        assert all(not g.any() for g in grads)

    def test_scalar_example(self):
        f = FeaturePyramid([np.full((1, 1, 1), 3.0)])
        f_sup = FeaturePyramid([np.full((1, 1, 1), 1.0)])
        loss, grads = feat_loss(f, f_sup, LevelWeights([1.0]))
        assert loss == 4.0
        assert grads[0][0, 0, 0] == 4.0

    def test_deep_level_emphasis(self):
        shallow = np.zeros((2, 2, 1))
        deep = np.zeros((2, 2, 1))
        deep_t = deep.copy()
        deep_t[0, 0, 0] = -1.0  # unit residual at one cell
        f = FeaturePyramid([shallow, deep])
        f_sup = FeaturePyramid([shallow.copy(), deep_t])
        loss, _ = feat_loss(f, f_sup, LevelWeights([1.0, 2.0]))
        assert loss == 2.0

    def test_level_count_mismatch(self, rng):
        f, f_sup = random_pyramids(rng, 2)
        with pytest.raises(ShapeError):
            feat_loss(f, FeaturePyramid(f_sup.levels[:1]))

    def test_permutation_symmetry(self, rng):
        f, f_sup = random_pyramids(rng, 3)
        w = LevelWeights([0.2, 0.5, 1.0])
        base, _ = feat_loss(f, f_sup, w)
        # permuting levels together with their weights leaves the sum intact
        perm = [2, 0, 1]
        fp = FeaturePyramid([f.levels[i] for i in perm])
        fsp = FeaturePyramid([f_sup.levels[i] for i in perm])
        wp = np.array([w.w[i] for i in perm])
        loss_p = sum(
            wk * np.sum((a - b) ** 2)
            for wk, a, b in zip(wp, fp.levels, fsp.levels))
        assert loss_p == pytest.approx(base, rel=1e-12)

    def test_weight_increase_raises_loss(self, rng):
        f, f_sup = random_pyramids(rng, 2)
        l1, _ = feat_loss(f, f_sup, LevelWeights([0.5, 1.0]))
        l2, _ = feat_loss(f, f_sup, LevelWeights([0.5, 1.5]))
        assert l2 > l1

    def test_gradient_fd_with_omega(self, rng):
        for _ in range(3):
            f, f_sup = random_pyramids(rng)
            w = LevelWeights([0.3, 1.0])
            om = rng.random((6, 8))
            _, grads = feat_loss(f, f_sup, w, om)
            for k in range(len(f)):
                def fn(x, k=k):
                    levels = [lv.copy() for lv in f.levels]
                    levels[k] = x
                    return feat_loss(FeaturePyramid(levels), f_sup, w, om)[0]
                assert rel_grad_err(grads[k], finite_difference(fn, f.levels[k])) <= 1e-4


class TestResample:
    def test_nearest_preserves_binary(self):
        omega = np.array([[0.0, 2.0], [1.0, 0.0]])
        out = resample_nearest(omega, 4, 4)
        assert set(np.unique(out)) <= {0.0, 1.0, 2.0}
        assert out[0, 0] == 0.0 and out[0, 3] == 2.0 and out[3, 0] == 1.0

    def test_identity(self, rng):
        omega = rng.random((5, 7))
        assert np.array_equal(resample_nearest(omega, 5, 7), omega)


class TestGeoLoss:
    def test_lambda_zero_reduces_to_mse(self, rng):
        c = rng.normal(size=(4, 4, 7))
        c_gt = rng.normal(size=(4, 4, 7))
        f, f_sup = random_pyramids(rng)
        total, g_mse, g_feat = geo_loss(c, c_gt, f, f_sup, lam=0.0)
        assert total == mse_coeff_loss(c, c_gt)[0]
        assert all(not g.any() for g in g_feat)

    def test_all_ground_truth_zero(self, rng):
        c = rng.normal(size=(4, 4, 7))
        f, _ = random_pyramids(rng)
        total, _, _ = geo_loss(c, c, f, f, lam=1.0)
        assert total == 0.0

    def test_decomposition_exact(self, rng):
        c = rng.normal(size=(4, 4, 7))
        c_gt = rng.normal(size=(4, 4, 7))
        f, f_sup = random_pyramids(rng)
        w = LevelWeights([0.5, 1.0])
        om = rng.random((6, 8))
        lam = 0.37
        with_feat, _, _ = geo_loss(c, c_gt, f, f_sup, w, om, lam)
        without, _, _ = geo_loss(c, c_gt, f, f_sup, w, om, 0.0)
        lf, _ = feat_loss(f, f_sup, w, om)
        assert abs((with_feat - without) - lam * lf) <= 1e-12

    def test_negative_lambda_rejected(self, rng):
        c = rng.normal(size=(2, 2, 3))
        f, f_sup = random_pyramids(rng)
        with pytest.raises(DomainError):
            geo_loss(c, c, f, f_sup, lam=-0.1)

    def test_gradient_fd(self, rng):
        for _ in range(3):
            c = rng.normal(size=(3, 3, 5))
            c_gt = rng.normal(size=(3, 3, 5))
            f, f_sup = random_pyramids(rng)
            lam = 0.8
            _, g_mse, _ = geo_loss(c, c_gt, f, f_sup, lam=lam)
            fd = finite_difference(lambda x: geo_loss(x, c_gt, f, f_sup, lam=lam)[0], c)
            assert rel_grad_err(g_mse, fd) <= 1e-4


def _normal_map_pair(rng, h=24, w=24):
    data = rng.normal(size=(h, w, 3))
    data /= np.linalg.norm(data, axis=2, keepdims=True)
    mask = np.ones((h, w), dtype=bool)
    return NormalMap(data, mask)


class TestNormalLoss:
    def test_identical_zero(self, rng):
        nm = _normal_map_pair(rng)
        assert normal_loss(nm, nm) == 0.0

    def test_constant_shift_l1_term(self, rng):
        # +0.1 on one of three channels: the L1 term contributes 0.1/3
        nm = _normal_map_pair(rng)
        shifted = NormalMap(nm.data + np.array([0.1, 0.0, 0.0]), nm.mask.copy())
        base = normal_loss(nm, shifted)
        from fofkit.metrics import ssim
        structural = 1.0 - ssim(np.clip(nm.data * 0.5 + 0.5, 0, 1),
                                np.clip(shifted.data * 0.5 + 0.5, 0, 1))
        assert base - structural == pytest.approx(0.1 / 3.0, abs=1e-9)

    def test_resolution_monotonicity(self, sphere_mesh, frame128):
        from fofkit.fof import BasisConfig
        from fofkit.mesh import mesh_to_fof
        from fofkit.raster import OrthoFrame
        from fofkit.render import render_normals
        from fofkit.surface import reconstruct_field

        gt = render_normals(sphere_mesh, frame128, "front")
        losses = []
        for res in (64, 128):
            frame = OrthoFrame(res, res)
            field = mesh_to_fof(sphere_mesh, frame, BasisConfig(15))
            recon = reconstruct_field(field, frame, res)
            losses.append(normal_loss(render_normals(recon, frame128, "front"), gt))
        assert losses[0] > losses[1] > 0

    def test_label_mentions_substitution(self):
        assert "LPIPS" in PERCEPTUAL_LABEL and "SSIM" in PERCEPTUAL_LABEL


class TestImageLoss:
    def test_identical_zero(self, rng):
        img = rng.random((16, 16, 3))
        assert image_loss(img, img) == 0.0

    def test_l1_only(self, rng):
        img = rng.random((16, 16, 3)) * 0.5
        assert image_loss(img + 0.2, img, lam1=1.0, lam2=0.0) == pytest.approx(0.2, abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.random((16, 16, 3))
        b = rng.random((16, 16, 3))
        assert image_loss(a, b) == image_loss(b, a)

    def test_negative_weight_rejected(self, rng):
        img = rng.random((16, 16, 3))
        with pytest.raises(DomainError):
            image_loss(img, img, lam1=-1.0)
