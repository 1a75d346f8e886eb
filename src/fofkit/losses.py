"""Training objectives as pure numerical functions with analytic gradients.

Implemented losses:

* coefficient MSE over field stacks, with gradient 2 (C - C_gt);
* level-weighted feature alignment against a supervisor pyramid, with the
  weight strictly increasing toward deep levels and an optional per-pixel
  visibility weight map resampled to each level by nearest neighbor;
* the combined geometry objective mse + lambda * feat;
* normal and image objectives of the form L1 + (1 - SSIM). A learned
  perceptual term would need a pretrained network; (1 - SSIM) stands in and
  reports label it "SSIM-perceptual (LPIPS substituted)".

Reductions use numpy sums (pairwise summation) throughout. Gradient
correctness is enforced against central finite differences in the test
suite and the embedded selftest.
"""

import numpy as np

from dataclasses import dataclass

from .errors import DomainError, ShapeError, check_array, check_type, real, require
from .fof import FourierField

PERCEPTUAL_LABEL = "SSIM-perceptual (LPIPS substituted)"
WEIGHT = real(0)  # every loss weight


@dataclass
class FeaturePyramid:
    """Feature maps ordered shallow to deep; level k is (h_k, w_k, c_k)."""

    levels: list

    def __post_init__(self):
        self.levels = [check_array(level, f"feature level {k}", (None, None, None))
                       for k, level in enumerate(self.levels)]

    def __len__(self):
        return len(self.levels)


@dataclass
class LevelWeights:
    """Strictly increasing finite non-negative per-level weights."""

    w: np.ndarray

    def __post_init__(self):
        for k, w_k in enumerate(np.ravel(self.w)):
            require(f"level weight {k}", w_k, WEIGHT)
        self.w = np.ravel(self.w).astype(np.float64)
        if np.any(np.diff(self.w) <= 0):
            raise DomainError("level weights must be strictly increasing")

    @classmethod
    def linear(cls, n_levels):
        """Default ramp w_k = k / K for k = 1..K."""
        return cls(np.arange(1, n_levels + 1, dtype=np.float64) / n_levels)


def _as_field_array(x, what, shape):
    return check_array(x.data if isinstance(x, FourierField) else x, what, shape)


def mse_coeff_loss(c, c_gt):
    """Summed squared coefficient error; returns (loss, gradient wrt c)."""
    a = _as_field_array(c, "c", (None, None, None))
    b = _as_field_array(c_gt, "c_gt", a.shape)
    diff = a - b
    return float(np.sum(diff * diff)), 2.0 * diff


def resample_nearest(omega, height, width):
    """Nearest-neighbor resample of a non-empty 2D map, preserving case structure."""
    omega = check_array(omega, "weight map", (None, None))
    if not omega.size:
        raise ShapeError("weight map must not be empty")
    src_h, src_w = omega.shape
    rows = np.minimum((np.arange(height) * src_h) // height, src_h - 1)
    cols = np.minimum((np.arange(width) * src_w) // width, src_w - 1)
    return omega[np.ix_(rows, cols)]


def _omega_per_level(omega, pyramid):
    if omega is None:
        return [None] * len(pyramid)
    if isinstance(omega, (list, tuple)):
        if len(omega) != len(pyramid):
            raise ShapeError(f"{len(omega)} weight maps for {len(pyramid)} levels")
        return [check_array(m, f"weight map {k}", level.shape[:2])
                for k, (m, level) in enumerate(zip(omega, pyramid.levels))]
    return [resample_nearest(omega, lv.shape[0], lv.shape[1]) for lv in pyramid.levels]


def feat_loss(f, f_sup, weights=None, omega=None):
    """Level-weighted squared feature distance to the supervisor pyramid.

    loss = sum_k w_k sum_x omega_k(x) ||F_k(x) - F_k_sup(x)||^2, gradients
    2 w_k omega_k (F_k - F_k_sup) per level. With omega None every pixel
    counts with weight one.
    """
    if len(f) != len(f_sup):
        raise ShapeError(f"pyramids have {len(f)} vs {len(f_sup)} levels")
    if weights is None:
        weights = LevelWeights.linear(len(f))
    if len(weights.w) != len(f):
        raise ShapeError(f"{len(weights.w)} weights for {len(f)} levels")
    maps = _omega_per_level(omega, f)
    loss = 0.0
    grads = []
    for level, level_sup, w_k, om in zip(f.levels, f_sup.levels, weights.w, maps):
        if level.shape != level_sup.shape:
            raise ShapeError(f"level shapes differ: {level.shape} vs {level_sup.shape}")
        diff = level - level_sup
        sq = np.sum(diff * diff, axis=2)
        if om is None:
            loss += w_k * float(np.sum(sq))
            grads.append(2.0 * w_k * diff)
        else:
            loss += w_k * float(np.sum(om * sq))
            grads.append(2.0 * w_k * om[:, :, None] * diff)
    return float(loss), grads


def geo_loss(c, c_gt, f, f_sup, weights=None, omega=None, lam=1.0):
    """Combined geometry objective: coefficient MSE + lambda * feature loss.

    Returns (loss, grad wrt c, grads wrt pyramid levels). The weight map
    applies to the feature term only.
    """
    require("lam", lam, WEIGHT)
    l_mse, g_mse = mse_coeff_loss(c, c_gt)
    l_feat, g_feat = feat_loss(f, f_sup, weights, omega)
    grads_feat = [lam * g for g in g_feat]
    return l_mse + lam * l_feat, g_mse, grads_feat


def _masked_l1(a, b, union):
    diff = np.abs(a - b)
    return float(diff[union].mean())


def normal_loss(n, n_gt):
    """L1 + (1 - SSIM) discrepancy between two normal maps.

    The L1 term averages absolute component error over the union of the
    foreground masks; the structural term evaluates SSIM on the maps encoded
    as n * 0.5 + 0.5 images.
    """
    from .metrics import ssim
    from .render import NormalMap

    check_type(n, "normal map n", NormalMap)
    check_type(n_gt, "normal map n_gt", NormalMap)
    if n.data.shape != n_gt.data.shape:
        raise ShapeError(f"normal map shapes differ: {n.data.shape} vs {n_gt.data.shape}")
    union = n.mask | n_gt.mask
    if not union.any():
        return 0.0
    l1 = _masked_l1(n.data, n_gt.data, union)
    # The structural term sees the n*0.5+0.5 encoding, clipped into the SSIM
    # domain; the L1 term uses the raw components.
    s = ssim(np.clip(n.data * 0.5 + 0.5, 0.0, 1.0),
             np.clip(n_gt.data * 0.5 + 0.5, 0.0, 1.0))
    return float(l1 + (1.0 - s))


def image_loss(img, img_gt, lam1=1.0, lam2=1.0):
    """lam1 * L1 + lam2 * (1 - SSIM) on images in [0, 1]; symmetric."""
    from .metrics import _check_image_pair, ssim

    require("lam1", lam1, WEIGHT)
    require("lam2", lam2, WEIGHT)
    a, b = _check_image_pair(img, img_gt)
    l1 = float(np.mean(np.abs(a - b)))
    structural = 0.0
    if lam2 != 0.0:
        structural = 1.0 - ssim(a, b)
    return float(lam1 * l1 + lam2 * structural)
