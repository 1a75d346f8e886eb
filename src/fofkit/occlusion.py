"""Seeded occluder synthesis, visibility weighting, and field corruption.

An occluder of the requested kind is anchored at a random body pixel and its
scale is bisected until the occluded body fraction |M|/|body| lands within
two percentage points of the target. The visibility map V and occlusion mask
M partition the body silhouette: V and M are disjoint and V | M = body.

The supervision weight map follows the three-case table: lambda_occ on
occluded body pixels, lambda_vis on visible body pixels, zero elsewhere, so
no weight ever falls on background.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, OcclusionError, ShapeError, check_array, check_type, one_of,
                     real, require)
from .fof import FourierField
from .rng import SEED, Xoshiro256StarStar

RATIO_TOLERANCE = 0.02
MAX_BISECT = 40
MAX_PLACEMENTS = 8

OCCLUDER_KINDS = ("rectangle", "ellipse", "capsule")
OCCLUSION_POLICIES = ("zero", "noise")
MAX_RATIO = 0.95
KIND = one_of(OCCLUDER_KINDS)
POLICY = one_of(OCCLUSION_POLICIES)
RATIO = real(0, MAX_RATIO)
SIGMA = real(0)


@dataclass(frozen=True)
class OccluderSpec:
    """Occluder recipe: shape kind, placement seed, target body fraction."""

    kind: str = "rectangle"
    seed: int = 0
    ratio: float = 0.4

    def __post_init__(self):
        require("kind", self.kind, KIND)
        require("seed", self.seed, SEED)
        require("ratio", self.ratio, RATIO)


@dataclass
class MaskPair:
    """Visibility map V, occlusion mask M, and the body silhouette."""

    V: np.ndarray
    M: np.ndarray
    body: np.ndarray

    def __post_init__(self):
        self.body = check_array(self.body, "body", (None, None), dtype=bool)
        self.V = check_array(self.V, "V", self.body.shape, dtype=bool)
        self.M = check_array(self.M, "M", self.body.shape, dtype=bool)

    def check_partition(self):
        """True iff V and M are disjoint and together cover exactly the body."""
        return (not np.any(self.V & self.M)) and np.array_equal(self.V | self.M, self.body)


def _occluder_mask(kind, shape, cx, cy, aspect, angle, scale):
    """Boolean occluder footprint at the given anchor and scale."""
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    dx = (xx - cx).astype(np.float64)
    dy = (yy - cy).astype(np.float64)
    if kind == "rectangle":
        return (np.abs(dx) <= scale * aspect) & (np.abs(dy) <= scale / aspect)
    if kind == "ellipse":
        return (dx / (scale * aspect)) ** 2 + (dy / (scale / aspect)) ** 2 <= 1.0
    # capsule: segment of length 3*scale along `angle`, radius scale.
    ux, uy = math.cos(angle), math.sin(angle)
    half = 1.5 * scale
    t = np.clip(dx * ux + dy * uy, -half, half)
    return (dx - t * ux) ** 2 + (dy - t * uy) ** 2 <= scale ** 2


def synthesize_occlusion(body, spec):
    """Generate a MaskPair occluding the requested fraction of the body.

    Deterministic in (body, spec). Raises OcclusionError when no reseeded
    placement reaches the target within +-2 percentage points.
    """
    body = check_array(body, "body", (None, None), dtype=bool)
    check_type(spec, "spec", OccluderSpec)
    n_body = int(body.sum())
    if n_body == 0:
        raise DomainError("body mask is empty")
    if spec.ratio == 0.0:
        return MaskPair(body.copy(), np.zeros_like(body), body)

    rows, cols = np.nonzero(body)
    h, w = body.shape
    for attempt in range(MAX_PLACEMENTS):
        rng = Xoshiro256StarStar(spec.seed, stream=attempt)
        pick = rng.below(n_body)
        cy, cx = int(rows[pick]), int(cols[pick])
        aspect = math.exp((rng.random() * 2.0 - 1.0) * math.log(2.0))
        angle = rng.random() * 2.0 * math.pi

        def achieved(scale):
            m = _occluder_mask(spec.kind, body.shape, cx, cy, aspect, angle, scale) & body
            return int(m.sum()) / n_body, m

        hi = 2.0
        ratio_hi, _ = achieved(hi)
        while ratio_hi < spec.ratio and hi < 4.0 * max(h, w):
            hi *= 2.0
            ratio_hi, _ = achieved(hi)
        lo = 0.0
        best_err, best_mask = abs(ratio_hi - spec.ratio), None
        for _ in range(MAX_BISECT):
            mid = (lo + hi) / 2.0
            r, m = achieved(mid)
            if abs(r - spec.ratio) < best_err:
                best_err, best_mask = abs(r - spec.ratio), m
            if r < spec.ratio:
                lo = mid
            else:
                hi = mid
        if best_mask is not None and best_err <= RATIO_TOLERANCE:
            M = best_mask
            return MaskPair(body & ~M, M, body)
    raise OcclusionError(
        f"could not reach ratio {spec.ratio} within {RATIO_TOLERANCE} "
        f"after {MAX_PLACEMENTS} placements (seed {spec.seed})")


def weight_map(pair, lam_occ=2.0, lam_vis=1.0):
    """Per-pixel supervision weights: lam_occ on M, lam_vis on V\\M, else 0."""
    require("lam_vis", lam_vis, real(0))
    require("lam_occ", lam_occ, real(lam_vis))
    omega = np.zeros(check_type(pair, "pair", MaskPair).M.shape, dtype=np.float64)
    omega[pair.V & ~pair.M] = lam_vis
    omega[pair.M] = lam_occ
    return omega


def occlude_field(fof, pair, policy="zero", sigma=0.1, seed=0):
    """Corrupt field coefficients on occluded pixels.

    policy "zero" clears them; "noise" adds zero-mean Gaussian noise with
    deviation sigma drawn from the seeded generator. fof may be an (H, W, K)
    array.
    """
    require("policy", policy, POLICY)
    require("sigma", sigma, SIGMA)
    require("seed", seed, SEED)
    if not isinstance(fof, FourierField):
        fof = FourierField(fof)
    if (fof.height, fof.width) != check_type(pair, "pair", MaskPair).M.shape:
        raise ShapeError(f"field {fof.height}x{fof.width} vs mask {pair.M.shape}")
    out = fof.data.copy()
    idx = np.nonzero(pair.M)
    if policy == "zero":
        out[idx] = 0.0
    else:
        rng = Xoshiro256StarStar(seed, stream=1)
        count = len(idx[0]) * fof.channels
        noise = np.asarray(rng.normals(count), dtype=np.float64) * sigma
        out[idx] += noise.reshape(len(idx[0]), fof.channels)
    return FourierField(out)


def occlude_image(image, pair, fill="gray", seed=0):
    """Corrupt RGB pixels on occluded pixels: flat 0.5 gray or seeded pattern."""
    require("fill", fill, one_of(("gray", "pattern")))
    require("seed", seed, SEED)
    img = check_array(image, "image", check_type(pair, "pair", MaskPair).M.shape + (None,))
    out = img.copy()
    idx = np.nonzero(pair.M)
    if fill == "gray":
        out[idx] = 0.5
    else:
        rng = Xoshiro256StarStar(seed, stream=2)
        vals = np.asarray(rng.uniforms(len(idx[0]) * img.shape[2]), dtype=np.float64)
        out[idx] = vals.reshape(len(idx[0]), img.shape[2])
    return out
