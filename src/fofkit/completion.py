"""Visibility-guided coefficient completion and prior degradation.

The completion stage fills occluded field pixels from a prior mesh encoded
into the same frame. Blending happens in coefficient space: because decoding
is linear in the coefficients, a linear blend of coefficient stacks decodes
to the same linear blend of occupancy profiles, so feathering the blend
weight produces smooth occupancy seams for free.

The blend weight alpha is 1 on visible pixels (the observation passes
through untouched), 0 deep inside the occlusion mask (pure prior), and ramps
linearly with the chamfer distance to the mask boundary over feather_px
pixels. Background pixels copy the observation.
"""

import numpy as np

from .errors import ShapeError, check_type, integer, real, require
from .fof import FourierField
from .mesh import TriMesh
from .occlusion import MaskPair

ITERATIONS = integer(0)
STRENGTH = real(0, 1)
FEATHER = real()
_BLEND_PIXELS = 1 << 8  # occluded pixels per block of vgcc_blend; bounds its temporaries


def degrade_prior(mesh, iterations=20, strength=0.5):
    """Uniform Laplacian smoothing: a stand-in for a coarse fitted prior.

    Each iteration moves every vertex by ``strength`` of the way toward the
    mean of its edge neighbors; topology (and hence watertightness) is
    untouched. iterations=0 returns an identical copy.

    The neighbor sums come from one ``np.bincount`` per coordinate. Like a
    per-edge loop, it adds each vertex's neighbors in edge order starting
    from +0.0, so every sum, and hence every output bit, is the loop's.
    """
    require("iterations", iterations, ITERATIONS)
    require("strength", strength, STRENGTH)
    out = check_type(mesh, "mesh", TriMesh).copy()
    if iterations == 0 or mesh.n_faces == 0:
        return out
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    n = mesh.n_vertices
    deg = np.bincount(src, minlength=n).astype(np.float64)
    deg[deg == 0.0] = 1.0
    rows = out.vertices.T.copy()  # one contiguous row per coordinate
    for _ in range(iterations):
        acc = np.stack([np.bincount(src, weights=row[dst], minlength=n) for row in rows])
        rows = rows + strength * (acc / deg - rows)
    out.vertices = np.ascontiguousarray(rows.T)
    if out.normals is not None:
        out.normals = None  # analytic normals no longer valid after smoothing
    return out


def _row_relax(cand, xs):
    """In-row propagation with unit slope: min_k cand[k] + |x - k|."""
    left = np.minimum.accumulate(cand - xs) + xs
    right = (np.minimum.accumulate((cand + xs)[::-1]) - xs[::-1])[::-1]
    return np.minimum(left, right)


def chamfer_distance_transform(mask):
    """Two-pass chamfer distance (1, sqrt 2 weights) to the nearest False
    pixel, evaluated inside ``mask``; zero outside."""
    m = np.asarray(mask, dtype=bool)
    big = 1e9
    d = np.where(m, big, 0.0)
    h, w = d.shape
    rt2 = np.sqrt(2.0)
    xs = np.arange(w, dtype=np.float64)

    def sweep(rows):
        prev = None
        for y in rows:
            cand = d[y].copy()
            if prev is not None:
                cand = np.minimum(cand, prev + 1.0)
                cand[1:] = np.minimum(cand[1:], prev[:-1] + rt2)
                cand[:-1] = np.minimum(cand[:-1], prev[1:] + rt2)
            d[y] = _row_relax(cand, xs)
            prev = d[y]

    sweep(range(h))
    sweep(range(h - 1, -1, -1))
    return d


def blend_alpha(pair, feather_px=3.0):
    """Observation weight per pixel: 1 on V and background, ramp inside M."""
    require("feather_px", feather_px, FEATHER)
    alpha = np.ones(check_type(pair, "pair", MaskPair).M.shape, dtype=np.float64)
    if not pair.M.any():
        return alpha
    if feather_px <= 0.0:
        alpha[pair.M] = 0.0
        return alpha
    d = chamfer_distance_transform(pair.M)
    inside = pair.M
    alpha[inside] = np.maximum(0.0, 1.0 - d[inside] / feather_px)
    return alpha


def vgcc_blend(c_obs, c_prior, pair, feather_px=3.0, overwrite_obs=False):
    """Fuse observed and prior coefficient stacks under the visibility masks.

    Output = alpha * C_obs + (1 - alpha) * C_prior per pixel and channel;
    equals C_obs exactly wherever V = 1 or outside the body. Either field
    may be an (H, W, K) array.

    The output is a copy of C_obs whose M pixels are mixed _BLEND_PIXELS at
    a time, in row-major order, so the temporaries span a block of M, not
    M; each pixel's mix is the same expression whatever the block. With
    overwrite_obs, C_obs's own coefficients are mixed instead of a copy and
    the output holds them, as scipy's overwrite_a does: a caller done with
    C_obs saves a field, with the same values bit for bit.
    """
    c_obs, c_prior = (c if isinstance(c, FourierField) else FourierField(c)
                      for c in (c_obs, c_prior))
    if c_obs.data.shape != c_prior.data.shape:
        raise ShapeError(f"field shapes differ: {c_obs.data.shape} vs {c_prior.data.shape}")
    alpha = blend_alpha(pair, feather_px)
    if (c_obs.height, c_obs.width) != pair.M.shape:
        raise ShapeError(f"field {c_obs.height}x{c_obs.width} vs mask {pair.M.shape}")
    out = c_obs.data if overwrite_obs else c_obs.data.copy()
    rows, cols = np.nonzero(pair.M)
    for lo in range(0, len(rows), _BLEND_PIXELS):
        at = rows[lo:lo + _BLEND_PIXELS], cols[lo:lo + _BLEND_PIXELS]
        a = alpha[at][:, None]
        out[at] = a * c_obs.data[at] + (1.0 - a) * c_prior.data[at]
    return FourierField(out)
