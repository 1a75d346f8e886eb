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

import math
import numbers

import numpy as np

from .errors import DomainError, ShapeError
from .fof import FourierField


def degrade_prior(mesh, iterations=20, strength=0.5):
    """Uniform Laplacian smoothing: a stand-in for a coarse fitted prior.

    Each iteration moves every vertex by ``strength`` of the way toward the
    mean of its edge neighbors; topology (and hence watertightness) is
    untouched. iterations=0 returns an identical copy.
    """
    if not (0.0 <= strength <= 1.0):
        raise DomainError(f"strength must be in [0, 1], got {strength}")
    if not isinstance(iterations, numbers.Integral) or iterations < 0:
        raise DomainError(f"iterations must be an integer >= 0, got {iterations!r}")
    out = mesh.copy()
    if iterations == 0 or mesh.n_faces == 0:
        return out
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    deg = np.bincount(src, minlength=mesh.n_vertices).astype(np.float64)
    deg[deg == 0.0] = 1.0
    verts = out.vertices
    for _ in range(iterations):
        acc = np.zeros_like(verts)
        np.add.at(acc, src, verts[dst])
        verts = verts + strength * (acc / deg[:, None] - verts)
    out.vertices = verts
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
    if not math.isfinite(feather_px):
        raise DomainError(f"feather_px must be finite, got {feather_px!r}")
    alpha = np.ones(pair.M.shape, dtype=np.float64)
    if not pair.M.any():
        return alpha
    if feather_px <= 0.0:
        alpha[pair.M] = 0.0
        return alpha
    d = chamfer_distance_transform(pair.M)
    inside = pair.M
    alpha[inside] = np.maximum(0.0, 1.0 - d[inside] / feather_px)
    return alpha


def vgcc_blend(c_obs, c_prior, pair, feather_px=3.0):
    """Fuse observed and prior coefficient stacks under the visibility masks.

    Output = alpha * C_obs + (1 - alpha) * C_prior per pixel and channel;
    equals C_obs exactly wherever V = 1 or outside the body.
    """
    if c_obs.data.shape != c_prior.data.shape:
        raise ShapeError(f"field shapes differ: {c_obs.data.shape} vs {c_prior.data.shape}")
    if (c_obs.height, c_obs.width) != pair.M.shape:
        raise ShapeError(f"field {c_obs.height}x{c_obs.width} vs mask {pair.M.shape}")
    alpha = blend_alpha(pair, feather_px)
    out = c_obs.data.copy()
    mixed = pair.M
    a = alpha[mixed][:, None]
    out[mixed] = a * c_obs.data[mixed] + (1.0 - a) * c_prior.data[mixed]
    return FourierField(out)
