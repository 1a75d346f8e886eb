"""Orthographic frame and shared triangle-coverage rasterization core.

Camera convention: the frame looks along +z (front view) with x right and
y up. Pixel (row r, col c) has its center at

    x_ndc = -1 + 2 (c + 0.5) / W        y_ndc = 1 - 2 (r + 0.5) / H

so row 0 is the top of the image. Raster coordinates are pixel units with y
down: rx = (x_ndc + 1) W / 2, ry = (1 - y_ndc) H / 2.

Coverage uses edge functions with a direction-based tie rule (accept a
boundary point iff the edge vector has dy > 0, or dy == 0 and dx < 0, after
normalizing the triangle to positive signed area). For two triangles sharing
an edge the rule admits exactly one of them, which keeps parity ray counts
even on watertight meshes. Triangles whose projection has exactly zero area
are skipped.

The per-triangle setup and the inside test are written once (_setup,
_covered) and used by both coverage paths. The batched path numbers the
tests of every live triangle against each pixel center of its clamped
bounding box in one flat sequence and runs them _PASS_TESTS at a time. The
pass size bounds only the working memory, about 25 MB per pass whatever the
sizes of the triangles; the records do not depend on it, so it is a constant
and not a setting. The single-ray path tests the triangles whose bounding
box holds the point. Both therefore produce identical hits.
"""

import math
from collections import namedtuple
from dataclasses import astuple, dataclass, field as dc_field

import numpy as np

from .errors import DomainError

# Pixel tests per pass of rasterize_coverage (bounds its working arrays).
_PASS_TESTS = 1 << 17


@dataclass(frozen=True)
class OrthoFrame:
    """Orthographic camera over [-1, 1]^2 after normalization."""

    width: int = 128
    height: int = 128
    center: tuple = (0.0, 0.0, 0.0)
    half_extent: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError("frame must have positive pixel dimensions")
        if not 0.0 < self.half_extent < math.inf:
            raise DomainError(f"half_extent must be positive and finite, got {self.half_extent!r}")
        try:
            center = tuple(float(v) for v in self.center)
        except (TypeError, ValueError):
            center = ()
        if len(center) != 3 or not all(map(math.isfinite, center)):
            raise DomainError(f"center must be three finite numbers, got {self.center!r}")
        object.__setattr__(self, "center", center)

    def to_ndc(self, points):
        """Scene points (n, 3) -> normalized [-1, 1]^3 coordinates."""
        p = np.asarray(points, dtype=np.float64)
        return (p - np.asarray(self.center)) / self.half_extent

    def raster_xy(self, ndc_xy):
        """NDC (x, y) -> raster pixel units (x right, y down)."""
        xy = np.asarray(ndc_xy, dtype=np.float64)
        out = np.empty_like(xy)
        out[..., 0] = (xy[..., 0] + 1.0) * (self.width / 2.0)
        out[..., 1] = (1.0 - xy[..., 1]) * (self.height / 2.0)
        return out

    def project_faces(self, vertices, faces):
        """Per-face raster xy vertices (m, 3, 2) and NDC depths (m, 3)."""
        ndc = self.to_ndc(vertices)
        return self.raster_xy(ndc[:, :2])[faces], ndc[:, 2][faces]

    def pixel_center_raster(self, row, col):
        return float(col) + 0.5, float(row) + 0.5


def _edge_accepts_boundary(dx, dy):
    # Direction-based tie rule; exactly one of d and -d qualifies.
    return (dy > 0) | ((dy == 0) & (dx < 0))


# Per-triangle coverage setup: vertex coordinates, doubled signed area,
# orientation sign, and the tie rule's boundary acceptance of edges b->c, c->a
# and a->b of the orientation-normalized triangle.
_Setup = namedtuple("_Setup", "ax ay bx by cx cy area2 sgn e0 e1 e2")


def _setup(tris):
    ax, ay = tris[:, 0, 0], tris[:, 0, 1]
    bx, by = tris[:, 1, 0], tris[:, 1, 1]
    cx, cy = tris[:, 2, 0], tris[:, 2, 1]
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    sgn = np.where(area2 < 0.0, -1.0, 1.0)
    return _Setup(ax, ay, bx, by, cx, cy, area2, sgn,
                  _edge_accepts_boundary(sgn * (cx - bx), sgn * (cy - by)),
                  _edge_accepts_boundary(sgn * (ax - cx), sgn * (ay - cy)),
                  _edge_accepts_boundary(sgn * (bx - ax), sgn * (by - ay)))


def _box(tris):
    """Per-triangle raster bounding box (xmin, xmax, ymin, ymax)."""
    x, y = tris[:, :, 0], tris[:, :, 1]
    return (np.minimum(np.minimum(x[:, 0], x[:, 1]), x[:, 2]),
            np.maximum(np.maximum(x[:, 0], x[:, 1]), x[:, 2]),
            np.minimum(np.minimum(y[:, 0], y[:, 1]), y[:, 2]),
            np.maximum(np.maximum(y[:, 0], y[:, 1]), y[:, 2]))


def _covered(px, py, t, within):
    """Tie-rule coverage of points (px, py) by the triangles of setup t.

    All arguments broadcast; `within` masks the (triangle, point) pairs to
    test. Returns the inside mask and the normalized barycentric weights of
    its True entries in row-major order.
    """
    # Edge functions: w0 pairs with edge b->c, w1 with c->a, w2 with a->b.
    w0 = ((t.cx - t.bx) * (py - t.by) - (t.cy - t.by) * (px - t.bx)) * t.sgn
    w1 = ((t.ax - t.cx) * (py - t.cy) - (t.ay - t.cy) * (px - t.cx)) * t.sgn
    w2 = ((t.bx - t.ax) * (py - t.ay) - (t.by - t.ay) * (px - t.ax)) * t.sgn
    inside = ((w0 > 0) | ((w0 == 0) & t.e0)) \
        & ((w1 > 0) | ((w1 == 0) & t.e1)) \
        & ((w2 > 0) | ((w2 == 0) & t.e2)) \
        & within
    w0, w1, w2 = w0[inside], w1[inside], w2[inside]
    return inside, np.stack([w0, w1, w2], axis=1) / (w0 + w1 + w2)[:, None]


@dataclass
class CoverageRecords:
    """Flat pixel-coverage records of a triangle batch."""

    pixel: np.ndarray = dc_field(default_factory=lambda: np.empty(0, np.int64))
    tri: np.ndarray = dc_field(default_factory=lambda: np.empty(0, np.int64))
    bary: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 3)))  # w / sum(w)


def rasterize_coverage(tris_raster, width, height):
    """All (pixel, triangle) coverage records for raster-space triangles.

    Parameters
    ----------
    tris_raster : (n, 3, 2) float64
        Triangle vertices in raster pixel units.
    width, height : int
        Pixel grid bounds; pixels outside are discarded.

    Returns CoverageRecords with normalized barycentric weights per record,
    in no particular order.
    """
    tris = np.asarray(tris_raster, dtype=np.float64)
    t = _setup(tris)

    # Pixel index ranges whose centers (i + 0.5) can fall inside the bbox.
    xmin, xmax, ymin, ymax = _box(tris)
    ix0 = np.maximum(np.ceil(xmin - 0.5), 0).astype(np.int64)
    ix1 = np.minimum(np.floor(xmax - 0.5), width - 1).astype(np.int64)
    iy0 = np.maximum(np.ceil(ymin - 0.5), 0).astype(np.int64)
    iy1 = np.minimum(np.floor(ymax - 0.5), height - 1).astype(np.int64)

    live = np.flatnonzero((t.area2 != 0.0) & (ix1 >= ix0) & (iy1 >= iy0))
    bw = (ix1 - ix0 + 1)[live]
    n_tests = bw * (iy1 - iy0 + 1)[live]
    start, total = np.cumsum(n_tests) - n_tests, int(n_tests.sum())
    # Test j is pixel j - start[k] of live triangle k's box, in row-major order.
    out = [astuple(CoverageRecords())]
    for lo in range(0, total, _PASS_TESTS):
        j = np.arange(lo, min(lo + _PASS_TESTS, total))
        k = np.searchsorted(start, j, side="right") - 1
        dy, dx = np.divmod(j - start[k], bw[k])
        tri = live[k]
        col, row = ix0[tri] + dx, iy0[tri] + dy
        inside, bary = _covered(col + 0.5, row + 0.5, _Setup(*(f[tri] for f in t)), True)
        out.append((row[inside] * width + col[inside], tri[inside], bary))
    return CoverageRecords(*map(np.concatenate, zip(*out)))


def bary_interp(bary, vals):
    """Per-row dot product with explicit order; identical expression in the
    batch and single-ray paths so their results match bitwise."""
    return bary[:, 0] * vals[:, 0] + bary[:, 1] * vals[:, 1] + bary[:, 2] * vals[:, 2]


def ray_hits_at_point(px, py, tris_raster, tri_z):
    """Sorted depths of all triangles covering raster point (px, py).

    tri_z is (n, 3) per-vertex depth. Only triangles whose bounding box
    holds the point, inclusive, are tested. Used by the single-ray caster
    and by parity-repair recasts.
    """
    tris = np.asarray(tris_raster, dtype=np.float64).reshape(-1, 3, 2)
    xmin, xmax, ymin, ymax = _box(tris)
    near = np.flatnonzero((xmin <= px) & (px <= xmax) & (ymin <= py) & (py <= ymax))
    t = _setup(tris[near])
    inside, bary = _covered(px, py, t, t.area2 != 0.0)
    zs = np.asarray(tri_z, dtype=np.float64).reshape(-1, 3)[near[inside]]
    return np.sort(bary_interp(bary, zs))
