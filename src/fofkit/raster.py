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

The batched path groups triangles by bounding-box size so meshes with tens of
thousands of sub-pixel triangles rasterize in a handful of vectorized passes;
its per-pixel arithmetic is the same expression as the single-ray path, so
both produce identical hits.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError

# Window size buckets for the batched rasterizer (pixels per axis).
_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)


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
        if self.half_extent <= 0:
            raise DomainError("half_extent must be positive")
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))

    def to_ndc(self, points):
        """Scene points (n, 3) -> normalized [-1, 1]^3 coordinates."""
        p = np.asarray(points, dtype=np.float64)
        return (p - np.asarray(self.center)) / self.half_extent

    def from_ndc(self, points):
        p = np.asarray(points, dtype=np.float64)
        return p * self.half_extent + np.asarray(self.center)

    def raster_xy(self, ndc_xy):
        """NDC (x, y) -> raster pixel units (x right, y down)."""
        xy = np.asarray(ndc_xy, dtype=np.float64)
        out = np.empty_like(xy)
        out[..., 0] = (xy[..., 0] + 1.0) * (self.width / 2.0)
        out[..., 1] = (1.0 - xy[..., 1]) * (self.height / 2.0)
        return out

    def pixel_center_raster(self, row, col):
        return float(col) + 0.5, float(row) + 0.5

    def pixel_centers_ndc(self):
        """(H, W) grids of pixel-center NDC x and y."""
        xs = -1.0 + 2.0 * (np.arange(self.width) + 0.5) / self.width
        ys = 1.0 - 2.0 * (np.arange(self.height) + 0.5) / self.height
        return np.meshgrid(xs, ys)


def edge_weights(px, py, ax, ay, bx, by, cx, cy):
    """Edge functions (w0, w1, w2) of point p against triangle (a, b, c).

    w0 pairs with edge b->c, w1 with c->a, w2 with a->b; all arguments
    broadcast. The exact expression is shared by every coverage path so that
    batched and single-ray casting agree bitwise.
    """
    w0 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    w1 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    w2 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return w0, w1, w2


def _edge_accepts_boundary(dx, dy):
    # Direction-based tie rule; exactly one of d and -d qualifies.
    return (dy > 0) | ((dy == 0) & (dx < 0))


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

    Returns CoverageRecords with normalized barycentric weights per record.
    """
    tris = np.asarray(tris_raster, dtype=np.float64)
    n = tris.shape[0]
    if n == 0:
        return CoverageRecords()

    ax, ay = tris[:, 0, 0], tris[:, 0, 1]
    bx, by = tris[:, 1, 0], tris[:, 1, 1]
    cx, cy = tris[:, 2, 0], tris[:, 2, 1]
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    neg = area2 < 0.0

    # Pixel index ranges whose centers (i + 0.5) can fall inside the bbox.
    xmin = np.minimum(np.minimum(ax, bx), cx)
    xmax = np.maximum(np.maximum(ax, bx), cx)
    ymin = np.minimum(np.minimum(ay, by), cy)
    ymax = np.maximum(np.maximum(ay, by), cy)
    ix0 = np.maximum(np.ceil(xmin - 0.5), 0).astype(np.int64)
    ix1 = np.minimum(np.floor(xmax - 0.5), width - 1).astype(np.int64)
    iy0 = np.maximum(np.ceil(ymin - 0.5), 0).astype(np.int64)
    iy1 = np.minimum(np.floor(ymax - 0.5), height - 1).astype(np.int64)

    live = (area2 != 0.0) & (ix1 >= ix0) & (iy1 >= iy0)
    if not np.any(live):
        return CoverageRecords()

    bw = np.where(live, ix1 - ix0 + 1, 0)
    bh = np.where(live, iy1 - iy0 + 1, 0)

    # Boundary acceptance per edge of the orientation-normalized triangle.
    sgn = np.where(neg, -1.0, 1.0)
    e0 = _edge_accepts_boundary(sgn * (cx - bx), sgn * (cy - by))
    e1 = _edge_accepts_boundary(sgn * (ax - cx), sgn * (ay - cy))
    e2 = _edge_accepts_boundary(sgn * (bx - ax), sgn * (by - ay))

    pix_out, tri_out, bary_out = [], [], []
    bw_b = _bucket(bw)
    bh_b = _bucket(bh)
    key = bw_b * 10000 + bh_b
    key[~live] = -1
    for k in np.unique(key):
        if k < 0:
            continue
        sel = np.where(key == k)[0]
        wb, hb = int(k // 10000), int(k % 10000)
        oy, ox = np.mgrid[0:hb, 0:wb]
        ox = ox.ravel()[None, :]
        oy = oy.ravel()[None, :]
        col = ix0[sel, None] + ox
        row = iy0[sel, None] + oy
        valid = (col <= ix1[sel, None]) & (row <= iy1[sel, None])
        px = col + 0.5
        py = row + 0.5
        w0, w1, w2 = edge_weights(
            px, py,
            ax[sel, None], ay[sel, None], bx[sel, None], by[sel, None],
            cx[sel, None], cy[sel, None],
        )
        s = sgn[sel, None]
        w0, w1, w2 = w0 * s, w1 * s, w2 * s
        inside = ((w0 > 0) | ((w0 == 0) & e0[sel, None])) \
            & ((w1 > 0) | ((w1 == 0) & e1[sel, None])) \
            & ((w2 > 0) | ((w2 == 0) & e2[sel, None])) \
            & valid
        if not inside.any():
            continue
        ti, pi = np.nonzero(inside)
        denom = w0[ti, pi] + w1[ti, pi] + w2[ti, pi]
        bary = np.stack([w0[ti, pi], w1[ti, pi], w2[ti, pi]], axis=1) / denom[:, None]
        pix_out.append(row[ti, pi] * width + col[ti, pi])
        tri_out.append(sel[ti])
        bary_out.append(bary)

    if not pix_out:
        return CoverageRecords()
    return CoverageRecords(
        pixel=np.concatenate(pix_out),
        tri=np.concatenate(tri_out),
        bary=np.concatenate(bary_out),
    )


def _bucket(sizes):
    out = np.zeros_like(sizes)
    pos = sizes > 0
    idx = np.searchsorted(_BUCKETS, sizes[pos])
    vals = np.take(_BUCKETS, np.minimum(idx, len(_BUCKETS) - 1))
    # beyond the table each size forms its own group (no window clipping)
    out[pos] = np.where(sizes[pos] > _BUCKETS[-1], sizes[pos], vals)
    return out


def bary_interp(bary, vals):
    """Per-row dot product with explicit order; identical expression in the
    batch and single-ray paths so their results match bitwise."""
    return bary[:, 0] * vals[:, 0] + bary[:, 1] * vals[:, 1] + bary[:, 2] * vals[:, 2]


def ray_hits_at_point(px, py, tris_raster, tri_z):
    """Depths of all triangles covering raster point (px, py).

    tri_z is (n, 3) per-vertex depth; returns sorted hit depths. Used by the
    single-ray caster and by parity-repair recasts.
    """
    tris = np.asarray(tris_raster, dtype=np.float64)
    if tris.shape[0] == 0:
        return np.empty(0, dtype=np.float64)
    ax, ay = tris[:, 0, 0], tris[:, 0, 1]
    bx, by = tris[:, 1, 0], tris[:, 1, 1]
    cx, cy = tris[:, 2, 0], tris[:, 2, 1]
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    sgn = np.where(area2 < 0.0, -1.0, 1.0)
    e0 = _edge_accepts_boundary(sgn * (cx - bx), sgn * (cy - by))
    e1 = _edge_accepts_boundary(sgn * (ax - cx), sgn * (ay - cy))
    e2 = _edge_accepts_boundary(sgn * (bx - ax), sgn * (by - ay))
    w0, w1, w2 = edge_weights(px, py, ax, ay, bx, by, cx, cy)
    w0, w1, w2 = w0 * sgn, w1 * sgn, w2 * sgn
    inside = (area2 != 0.0) \
        & ((w0 > 0) | ((w0 == 0) & e0)) \
        & ((w1 > 0) | ((w1 == 0) & e1)) \
        & ((w2 > 0) | ((w2 == 0) & e2))
    if not inside.any():
        return np.empty(0, dtype=np.float64)
    zs = np.asarray(tri_z, dtype=np.float64)
    denom = w0[inside] + w1[inside] + w2[inside]
    bary = np.stack([w0[inside], w1[inside], w2[inside]], axis=1) / denom[:, None]
    return np.sort(bary_interp(bary, zs[inside]))
