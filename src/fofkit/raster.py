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
cover nothing.

The per-triangle setup and the inside test are written once (_setup,
_covered) and used by both coverage paths. The batched path takes the
triangles _FACE_BLOCK at a time: it sets up one block, numbers the tests of
its live triangles against each pixel center of their clamped bounding
boxes in one flat sequence, and runs them _PASS_TESTS at a time. The two
constants bound the working memory, whatever the sizes of the mesh and its
triangles (blocked loops in the sense of Lam, Rothberg & Wolf, 1991): about
0.8 MB per block of 4 096 triangles, their setup and boxes included, and
about 4 MB per pass. With blocks of 16 384, render_normals' per-block setup
was the largest step of a default sweep cell (a 10.1 MB cell peak under
tracemalloc, against 8.7 MB with blocks of 4 096). The records do
not depend on either, not even in their order, which is by triangle and
then by pixel; so they are constants and not settings. The single-ray path
tests the triangles whose bounding box holds the point. Both therefore
produce identical hits.
"""

import math
from collections import namedtuple
from dataclasses import astuple, dataclass, field as dc_field

import numpy as np

from .errors import above, integer, require

# Triangles per block and pixel tests per pass of rasterize_coverage; they
# bound its working arrays. render_normals and TriMesh.face_areas take faces
# in the same blocks.
_FACE_BLOCK = 1 << 12
_PASS_TESTS = 1 << 14

PIXELS = integer(1)  # frame width and height
CENTER = (lambda v: len(v) == 3 and all(map(math.isfinite, v))), "three finite numbers"
HALF_EXTENT = above(0)


@dataclass(frozen=True)
class OrthoFrame:
    """Orthographic camera over [-1, 1]^2 after normalization."""

    width: int = 128
    height: int = 128
    center: tuple = (0.0, 0.0, 0.0)
    half_extent: float = 1.0

    def __post_init__(self):
        require("width", self.width, PIXELS)
        require("height", self.height, PIXELS)
        require("center", self.center, CENTER)
        require("half_extent", self.half_extent, HALF_EXTENT)
        object.__setattr__(self, "center", tuple(map(float, self.center)))

    def project_faces(self, vertices, faces):
        """Per-face raster xy vertices (m, 3, 2) and NDC depths (m, 3) of
        faces (m, 3) of vertices (n, 3): NDC is (p - center) / half_extent,
        and raster x and y are (x_ndc + 1) W / 2 and (1 - y_ndc) H / 2.

        Each coordinate of the corners is gathered and mapped as one
        contiguous (m, 3) row, so no per-vertex array is made, and a face
        block costs less than a gather from a projection of every vertex;
        xy is a view of (2, m, 3) rows.
        """
        v = np.asarray(vertices, dtype=np.float64)
        xy = np.empty((2,) + np.shape(faces))
        x, y = xy
        np.subtract(v[faces, 0], self.center[0], out=x)
        x /= self.half_extent
        x += 1.0
        x *= self.width / 2.0
        np.subtract(v[faces, 1], self.center[1], out=y)
        y /= self.half_extent
        np.subtract(1.0, y, out=y)
        y *= self.height / 2.0
        depth = v[faces, 2]
        depth -= self.center[2]
        depth /= self.half_extent
        return xy.transpose(1, 2, 0), depth

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


def _covered(px, py, t):
    """Tie-rule coverage of points (px, py) by the triangles of setup t.

    All arguments broadcast; a triangle of zero area covers nothing. Returns
    the inside mask and the normalized barycentric weights of its True
    entries in row-major order.
    """
    # Edge functions: w0 pairs with edge b->c, w1 with c->a, w2 with a->b.
    w0 = ((t.cx - t.bx) * (py - t.by) - (t.cy - t.by) * (px - t.bx)) * t.sgn
    w1 = ((t.ax - t.cx) * (py - t.cy) - (t.ay - t.cy) * (px - t.cx)) * t.sgn
    w2 = ((t.bx - t.ax) * (py - t.ay) - (t.by - t.ay) * (px - t.ax)) * t.sgn
    inside = ((w0 > 0) | ((w0 == 0) & t.e0)) \
        & ((w1 > 0) | ((w1 == 0) & t.e1)) \
        & ((w2 > 0) | ((w2 == 0) & t.e2)) \
        & (t.area2 != 0.0)
    w0, w1, w2 = w0[inside], w1[inside], w2[inside]
    return inside, np.stack([w0, w1, w2], axis=1) / (w0 + w1 + w2)[:, None]


@dataclass
class CoverageRecords:
    """Flat pixel-coverage records of a triangle batch."""

    pixel: np.ndarray = dc_field(default_factory=lambda: np.empty(0, np.int64))
    tri: np.ndarray = dc_field(default_factory=lambda: np.empty(0, np.int64))
    bary: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 3)))  # w / sum(w)


def _face_blocks(n):
    """Slices that cover n faces in order, _FACE_BLOCK faces at a time."""
    return [slice(lo, lo + _FACE_BLOCK) for lo in range(0, n, _FACE_BLOCK)]


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
    out = [astuple(CoverageRecords())]
    for block in _face_blocks(len(tris)):
        out += _block_coverage(tris[block], block.start, width, height)
    return CoverageRecords(*map(np.concatenate, zip(*out)))


def _block_coverage(tris, first, width, height):
    """The (pixel, tri, bary) records of one block of triangles, numbered
    from first, one tuple per pass."""
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
    out = []
    for lo in range(0, total, _PASS_TESTS):
        j = np.arange(lo, min(lo + _PASS_TESTS, total))
        k = np.searchsorted(start, j, side="right") - 1
        dy, dx = np.divmod(j - start[k], bw[k])
        tri = live[k]
        col, row = ix0[tri] + dx, iy0[tri] + dy
        inside, bary = _covered(col + 0.5, row + 0.5, _Setup(*(f[tri] for f in t)))
        out.append(((row * width + col)[inside], first + tri[inside], bary))
    return out


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
    inside, bary = _covered(px, py, _setup(tris[near]))
    zs = np.asarray(tri_z, dtype=np.float64).reshape(-1, 3)[near[inside]]
    return np.sort(bary_interp(bary, zs))
