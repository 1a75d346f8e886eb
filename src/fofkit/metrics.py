"""Geometry and image metrics, with exhaustive oracles for the spatial indexes.

Distances are reported in centi-units: meshes live in the normalized
[-1, 1]^3 scene and values are scaled by 100 so magnitudes match the usual
tables for this problem family. Chamfer uses the symmetric half-sum of mean
nearest-neighbor distances; nearest neighbors come from a kd-tree but the
reported distances are recomputed from the matched pairs, so the kd-tree
result equals the exhaustive scan exactly. Every kd-tree here uses
sliding-midpoint splits (`_kdtree`), which answer queries from points far
off a sampled shell about twice as fast as median splits do; occluded or
spurious geometry produces such points. Point-to-surface uses exact
point-triangle distances (Ericson's face/edge/vertex region classification:
each pair is classified first and only its own region's closed form is
evaluated) through a BVH with one triangle per leaf and branch-and-bound
pruning, traversed breadth first by all points at once over one frontier
of flat (point, node) pairs, so that each BVH level costs a few array
operations rather than a loop per triangle. A (point, node) pair is kept
only while the point is nearer than its best distance both to the node's
box and to its slab {x : a <= n.x <= b}, where n is the node's unit mean
normal, a leaf's being its triangle's own normal (see mesh.BVH). A box
keeps a tilted patch of shell within reach of a point far off it at every
level; the slab of a nearly flat patch is thin, so the slab test drops it.
A kept leaf pair is scored against the leaf's triangle, and a kept inner
pair moves on to the children node_left and node_left + 1. Each slab gap is
reduced by a margin that covers the rounding of both dot products, the
length of the stored n, and the kernel's own rounding (`_slab_gap`), so a
slab never drops a triangle whose computed distance could lower the
minimum. Best distances start at +inf, and the first frontier entries pair
each point with the leaf of its seed: a given face (an evaluation passes
the face of the point's Chamfer-nearest ground-truth sample) or else the
triangle with the nearest centroid.
The pair kernel works on axis-major component rows: one row per coordinate
of the points and of each triangle corner, which the BVH gathers in that
layout from its slot-ordered copy of the triangles. Its summation order is
written out and pinned: each 3-term dot product is (x*x' + z*z') + y*y',
the order in which np.einsum summed these rows in the form it replaced, and
each distance is sqrt((x*x + y*y) + z*z), as np.linalg.norm sums a row; so
the distances do not depend on numpy's SIMD paths, and a scalar reference
in the tests reproduces them bit for bit. MAX_FRONTIER is the one bound on
the working set: no frontier step, and so no kernel call, holds more pairs.
Per-pair distances are elementwise and the pruning is conservative, so the
result equals `p2s_exhaustive`, which scans every triangle and is the oracle
the accelerated path is validated against, bit for bit, whatever the seed.

Mesh-pair evaluation goes through `EvalReference`, which holds the
ground-truth half of a comparison: the sampling uniforms, the ground-truth
samples with their faces and their kd-tree, the distance index and the
normal maps. A sweep builds it once per run and scores every reconstruction
against it; `evaluate_pair` builds one for a single comparison. Each
evaluation queries the kd-tree once, for Chamfer and for the P2S seeds, and
renders both normal maps from one coverage pass.
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.ndimage import correlate1d
from scipy.spatial import cKDTree

from .errors import DomainError, check_array, check_type, require
from .mesh import BVH, TriMesh
from .raster import OrthoFrame
from .render import BACK, FRONT, normal_map_error, render_normals
from .surface import SAMPLES, _sample_points, _sample_uniforms

UNIT_SCALE = 100.0  # scene units -> centi-units
PSNR_CAP_DB = 99.0

# P2S: the largest coordinate magnitude; beyond it the pair kernel's fourth
# powers of coordinates overflow (ROADMAP item 9).
MAX_COORD = 1e75

# P2S: the widest (point, node) frontier expanded at once, and so the most
# pairs one point_triangle_distance call scores here.
MAX_FRONTIER = 1 << 16

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def nearest_bruteforce(queries, points):
    """Exhaustive nearest-neighbor distances (oracle for the kd-tree path)."""
    q = check_array(queries, "query points", (None, 3))
    p = check_array(points, "points", (None, 3))
    out = np.empty(len(q), dtype=np.float64)
    step = max(1, 2_000_000 // max(len(p), 1))
    for s in range(0, len(q), step):
        block = q[s:s + step]
        d2 = ((block[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        idx = np.argmin(d2, axis=1)
        out[s:s + step] = np.linalg.norm(block - p[idx], axis=1)
    return out


def _kdtree(points):
    """A kd-tree with sliding-midpoint splits and unshrunk node boxes.

    Median splits of points on a closed shell leave cells whose boxes hug
    the shell, and a query from well inside it must then open many of them;
    sliding-midpoint cells stay fat (Maneewongvatana & Mount, 1999). Against
    10 000 samples of the default sphere, the 2 516 samples of its ratio-0.4
    naive reconstruction that lie 0.1-0.41 units inside the shell take
    49-55 ms to query in a balanced tree and 23-24 ms in this one (2 vCPU
    host).
    """
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def _nearest(queries, tree):
    # Indices via kd-tree; distances recomputed from the tree's points so
    # they match brute force bit-for-bit.
    _, idx = tree.query(queries)
    if np.any(idx == tree.n):  # no neighbor at a finite squared distance
        raise DomainError("chamfer points too far apart: squared distances overflow")
    return np.linalg.norm(queries - tree.data[idx], axis=1), idx


def chamfer(a, b, return_index=False):
    """Symmetric mean nearest-neighbor distance between point sets, x100.

    b may also be a cKDTree over its points, which is then reused. With
    return_index, also returns the index into b of each point of a's
    nearest neighbor. Both sets must be (n, 3) finite numbers.
    """
    a = check_array(a, "chamfer points", (None, 3))
    if not isinstance(b, cKDTree):  # a cKDTree holds finite points only
        b = _kdtree(check_array(b, "chamfer points", (None, 3)))
    if len(a) == 0 or b.n == 0:
        raise DomainError("chamfer requires two non-empty point sets")
    d_ab, nearest = _nearest(a, b)
    d_ba, _ = _nearest(b.data, _kdtree(a))
    cd = float((0.5 * d_ab.mean() + 0.5 * d_ba.mean()) * UNIT_SCALE)
    return (cd, nearest) if return_index else cd


def chamfer_bruteforce(a, b):
    """Oracle chamfer using exhaustive nearest-neighbor search."""
    d_ab = nearest_bruteforce(a, b)
    d_ba = nearest_bruteforce(b, a)
    return float((0.5 * d_ab.mean() + 0.5 * d_ba.mean()) * UNIT_SCALE)


def _dot(u, v):
    """Dot products of the columns of two (3, n) component arrays, summed as
    (x + z) + y: the order in which np.einsum("ij,ij->i") sums a 3-column
    row with numpy's two-lane baseline SIMD, so these equal the einsum form
    they replaced bit for bit, whatever numpy's build."""
    return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]


def _pair_rows(points, tris):
    """Points (n, 3) and triangles (n, 3, 3) as component rows: p[k] is
    coordinate k of the points and t[j, k] coordinate k of corner j. Input
    already laid out so, such as a transposed view of (3, 3, n) rows, is
    not copied."""
    p = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    t = np.ascontiguousarray(np.asarray(tris, dtype=np.float64).transpose(1, 2, 0))
    return p, t


def _closest_rows(p, t):
    """Closest points on paired triangles, as component rows (3, n), from
    the rows p and t of _pair_rows."""
    a, b, c = t
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = p - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # Each pair takes the first region whose test holds: vertex A, B, C,
    # edge AB, AC, BC; the face takes the rest, NaN pairs included. Each
    # closed form is then evaluated on its own region's pairs only.
    rest = np.ones(len(d1), dtype=bool)
    regions = []
    for test in ((d1 <= 0) & (d2 <= 0),
                 (d3 >= 0) & (d4 <= d3),
                 (d6 >= 0) & (d5 <= d6),
                 (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                 (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                 (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)):
        test &= rest
        rest ^= test
        regions.append(np.flatnonzero(test))
    at_a, at_b, at_c, on_ab, on_ac, on_bc = regions
    on_face = np.flatnonzero(rest)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1[on_ab] / (d1[on_ab] - d3[on_ab])
        v_ac = d2[on_ac] / (d2[on_ac] - d6[on_ac])
        d43 = d4[on_bc] - d3[on_bc]
        v_bc = d43 / (d43 + (d5[on_bc] - d6[on_bc]))
        denom = va[on_face] + vb[on_face] + vc[on_face]
        v = vb[on_face] / denom
        w = vc[on_face] / denom
    out = np.empty_like(ap)
    for o, ak, bk, ck, abk, ack in zip(out, a, b, c, ab, ac):
        o[at_a] = ak[at_a]
        o[at_b] = bk[at_b]
        o[at_c] = ck[at_c]
        o[on_ab] = ak[on_ab] + v_ab * abk[on_ab]
        o[on_ac] = ak[on_ac] + v_ac * ack[on_ac]
        b_bc = bk[on_bc]
        o[on_bc] = b_bc + v_bc * (ck[on_bc] - b_bc)
        o[on_face] = ak[on_face] + v * abk[on_face] + w * ack[on_face]
    return out


def point_triangle_closest(points, tris):
    """Closest points on paired triangles (Ericson region classification).

    points is (n, 3) and tris is (n, 3, 3); element i is matched with
    triangle i. Returns the (n, 3) closest points.
    """
    return _closest_rows(*_pair_rows(points, tris)).T


def point_triangle_distance(points, tris):
    """Distances from points (n, 3) to their paired triangles (n, 3, 3); the
    squares are summed left to right, as np.linalg.norm sums a row. Callers
    here pass at most MAX_FRONTIER pairs, which bounds its temporaries."""
    p, t = _pair_rows(points, tris)
    r = p - _closest_rows(p, t)
    r *= r
    return np.sqrt((r[0] + r[1]) + r[2])


class SurfaceDistanceIndex:
    """BVH-accelerated exact point-to-surface distance queries."""

    def __init__(self, mesh):
        if check_type(mesh, "mesh", TriMesh).n_faces == 0:
            raise DomainError("cannot index an empty mesh")
        v = check_array(mesh.vertices, "mesh vertices", (None, 3), MAX_COORD)
        self.bvh = BVH(v, mesh.faces)
        self._centroid_tree = _kdtree(v[mesh.faces].mean(axis=1))
        leaves = np.flatnonzero(self.bvh.node_start >= 0)
        self._leaf_of_face = leaves[np.argsort(self.bvh.order[self.bvh.node_start[leaves]])]

    def query(self, points, seeds=None):
        """Exact distances from points to the mesh surface.

        seeds, when given, holds one face index per point, scored first, so
        a face near the point (such as the face of its nearest surface
        sample) makes for a tight start. Without seeds each point starts
        from the triangle with the nearest centroid. points are (n, 3)
        numbers below MAX_COORD in magnitude. seeds that are not n integers
        raise ShapeError, a seed outside [0, n_faces) DomainError.

        All points walk the BVH together, breadth first over one frontier
        of flat (point, node) pairs, with each point's best distance at
        +inf. Its first entries pair each point with its seed face's leaf,
        the rest with the root. A pair survives while the point's gap to the
        node's slab (_slab_gap) and its distance to the node's box are both
        below the point's best distance. A surviving leaf pair scores the
        point against the leaf's triangle, one point_triangle_distance call
        per step; a surviving inner pair pushes both children, node_left and
        node_left + 1. A frontier wider than MAX_FRONTIER pairs is split in
        halves and walked one half at a time.

        The result equals the exhaustive minimum bit for bit, for any seed:
        each pair's distance is computed elementwise, so it does not depend
        on which other pairs share the call; a box's distance never exceeds
        the distance to a triangle inside it, and a slab gap never exceeds
        the computed distance to a triangle under it, so the tests only drop
        triangles that cannot lower the minimum; and the minimum does not
        depend on the order in which pairs are visited.
        """
        p = check_array(points, "query points", (None, 3), MAX_COORD)
        if seeds is None:
            _, seeds = self._centroid_tree.query(p)
        seeds = check_array(seeds, "seed faces", (len(p),), dtype=np.int64)
        m = len(self._leaf_of_face)
        if len(seeds) and not (seeds.min() >= 0 and seeds.max() < m):
            raise DomainError(f"seed faces must be integers in [0, {m})")
        bvh = self.bvh
        best = np.full(len(p), np.inf)
        coords = p.T.copy()
        margin = _slab_margin(bvh, p)
        frontier = [(np.arange(len(p)), np.zeros(len(p), dtype=np.int64)),
                    (np.arange(len(p)), self._leaf_of_face[seeds])]
        while frontier:
            pt, node = frontier.pop()
            if len(pt) > MAX_FRONTIER:
                half = len(pt) // 2
                frontier += [(pt[half:], node[half:]), (pt[:half], node[:half])]
                continue
            keep = _below(_slab_gap(coords, pt, bvh, node, margin), best[pt])
            pt, node = pt[keep], node[keep]
            keep = _box_gap(coords, pt, bvh, node) < best[pt]
            pt, node = pt[keep], node[keep]
            slot = bvh.node_start[node]
            leaf = slot >= 0
            if leaf.any():
                pair_pt, slot = pt[leaf], slot[leaf]
                # Both gathers come out axis-major, as the kernel reads them.
                d = point_triangle_distance(np.take(coords, pair_pt, axis=1).T,
                                            np.take(bvh.slot_rows, slot, axis=2).transpose(2, 0, 1))
                # fmin, like a `d < best` update, never lets a NaN distance in.
                np.fmin.at(best, pair_pt, d)
            inner = node[~leaf]
            if len(inner):
                children = bvh.node_left[inner][:, None] + [0, 1]
                frontier.append((np.repeat(pt[~leaf], 2), children.ravel()))
        return best


def _box_gap(coords, pt, bvh, node):
    """Distance from each point coords[:, pt[i]] to the box of BVH node
    node[i]; the squares are summed left to right, as np.linalg.norm sums a
    row."""
    g2 = []
    for axis in range(3):
        q = coords[axis][pt]
        g = np.maximum(bvh.node_lo[axis][node] - q, 0.0)
        g += np.maximum(q - bvh.node_hi[axis][node], 0.0)
        g *= g
        g2.append(g)
    return np.sqrt((g2[0] + g2[1]) + g2[2])


def _slab_margin(bvh, p):
    """The margin _slab_gap takes off every gap of the points p (n, 3):
    max(2**-46 * R, 2**-1022), with R the largest |coordinate| of any point
    of p or corner of the BVH."""
    reach = max(bvh.scale, float(np.abs(p).max(initial=0.0)))
    return max(np.ldexp(reach, -46), np.finfo(np.float64).tiny)


def _slab_gap(coords, pt, bvh, node, margin):
    """For each pair i, how far point coords[:, pt[i]] lies outside the slab
    a <= n.x <= b of BVH node node[i], less margin: max(a - s, s - b) -
    margin with s the rounded n.p. It is negative inside the slab.

    With margin from _slab_margin, the result never exceeds the distance
    point_triangle_distance computes from the point to any triangle T under
    the node. Forward error bound, with u = 2**-53, R as in _slab_margin,
    S <= R the largest |corner coordinate| and ||n|| within 4u of 1 (BVH):
    - the slab holds the exact n.x of every point x of T (BVH);
    - the rounded s = (n0*p0 + n1*p1) + n2*p2 is within
      3.01u * sum|n_k p_k| <= 5.3u * R of the exact n.p;
    - the kernel's closest point q lies within 22u * S of some x in T: a
      vertex region returns a corner; an edge region's parameter is a
      ratio of same-signed terms, so it lies in [0, 1]; the face weights
      vb / denom and vc / denom are non-negative with sum at most 1 + 3.1u
      when va, vb, vc >= 0, as the region tests leave them in exact
      arithmetic (and on every sliver, collinear and zero-area triangle
      the tests try); and the two to four roundings of each coordinate add
      at most 6.1u * S. Its rounded distance d satisfies
      d >= (1 - 3.6u) ||p - q||;
    - so, for s > b, the rounded s - b is at most
      (1 + u)((1 + 4u)(||p - q|| + 22u S) + 5.3u R) <= d + 8.9u d + 28u R,
      and d <= 2 sqrt(3) (1 + 4u) R turns 8.9u d into at most 31u R; the
      case s < a is the same;
    - the subtraction of margin >= 128u R rounds by at most u times the
      gap, under 3.5u R; 28u R + 31u R + 3.5u R < 128u R.
    Underflow adds at most 2**-1075 per rounding, far below the 2**-1022
    floor. A gap that overflows or is NaN proves nothing, and _below keeps
    its pair. The tests check the bound directly on rotated, scaled,
    sliver, collinear and zero-area triangles.
    """
    n = bvh.node_n
    s = coords[0][pt] * n[0][node]
    s += coords[1][pt] * n[1][node]
    s += coords[2][pt] * n[2][node]
    gap = np.maximum(bvh.node_a[node] - s, s - bvh.node_b[node])
    gap -= margin
    return gap


def _below(gap, best):
    """Which pairs a lower bound gap keeps: those with gap < best, and those
    whose gap is NaN or infinite, which prove nothing."""
    return ~((gap >= best) & (gap < np.inf))


def p2s(points, mesh, seeds=None):
    """Mean exact point-to-surface distance, x100 (BVH accelerated).

    mesh may also be a SurfaceDistanceIndex over the mesh, which is then
    reused. seeds are optional start faces, one per point; see
    SurfaceDistanceIndex.query. points are (n, 3) numbers below MAX_COORD
    in magnitude.
    """
    pts = check_array(points, "p2s points", (None, 3), MAX_COORD)
    if len(pts) == 0:
        raise DomainError("p2s requires a non-empty point set")
    if not isinstance(mesh, SurfaceDistanceIndex):
        mesh = SurfaceDistanceIndex(mesh)
    return float(mesh.query(pts, seeds).mean() * UNIT_SCALE)


def p2s_exhaustive(points, mesh):
    """Oracle point-to-surface distances scanning every triangle, at most
    MAX_FRONTIER pairs (and at least one point's row) per kernel call."""
    pts = check_array(points, "p2s points", (None, 3))
    # Pairs are tiled as the kernel's axis-major rows, which it reads in place.
    rows = np.ascontiguousarray(mesh.vertices[mesh.faces].transpose(1, 2, 0))
    m = rows.shape[2]
    best = np.full(len(pts), np.inf)
    step = max(1, MAX_FRONTIER // max(m, 1))
    for s in range(0, len(pts), step):
        block = pts[s:s + step].T
        n = block.shape[1]
        d = point_triangle_distance(np.repeat(block, m, axis=1).T,
                                    np.tile(rows, (1, 1, n)).transpose(2, 0, 1)).reshape(n, m)
        best[s:s + step] = d.min(axis=1)
    return best


# ---------------------------------------------------------------------------
# Image metrics.


def _gaussian_kernel():
    r = SSIM_WINDOW // 2
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-(x ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return k / k.sum()


_SSIM_KERNEL = _gaussian_kernel()


def _filter_valid(img):
    t = correlate1d(img, _SSIM_KERNEL, axis=0, mode="constant")
    t = correlate1d(t, _SSIM_KERNEL, axis=1, mode="constant")
    r = SSIM_WINDOW // 2
    return t[r:-r, r:-r]


def _check_image_pair(a, b):
    """a and b as non-empty float64 images of one shape with values in [0, 1]."""
    a = check_array(a, "image a", None)
    b = check_array(b, "image b", a.shape)
    if not (a.size and a.min() >= 0.0 and a.max() <= 1.0 and b.min() >= 0.0 and b.max() <= 1.0):
        raise DomainError("images must be non-empty, with values in [0, 1]")
    return a, b


def ssim(a, b):
    """Structural similarity: 11x11 Gaussian window (sigma 1.5), stabilizers
    (0.01 L)^2 and (0.03 L)^2 with L = 1, mean over valid windows, averaged
    over channels."""
    a, b = np.atleast_3d(*_check_image_pair(a, b))
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise DomainError(f"images must be at least {SSIM_WINDOW} pixels per side")
    vals = []
    for ch in range(a.shape[2]):
        x = a[:, :, ch]
        y = b[:, :, ch]
        mu_x = _filter_valid(x)
        mu_y = _filter_valid(y)
        var_x = _filter_valid(x * x) - mu_x * mu_x
        var_y = _filter_valid(y * y) - mu_y * mu_y
        cov = _filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mu_x ** 2 + mu_y ** 2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
        vals.append(np.mean(num / den))
    return float(np.mean(vals))


def psnr(a, b):
    """Peak signal-to-noise ratio in dB for [0, 1] images; identical images
    report the 99 dB cap."""
    a, b = _check_image_pair(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


# ---------------------------------------------------------------------------
# Mesh pair evaluation.

CSV_COLUMNS = ("cd", "p2s", "normal_err", "ssim", "psnr", "n_samples", "seed", "config_hash")


@dataclass
class MetricReport:
    """Metric values in centi-units (geometry) plus provenance."""

    cd: float
    p2s: float
    normal_err: float
    ssim: Optional[float] = None
    psnr: Optional[float] = None
    n_samples: int = 0
    seed: int = 0
    config_hash: str = ""
    units: str = "centi-units (scene x100)"

    @staticmethod
    def csv_header():
        return ",".join(CSV_COLUMNS)

    def csv_row(self):
        def fmt(v):
            return "" if v is None else repr(v) if isinstance(v, float) else str(v)

        return ",".join(fmt(getattr(self, c)) for c in CSV_COLUMNS)

    def sidecar_text(self):
        lines = [f"units = {self.units}",
                 f"seed = {self.seed}",
                 f"n_samples = {self.n_samples}",
                 f"config_hash = {self.config_hash}",
                 "perceptual_term = n/a"]
        for c in ("cd", "p2s", "normal_err", "ssim", "psnr"):
            v = getattr(self, c)
            if v is not None:
                lines.append(f"{c} = {v!r}")
        return "\n".join(lines) + "\n"


def config_hash(frame, n_samples, seed):
    text = (f"frame={frame.width}x{frame.height}"
            f"@{frame.center}:{frame.half_extent};n={n_samples};seed={seed}")
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class EvalReference:
    """The ground-truth side of a mesh comparison, built once per ground truth.

    Holds what depends only on (gt, frame, n_samples, seed): the 3n sampling
    uniforms, the face of each ground-truth sample, a kd-tree over the
    samples, the ground-truth SurfaceDistanceIndex and the front and back
    normal maps. Both surfaces are sampled with the same (n, seed), so
    evaluate(recon) samples the reconstruction with the same uniforms. Its
    one kd-tree query per reconstruction sample serves Chamfer and seeds
    P2S with the face of the nearest ground-truth sample, which is no
    farther than the sample itself. Every reconstruction scored against one
    reference gets the same report as a one-shot comparison, bit for bit.
    """

    def __init__(self, gt, frame=OrthoFrame(), n_samples=10_000, seed=0):
        require("n_samples", n_samples, SAMPLES)
        self.frame = frame
        self.n_samples = n_samples
        self.seed = seed
        self.uniforms = _sample_uniforms(n_samples, seed)
        self.index = SurfaceDistanceIndex(gt)
        self.sample_faces, samples = _sample_points(gt, self.uniforms)
        self.tree = _kdtree(samples)
        self.front, self.back = render_normals(gt, frame, (FRONT, BACK))

    def evaluate(self, recon):
        """Chamfer, P2S from reconstruction samples to the ground-truth
        surface, and the mean of the front and back normal-map errors."""
        _, pts = _sample_points(recon, self.uniforms)
        cd, nearest = chamfer(pts, self.tree, return_index=True)
        p2s_val = p2s(pts, self.index, self.sample_faces[nearest])
        front, back = render_normals(recon, self.frame, (FRONT, BACK))
        err_front = normal_map_error(front, self.front)
        err_back = normal_map_error(back, self.back)
        return MetricReport(
            cd=cd,
            p2s=p2s_val,
            normal_err=0.5 * (err_front + err_back),
            n_samples=self.n_samples,
            seed=self.seed,
            config_hash=config_hash(self.frame, self.n_samples, self.seed),
        )


def evaluate_pair(recon, gt, frame=OrthoFrame(), n_samples=10_000, seed=0):
    """Full geometry comparison of a reconstruction against ground truth.

    Samples both surfaces with the same seed; see EvalReference, which does
    the ground-truth half once when many reconstructions share one ground
    truth.
    """
    return EvalReference(gt, frame, n_samples, seed).evaluate(recon)
