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
evaluated) through a BVH with branch-and-bound pruning, traversed breadth
first over flat (point, node) pairs so that each BVH level costs a few array
operations rather than a loop per triangle. Leaf pairs are scored only when
the point is nearer than its best distance to the triangle's own box. Each
point's best distance starts at its distance to one seed triangle: a given
face (an evaluation passes the face of the point's Chamfer-nearest
ground-truth sample) or else the triangle with the nearest centroid.
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

from .errors import DomainError, ShapeError
from .mesh import BVH
from .raster import OrthoFrame
from .render import BACK, FRONT, normal_map_error, render_normals
from .surface import _sample_points, _sample_uniforms

UNIT_SCALE = 100.0  # scene units -> centi-units
PSNR_CAP_DB = 99.0

# P2S traversal: points per block, and the widest (point, node) frontier
# expanded at once, which bounds the pair arrays when pruning is weak.
QUERY_BLOCK = 2048
MAX_FRONTIER = 1 << 16

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def nearest_bruteforce(queries, points):
    """Exhaustive nearest-neighbor distances (oracle for the kd-tree path)."""
    q = np.asarray(queries, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
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


def _finite_points(points, what):
    """points as an (n, 3) float64 array; a NaN or infinite coordinate
    raises DomainError."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{what} contain non-finite coordinates")
    return p


def _nearest(queries, tree):
    # Indices via kd-tree; distances recomputed from the tree's points so
    # they match brute force bit-for-bit.
    _, idx = tree.query(queries)
    return np.linalg.norm(queries - tree.data[idx], axis=1), idx


def chamfer(a, b, return_index=False):
    """Symmetric mean nearest-neighbor distance between point sets, x100.

    b may also be a cKDTree over its points, which is then reused. With
    return_index, also returns the index into b of each point of a's
    nearest neighbor. A NaN or infinite coordinate in either set raises
    DomainError.
    """
    a = _finite_points(a, "chamfer points")
    if not isinstance(b, cKDTree):  # a cKDTree holds finite points only
        b = _kdtree(_finite_points(b, "chamfer points"))
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


def point_triangle_closest(points, tris):
    """Closest points on paired triangles (Ericson region classification).

    points is (n, 3) and tris is (n, 3, 3); element i is matched with
    triangle i. Returns the (n, 3) closest points.
    """
    p = np.asarray(points, dtype=np.float64)
    a, b, c = np.asarray(tris, dtype=np.float64).transpose(1, 0, 2).copy()
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    # Each pair takes the first region whose test holds: vertex A, B, C,
    # edge AB, AC, BC; the face takes the rest, NaN pairs included. Each
    # closed form is then evaluated on its own region's pairs only.
    region = np.select([(d1 <= 0) & (d2 <= 0),
                        (d3 >= 0) & (d4 <= d3),
                        (d6 >= 0) & (d5 <= d6),
                        (vc <= 0) & (d1 >= 0) & (d3 <= 0),
                        (vb <= 0) & (d2 >= 0) & (d6 <= 0),
                        (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)],
                       np.arange(6, dtype=np.int8), 6)
    at_a, at_b, at_c, on_ab, on_ac, on_bc, on_face = (np.flatnonzero(region == r)
                                                      for r in range(7))
    out = np.empty_like(p)
    out[at_a] = a[at_a]
    out[at_b] = b[at_b]
    out[at_c] = c[at_c]
    with np.errstate(divide="ignore", invalid="ignore"):
        i = on_ab
        v = d1[i] / (d1[i] - d3[i])
        out[i] = a[i] + v[:, None] * ab[i]

        i = on_ac
        v = d2[i] / (d2[i] - d6[i])
        out[i] = a[i] + v[:, None] * ac[i]

        i = on_bc
        v = (d4[i] - d3[i]) / ((d4[i] - d3[i]) + (d5[i] - d6[i]))
        out[i] = b[i] + v[:, None] * (c[i] - b[i])

        i = on_face
        denom = va[i] + vb[i] + vc[i]
        v = vb[i] / denom
        w = vc[i] / denom
        out[i] = a[i] + v[:, None] * ab[i] + w[:, None] * ac[i]
    return out


def point_triangle_distance(points, tris):
    return np.linalg.norm(np.asarray(points) - point_triangle_closest(points, tris), axis=1)


class SurfaceDistanceIndex:
    """BVH-accelerated exact point-to-surface distance queries."""

    def __init__(self, mesh):
        if mesh.n_faces == 0:
            raise DomainError("cannot index an empty mesh")
        self.bvh = BVH(mesh.vertices, mesh.faces)
        self._centroids = self.bvh.tri_verts.mean(axis=1)
        self._centroid_tree = _kdtree(self._centroids)

    def query(self, points, seeds=None):
        """Exact distances from points to the mesh surface.

        seeds, when given, holds one face index per point; each point's
        search starts from its distance to that face, so a face near the
        point (such as the face of its nearest surface sample) makes for a
        tight start. Without seeds each point starts from the triangle with
        the nearest centroid. A NaN or infinite coordinate raises DomainError.

        Points are traversed in blocks of QUERY_BLOCK. Each block starts from
        the seed distances and walks the BVH breadth first over flat
        (point, node) pairs: a pair survives while the distance from the
        point to the node's box is below the point's best distance, and
        surviving internal pairs push both children.
        Surviving leaf pairs expand into (point, triangle) pairs, which face
        the same test against each triangle's own box; the pairs that pass
        are scored by one point_triangle_distance call per level. A frontier
        wider than MAX_FRONTIER pairs is split in halves and walked one half
        at a time.

        The result equals the exhaustive minimum bit for bit: each pair's
        distance is computed elementwise, so it does not depend on which
        other pairs share the call; a box's distance never exceeds the
        distance to a triangle inside it, so both box tests only drop
        triangles that cannot lower the minimum; and the minimum does not
        depend on the order in which pairs are visited. The seed distance is
        the distance to a real triangle, so it never undercuts the minimum,
        and the result is the same for any seed.
        """
        p = _finite_points(points, "query points")
        if seeds is None:
            _, seeds = self._centroid_tree.query(p)
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        if len(seeds) != len(p):
            raise ShapeError(f"need one seed face per point, got {len(seeds)} for {len(p)}")
        best = np.empty(len(p))
        for s in range(0, len(p), QUERY_BLOCK):
            best[s:s + QUERY_BLOCK] = self._query_block(p[s:s + QUERY_BLOCK],
                                                        seeds[s:s + QUERY_BLOCK])
        return best

    def _query_block(self, p, seeds):
        bvh = self.bvh
        best = point_triangle_distance(p, bvh.tri_verts[seeds])
        coords = p.T.copy()
        frontier = [(np.arange(len(p)), np.zeros(len(p), dtype=np.int64))]
        while frontier:
            pt, node = frontier.pop()
            if len(pt) > MAX_FRONTIER:
                half = len(pt) // 2
                frontier += [(pt[half:], node[half:]), (pt[:half], node[:half])]
                continue
            keep = _box_gap(coords, pt, bvh.node_lo, bvh.node_hi, node) < best[pt]
            pt, node = pt[keep], node[keep]
            leaf = bvh.node_start[node] >= 0
            if leaf.any():
                count = bvh.node_count[node[leaf]]
                pair_pt = np.repeat(pt[leaf], count)
                # Pair j of a leaf whose pairs start at offset o scores the
                # triangle in slot start + j - o of the BVH order.
                shift = np.repeat(bvh.node_start[node[leaf]] - (np.cumsum(count) - count), count)
                slot = shift + np.arange(len(pair_pt))
                near = _box_gap(coords, pair_pt, bvh.tri_lo, bvh.tri_hi, slot) < best[pair_pt]
                pair_pt, slot = pair_pt[near], slot[near]
                d = point_triangle_distance(p[pair_pt], bvh.tri_verts[bvh.order[slot]])
                # fmin, like a `d < best` update, never lets a NaN distance in.
                np.fmin.at(best, pair_pt, d)
            inner = node[~leaf]
            if len(inner):
                children = np.column_stack([bvh.node_left[inner], bvh.node_right[inner]])
                frontier.append((np.repeat(pt[~leaf], 2), children.ravel()))
        return best


def _box_gap(coords, pt, lo, hi, box):
    """Distance from each point coords[:, pt[i]] to box box[i] of the
    axis-major corner arrays lo and hi; the squares are summed left to right,
    as np.linalg.norm sums a row."""
    g2 = 0.0
    for axis in range(3):
        q = coords[axis][pt]
        g = np.maximum(lo[axis][box] - q, 0.0) + np.maximum(q - hi[axis][box], 0.0)
        g2 = g2 + g * g
    return np.sqrt(g2)


def p2s(points, mesh, seeds=None):
    """Mean exact point-to-surface distance, x100 (BVH accelerated).

    mesh may also be a SurfaceDistanceIndex over the mesh, which is then
    reused. seeds are optional start faces, one per point; see
    SurfaceDistanceIndex.query. A NaN or infinite coordinate raises
    DomainError.
    """
    pts = _finite_points(points, "p2s points")
    if len(pts) == 0:
        raise DomainError("p2s requires a non-empty point set")
    if not isinstance(mesh, SurfaceDistanceIndex):
        mesh = SurfaceDistanceIndex(mesh)
    return float(mesh.query(pts, seeds).mean() * UNIT_SCALE)


def p2s_exhaustive(points, mesh):
    """Oracle point-to-surface distances scanning every triangle."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    tris = mesh.vertices[mesh.faces]
    best = np.full(len(pts), np.inf)
    step = max(1, 4_000_000 // max(len(tris), 1))
    for s in range(0, len(pts), step):
        block = pts[s:s + step]
        n, m = len(block), len(tris)
        pp = np.repeat(block, m, axis=0)
        tt = np.tile(tris, (n, 1, 1))
        d = point_triangle_distance(pp, tt).reshape(n, m)
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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.min() < 0.0 or a.max() > 1.0 or b.min() < 0.0 or b.max() > 1.0:
        raise DomainError("image values must lie in [0, 1]")
    return a, b


def ssim(a, b):
    """Structural similarity: 11x11 Gaussian window (sigma 1.5), stabilizers
    (0.01 L)^2 and (0.03 L)^2 with L = 1, mean over valid windows, averaged
    over channels."""
    a, b = _check_image_pair(a, b)
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
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
        self.frame = frame
        self.n_samples = n_samples
        self.seed = seed
        self.uniforms = _sample_uniforms(n_samples, seed)
        self.sample_faces, samples = _sample_points(gt, self.uniforms)
        self.tree = _kdtree(samples)
        self.index = SurfaceDistanceIndex(gt)
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
