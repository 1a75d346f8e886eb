"""Triangle meshes: OBJ I/O, watertightness, BVH, and mesh-to-field encoding.

Encoding casts one +z ray per pixel center through the mesh, pairs the sorted
hit depths by parity into inside intervals, and feeds them to the closed-form
coefficient formula. Hits are produced by 2D triangle coverage in raster
space (see raster.py), which is exact for orthographic rays and gives the
deterministic shared-edge ownership a watertight count needs. Numerically
degenerate rays (odd hit count, e.g. a pixel center meeting a projected
vertex) are recast with a tiny fixed diagonal jitter up to three times, then
dropped with a warning.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, MeshError, ObjParseError, ShapeError
from .fof import BasisConfig, FourierField, IntervalList
from .raster import OrthoFrame, bary_interp, rasterize_coverage, ray_hits_at_point

log = logging.getLogger(__name__)

JITTER_PIXELS = 1e-4
MAX_RECASTS = 3


@dataclass
class TriMesh:
    """Indexed triangle mesh; normals are optional per-vertex unit vectors."""

    vertices: np.ndarray  # (n, 3) float64
    faces: np.ndarray  # (m, 3) int64
    normals: Optional[np.ndarray] = None  # (n, 3) float64

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(self.normals) != len(self.vertices):
                raise ShapeError("normals must be per-vertex")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def bounds(self):
        if not len(self.vertices):
            raise MeshError("empty mesh has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def face_normals(self, normalized=True):
        v = self.vertices[self.faces]
        n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        if normalized:
            ln = np.linalg.norm(n, axis=1, keepdims=True)
            ln[ln == 0.0] = 1.0
            n = n / ln
        return n

    def face_areas(self):
        v = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)

    def translated(self, offset):
        return TriMesh(self.vertices + np.asarray(offset, dtype=np.float64),
                       self.faces.copy(),
                       None if self.normals is None else self.normals.copy())

    def copy(self):
        return TriMesh(self.vertices.copy(), self.faces.copy(),
                       None if self.normals is None else self.normals.copy())


def drop_degenerate_faces(vertices, faces):
    """Remove faces with repeated indices or exactly zero area."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if not len(faces):
        return faces
    distinct = (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2]) \
        & (faces[:, 0] != faces[:, 2])
    v = np.asarray(vertices, dtype=np.float64)[faces]
    area2 = np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)
    keep = distinct & (area2 > 0.0)
    if not keep.all():
        log.warning("dropped %d degenerate faces", int((~keep).sum()))
    return faces[keep]


def load_obj(path):
    """Load an ASCII Wavefront OBJ (v/f/vn records; everything else ignored)."""
    vertices, normals, faces, face_normal_ids = [], [], [], []
    ignored = set()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "vertex needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise ObjParseError(path, line_no, f"bad vertex: {exc}") from exc
            elif tag == "vn":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "normal needs 3 components")
                try:
                    normals.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise ObjParseError(path, line_no, f"bad normal: {exc}") from exc
            elif tag == "f":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "face needs at least 3 vertices")
                idx, nidx = [], []
                for token in parts[1:]:
                    fields = token.split("/")
                    try:
                        vi = int(fields[0])
                    except ValueError as exc:
                        raise ObjParseError(path, line_no, f"bad face index {token!r}") from exc
                    if vi == 0:
                        raise ObjParseError(path, line_no, "OBJ face indices are 1-based")
                    idx.append(vi - 1 if vi > 0 else len(vertices) + vi)
                    if len(fields) >= 3 and fields[2]:
                        try:
                            ni = int(fields[2])
                        except ValueError as exc:
                            raise ObjParseError(path, line_no,
                                                f"bad normal index {token!r}") from exc
                        nidx.append(ni - 1 if ni > 0 else len(normals) + ni)
                # Fan-triangulate polygons. Every face gets a normal entry
                # (None without normals) so face_normal_ids stays aligned.
                for a in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[a], idx[a + 1]])
                    face_normal_ids.append([nidx[0], nidx[a], nidx[a + 1]]
                                           if len(nidx) == len(idx) else None)
            else:
                ignored.add(tag)
    if ignored:
        log.warning("%s: ignored OBJ records %s", path, sorted(ignored))
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces_arr = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces_arr.size and faces_arr.max() >= len(verts):
        raise ObjParseError(path, 0, "face references a missing vertex")
    with_normals = [nf for nf in face_normal_ids if nf is not None]
    nids = np.asarray(with_normals, dtype=np.int64)
    if nids.size and (nids.min() < 0 or nids.max() >= len(normals)):
        raise ObjParseError(path, 0, "face references a missing normal")
    faces_arr = drop_degenerate_faces(verts, faces_arr)
    vnorm = None
    if normals and not with_normals and len(normals) == len(verts):
        vnorm = np.asarray(normals, dtype=np.float64)
    elif normals and with_normals:
        # Keep per-vertex normals only when the mapping is one-to-one.
        vnorm = np.zeros((len(verts), 3), dtype=np.float64)
        seen = np.zeros(len(verts), dtype=bool)
        consistent = True
        narr = np.asarray(normals, dtype=np.float64)
        for f, nf in zip(faces, face_normal_ids):
            if nf is None:
                continue
            for vi, ni in zip(f, nf):
                if seen[vi] and not np.allclose(vnorm[vi], narr[ni]):
                    consistent = False
                    break
                vnorm[vi] = narr[ni]
                seen[vi] = True
            if not consistent:
                break
        if not (consistent and seen.all()):
            vnorm = None
    return TriMesh(verts, faces_arr, vnorm)


def save_obj(mesh, path):
    """Write v/vn/f records with 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        has_normals = mesh.normals is not None
        if has_normals:
            for n in mesh.normals:
                fh.write(f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
        for f in mesh.faces:
            if has_normals:
                fh.write(f"f {f[0]+1}//{f[0]+1} {f[1]+1}//{f[1]+1} {f[2]+1}//{f[2]+1}\n")
            else:
                fh.write(f"f {f[0]+1} {f[1]+1} {f[2]+1}\n")


def check_watertight(mesh):
    """(is_watertight, boundary_edges).

    Watertight means every undirected edge is used by exactly two faces with
    opposite traversal orientation (vacuously true for an empty mesh).
    boundary_edges lists offending (a, b) vertex pairs.
    """
    f = mesh.faces
    if not len(f):
        return True, []
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    n = mesh.n_vertices
    code = edges[:, 0] * n + edges[:, 1]
    rev_code = edges[:, 1] * n + edges[:, 0]
    code_sorted = np.sort(code)
    # Each directed edge must be unique and its reverse present exactly once.
    dup = code_sorted[1:] == code_sorted[:-1]
    pos = np.searchsorted(code_sorted, rev_code)
    has_rev = (pos < len(code_sorted)) & (code_sorted[np.minimum(pos, len(code_sorted) - 1)] == rev_code)
    bad = np.zeros(len(edges), dtype=bool)
    if dup.any():
        dup_codes = np.unique(code_sorted[1:][dup])
        bad |= np.isin(code, dup_codes)
    bad |= ~has_rev
    if not bad.any():
        return True, []
    offending = edges[bad]
    und = np.sort(offending, axis=1)
    und = np.unique(und, axis=0)
    return False, [tuple(int(x) for x in e) for e in und]


def normalize_mesh(mesh, target_half_extent=0.9):
    """Center the bounding box at the origin and scale so it fits the frame.

    Returns (mesh, scale, offset) with scene = scale * original + offset.
    """
    lo, hi = mesh.bounds()
    center = (lo + hi) / 2.0
    half = float(np.max(hi - lo)) / 2.0
    if half == 0.0:
        raise MeshError("mesh has zero extent")
    scale = target_half_extent / half
    verts = (mesh.vertices - center) * scale
    return TriMesh(verts, mesh.faces.copy(),
                   None if mesh.normals is None else mesh.normals.copy()), scale, -center * scale


def fit_to_frame(mesh, frame=OrthoFrame(), margin=0.9):
    """Normalize only when the mesh does not already fit the frame volume."""
    lo, hi = mesh.bounds()
    c = np.asarray(frame.center)
    half = max(np.max(np.abs(lo - c)), np.max(np.abs(hi - c)))
    if half <= margin * frame.half_extent:
        return mesh
    out, _, _ = normalize_mesh(mesh, target_half_extent=margin * frame.half_extent)
    return out


# ---------------------------------------------------------------------------
# Bounding volume hierarchy (median split on the widest axis, small leaves).


class BVH:
    """Static triangle BVH stored as flat arrays."""

    LEAF_SIZE = 4

    def __init__(self, vertices, faces):
        self.tri_verts = np.asarray(vertices, dtype=np.float64)[np.asarray(faces, dtype=np.int64)]
        m = len(self.tri_verts)
        if m == 0:
            raise MeshError("cannot build a BVH over an empty mesh")
        lo = self.tri_verts.min(axis=1)
        hi = self.tri_verts.max(axis=1)
        centroids = self.tri_verts.mean(axis=1)

        order = np.arange(m, dtype=np.int64)
        node_lo, node_hi = [], []
        node_left, node_right = [], []
        node_start, node_count = [], []

        # Iterative median-split build.
        stack = [(0, m, -1, False)]
        while stack:
            start, count, parent, is_right = stack.pop()
            idx = len(node_lo)
            seg = order[start:start + count]
            node_lo.append(lo[seg].min(axis=0))
            node_hi.append(hi[seg].max(axis=0))
            node_left.append(-1)
            node_right.append(-1)
            if parent >= 0:
                if is_right:
                    node_right[parent] = idx
                else:
                    node_left[parent] = idx
            if count <= self.LEAF_SIZE:
                node_start.append(start)
                node_count.append(count)
                continue
            node_start.append(-1)
            node_count.append(0)
            ext = node_hi[idx] - node_lo[idx]
            axis = int(np.argmax(ext))
            key = centroids[seg, axis]
            half = count // 2
            part = np.argsort(key, kind="stable")
            order[start:start + count] = seg[part]
            stack.append((start + half, count - half, idx, True))
            stack.append((start, half, idx, False))

        self.order = order
        self.node_lo = np.asarray(node_lo)
        self.node_hi = np.asarray(node_hi)
        self.node_left = np.asarray(node_left, dtype=np.int64)
        self.node_right = np.asarray(node_right, dtype=np.int64)
        self.node_start = np.asarray(node_start, dtype=np.int64)
        self.node_count = np.asarray(node_count, dtype=np.int64)

    def ray_candidates(self, x, y):
        """Triangle indices whose AABB contains (x, y) for a +z line."""
        out = []
        stack = [0]
        while stack:
            i = stack.pop()
            if (x < self.node_lo[i, 0] or x > self.node_hi[i, 0]
                    or y < self.node_lo[i, 1] or y > self.node_hi[i, 1]):
                continue
            if self.node_start[i] >= 0:
                s = self.node_start[i]
                out.extend(self.order[s:s + self.node_count[i]])
            else:
                stack.append(self.node_right[i])
                stack.append(self.node_left[i])
        return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Ray casting and encoding.


def _require_watertight(mesh):
    ok, boundary = check_watertight(mesh)
    if not ok:
        raise MeshError(
            f"mesh is not watertight: {len(boundary)} boundary edge(s), e.g. {boundary[:3]}")


def _tris_raster_and_depth(mesh, frame):
    """Per-face raster xy vertices and NDC depth for encoding."""
    ndc = frame.to_ndc(mesh.vertices)
    rast = frame.raster_xy(ndc[:, :2])
    tris = rast[mesh.faces]  # (m, 3, 2)
    tri_z = ndc[mesh.faces][:, :, 2]  # (m, 3)
    return tris, tri_z


def _pair_hits(zs):
    """Parity-pair sorted hit depths into intervals; drop empty pairs."""
    pairs = zs.reshape(-1, 2)
    keep = pairs[:, 1] > pairs[:, 0]
    return pairs[keep]


def ray_intervals(mesh, frame, pixel, bvh=None, _check=True):
    """Occupancy intervals along the +z ray through one pixel center.

    pixel is (row, col). Depths are normalized through the frame; the result
    matches the batched encoder at the same pixel exactly.
    """
    row, col = pixel
    if not (0 <= row < frame.height and 0 <= col < frame.width):
        raise DomainError(f"pixel {pixel} outside {frame.height}x{frame.width} frame")
    if _check:
        _require_watertight(mesh)
    tris, tri_z = _tris_raster_and_depth(mesh, frame)
    if bvh is None:
        bvh = BVH(_raster_points_3d(mesh, frame), mesh.faces)
    px, py = frame.pixel_center_raster(row, col)
    for attempt in range(MAX_RECASTS + 1):
        qx = px + attempt * JITTER_PIXELS
        qy = py + attempt * JITTER_PIXELS
        cand = bvh.ray_candidates(qx, qy)
        zs = ray_hits_at_point(qx, qy, tris[cand], tri_z[cand])
        if len(zs) % 2 == 0:
            if attempt:
                log.warning("pixel %s recast with jitter %d", pixel, attempt)
            return IntervalList(_pair_hits(zs))
    log.warning("pixel %s degenerate after %d recasts; treated as empty", pixel, MAX_RECASTS)
    return IntervalList()


def _raster_points_3d(mesh, frame):
    """Vertex positions with raster xy and untouched z, for the xy-BVH."""
    ndc = frame.to_ndc(mesh.vertices)
    rast = frame.raster_xy(ndc[:, :2])
    return np.column_stack([rast, ndc[:, 2]])


def ray_cast_all(mesh, frame, check=True):
    """Sorted hit depth lists for every pixel, parity-repaired.

    Returns (pixel_index, z) arrays sorted by (pixel, z); consumers pair by
    parity. Shared by mesh_to_fof and diagnostics.
    """
    if check:
        _require_watertight(mesh)
    tris, tri_z = _tris_raster_and_depth(mesh, frame)
    rec = rasterize_coverage(tris, frame.width, frame.height)
    if len(rec.pixel) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    z = bary_interp(rec.bary, tri_z[rec.tri])
    order = np.lexsort((z, rec.pixel))
    pix = rec.pixel[order]
    z = z[order]

    counts = np.bincount(pix, minlength=frame.width * frame.height)
    odd = np.nonzero(counts % 2 == 1)[0]
    if len(odd):
        bvh = BVH(_raster_points_3d(mesh, frame), mesh.faces)
        keep = ~np.isin(pix, odd)
        fixed_pix, fixed_z = [pix[keep]], [z[keep]]
        for flat in odd:
            row, col = divmod(int(flat), frame.width)
            iv = ray_intervals(mesh, frame, (row, col), bvh=bvh, _check=False)
            if len(iv):
                fixed_pix.append(np.full(2 * len(iv), flat, dtype=np.int64))
                fixed_z.append(iv.intervals.ravel())
        pix = np.concatenate(fixed_pix)
        z = np.concatenate(fixed_z)
        order = np.lexsort((z, pix))
        pix, z = pix[order], z[order]
    return pix, z


def mesh_to_fof(mesh, frame=OrthoFrame(), cfg=BasisConfig()):
    """Encode a watertight mesh into a FourierField over the frame.

    Equivalent to per-pixel ray_intervals + intervals_to_coeffs, but batched:
    all pixel hits are produced by one vectorized coverage pass and the
    closed-form coefficient updates are accumulated per interval in ascending
    depth order (the same order the per-ray path uses).
    """
    pix, z = ray_cast_all(mesh, frame)
    H, W, K = frame.height, frame.width, cfg.channels
    data = np.zeros((H * W, K), dtype=np.float64)
    if len(pix):
        a = z[0::2]
        b = z[1::2]
        ipix = pix[0::2]
        if not np.array_equal(ipix, pix[1::2]):
            raise MeshError("internal: unpaired ray hits after parity repair")
        keep = b > a
        a, b, ipix = a[keep], b[keep], ipix[keep]
        np.add.at(data[:, 0], ipix, (b - a) / 2.0)
        freqs = cfg.freqs()
        for n in range(cfg.order):
            w = freqs[n]
            np.add.at(data[:, 1 + 2 * n], ipix, (np.sin(w * b) - np.sin(w * a)) / w)
            np.add.at(data[:, 2 + 2 * n], ipix, (np.cos(w * a) - np.cos(w * b)) / w)
    return FourierField(data.reshape(H, W, K))


def field_volume(fof, frame=OrthoFrame()):
    """Scene volume implied by channel 0: sum over pixels of the occupied
    depth length times the pixel footprint."""
    pixel_area = (2.0 * frame.half_extent / frame.width) * (2.0 * frame.half_extent / frame.height)
    return float(np.sum(2.0 * fof.data[:, :, 0]) * frame.half_extent * pixel_area)


def mesh_volume_divergence(mesh):
    """Signed volume via the divergence theorem (tetrahedra to the origin)."""
    v = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->", v[:, 0], np.cross(v[:, 1], v[:, 2])) / 6.0)
