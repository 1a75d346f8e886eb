"""Triangle meshes: OBJ I/O, watertightness, BVH, and mesh-to-field encoding.

Encoding casts one +z ray per pixel center through the mesh, pairs the sorted
hit depths by parity into inside intervals, and feeds them to the closed-form
coefficient terms of fof.interval_terms. Hits are produced by 2D triangle coverage in raster
space (see raster.py), which is exact for orthographic rays and gives the
deterministic shared-edge ownership a watertight count needs. The batched
encoder and the single-ray caster use the same coverage rule; a single ray
tests the triangles whose raster bounding box holds its point. Numerically
degenerate rays (odd hit count, e.g. a pixel center meeting a projected
vertex) are recast with a tiny fixed diagonal jitter up to three times, then
dropped with a warning.

The BVH serves point-to-surface distance queries (metrics.py).
"""

import logging
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .errors import DomainError, MeshError, ObjParseError, ShapeError
from .fof import BasisConfig, FourierField, IntervalList, _check_frame, interval_terms
from .raster import OrthoFrame, bary_interp, rasterize_coverage, ray_hits_at_point

log = logging.getLogger(__name__)

JITTER_PIXELS = 1e-4
MAX_RECASTS = 3
_OBJ_KINDS = {"v": 1, "vn": 2, "f": 3}
_OBJ_BLOCK_CHARS = 1 << 18  # text parsed together by load_obj; bounds its temporaries
_OBJ_WRITE_ROWS = 4096  # records per formatted write in save_obj


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

    def face_normals(self):
        v = self.vertices[self.faces]
        n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        ln = np.linalg.norm(n, axis=1, keepdims=True)
        ln[ln == 0.0] = 1.0
        return n / ln

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


def _numbers(tokens, kind):
    """[kind(t) for t in tokens], and None; at the first token kind rejects,
    the values before it and (its position, the ValueError)."""
    try:
        return list(map(kind, tokens)), None
    except ValueError:
        pass
    values = []
    for token in tokens:
        try:
            values.append(kind(token))
        except ValueError as exc:
            return values, (len(values), exc)
    return values, None


def _index_array(values):
    """int64 array of parsed OBJ indices; values past int64 are clamped to
    +-2**62, which no count of records reaches."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -2**62, 2**62).astype(np.int64)


def _pick(items, positions):
    """The items at ascending positions, as a list."""
    mask = np.zeros(len(items), dtype=bool)
    mask[positions] = True
    return list(compress(items, mask.tolist()))


def _obj_records(kinds, counts, kind, short_msg, errors):
    """Line indices of one kind of record. Every v, vn and f record needs its
    tag and three values; the first short one goes to errors as
    (line index + 1, token position, check, message) and is left out."""
    at = np.flatnonzero(kinds == kind)
    ok = counts[at] >= 4
    if not ok.all():
        errors.append((at[np.argmin(ok)] + 1, -1, 0, short_msg))
    return at[ok]


def _obj_vectors(tokens, first, at, bad_msg, errors):
    """(n, 3) float64 of the v or vn records at line indices `at` (first
    holds each line's first token position), or None when a coordinate is
    malformed; the first malformed one goes to errors."""
    values, bad = _numbers(_pick(tokens, (first[at, None] + (1, 2, 3)).ravel()), float)
    if bad:
        errors.append((at[bad[0] // 3] + 1, -1, 0, f"{bad_msg}: {bad[1]}"))
        return None
    return np.array(values, dtype=np.float64).reshape(-1, 3)


def _obj_faces(tokens, first, counts, at, v_seen, vn_seen, errors):
    """Fan-triangulated faces of the f records at line indices `at`.

    Returns faces (m, 3), their normal ids (m, 3) and which faces carry
    normal indices, in file order, or None when an index is malformed.
    v_seen and vn_seen count the v and vn records up to each line; negative
    indices count back from them. Malformed indices go to errors like
    _obj_vectors, keyed by token position and check, so that the least key
    is the first failure in file order.
    """
    sizes = counts[at] - 1
    starts = np.cumsum(sizes) - sizes
    token_row = np.repeat(np.arange(len(at)), sizes)
    n_tok = len(token_row)
    corner_tokens = _pick(tokens, first[at][token_row] + 1 + np.arange(n_tok) - starts[token_row])
    if "/" in "".join(corner_tokens):
        fields = "/".join(corner_tokens).split("/")
        n_fields = 1 + np.fromiter(map(str.count, corner_tokens, repeat("/")),
                                   dtype=np.intp, count=n_tok)
    else:  # one field per token
        fields, n_fields = corner_tokens, np.ones(n_tok, dtype=np.intp)
    field0 = np.cumsum(n_fields) - n_fields

    def fail(t, check, message):
        errors.append((at[token_row[t]] + 1, t - starts[token_row[t]], check, message))

    vi, bad = _numbers(_pick(fields, field0), int)
    vi = _index_array(vi)
    if bad:
        fail(bad[0], 0, f"bad face index {corner_tokens[bad[0]]!r}")
    zero = np.flatnonzero(vi == 0)
    if zero.size:
        fail(zero[0], 1, "OBJ face indices are 1-based")
    third = np.flatnonzero(n_fields >= 3)
    normal_fields = _pick(fields, field0[third] + 2)
    present = np.fromiter(map(len, normal_fields), dtype=np.intp, count=len(third)) > 0
    with_n = third[present]
    ni, bad = _numbers(list(compress(normal_fields, present.tolist())), int)
    if bad:
        fail(with_n[bad[0]], 2, f"bad normal index {corner_tokens[with_n[bad[0]]]!r}")
    if errors:
        return None
    vi = np.where(vi > 0, vi - 1, np.repeat(v_seen[at], sizes) + vi)
    ni = _index_array(ni)
    nid = np.zeros(n_tok, dtype=np.int64)
    nid[with_n] = np.where(ni > 0, ni - 1, np.repeat(vn_seen[at], sizes)[with_n] + ni)
    row_has_n = np.bincount(token_row[with_n], minlength=len(sizes)) == sizes
    # Triangle a of a k-gon has corners (0, a, a + 1), a = 1 .. k - 2.
    tris = sizes - 2
    row = np.repeat(np.arange(len(sizes)), tris)
    a = np.arange(len(row)) - (np.cumsum(tris) - tris)[row] + 1
    corner = starts[row, None] + np.stack([np.zeros_like(a), a, a + 1], axis=1)
    return vi[corner], nid[corner], row_has_n[row]


def load_obj(path):
    """Load an ASCII Wavefront OBJ (v/f/vn records; everything else ignored).

    Records are parsed by kind, a block of lines at a time: the coordinates
    of a block's v (and vn) records go through one float conversion, its
    face indices through one int conversion, and its polygons are
    fan-triangulated in one step. A malformed record raises ObjParseError
    naming the first bad line.
    """
    no_rows = np.zeros((0, 3))
    verts, normals = [no_rows], [no_rows]
    faces = [(no_rows.astype(np.int64), no_rows.astype(np.int64), np.zeros(0, dtype=bool))]
    ignored = set()
    n_lines = n_v = n_vn = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        while lines := fh.readlines(_OBJ_BLOCK_CHARS):
            counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.intp,
                                 count=len(lines))
            tokens = "".join(lines).split()
            first = np.cumsum(counts) - counts
            tags = _pick(tokens, first[counts > 0])
            kinds = np.full(len(lines), -1, dtype=np.int8)  # -1: blank line
            kinds[counts > 0] = np.fromiter(map(_OBJ_KINDS.get, tags, repeat(0)),
                                            dtype=np.int8, count=len(tags))
            ignored.update(compress(tags, (kinds[counts > 0] == 0).tolist()))
            errors = []
            v_at = _obj_records(kinds, counts, 1, "vertex needs 3 coordinates", errors)
            vn_at = _obj_records(kinds, counts, 2, "normal needs 3 components", errors)
            f_at = _obj_records(kinds, counts, 3, "face needs at least 3 vertices", errors)
            verts.append(_obj_vectors(tokens, first, v_at, "bad vertex", errors))
            normals.append(_obj_vectors(tokens, first, vn_at, "bad normal", errors))
            faces.append(_obj_faces(tokens, first, counts, f_at, n_v + np.cumsum(kinds == 1),
                                    n_vn + np.cumsum(kinds == 2), errors))
            if errors:
                line_no, _, _, message = min(errors, key=lambda e: e[:3])
                raise ObjParseError(path, n_lines + int(line_no), message)
            n_lines, n_v, n_vn = n_lines + len(lines), n_v + len(v_at), n_vn + len(vn_at)
    ignored = sorted(tag for tag in ignored if not tag.startswith("#"))
    if ignored:
        log.warning("%s: ignored OBJ records %s", path, ignored)
    verts, normals = np.concatenate(verts), np.concatenate(normals)
    faces, normal_ids, has_n = (np.concatenate(part) for part in zip(*faces))
    if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
        raise ObjParseError(path, 0, "face references a missing vertex")
    nids = normal_ids[has_n]
    if nids.size and (nids.min() < 0 or nids.max() >= len(normals)):
        raise ObjParseError(path, 0, "face references a missing normal")
    vnorm = None
    if len(normals) and not nids.size and len(normals) == len(verts):
        vnorm = normals
    elif len(normals) and nids.size:
        vnorm = _vertex_normals(faces[has_n].ravel(), nids.ravel(), normals, len(verts))
    return TriMesh(verts, drop_degenerate_faces(verts, faces), vnorm)


def _vertex_normals(corner_v, corner_n, normals, n_vertices):
    """Per-vertex normals from face corners in file order, or None unless
    every vertex has a corner and each vertex's successive normals pass
    np.allclose(previous, next); the last one is kept."""
    order = np.argsort(corner_v, kind="stable")
    v, n = corner_v[order], corner_n[order]
    again = v[1:] == v[:-1]
    if not np.isclose(normals[n[:-1][again]], normals[n[1:][again]]).all():
        return None
    last = np.append(~again, True)
    if last.sum() != n_vertices:
        return None
    vnorm = np.empty((n_vertices, 3), dtype=np.float64)
    vnorm[v[last]] = normals[n[last]]
    return vnorm


def save_obj(mesh, path):
    """Write v/vn/f records with 9 significant digits."""
    has_normals = mesh.normals is not None
    blocks = [("v %.9g %.9g %.9g\n", mesh.vertices)]
    if has_normals:
        blocks.append(("vn %.9g %.9g %.9g\n", mesh.normals))
        blocks.append(("f %d//%d %d//%d %d//%d\n", np.repeat(mesh.faces + 1, 2, axis=1)))
    else:
        blocks.append(("f %d %d %d\n", mesh.faces + 1))
    with open(path, "w", encoding="utf-8") as fh:
        for fmt, rows in blocks:
            for start in range(0, len(rows), _OBJ_WRITE_ROWS):
                chunk = rows[start:start + _OBJ_WRITE_ROWS]
                fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def check_watertight(mesh):
    """(is_watertight, boundary_edges).

    Watertight means every undirected edge is used by exactly two faces with
    opposite traversal orientation (vacuously true for an empty mesh): the
    directed edges are distinct and are the same set as their reverses.
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
    dup = code_sorted[1:] == code_sorted[:-1]
    if not dup.any() and np.array_equal(code_sorted, np.sort(rev_code)):
        return True, []
    # Offending edges: repeated ones and those whose reverse is missing.
    pos = np.searchsorted(code_sorted, rev_code)
    has_rev = (pos < len(code_sorted)) & (code_sorted[np.minimum(pos, len(code_sorted) - 1)] == rev_code)
    bad = ~has_rev | np.isin(code, code_sorted[1:][dup])
    und = np.unique(np.sort(edges[bad], axis=1), axis=0)
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
    """Static triangle BVH stored as flat arrays.

    A leaf holds the triangles order[node_start:node_start + node_count]; an
    inner node has node_start -1 and children node_left and node_right.
    Boxes are stored axis-major, shape (3, n), so a box test reads one
    contiguous row per axis: node_lo and node_hi per node, tri_lo and tri_hi
    per slot of `order`.
    """

    LEAF_SIZE = 8

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
        self.tri_lo = lo[order].T.copy()
        self.tri_hi = hi[order].T.copy()
        self.node_lo = np.asarray(node_lo).T.copy()
        self.node_hi = np.asarray(node_hi).T.copy()
        self.node_left = np.asarray(node_left, dtype=np.int64)
        self.node_right = np.asarray(node_right, dtype=np.int64)
        self.node_start = np.asarray(node_start, dtype=np.int64)
        self.node_count = np.asarray(node_count, dtype=np.int64)


# ---------------------------------------------------------------------------
# Ray casting and encoding.


def _require_watertight(mesh):
    ok, boundary = check_watertight(mesh)
    if not ok:
        raise MeshError(
            f"mesh is not watertight: {len(boundary)} boundary edge(s), e.g. {boundary[:3]}")


def _pair_hits(zs):
    """Parity-pair sorted hit depths into intervals; drop empty pairs."""
    pairs = zs.reshape(-1, 2)
    keep = pairs[:, 1] > pairs[:, 0]
    return pairs[keep]


def ray_intervals(mesh, frame, pixel):
    """Occupancy intervals along the +z ray through one pixel center.

    pixel is (row, col). Depths are normalized through the frame; the result
    matches the batched encoder at the same pixel exactly.
    """
    row, col = pixel
    if not (0 <= row < frame.height and 0 <= col < frame.width):
        raise DomainError(f"pixel {pixel} outside {frame.height}x{frame.width} frame")
    _require_watertight(mesh)
    return _cast_pixel(*frame.project_faces(mesh.vertices, mesh.faces), frame, pixel)


def _cast_pixel(tris, tri_z, frame, pixel):
    """Intervals of one pixel's ray through projected faces, recast with the
    fixed diagonal jitter while its hit count is odd."""
    px, py = frame.pixel_center_raster(*pixel)
    for attempt in range(MAX_RECASTS + 1):
        qx = px + attempt * JITTER_PIXELS
        qy = py + attempt * JITTER_PIXELS
        zs = ray_hits_at_point(qx, qy, tris, tri_z)
        if len(zs) % 2 == 0:
            if attempt:
                log.warning("pixel %s recast with jitter %d", pixel, attempt)
            return IntervalList(_pair_hits(zs))
    log.warning("pixel %s degenerate after %d recasts; treated as empty", pixel, MAX_RECASTS)
    return IntervalList()


def ray_cast_all(mesh, frame):
    """Sorted hit depth lists for every pixel, parity-repaired.

    Returns (pixel_index, z) arrays sorted by (pixel, z); consumers pair by
    parity. Shared by mesh_to_fof and diagnostics.
    """
    _require_watertight(mesh)
    tris, tri_z = frame.project_faces(mesh.vertices, mesh.faces)
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
        keep = ~np.isin(pix, odd)
        fixed_pix, fixed_z = [pix[keep]], [z[keep]]
        for flat in odd:
            iv = _cast_pixel(tris, tri_z, frame, divmod(int(flat), frame.width))
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
    all pixel hits come from one vectorized coverage pass, and the
    interval_terms rows of every interval are added to their pixels in
    ascending depth order, the order intervals_to_coeffs adds them in.
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
        ipix, terms = ipix[keep], interval_terms(a[keep], b[keep], cfg)
        # Hits come sorted by pixel, so interval j is the rank[j]-th of its
        # pixel; adding every pixel's k-th interval in step k keeps each
        # pixel's ascending-depth sum order without a scatter-add.
        rank = np.arange(len(ipix)) - np.searchsorted(ipix, ipix)
        for k in range(int(rank.max(initial=-1)) + 1):
            at = rank == k
            data[ipix[at]] += terms[at]
    return FourierField(data.reshape(H, W, K))


def field_volume(fof, frame=OrthoFrame()):
    """Scene volume implied by channel 0: sum over pixels of the occupied
    depth length times the pixel footprint."""
    _check_frame(fof, frame)
    pixel_area = (2.0 * frame.half_extent / frame.width) * (2.0 * frame.half_extent / frame.height)
    return float(np.sum(2.0 * fof.data[:, :, 0]) * frame.half_extent * pixel_area)


def mesh_volume_divergence(mesh):
    """Signed volume via the divergence theorem (tetrahedra to the origin)."""
    v = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->", v[:, 0], np.cross(v[:, 1], v[:, 2])) / 6.0)
