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
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DomainError, MeshError, ObjParseError, ShapeError, check_array,
                     check_path, check_type, require, zeros)
from .fof import BasisConfig, FourierField, IntervalList, _check_frame, interval_terms
from .raster import (HALF_EXTENT, OrthoFrame, _face_blocks, bary_interp, rasterize_coverage,
                     ray_hits_at_point)

log = logging.getLogger(__name__)

JITTER_PIXELS = 1e-4
MAX_RECASTS = 3
# str.split()'s separators but "\n" (none lies past U+3000), as str.translate maps them to " "
_BLANKS = {c: " " for c in range(0x3001) if chr(c).isspace() and c != ord("\n")}
_OBJ_BLOCK_CHARS = 1 << 18  # bytes load_obj parses together, to a line end; bounds its temporaries
_OBJ_WRITE_ROWS = 1 << 15  # records per formatted write in save_obj
_POW10 = 10 ** np.arange(19, dtype=np.int64)


@dataclass
class TriMesh:
    """Indexed triangle mesh; normals are optional per-vertex unit vectors.

    Vertices and normals are (n, 3) finite numbers; faces are (m, 3) whole
    numbers, not copied when they are already int64.
    """

    vertices: np.ndarray  # (n, 3) float64
    faces: np.ndarray  # (m, 3) int64
    normals: Optional[np.ndarray] = None  # (n, 3) float64

    def __post_init__(self):
        self.vertices = check_array(self.vertices, "mesh vertices", (None, 3))
        faces = np.asarray(self.faces)
        if faces.dtype.kind == "f":
            faces = check_array(faces, "mesh faces", (None, 3))
            if not np.array_equal(faces, np.trunc(faces)):
                raise DomainError("mesh faces must be whole vertex indices")
        else:
            faces = check_array(faces, "mesh faces", (None, 3), dtype=np.int64)
        if faces.size and (faces.min() < 0 or faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")
        self.faces = faces.astype(np.int64, copy=False)
        if self.normals is not None:
            self.normals = check_array(self.normals, "mesh normals", (None, 3))
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

    def face_normals(self, index=None):
        """Unit normals of the faces, or of faces[index]; a face of zero
        area gets a zero normal."""
        n, ln = _face_cross(self.vertices, self.faces if index is None else self.faces[index])
        ln[ln == 0.0] = 1.0
        return (n / ln).T

    def face_areas(self):
        return 0.5 * _face_norms(self.vertices, self.faces)

    def translated(self, offset):
        return TriMesh(self.vertices + check_array(offset, "offset", (3,)),
                       self.faces.copy(),
                       None if self.normals is None else self.normals.copy())

    def copy(self):
        return TriMesh(self.vertices.copy(), self.faces.copy(),
                       None if self.normals is None else self.normals.copy())


def _face_cross(vertices, faces):
    """Each face's (b - a) x (c - a) as (3, m) component rows, and its norm.

    The components follow np.cross's formula and the norm sums the squares
    left to right, as np.linalg.norm sums a row, so both equal that form
    bit for bit. The corners are gathered one coordinate at a time, into
    contiguous rows, so a call copies nothing of the mesh but the faces'
    corners.
    """
    v = np.asarray(vertices, dtype=np.float64)
    n = _corner_cross(*(np.stack([v[corner, k] for k in range(3)])
                        for corner in np.asarray(faces).T))
    return n, np.sqrt((n[0] * n[0] + n[1] * n[1]) + n[2] * n[2])


def _face_norms(vertices, faces):
    """The norms of _face_cross, one raster face block at a time, so no
    per-face temporary spans the mesh."""
    out = np.empty(len(faces))
    for block in _face_blocks(len(faces)):
        out[block] = _face_cross(vertices, faces[block])[1]
    return out


def _corner_cross(a, b, c):
    """The cross products of _face_cross, from the corners a, b and c as
    (axis, face) rows."""
    u = b - a
    v = c - a
    return np.array([u[1] * v[2] - u[2] * v[1],
                     u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def drop_degenerate_faces(vertices, faces):
    """Remove faces with repeated indices or exactly zero area."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if not len(faces):
        return faces
    distinct = (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2]) \
        & (faces[:, 0] != faces[:, 2])
    area2 = _face_norms(vertices, faces)
    keep = distinct & (area2 > 0.0)
    if keep.all():
        return faces
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
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.clip(np.array(values, dtype=object), -2**62, 2**62).astype(np.int64)


class _ObjBlock:
    """A block of OBJ lines cut into the tokens str.split() gives, held as
    numpy positions: token i is text[starts[i]:ends[i]], and line j of the
    block holds counts[j] tokens, from token first[j] on.

    The block arrives as bytes and is read as text mode reads it: "\r\n"
    and a lone "\r" end a line as "\n" does, and bytes that are not UTF-8
    become U+FFFD. chars holds one byte per character of text: an ASCII
    block's own bytes; for any other block, separators other than "\n" as
    " " and characters past U+00FF as "?".
    """

    def __init__(self, data):
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.endswith(b"\n"):
            data += b"\n"  # the closing newline ends the last token, so chars[ends] is in range
        if not data.isascii():
            self.text = data.decode("utf-8", "replace")
            data = self.text.translate(_BLANKS).encode("latin-1", "replace")
        self.chars = np.frombuffer(data, dtype=np.uint8)
        # The bytes str.split() separates at: "\t" to "\r" and "\x1c" to " "
        # (a non-ASCII block holds no U+0085 or U+00A0 any more). uint8 wraps below 9 and 28.
        blank = (self.chars - np.uint8(9) <= 4) | (self.chars - np.uint8(28) <= 4)
        edges = np.flatnonzero(np.diff(blank, prepend=True))
        self.starts, self.ends = edges[::2], edges[1::2]  # token starts and ends in turn
        before = np.searchsorted(self.starts, np.flatnonzero(self.chars == ord("\n")))
        self.counts = np.diff(before, prepend=0)
        self.first = before - self.counts
        self.slashes = np.append(np.flatnonzero(self.chars == ord("/")), len(self.chars))

    @cached_property
    def text(self):
        """An ASCII block's text, decoded only when a tag, an odd token or
        an error needs it."""
        return self.chars.tobytes().decode("ascii")

    def kinds(self):
        """Each line's record kind (1 v, 2 vn, 3 f, 0 any other tag, -1 a
        blank line) and the set of other tags that are not comments."""
        has = self.counts > 0
        s = self.starts[self.first[has]]
        size = self.ends[self.first[has]] - s
        c0, c1 = self.chars[s], self.chars[s + 1]
        tag_kind = np.select([(size == 1) & (c0 == ord("v")),
                              (size == 2) & (c0 == ord("v")) & (c1 == ord("n")),
                              (size == 1) & (c0 == ord("f"))], [1, 2, 3])
        kinds = np.full(len(self.counts), -1, dtype=np.int8)
        kinds[has] = tag_kind
        other = (tag_kind == 0) & (c0 != ord("#"))
        tags = {self.text[a:b] for a, b in zip(s[other].tolist(), (s + size)[other].tolist())}
        return kinds, tags

    def numbers(self, lo, hi, kind):
        """kind (float or int) of each span text[lo:hi] as an array, and
        None; at the first span kind rejects, (its position, the
        ValueError), the values before it being right. Plain decimal spans
        are converted in bulk (_decimals); _numbers reads the others with
        kind."""
        if not len(lo):
            return np.zeros(0, dtype=np.float64 if kind is float else np.int64), None
        values, plain = self._decimals(lo, hi, kind)
        odd = np.flatnonzero(~plain)
        if len(odd):
            tokens = [self.text[a:b] for a, b in zip(lo[odd].tolist(), hi[odd].tolist())]
            converted, bad = _numbers(tokens, kind)
            values[odd[:len(converted)]] = converted if kind is float else _index_array(converted)
            if bad:
                return values, (int(odd[bad[0]]), bad[1])
        return values, None

    def _decimals(self, lo, hi, kind):
        """kind of each span text[lo:hi], and which spans are plain: an
        optional "-" and 1 to 15 ASCII digits, for a float with at most one
        "." among or around them. Other spans get arbitrary values. The
        char at each hi must be a separator ("/" or a blank).

        A plain float is its digits as an integer m < 10**15 over 10**k, k
        the digits after the point. Both are exact doubles, so the one
        rounding of the division gives the correctly rounded value that
        float returns."""
        neg = self.chars[lo] == ord("-")
        first = lo + neg
        value, end = self._run(first, hi)
        if kind is int:
            return np.where(neg, -value, value), (end == hi) & (end > first)
        dot = self.chars[end] == ord(".")
        frac, frac_end = self._run(end + dot, hi)
        n_frac = frac_end - end - dot
        n_digits = end - first + n_frac
        scale = _POW10[np.clip(n_frac, 0, 15)]
        value = (value * scale + frac) / scale.astype(np.float64)
        return np.where(neg, -value, value), (frac_end == hi) & (n_digits >= 1) & (n_digits <= 15)

    def _run(self, lo, hi):
        """The value (int64) and the end of the run of ASCII digits that
        starts at each lo, stopping at hi, a separator, or after 18 digits,
        which cannot overflow. Each step appends a digit to every value,
        a 0 to those whose run has ended; the division drops those 0s."""
        value = np.zeros(len(lo), dtype=np.int64)
        end = lo.copy()
        going = np.ones(len(lo), dtype=bool)
        steps = 0
        for _ in range(min(int((hi - lo).max(initial=0)), 18)):
            digit = self._digit_values[end]
            going &= digit <= 9
            if not going.any():
                break
            digit *= going
            value *= 10
            value += digit
            end += going
            steps += 1
        return value // _POW10[steps - (end - lo)], end

    @cached_property
    def _digit_values(self):
        return self.chars - np.uint8(ord("0"))  # wraps below "0"


def _obj_records(kinds, counts, kind, short_msg, errors):
    """Line indices of one kind of record. Every v, vn and f record needs its
    tag and three values; the first short one goes to errors as
    (line index + 1, token position, check, message) and is left out."""
    at = np.flatnonzero(kinds == kind)
    ok = counts[at] >= 4
    if not ok.all():
        errors.append((at[np.argmin(ok)] + 1, -1, 0, short_msg))
    return at[ok]


def _obj_vectors(block, at, bad_msg, errors):
    """(n, 3) float64 of the v or vn records at line indices `at` of the
    block, or None when a coordinate is malformed; the first malformed one
    goes to errors."""
    t = (block.first[at, None] + (1, 2, 3)).ravel()
    values, bad = block.numbers(block.starts[t], block.ends[t], float)
    if bad:
        errors.append((at[bad[0] // 3] + 1, -1, 0, f"{bad_msg}: {bad[1]}"))
        return None
    return values.reshape(-1, 3)


def _obj_faces(block, at, v_seen, vn_seen, errors):
    """Fan-triangulated faces of the f records at line indices `at` of the
    block.

    Returns faces (m, 3), their normal ids (m, 3) and which faces carry
    normal indices, in file order, or None when an index is malformed.
    v_seen and vn_seen count the v and vn records up to each line; negative
    indices count back from them. A corner token's vertex index is its text
    up to the first '/', its normal index the text after the second '/' up
    to the third, if not empty. Malformed indices go to errors like
    _obj_vectors, keyed by token position and check, so that the least key
    is the first failure in file order.
    """
    sizes = block.counts[at] - 1
    starts = np.cumsum(sizes) - sizes
    token_row = np.repeat(np.arange(len(at)), sizes)
    n_tok = len(token_row)
    t = np.repeat(block.first[at] + 1 - starts, sizes)
    t += np.arange(n_tok)
    lo, hi = block.starts[t], block.ends[t]
    slash = np.searchsorted(block.slashes, lo)  # the token's first '/', if it has one
    third = np.flatnonzero(np.searchsorted(block.slashes, hi) - slash >= 2)
    n_lo = block.slashes[slash[third] + 1] + 1
    n_hi = np.minimum(block.slashes[slash[third] + 2], hi[third])

    def fail(t, check, message):
        errors.append((at[token_row[t]] + 1, t - starts[token_row[t]], check, message))

    def token(t):
        return block.text[lo[t]:hi[t]]

    vi, bad = block.numbers(lo, np.minimum(block.slashes[slash], hi), int)
    if bad:
        fail(bad[0], 0, f"bad face index {token(bad[0])!r}")
        vi = vi[:bad[0]]
    zero = np.flatnonzero(vi == 0)
    if zero.size:
        fail(zero[0], 1, "OBJ face indices are 1-based")
    present = n_hi > n_lo
    with_n = third[present]
    ni, bad = block.numbers(n_lo[present], n_hi[present], int)
    if bad:
        fail(with_n[bad[0]], 2, f"bad normal index {token(with_n[bad[0]])!r}")
    if errors:
        return None
    vi = np.where(vi > 0, vi - 1, np.repeat(v_seen[at], sizes) + vi)
    nid = np.zeros(n_tok, dtype=np.int64)
    nid[with_n] = np.where(ni > 0, ni - 1, np.repeat(vn_seen[at], sizes)[with_n] + ni)
    row_has_n = np.bincount(token_row[with_n], minlength=len(sizes)) == sizes
    # A k-gon's fan has a triangle (0, a, a + 1) for each inner corner a.
    inner = np.ones(n_tok, dtype=bool)
    inner[starts] = inner[starts + sizes - 1] = False
    a = np.flatnonzero(inner)
    row = token_row[a]
    corner = np.stack([starts[row], a, a + 1], axis=1)
    return vi[corner], nid[corner], row_has_n[row]


def _line_blocks(fh):
    """The bytes of the binary file fh in blocks of whole lines. Each read
    of _OBJ_BLOCK_CHARS bytes, one byte longer when it ends in "\r" so that
    a "\r\n" stays whole, is cut after its last line end, and the rest
    starts the next block. A block is at most _OBJ_BLOCK_CHARS + 1 bytes
    longer than its first two lines."""
    parts = []
    while data := fh.read(_OBJ_BLOCK_CHARS):
        if data.endswith(b"\r"):
            data += fh.read(1)
        # A "\r" that is still last may begin a "\r\n"; the next read decides.
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            yield b"".join(parts) + data[:cut]
            parts = []
        parts.append(data[cut:])
    if rest := b"".join(parts):
        yield rest


def load_obj(path):
    """Load an ASCII Wavefront OBJ (v/f/vn records; everything else ignored).

    The file is read as bytes, a block of whole lines at a time, and each
    block is read as text mode would read it (see _ObjBlock). _ObjBlock
    finds a block's tokens (those str.split() gives) with numpy, one byte
    per character, so token counts, record kinds and the positions of each
    record's numbers are array operations. Coordinates and indices written
    as plain decimals ("-" and digits, and one "." in a coordinate) are
    converted in numpy, exactly; Python's float or int reads any other
    token, which accepts what a per-line parser with float and int accepts
    and names the first bad token. The polygons are fan-triangulated in one
    step. A malformed record raises ObjParseError naming the first bad line.
    """
    no_rows = np.zeros((0, 3))
    verts, normals = [no_rows], [no_rows]
    faces = [(no_rows.astype(np.int64), no_rows.astype(np.int64), np.zeros(0, dtype=bool))]
    ignored = set()
    n_lines = n_v = n_vn = 0
    with open(check_path(path), "rb") as fh:
        for data in _line_blocks(fh):
            block = _ObjBlock(data)
            kinds, tags = block.kinds()
            ignored |= tags
            errors = []
            v_at = _obj_records(kinds, block.counts, 1, "vertex needs 3 coordinates", errors)
            vn_at = _obj_records(kinds, block.counts, 2, "normal needs 3 components", errors)
            f_at = _obj_records(kinds, block.counts, 3, "face needs at least 3 vertices", errors)
            verts.append(_obj_vectors(block, v_at, "bad vertex", errors))
            normals.append(_obj_vectors(block, vn_at, "bad normal", errors))
            faces.append(_obj_faces(block, f_at, n_v + np.cumsum(kinds == 1),
                                    n_vn + np.cumsum(kinds == 2), errors))
            if errors:
                line_no, _, _, message = min(errors, key=lambda e: e[:3])
                raise ObjParseError(path, n_lines + int(line_no), message)
            n_lines, n_v, n_vn = n_lines + len(kinds), n_v + len(v_at), n_vn + len(vn_at)
    ignored = sorted(ignored)
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
    mesh = TriMesh(verts, faces, vnorm)  # rejects non-finite values before the area test
    mesh.faces = drop_degenerate_faces(verts, faces)
    return mesh


def _vertex_normals(corner_v, corner_n, normals, n_vertices):
    """Per-vertex normals from face corners in file order, or None unless
    every vertex has a corner and each vertex's successive normals pass
    np.allclose(previous, next); the last one is kept. The normals that
    corners reference must be finite."""
    check_array(normals[corner_n], "mesh normals", (None, 3))
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
    """Write v/vn/f records: coordinates with 9 significant digits ("%.9g"),
    then each face's 1-based vertex indices, as "a//a" when the mesh has
    normals. The vertex text is Python's; the face text is built in numpy
    (_face_text), byte for byte what "%d" writes."""
    check_type(mesh, "mesh", TriMesh)
    blocks = [("v %.9g %.9g %.9g\n", mesh.vertices)]
    if mesh.normals is not None:
        blocks.append(("vn %.9g %.9g %.9g\n", mesh.normals))
    with open(check_path(path), "w", encoding="utf-8") as fh:
        for fmt, rows in blocks:
            for start in range(0, len(rows), _OBJ_WRITE_ROWS):
                chunk = rows[start:start + _OBJ_WRITE_ROWS]
                fh.write((fmt * len(chunk)) % tuple(chunk.ravel().tolist()))
        for start in range(0, len(mesh.faces), _OBJ_WRITE_ROWS):
            fh.write(_face_text(mesh.faces[start:start + _OBJ_WRITE_ROWS] + 1,
                                mesh.normals is not None))


def _face_text(indices, with_normals):
    """The f records "f a b c", or "f a//a b//b c//c", of rows of positive
    indices, as "%d" writes them. Each record is a row of one uint8 matrix:
    the tag, then each index's digits by repeated divmod, right aligned to
    the widest index, and the separators; a mask drops the leading zeros
    when the rows are joined. The digits are found in uint32, whose division
    is three times as fast as int64's: a TriMesh's indices stay below its
    vertex count, and 2**32 vertices would take 96 GiB."""
    n = len(indices)
    width = len(str(int(indices.max())))
    value = indices.astype(np.uint32)
    field = 1 + width + (2 + width) * with_normals  # " " digits ["//" digits]
    chars = np.empty((n, 3, field), dtype=np.uint8)
    keep = np.ones((n, 3, field), dtype=bool)
    chars[..., 0] = ord(" ")
    rest = value
    for k in range(width, 0, -1):
        rest, chars[..., k] = np.divmod(rest, 10)
    for k in range(1, width):  # column k holds a leading zero while value < 10**(width - k)
        keep[..., k] = value >= 10 ** (width - k)
    chars[..., 1:1 + width] += np.uint8(ord("0"))
    if with_normals:
        chars[..., 1 + width:3 + width] = ord("/")
        chars[..., 3 + width:] = chars[..., 1:1 + width]
        keep[..., 3 + width:] = keep[..., 1:1 + width]
    line = np.empty((n, 2 + 3 * field), dtype=np.uint8)
    mask = np.ones((n, 2 + 3 * field), dtype=bool)
    line[:, 0], line[:, -1] = ord("f"), ord("\n")
    line[:, 1:-1], mask[:, 1:-1] = chars.reshape(n, -1), keep.reshape(n, -1)
    return line[mask].tobytes().decode("ascii")


def check_watertight(mesh):
    """(is_watertight, boundary_edges).

    Watertight means every undirected edge is used by exactly two faces with
    opposite traversal orientation (vacuously true for an empty mesh): the
    directed edges are distinct and are the same set as their reverses.
    boundary_edges lists offending (a, b) vertex pairs.
    """
    f = check_type(mesh, "mesh", TriMesh).faces
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
    require("target_half_extent", target_half_extent, HALF_EXTENT)
    lo, hi = check_type(mesh, "mesh", TriMesh).bounds()
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
    require("margin", margin, HALF_EXTENT)
    lo, hi = check_type(mesh, "mesh", TriMesh).bounds()
    c = np.asarray(check_type(frame, "frame", OrthoFrame).center)
    half = max(np.max(np.abs(lo - c)), np.max(np.abs(hi - c)))
    if half <= margin * frame.half_extent:
        return mesh
    out, _, _ = normalize_mesh(mesh, target_half_extent=margin * frame.half_extent)
    return out


# ---------------------------------------------------------------------------
# Bounding volume hierarchy (median split on the widest axis, one triangle per leaf).


class BVH:
    """Static triangle BVH stored as flat arrays, one triangle per leaf.

    A leaf holds the triangle in slot node_start of `order`; an inner node
    has node_start -1 and children node_left and node_left + 1. Nodes are
    numbered breadth first from the root, node 0. Rows are axis-major: a
    box test reads one contiguous row per axis of node_lo and node_hi
    (3, n), and slot_rows[j, k] (3, 3, m) is coordinate k of corner j of
    each slot's triangle, so a leaf's triangle is one gather away.

    Each node also has a slab {x : a <= n.x <= b} (node_n, node_a, node_b;
    the directions are (3, n) rows). A node's n is the sum of its triangles'
    cross products (v1 - v0) x (v2 - v0), its area-weighted normal,
    normalized, so a leaf's n is its triangle's own normal. A sum that is
    zero or not finite takes the x axis instead. Each n is divided by its
    largest |component| before it is normalized, so no square overflows or
    underflows, and its length is within 4u of 1 (u = 2**-53). [a, b] is
    the range of the rounded n.v over the corners v under the node, widened
    on each side by 16u * scale (2**-49 * scale, at least 2**-1022), where
    scale is the largest |coordinate| of any corner. A rounded 3-term dot
    product is within 3.01u * sum|n_k v_k| <= 5.3u * scale of the exact
    one, and the widening subtraction rounds by at most 1.8u * scale; so
    the exact n.x of every point x of every triangle under the node lies in
    [a, b]. Any direction gives a valid slab; the mean normal gives a thin
    one where the surface under the node is nearly flat.
    """

    def __init__(self, vertices, faces):
        tris = np.asarray(vertices, dtype=np.float64)[np.asarray(faces, dtype=np.int64)]
        m = len(tris)
        if m == 0:
            raise MeshError("cannot build a BVH over an empty mesh")
        rows = np.ascontiguousarray(tris.transpose(1, 2, 0))
        lo = np.minimum(np.minimum(rows[0], rows[1]), rows[2])
        hi = np.maximum(np.maximum(rows[0], rows[1]), rows[2])
        centroids = tris.mean(axis=1).T
        cross = _corner_cross(*rows)
        self.scale = float(np.abs(rows).max())
        widen = max(np.ldexp(self.scale, -49), np.finfo(np.float64).tiny)

        # Median splits, built one depth at a time. A node splits its slot
        # range [start, start + count) at count // 2, after a stable sort of
        # its triangles by centroid along its box's longest axis; a range of
        # one triangle is a leaf. The nodes of one depth lie end to end in
        # `slot`, so each of their boxes, normal sums and slabs is one
        # reduceat.
        order = np.arange(m, dtype=np.int64)
        start = np.zeros(1, dtype=np.int64)
        count = np.array([m], dtype=np.int64)
        levels = []
        n_nodes = 0
        while len(start):
            k = len(start)
            offset = np.cumsum(count) - count
            owner = np.repeat(np.arange(k), count)
            slot = np.repeat(start - offset, count) + np.arange(len(owner))
            tri = order[slot]
            box_lo = np.minimum.reduceat(np.take(lo, tri, axis=1), offset, axis=1)
            box_hi = np.maximum.reduceat(np.take(hi, tri, axis=1), offset, axis=1)
            normal = _unit_rows(np.add.reduceat(np.take(cross, tri, axis=1), offset, axis=1))
            low, high = _corner_range(normal[:, owner], np.take(rows, tri, axis=2))
            split = count > 1
            left = np.full(k, -1, dtype=np.int64)
            left[split] = n_nodes + k + 2 * np.arange(np.count_nonzero(split))
            levels.append((box_lo, box_hi, normal, left, np.where(split, -1, start),
                           np.minimum.reduceat(low, offset) - widen,
                           np.maximum.reduceat(high, offset) + widen))
            n_nodes += k
            inner = split[owner]
            sub, tri = owner[inner], tri[inner]
            # The stable rank of each centroid key, offset by its node, sorts
            # every node's triangles at once as a stable argsort per node would.
            axis = np.argmax(box_hi - box_lo, axis=0)
            rank = np.empty(len(tri), dtype=np.int64)
            rank[np.argsort(centroids[axis[sub], tri], kind="stable")] = np.arange(len(tri))
            order[slot[inner]] = tri[np.argsort(sub * len(tri) + rank)]
            half = count[split] // 2
            start = np.column_stack([start[split], start[split] + half]).ravel()
            count = np.column_stack([half, count[split] - half]).ravel()

        (self.node_lo, self.node_hi, self.node_n, self.node_left, self.node_start,
         self.node_a, self.node_b) = (np.concatenate(c, axis=-1) for c in zip(*levels))
        self.order = order
        self.slot_rows = np.take(rows, order, axis=2)


def _unit_rows(v):
    """The columns of the (3, n) rows v scaled to unit length; a column that
    is zero or not finite becomes the x axis. Each column is first divided
    by its largest |component|, so the squares neither overflow nor
    underflow."""
    top = np.abs(v).max(axis=0)
    bad = ~(np.isfinite(top) & (top > 0.0))
    top[bad] = 1.0
    v = v / top
    v[:, bad] = [[1.0], [0.0], [0.0]]
    v /= np.sqrt((v[0] * v[0] + v[1] * v[1]) + v[2] * v[2])
    return v


def _corner_range(n, corners):
    """The least and the greatest rounded n.v over the three corners v of
    each column, for directions n (3, k) and corners (3, 3, k) as in
    slot_rows."""
    proj = [(n[0] * v[0] + n[1] * v[1]) + n[2] * v[2] for v in corners]
    return (np.minimum(np.minimum(proj[0], proj[1]), proj[2]),
            np.maximum(np.maximum(proj[0], proj[1]), proj[2]))


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
    inside = (lambda p: len(p) == 2 and all(int(i) == i for i in p)
              and 0 <= p[0] < frame.height and 0 <= p[1] < frame.width)
    require("pixel", pixel, (inside, f"a (row, col) of the {frame.height}x{frame.width} frame"))
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
    The (H * W, K) field is sized before the ray cast, so a frame or order
    whose field cannot be held fails at once (SizeError or MemoryError),
    not after the cast's coverage records have grown.
    """
    check_type(cfg, "cfg", BasisConfig)
    check_type(frame, "frame", OrthoFrame)
    H, W, K = frame.height, frame.width, cfg.channels
    data = zeros((H * W, K), "encoded field")
    pix, z = ray_cast_all(mesh, frame)
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
