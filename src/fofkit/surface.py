"""Iso-surface extraction, surface sampling, and volume measurement.

marching_cubes uses the classic 15-configuration tables with linear
interpolation of edge crossings. It takes the cube layout (corner offsets,
and each edge's axis and lower corner) from mc_tables, so the case bits, the
crossing-edge vertices and the table's edge numbers all follow one
definition. Each face corner names a grid edge by a global key, and the
vertices are the distinct keys in sorted order, so adjacent cubes share
vertices exactly. That set is every crossing edge: the table names exactly
the edges whose two corners differ in the case bits, and each crossing edge
belongs to some cube, which is then active. The rare face ambiguities of
the classic tables are accepted; the harness measures distances, not genus.

An OccupancyGrid may hold a box cut out of a larger grid: its integer offset
is the full-grid index of values[0, 0, 0], and origin and spacing map
full-grid indices to the scene. marching_cubes places each vertex at
origin + spacing * (offset + index + t), so a box that holds every cube with
a crossing extracts the full grid's mesh bit for bit: np.nonzero visits the
box's cubes, and the sorted keys order its edges, as the full grid does, so
vertices and faces are numbered alike. field_to_grid returns such a box:
the live columns of the field (those with a non-zero coefficient) plus one
cell on each side, clamped to the frame. Dead columns decode to exactly
+0.0, so a cube whose corners are all dead has no crossing at any iso, and
every cube with a live corner lies inside the box.

Every extraction goes through one path, _cube_mesh, in two steps:
_cube_faces finds the faces of the active cubes in some columns of cubes,
as cube ids and corner edge keys, and the distinct keys, sorted, number the
vertices, each interpolated on its own edge by _edge_vertices. Both read
the samples through one addressing path, a column store: column (x, y) of
the grid holds the samples store[index[x, y]], store being (n, Z) rows and
index an (X, Y) array of row numbers. marching_cubes passes an
OccupancyGrid's values as an (X * Y, Z) view with the identity index; a
ReconstructionReference passes a store of only the columns it reads.
Cube ids, keys and vertex numbers are kept as the grid's _index_dtype, the
narrowest integer type that holds its 3 * X * Y * Z edge keys (int32 at
every default size). Extraction is blocked: _cube_faces takes _CUBE_ROWS
rows of cube columns (x values) at a time, so its case, corner and table
temporaries span a slab of the grid, not the grid; only its below-iso mask,
one byte per stored sample, spans the store; and _edge_vertices takes
_EDGE_KEYS keys at a time. Cube-locality makes each block's faces its own
cubes' faces, and cube ids ascend from block to block, so the concatenated
blocks are the unblocked result bit for bit. The vertices are numbered by
_distinct, np.unique's inverse with one key-sized temporary fewer.
A ReconstructionReference uses both steps to rebuild only what a field
changes against some source fields, such as a sweep's ground truth and
prior, and it gives the same mesh and normal maps bit for bit:
- Marching cubes is cube-local (Lorensen & Cline, 1987): a cube's faces
  depend only on the samples of its own four columns, and a vertex only on
  its edge's two samples. A cube whose four columns match one source takes
  that source's faces and vertices. Faces are merged in cube order, the
  order marching_cubes visits them in: each part (a source's faces, a
  slab's fresh ones) is in cube order and no cube is in two parts, so a
  face's place is its index in its part plus the other parts' faces in
  lower cubes.
- Decoding is per column (fof._decode_pixels), and its accumulator starts
  at +0.0 and is never -0.0, so a +-0.0 coefficient adds nothing. A column
  whose coefficients equal a source's with == therefore decodes to the
  source's samples, so a served cube's faces and vertices are the ones its
  own columns would give. The other cubes are extracted from a column
  store of just their corner columns: the live ones are decoded from the
  field, and the dead ones share one row of +0.0 samples, which is what
  they decode to.
- Every mesh a reference makes comes from one slab loop, _extract: a
  box's todo cubes are taken a slab of rows of cube columns at a time,
  each slab extracted from the column store of its own corner columns,
  which is then freed; so no grid of a box is ever assembled. A slab takes
  as many rows as keep its store within _STORE_BYTES. The served sources'
  faces and every slab's mesh are then merged once, by _merge. Its
  callers: the build, which extracts each source over the reference's box
  with every cube todo and keeps its vertices, and its faces, cube ids and
  edge keys as the box's _index_dtype; extract, which splices a field
  into the sources, or extracts a field that it cannot splice over the
  field's own box with every cube todo and no sources; and
  reconstruct_field, a reference with no sources.
- A face lies within its cube's column footprint, and rounding moves no
  vertex past a column, so only the faces of cubes (c - 1, c) x (r - 1, r)
  can cover the center of pixel column (c, r): a 3 x 3 radius of columns.
  A pixel whose 3 x 3 columns all match one source (columns off the frame
  match) is covered by the source's faces in the source's relative order,
  and depth ties keep face order, so it takes the source's map pixels.
  The faces of the cubes at the other pixels are rendered whole, in mesh
  order, and the sources' pixels copied over the maps; a pixel whose 3 x 3
  columns are all dead stays background, as a constant cube has no faces.
  A field extracted over its own box matches no source, so every pixel's
  faces are rendered: render draws every extraction one way.
- reconstruct is extract, which builds the mesh, then render, which draws
  the maps. extract reads the field only until the last slab's corner
  columns are in its column store, and drops it there; a sweep cell's
  fresh cubes are one slab, so a field passed to extract as a temporary is
  freed before any cube is extracted. Each slab's column store is freed
  once its cubes are extracted, before the next store is decoded.

A field may hold a window of its frame (fof.FourierField's window): every
column off the window is zero, and so dead. Boxes, grid offsets and vertex
places stay in the frame's columns, and the window is met only where a
column's samples are read: _decode_box decodes a frame column from its
place on the field (_window_corner), and _box_part cuts a box out of a
mask of the window's columns, the columns off the window dead. So a box
may reach past a window whose edge holds live columns, and a field on a
window extracts the mesh of the whole frame's field bit for bit; a field
of the whole frame is the window of every pixel. A reference's sources
share one window, and a field on another one is extracted over its own
box.
"""

from collections import namedtuple

import numpy as np

from .errors import DomainError, ShapeError, check_array, check_type, integer, real, require
from .fof import DEPTH_RES, FourierField, _check_frame, _decode_pixels, depth_samples
from .mesh import TriMesh, _require_watertight
from .mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_ORIGIN, TRI_TABLE
from .raster import OrthoFrame, _face_blocks
from .render import BACK, FRONT, render_normals
from .rng import SEED, Xoshiro256StarStar

ISO = real()
SAMPLES = integer(1)  # surface samples per mesh
_CUBE_ROWS = 16  # rows of cube columns per block of _cube_faces; bounds its temporaries
_EDGE_KEYS = 1 << 12  # edge keys per block of _edge_vertices; bounds its temporaries
# Samples per column store of a ReconstructionReference slab, in bytes: a
# slab takes as many rows of cubes as have at most this many bytes of
# corner columns, and one row at least. It bounds the working memory of
# every extraction, and it keeps each store below 4 MiB, from which numpy
# advises the kernel to back an array with huge pages: after such a store is
# freed, whole 2 MiB pages of it could stay in the process's resident set.
_STORE_BYTES = 7 << 19

from dataclasses import dataclass, field as dc_field


@dataclass
class OccupancyGrid:
    """Sampled occupancy with a per-axis linear index-to-scene map.

    values may be a box of a larger grid whose sample (i, j, k) sits at
    scene point origin + spacing * (i, j, k); offset is the full-grid index
    of values[0, 0, 0], three non-negative integers, (0, 0, 0) by default.
    origin and spacing are three finite numbers each, spacing positive.
    """

    values: np.ndarray  # (X, Y, Z) float64
    origin: np.ndarray = dc_field(default_factory=lambda: np.array([-1.0, -1.0, -1.0]))
    spacing: np.ndarray = dc_field(default_factory=lambda: np.array([1.0, 1.0, 1.0]))
    offset: np.ndarray = dc_field(default_factory=lambda: np.zeros(3, dtype=np.int64))

    def __post_init__(self):
        self.values = check_array(self.values, "grid values", (None, None, None))
        if min(self.values.shape) < 2:
            raise ShapeError(f"grid must be (X>=2, Y>=2, Z>=2), got {self.values.shape}")
        self.origin = check_array(self.origin, "origin", (3,))
        self.spacing = check_array(self.spacing, "spacing", (3,))
        if np.any(self.spacing <= 0.0):
            raise DomainError(f"spacing must be positive, got {self.spacing!r}")
        self.offset = check_array(self.offset, "offset", (3,), dtype=np.int64)
        if np.any(self.offset < 0):
            raise ShapeError(f"offset must be three non-negative integers, got {self.offset!r}")


def field_to_grid(fof, frame=OrthoFrame(), depth_res=128):
    """Decode a field into an OccupancyGrid in scene coordinates.

    Grid axes are (x, y, z): x follows columns, y follows rows bottom-up,
    z follows the uniform decode depths. The grid is the box of live columns
    (pixels with a non-zero coefficient) plus one cell on each side, clamped
    to the frame, over all depths; its offset is the box's corner in the
    full (width, height, depth_res) grid, and origin and spacing are those
    of the full grid. Only live pixels are decoded; the rest of the box is
    +0.0, as the full grid is there. A field with no live pixel gives a
    2 x 2 x depth_res box of zeros at offset (0, 0, 0). A field on a window
    of the frame gives the grid of the whole frame's field; a field that
    the frame does not hold raises ShapeError.
    """
    if not isinstance(fof, FourierField):
        fof = FourierField(fof)
    corner = _window_corner(fof, frame)
    require("depth_res", depth_res, DEPTH_RES)
    live = _live_columns(fof)
    lo, hi = _frame_box(live, corner, frame)
    return _box_grid(fof, frame, lo, hi, depth_res, _box_part(live, corner, lo, hi))


def _live_columns(fof):
    """The (x, y) mask of a field's columns with a non-zero coefficient; y
    runs bottom-up. For a field on a window of its frame, these are the
    window's columns."""
    return np.any(fof.data != 0.0, axis=2)[::-1].T


def _window_corner(field, frame):
    """The frame's (x, y) column, y bottom-up, of a field's column (0, 0):
    its window's bottom-left pixel, or (0, 0) for a field of the whole
    frame. ShapeError unless the frame holds the field."""
    rows, cols = _check_frame(field, frame)
    return np.array([cols.start, frame.height - rows.stop])


def _frame_box(live, corner, frame):
    """The box [lo, hi) of the frame's columns that _live_box gives for the
    columns that an (x, y) mask live marks, its column (0, 0) being the
    frame's column corner."""
    xs, ys = np.nonzero(live)
    return _live_box(xs + corner[0], ys + corner[1], (frame.width, frame.height))


def _box_part(mask, corner, lo, hi):
    """The box [lo, hi) of the frame's columns cut from an (x, y) mask whose
    column (0, 0) is the frame's column corner; the box's columns off the
    mask are False."""
    out = np.zeros(tuple(hi - lo), dtype=bool)
    a, b = np.maximum(lo, corner), np.minimum(hi, corner + mask.shape)
    if np.all(a < b):
        out[a[0] - lo[0]:b[0] - lo[0], a[1] - lo[1]:b[1] - lo[1]] = \
            mask[a[0] - corner[0]:b[0] - corner[0], a[1] - corner[1]:b[1] - corner[1]]
    return out


def _live_box(xs, ys, shape):
    """The box [lo, hi) of the columns (xs, ys) plus one cell on each side,
    clamped to shape; [0, 2) x [0, 2) when there are none."""
    if not len(xs):
        return np.zeros(2, dtype=np.int64), np.full(2, 2)
    return (np.maximum([xs.min() - 1, ys.min() - 1], 0),
            np.minimum([xs.max() + 2, ys.max() + 2], shape))


def _box_grid(field, frame, lo, hi, depth_res, live):
    """The OccupancyGrid of the box [lo, hi) of field's full grid; the
    columns that the (X, Y) bool mask live marks are decoded, and the rest
    are +0.0."""
    columns = np.flatnonzero(live)
    values = np.zeros(((hi - lo).prod(), depth_res))
    _decode_box(field, frame, lo, hi, columns, values, columns)
    return OccupancyGrid(values.reshape(tuple(hi - lo) + (depth_res,)),
                         *_grid_map(frame, depth_res), np.array([lo[0], lo[1], 0]))


def _decode_box(field, frame, lo, hi, columns, out, rows):
    """Decode the columns of the box [lo, hi) of the frame's full grid with
    flat indices columns, x-major with y bottom-up, into the rows rows of
    out (rows 0, 1, ... when rows is None). The columns lie on the field,
    which holds the frame or a window of it."""
    xs, ys = np.divmod(columns, hi[1] - lo[1])
    corner = _window_corner(field, frame)
    xs, ys = xs + (lo[0] - corner[0]), ys + (lo[1] - corner[1])
    _decode_pixels(field, (field.height - 1 - ys) * field.width + xs, out, rows)


def _grid_map(frame, depth_res):
    """The origin and spacing of the full (width, height, depth_res) grid."""
    h = frame.half_extent
    cx, cy, cz = frame.center
    origin = np.array([
        cx - h + h * 2.0 * 0.5 / frame.width,
        cy - h + h * 2.0 * 0.5 / frame.height,
        cz + h * depth_samples(depth_res)[0],
    ])
    spacing = np.array([
        2.0 * h / frame.width,
        2.0 * h / frame.height,
        2.0 * h / (depth_res - 1),
    ])
    return origin, spacing


def marching_cubes(grid, iso=0.5):
    """Extract the iso-surface triangle mesh of an occupancy grid.

    Faces are wound so normals point out of the high-occupancy region. A
    constant grid yields an empty mesh; a non-finite iso raises DomainError.
    """
    require("iso", iso, ISO)
    grid = check_type(grid, "grid", OccupancyGrid)
    vertices, faces, _, _ = _cube_mesh(*_grid_store(grid.values), None, iso, grid.origin,
                                       grid.spacing, grid.offset)
    return TriMesh(vertices, faces)


def _cube_mesh(store, index, columns, iso, origin, spacing, offset):
    """The mesh of the cubes in some columns of a grid of samples, read
    through a column store as _cube_faces reads it and placed as
    _edge_vertices places it: its vertices, its faces, each face's cube id
    and each vertex's edge key, all in the grid's _index_dtype but the
    vertices."""
    cubes, keys = _cube_faces(store, index, columns, iso)
    # One vertex per distinct key, in sorted order. TRI_TABLE[case] names
    # exactly the edges whose two corners differ in case's bits (the
    # invariant that tests/test_surface.py::TestTables pins), and every
    # crossing edge lies in a cube with that crossing, an active one. So the
    # sorted distinct keys are the crossing edges, axis-major and then in C
    # order.
    keys, faces = _distinct(keys)
    return _edge_vertices(store, index, keys, iso, origin, spacing, offset), faces, cubes, keys


def _grid_store(values):
    """An (X, Y, Z) array of samples as a column store: its (X * Y, Z) rows,
    a view when values is C-contiguous, and the identity row index."""
    X, Y, Z = values.shape
    return values.reshape(X * Y, Z), np.arange(X * Y).reshape(X, Y)


def _distinct(keys):
    """The sorted distinct values of an integer array, and the index of each
    entry among them, in the array's shape and type: np.unique(keys,
    return_inverse=True), with each sorted entry's rank written over the
    sorted copy, so one key-sized temporary fewer is live. Every rank is
    below the number of distinct keys, so it fits the keys' type."""
    order = np.argsort(keys, axis=None)
    s = keys.ravel()[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != s[:-1]
    distinct = s[first]
    np.cumsum(first, out=s)
    s -= 1
    index = np.empty(keys.shape, dtype=keys.dtype)
    index.ravel()[order] = s
    return distinct, index


def _cube_faces(store, index, columns, iso):
    """The faces of the cubes in some columns of a grid of samples.

    The grid's column (x, y) holds the samples store[index[x, y]]: store is
    an (n, Z) array and index an (X, Y) array of its rows. columns is an
    (X - 1, Y - 1) mask of cube columns, or None for all of them; only the
    rows of their corner columns are read. Returns each face's cube, its
    flat index among the (X - 1, Y - 1, Z - 1) cubes, in ascending order,
    and an (n, 3) array of its corners' edge keys, both in the grid's
    _index_dtype; a cube's faces keep TRI_TABLE's order. The cubes are
    taken _CUBE_ROWS rows of columns (x values) at a time, and cube ids
    ascend from one block to the next, so the blocks bound the temporaries
    without changing the result.
    """
    (X, Y), Z = index.shape, store.shape[1]
    if columns is None:
        columns = np.ones((X - 1, Y - 1), dtype=bool)
    # Each face corner is a cube edge named by TRI_TABLE; key it by its grid
    # edge, axis * X * Y * Z + the flat index of its lower grid point (a
    # grid under 2 samples wide holds no cube, and takes no key).
    edge_offset = EDGE_AXIS * (X * Y * Z) + EDGE_ORIGIN @ np.array([Y * Z, Z, 1])
    dtype = _index_dtype((X, Y, Z))
    below = store < iso
    cubes, keys = [np.empty(0, dtype)], [np.empty((0, 3), dtype)]
    for x0 in range(0, X - 1, _CUBE_ROWS):
        ci, cj = np.nonzero(columns[x0:x0 + _CUBE_ROWS])
        ci += x0
        # Case index per cube: bit c is set when corner c is below iso.
        case = np.zeros((len(ci), Z - 1), dtype=np.uint8)
        corner_columns = {}
        for bit, (ox, oy, oz) in enumerate(CORNER_OFFSETS):
            if (ox, oy) not in corner_columns:
                corner_columns[ox, oy] = below[index[ci + ox, cj + oy]]
            case |= corner_columns[ox, oy][:, oz:oz + Z - 1].view(np.uint8) << bit
        n, k = np.nonzero((case != 0) & (case != 255))
        rows = TRI_TABLE[case[n, k]]  # (n_active, 16), -1 padded in trailing triples
        cube, slot = np.nonzero(rows >= 0)
        n, k = n[cube], k[cube]
        ci, cj = ci[n], cj[n]
        keys.append(((ci * Y + cj) * Z + k + edge_offset[rows[cube, slot]])
                    .astype(dtype).reshape(-1, 3))
        cubes.append(((ci * (Y - 1) + cj) * (Z - 1) + k)[::3].astype(dtype))
    return np.concatenate(cubes), np.concatenate(keys)


def _edge_vertices(store, index, keys, iso, origin, spacing, offset):
    """The iso crossings on the grid edges named by keys, in scene
    coordinates; each is interpolated on its own edge alone. store and index
    hold the grid's samples as _cube_faces reads them, and origin, spacing
    and offset place them as an OccupancyGrid does. The keys are taken
    _EDGE_KEYS at a time, so only the output spans them."""
    shape = index.shape + store.shape[1:]
    out = np.empty((len(keys), 3))
    for start in range(0, len(keys), _EDGE_KEYS):
        axis, flat = np.divmod(keys[start:start + _EDGE_KEYS], np.prod(shape))
        lo = np.stack(np.unravel_index(flat, shape), axis=1)
        hi = lo + np.eye(3, dtype=np.int64)[axis]
        va = store[index[lo[:, 0], lo[:, 1]], lo[:, 2]]
        vb = store[index[hi[:, 0], hi[:, 1]], hi[:, 2]]
        # Full-grid indices, so a box extracts its full grid's vertices.
        base = (lo + offset).astype(np.float64)
        base[np.arange(len(base)), axis] += (iso - va) / (vb - va)
        # The table's winding already points out of the high-occupancy
        # region under this corner layout (verified by signed volume on
        # spheres).
        out[start:start + len(base)] = origin + spacing * base
    return out


def reconstruct_field(fof, frame=OrthoFrame(), grid_res=128, iso=0.5):
    """The iso-surface mesh of a field on the frame (or on a window of it):
    marching_cubes(field_to_grid(fof, frame, grid_res), iso) bit for bit;
    grid_res is field_to_grid's depth_res, an integer >= 2.

    It is what a ReconstructionReference with no sources extracts: the
    field over the box of its live columns, a slab of cube rows at a time,
    from column stores of their live corner columns, so no grid of the box
    is made. A frame too narrow for a grid raises ShapeError, as
    field_to_grid does, unless no column is live.
    """
    return ReconstructionReference((), frame, grid_res, iso).extract(fof).mesh


# What a ReconstructionReference holds of one source field: its mesh's
# vertices and faces over the shared box, each face's cube id, each vertex's
# edge key, and its front and back maps. Faces, cube ids and keys are kept as
# the box's index type (_index_dtype), int32 at every default size; a face's
# cube column is its cube id // (grid_res - 1), recomputed where it is read.
# The column stores they were extracted from are released.
_Source = namedtuple("_Source", "field vertices faces cubes keys maps")

# What ReconstructionReference.extract(field) hands to render: the field's
# mesh, each face's cube id in the box it was extracted over, that box
# (lo, hi) of the frame's columns, and the field's (H, W) pixel masks per
# source, the zero field last; a field extracted over its own box has none.
Extraction = namedtuple("Extraction", "mesh cubes box match")


def _index_dtype(shape):
    """The narrowest of int32 and int64 that holds every edge key of an
    (X, Y, Z) grid of samples, 0 to 3 * X * Y * Z - 1, and so every cube id
    and vertex number of it."""
    X, Y, Z = (int(n) for n in shape)
    return np.int32 if 3 * X * Y * Z < 2 ** 31 else np.int64


def _corner_columns(cubes):
    """The (X, Y) mask of the corner columns of the cubes that an
    (X - 1, Y - 1) mask marks."""
    X, Y = cubes.shape[0] + 1, cubes.shape[1] + 1
    corner = np.zeros((X, Y), dtype=bool)
    for ox, oy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        corner[ox:ox + X - 1, oy:oy + Y - 1] |= cubes
    return corner


def _merge(parts, dtype):
    """The mesh of some parts of a box's mesh, as _cube_mesh gives a mesh:
    its vertices, its faces as dtype, each face's cube id and each vertex's
    edge key.

    parts is a list of (vertices, faces, cubes, keys, keep) tuples: a mesh
    as _cube_mesh gives it over the box, and keep the mask of its faces to
    take, or None for all of them, which copies none of them. No cube has
    faces in two parts. _merge empties the list, each part as it is placed.

    Vertices are the distinct keys in sorted order, as marching_cubes
    numbers them, and are numbered in the keys' type. A vertex lies on an
    edge whose two samples every part that uses it reads alike, so it is
    the same from any of them, bit for bit.
    """
    used = []  # each part's vertices of the faces it keeps; None for all
    for vertices, faces, _, _, keep in parts:
        used.append(None if keep is None else np.zeros(len(vertices), dtype=bool))
        if keep is not None:
            used[-1][faces[keep]] = True
    distinct, number = _distinct(np.concatenate(
        [keys if u is None else keys[u] for (*_, keys, _), u in zip(parts, used)]))
    vertices = np.empty((len(distinct), 3))
    # Each part's kept cube ids, its faces, their mask and the numbers of
    # its vertices.
    placed, start = [], 0
    for i, u in enumerate(used):
        part_vertices, faces, cubes, _, keep = parts[i]
        parts[i] = None
        at = number[start:start + (len(part_vertices) if u is None else np.count_nonzero(u))]
        start += len(at)
        if u is None:
            vertices[at] = part_vertices
            placed.append((cubes, faces, keep, at))
        else:
            vertices[at] = part_vertices[u]
            renumber = np.empty(len(u), dtype=number.dtype)
            renumber[u] = at
            placed.append((cubes[keep], faces, keep, renumber))
    del used, number, part_vertices, faces, cubes, at
    # Cube order, and within a cube TRI_TABLE's, as marching_cubes has it
    # (see the module docstring). Each part's faces are renumbered and
    # placed a raster face block of its own faces at a time, so no joined
    # copy of them is made and no temporary spans a part.
    cubes = [part[0] for part in placed]
    n = sum(map(len, cubes))
    out_faces, out_cubes = np.empty((n, 3), dtype=dtype), np.empty(n, dtype=cubes[-1].dtype)
    for i in range(len(placed)):
        part_cubes, faces, keep, renumber = placed[i]
        placed[i] = None
        done = 0
        for block in _face_blocks(len(faces)):
            kept = faces[block] if keep is None else faces[block][keep[block]]
            block_cubes = part_cubes[done:done + len(kept)]
            at = np.arange(done, done + len(kept))
            for j, other in enumerate(cubes):
                if j != i:
                    at += np.searchsorted(other, block_cubes)
            out_cubes[at] = block_cubes
            out_faces[at] = renumber[kept]
            done += len(kept)
    return vertices, out_faces, out_cubes, distinct


class ReconstructionReference:
    """Reconstructions of fields that mostly hold some source fields'
    coefficients, built from what the sources share.

    Holds, for each source field (a sweep passes c_gt and c_prior), the
    marching-cubes mesh of its samples over one box shared by all sources,
    with each face's cube id and each vertex's edge key, and the front and
    back normal maps of the mesh. Faces, cube ids and keys are kept as the
    narrowest integer type that holds the box's 3 * X * Y * Z edge keys:
    int32 at every default size, int64 from 2**31 up. The all-zero field is
    an implicit last source, with no faces and background maps. The box is
    the sources' live columns plus one cell on each side, clamped to the
    frame. The sources share one window of the frame (window, the frame's
    (rows, cols) slices; None with no source), as a sweep's fields do, and
    the fields it splices lie on the same window; masks and maps are the
    frame's.

    Every mesh comes from one slab loop (_extract) and one merge (_merge),
    so no grid of a box is made: the build extracts each source over the
    reference's box, and extract splices a field into the sources, or
    extracts a field that it cannot splice over the field's own box with
    no sources.

    reconstruct(field) returns the mesh of reconstruct_field(field, frame,
    grid_res, iso) and the front and back maps that render_normals draws of
    it, bit for bit (see the module docstring). It is two steps,
    render(extract(field)). A column of the field matches a source when its
    coefficients equal the source's with ==; the first source it matches
    serves it. decoded_columns counts the distinct columns that extract has
    decoded: the live corner columns of the cubes that no source serves, or
    every live column of a field extracted over its own box; building the
    sources counts none.
    """

    def __init__(self, sources, frame=OrthoFrame(), grid_res=128, iso=0.5):
        check_type(frame, "frame", OrthoFrame)
        require("grid_res", grid_res, DEPTH_RES)
        require("iso", iso, ISO)
        fields = [s if isinstance(s, FourierField) else FourierField(s) for s in sources]
        for f in fields:
            _check_frame(f, frame)
            if f.data.shape != fields[0].data.shape or f.window != fields[0].window:
                raise ShapeError(f"source fields differ: {f.data.shape} on window {f.window} "
                                 f"vs {fields[0].data.shape} on window {fields[0].window}")
        self.frame, self.grid_res, self.iso = frame, grid_res, iso
        # The sources' window of the frame; None when there is no source.
        self.window = _check_frame(fields[0], frame) if fields else None
        self.channels = fields[0].channels if fields else None
        live = [_live_columns(f) for f in fields]
        corner = _window_corner(fields[0], frame) if fields else np.zeros(2, dtype=np.int64)
        self.lo, self.hi = _frame_box(np.any(live, axis=0) if fields else np.zeros((0, 0)),
                                      corner, frame)
        # The box [0, 2) x [0, 2) of no live column overhangs a frame under
        # 2 px wide or tall; clamped, it holds no cube there.
        self.hi = np.minimum(self.hi, (frame.width, frame.height))
        self.decoded_columns = 0  # _extract counts what it decodes
        self.sources = []
        dtype = _index_dtype(tuple(self.hi - self.lo) + (grid_res,))
        every = np.ones(tuple(self.hi - self.lo - 1), dtype=bool)
        for f, f_live in zip(fields, live):
            vertices, faces, cubes, keys = self._extract([f], f_live, self.lo, self.hi, every, [],
                                                         dtype)
            self.sources.append(_Source(f, vertices, faces, cubes, keys, render_normals(
                TriMesh(vertices, faces), frame, (FRONT, BACK))))
        self.decoded_columns = 0  # building the sources counts none

    def reconstruct(self, field):
        """(mesh, front map, back map) of a field on the reference's frame:
        render(extract(field))."""
        return self.render(self.extract(field))

    def extract(self, field):
        """The Extraction of a field on the reference's frame: its mesh and
        what render needs to draw the mesh's maps.

        A field on the sources' window, with their channel count and every
        live column one cell inside the reference's box, is spliced into
        the sources: the cubes that no source serves are extracted and
        merged with the served sources' faces. Any other field is extracted
        over its own box, every cube fresh, and its Extraction's match is
        empty.

        extract drops its reference to the field once the last slab's
        column store is decoded (_extract); a sweep cell's field is one
        slab, so a field passed as a temporary, extract(make()), is freed
        before any cube is extracted: CPython 3.11 and later hand a call's
        arguments over to the callee's frame.
        """
        if not isinstance(field, FourierField):
            field = FourierField(field)
        window = _check_frame(field, self.frame)
        live = _live_columns(field)
        lo, hi = _frame_box(live, _window_corner(field, self.frame), self.frame)
        match, todo, served = [], np.ones(tuple(hi - lo - 1), dtype=bool), []
        if (window == self.window and field.channels == self.channels
                and np.all(lo >= self.lo) and np.all(hi <= self.hi)):
            lo, hi = self.lo, self.hi
            match, todo, served = self._serve(field, live)
        # The field goes to _extract in a list that _extract empties, so
        # that no frame here keeps it once its last store is decoded.
        fields = [field]
        del field
        vertices, faces, cubes, _ = self._extract(fields, live, lo, hi, todo, served, np.int64)
        return Extraction(TriMesh(vertices, faces), cubes, (lo, hi), match)

    def _serve(self, field, live):
        """The field's (H, W) pixel masks per source, the zero field last;
        the cubes of the reference's box that no source serves, an
        (X - 1, Y - 1) mask; and (source, face mask) for each source that
        serves some. live is the field's (x, y) mask of live columns.

        Off the window the field and every source are zero, and so match. A
        cube whose four columns match one source takes that source's faces;
        the zero field, last, has none.
        """
        match = []
        for source in self.sources:
            match.append(np.ones((self.frame.height, self.frame.width), dtype=bool))
            match[-1][self.window] = np.all(field.data == source.field.data, axis=2)
        match.append(np.ones((self.frame.height, self.frame.width), dtype=bool))
        match[-1][self.window] = ~live.T[::-1]
        X, Y = self.hi - self.lo
        todo = np.ones((X - 1, Y - 1), dtype=bool)
        served = []
        for m, source in zip(match, self.sources + [None]):
            m = m[::-1].T[self.lo[0]:self.hi[0], self.lo[1]:self.hi[1]]  # per (x, y) column
            take = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:] & todo
            todo &= ~take
            if source is not None and take.any():
                served.append((source, take.ravel()[source.cubes // (self.grid_res - 1)]))
        return match, todo, served

    def _extract(self, fields, live, lo, hi, todo, served, dtype):
        """The mesh of the box [lo, hi) of the frame's columns: its todo
        cubes, an (X - 1, Y - 1) mask, extracted from the field that the
        list fields holds, and its other cubes' faces taken from served,
        (source, face mask) pairs as _serve gives them. Returns _merge's
        vertices, faces as dtype, cube ids and edge keys. live is the
        field's (x, y) mask of live columns.

        A slab of rows of cube columns at a time is extracted from a column
        store of its live corner columns, and the store freed; the served
        faces and every slab's mesh are then merged once. A slab takes as
        many rows as keep the todo cubes' corner columns in its rows of
        columns, live or dead, within _STORE_BYTES of samples, and one row
        at least. fields is emptied, and the field dropped once the last
        slab's store is decoded. decoded_columns counts each live corner
        column of the todo cubes once, though two slabs decode the row of
        columns they share. A box under 2 columns wide or tall holds no
        cube, and raises ShapeError if it holds a live column.
        """
        X, Y = hi - lo
        dead = ~_box_part(live, _window_corner(fields[0], self.frame), lo, hi)
        if min(X, Y) < 2 and not dead.all():
            raise ShapeError(f"grid must be (X>=2, Y>=2, Z>=2), got "
                             f"{(int(X), int(Y), self.grid_res)}")
        corner = _corner_columns(todo)
        self.decoded_columns += int(np.count_nonzero(corner & ~dead))
        # The corner columns in the box's rows of columns below each x.
        below = np.concatenate([[0], np.cumsum(np.count_nonzero(corner, axis=1))])
        place = _grid_map(self.frame, self.grid_res) + (np.array([lo[0], lo[1], 0]),)
        parts, start = [(s.vertices, s.faces, s.cubes, s.keys, keep) for s, keep in served], 0
        while True:
            # Cube rows [start, stop) read the rows of columns start..stop.
            stop = np.searchsorted(below, below[start] + _STORE_BYTES // (8 * self.grid_res),
                                   "right") - 2
            stop = min(max(stop, start + 1), X - 1)
            slab = np.zeros_like(todo)
            slab[start:stop] = todo[start:stop]
            # The store is a temporary, freed once its cubes are extracted;
            # the last slab takes the field out of fields, so that it is
            # freed once the store is decoded.
            parts.append(_cube_mesh(*self._store(fields.pop() if stop == X - 1 else fields[0], lo,
                                                 hi, slab, dead), slab, self.iso, *place) + (None,))
            if stop == X - 1:
                return _merge(parts, dtype)
            start = stop

    def _store(self, field, lo, hi, todo, dead):
        """The column store of the todo cubes' corner columns of the box
        [lo, hi), and its (X, Y) row index; dead is the box's (x, y) mask of
        dead columns. The live corner columns are decoded from field into
        rows 1.., and the dead ones all read row 0, which holds their +0.0
        samples."""
        X, Y = hi - lo
        columns = np.flatnonzero(_corner_columns(todo) & ~dead)
        store = np.zeros((len(columns) + 1, self.grid_res))
        index = np.zeros(X * Y, dtype=np.int64)
        index[columns] = np.arange(1, len(columns) + 1)
        _decode_box(field, self.frame, lo, hi, columns, store[1:], None)
        return store, index.reshape(X, Y)

    def render(self, extraction):
        """(mesh, front map, back map) of an Extraction that extract made,
        drawn from each face's cube id, the extraction's box and the
        field's pixel masks per source: a pixel that a source serves takes
        the source's map pixels, and the faces near the others are
        rendered."""
        mesh, cubes, (lo, hi), match = extraction
        H, W = self.frame.height, self.frame.width
        todo = np.ones((H, W), dtype=bool)
        copies = []
        for m in match[:-1]:  # the zero field, last, has no pixels to copy
            # A pixel whose 3 x 3 columns all match the source; columns off
            # the frame match.
            padded = np.pad(m, 1, constant_values=True)
            take = todo.copy()
            for dr in range(3):
                for dc in range(3):
                    take &= padded[dr:dr + H, dc:dc + W]
            todo &= ~take
            copies.append(take)
        # Only a face of a cube with a corner column at a pixel can cover
        # its center; those faces of the todo pixels, rendered whole and in
        # mesh order, cover each todo pixel as the whole mesh does.
        rendered = todo[::-1].T[lo[0]:hi[0], lo[1]:hi[1]]
        near = rendered[:-1, :-1] | rendered[1:, :-1] | rendered[:-1, 1:] | rendered[1:, 1:]
        near_faces = mesh.faces[near.ravel()[cubes // (self.grid_res - 1)]]
        maps = render_normals(TriMesh(mesh.vertices, near_faces), self.frame, (FRONT, BACK))
        for take, source in zip(copies, self.sources):
            for out, src in zip(maps, source.maps):
                out.data[take] = src.data[take]
                out.mask[take] = src.mask[take]
        return (mesh,) + maps


def sample_surface(mesh, n, seed=0):
    """Area-weighted surface samples.

    Faces are chosen by inverse transform sampling on cumulative areas and
    points placed with the uniform barycentric map; deterministic for a fixed
    seed. Returns (points (n, 3), normals (n, 3)) where normals are the face
    normals of the sampled faces.
    """
    require("n", n, SAMPLES)
    face_idx, pts = _sample_points(mesh, _sample_uniforms(n, seed))
    return pts, mesh.face_normals()[face_idx]


def _sample_uniforms(n, seed):
    """The 3n uniforms that sample_surface(mesh, n, seed) draws for any mesh."""
    require("seed", seed, SEED)
    return Xoshiro256StarStar(seed).uniforms(3 * n)


def _sample_points(mesh, u):
    """Face indices and points of the area-weighted samples for uniforms u.

    u holds 3n uniforms: n choose faces, 2n place the barycentric points.
    The cumulative areas are summed over the areas in place, and the
    sampled faces' corners are gathered one corner at a time, so the only
    per-face array is the areas.
    """
    if check_type(mesh, "mesh", TriMesh).n_faces == 0:
        raise DomainError("cannot sample an empty mesh")
    n = len(u) // 3
    cum = mesh.face_areas()
    total = cum.sum()
    if total <= 0.0:
        raise DomainError("mesh has zero surface area")
    np.cumsum(cum, out=cum)
    face_idx = np.searchsorted(cum, u[:n] * total, side="right")
    del cum
    np.minimum(face_idx, mesh.n_faces - 1, out=face_idx)
    r1 = u[n:2 * n]
    r2 = u[2 * n:]
    flip = r1 + r2 > 1.0
    r1 = np.where(flip, 1.0 - r1, r1)[:, None]
    r2 = np.where(flip, 1.0 - r2, r2)[:, None]
    # a + r1 (b - a) + r2 (c - a), each product and sum as the one
    # expression over (n, 3, 3) corners rounds it.
    corners = mesh.faces[face_idx]
    a = mesh.vertices[corners[:, 0]]
    pts = mesh.vertices[corners[:, 1]]
    pts -= a
    pts *= r1
    pts += a
    a = np.subtract(mesh.vertices[corners[:, 2]], a, out=a)
    a *= r2
    pts += a
    return face_idx, pts


def mesh_volume(mesh):
    """Absolute enclosed volume of a watertight mesh.

    Returns (volume, orientation) where orientation is +1 for outward
    winding and -1 when the signed divergence sum is negative.
    """
    _require_watertight(mesh)
    # Divergence theorem: signed volumes of the tetrahedra to the origin.
    v = mesh.vertices[mesh.faces]
    signed = float(np.einsum("ij,ij->", v[:, 0], np.cross(v[:, 1], v[:, 2])) / 6.0)
    orientation = 1 if signed >= 0 else -1
    return abs(signed), orientation
