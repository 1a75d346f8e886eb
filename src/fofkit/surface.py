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
"""

import numpy as np

from .errors import (DomainError, MeshError, ShapeError, check_array, check_type, integer,
                     real, require)
from .fof import DEPTH_RES, FourierField, _check_frame, _decode_pixels, depth_samples
from .mesh import TriMesh, check_watertight, mesh_volume_divergence
from .mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_ORIGIN, TRI_TABLE
from .raster import OrthoFrame
from .rng import SEED, Xoshiro256StarStar

ISO = real()
SAMPLES = integer(1)  # surface samples per mesh

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
    2 x 2 x depth_res box of zeros at offset (0, 0, 0). A field whose size
    is not the frame's raises ShapeError.
    """
    if not isinstance(fof, FourierField):
        fof = FourierField(fof)
    _check_frame(fof, frame)
    live = np.any(fof.data != 0.0, axis=2)[::-1].T  # (x, y), y bottom-up
    # x-major order, so decoded rows are written in sequence.
    xs, ys = np.nonzero(live)
    if len(xs):
        lo = np.maximum([xs.min() - 1, ys.min() - 1], 0)
        hi = np.minimum([xs.max() + 2, ys.max() + 2], live.shape)
    else:
        lo, hi = np.zeros(2, dtype=np.int64), np.full(2, 2)
    box = tuple(hi - lo)
    pixels = (fof.height - 1 - ys) * fof.width + xs
    rows = (xs - lo[0]) * box[1] + (ys - lo[1])
    values = _decode_pixels(fof, pixels, rows, box[0] * box[1], depth_res)
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
    return OccupancyGrid(values.reshape(box + (depth_res,)), origin, spacing,
                         np.array([lo[0], lo[1], 0]))


def marching_cubes(grid, iso=0.5):
    """Extract the iso-surface triangle mesh of an occupancy grid.

    Faces are wound so normals point out of the high-occupancy region. A
    constant grid yields an empty mesh; a non-finite iso raises DomainError.
    """
    require("iso", iso, ISO)
    v = check_type(grid, "grid", OccupancyGrid).values
    below = v < iso
    cells = tuple(n - 1 for n in v.shape)

    # Case index per cube: bit c is set when corner c is below iso.
    case = np.zeros(cells, dtype=np.uint8)
    for bit, offset in enumerate(CORNER_OFFSETS):
        corner = below[tuple(slice(o, o + n) for o, n in zip(offset, cells))]
        case |= corner.view(np.uint8) << bit
    ci, cj, ck = np.nonzero((case != 0) & (case != 255))
    if not len(ci):
        return TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))

    # Each face corner is a cube edge named by TRI_TABLE; key it by its grid
    # edge, axis * v.size + the flat index of its lower grid point.
    edge_offset = EDGE_AXIS * v.size + np.ravel_multi_index(EDGE_ORIGIN.T, v.shape)
    rows = TRI_TABLE[case[ci, cj, ck]]  # (n_active, 16), -1 padded in trailing triples
    cube, slot = np.nonzero(rows >= 0)
    point = np.ravel_multi_index((ci[cube], cj[cube], ck[cube]), v.shape)
    # One vertex per distinct key. TRI_TABLE[case] names exactly the edges
    # whose two corners differ in case's bits (the invariant that
    # tests/test_surface.py::TestTables pins), and every crossing edge lies
    # in a cube with that crossing, an active one. So the sorted distinct
    # keys are the crossing edges, axis-major and then in C order.
    keys, faces = np.unique(point + edge_offset[rows[cube, slot]], return_inverse=True)
    axis, flat = np.divmod(keys, v.size)
    lo = np.stack(np.unravel_index(flat, v.shape), axis=1)
    step = np.eye(3, dtype=np.int64)[axis]
    va, vb = v[tuple(lo.T)], v[tuple((lo + step).T)]
    # Full-grid indices, so a box extracts its full grid's vertices.
    base = (lo + grid.offset).astype(np.float64)
    base[np.arange(len(keys)), axis] += (iso - va) / (vb - va)
    # The table's winding already points out of the high-occupancy region
    # under this corner layout (verified by signed volume on spheres).
    return TriMesh(grid.origin + grid.spacing * base, faces.reshape(-1, 3))


def reconstruct_field(fof, frame=OrthoFrame(), grid_res=128, iso=0.5):
    """field_to_grid + marching_cubes convenience wrapper; grid_res is
    field_to_grid's depth_res, an integer >= 2."""
    require("grid_res", grid_res, DEPTH_RES)
    return marching_cubes(field_to_grid(fof, frame, grid_res), iso=iso)


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
    return np.asarray(Xoshiro256StarStar(seed).uniforms(3 * n), dtype=np.float64)


def _sample_points(mesh, u):
    """Face indices and points of the area-weighted samples for uniforms u.

    u holds 3n uniforms: n choose faces, 2n place the barycentric points.
    """
    if mesh.n_faces == 0:
        raise DomainError("cannot sample an empty mesh")
    n = len(u) // 3
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise DomainError("mesh has zero surface area")
    cum = np.cumsum(areas)
    face_idx = np.searchsorted(cum, u[:n] * total, side="right")
    face_idx = np.minimum(face_idx, mesh.n_faces - 1)
    r1 = u[n:2 * n]
    r2 = u[2 * n:]
    flip = r1 + r2 > 1.0
    r1 = np.where(flip, 1.0 - r1, r1)
    r2 = np.where(flip, 1.0 - r2, r2)
    tri = mesh.vertices[mesh.faces[face_idx]]
    pts = tri[:, 0] + r1[:, None] * (tri[:, 1] - tri[:, 0]) + r2[:, None] * (tri[:, 2] - tri[:, 0])
    return face_idx, pts


def mesh_volume(mesh):
    """Absolute enclosed volume of a watertight mesh.

    Returns (volume, orientation) where orientation is +1 for outward
    winding and -1 when the signed divergence sum is negative.
    """
    ok, boundary = check_watertight(mesh)
    if not ok:
        raise MeshError(f"mesh_volume requires a watertight mesh ({len(boundary)} boundary edges)")
    signed = mesh_volume_divergence(mesh)
    orientation = 1 if signed >= 0 else -1
    return abs(signed), orientation
