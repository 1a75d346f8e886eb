"""Iso-surface extraction, surface sampling, and volume measurement.

marching_cubes uses the classic 15-configuration tables with linear
interpolation of edge crossings. It takes the cube layout (corner offsets,
and each edge's axis and lower corner) from mc_tables, so the case bits, the
crossing-edge vertices and the table's edge numbers all follow one
definition. Vertices are deduplicated by their global grid-edge key, so the
output is independent of traversal order and adjacent cubes share vertices
exactly. The rare face ambiguities of the classic tables are accepted; the
harness measures distances, not genus.
"""

import numpy as np

from .errors import DomainError, MeshError, ShapeError
from .fof import FourierField, decode_grid, depth_samples
from .mesh import TriMesh, check_watertight, mesh_volume_divergence
from .mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_ORIGIN, TRI_TABLE
from .raster import OrthoFrame
from .rng import Xoshiro256StarStar

from dataclasses import dataclass, field as dc_field


@dataclass
class OccupancyGrid:
    """Sampled occupancy with a per-axis linear index-to-scene map."""

    values: np.ndarray  # (X, Y, Z) float64
    origin: np.ndarray = dc_field(default_factory=lambda: np.array([-1.0, -1.0, -1.0]))
    spacing: np.ndarray = dc_field(default_factory=lambda: np.array([1.0, 1.0, 1.0]))

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.spacing = np.asarray(self.spacing, dtype=np.float64).reshape(3)
        if self.values.ndim != 3 or min(self.values.shape) < 2:
            raise ShapeError(f"grid must be (X>=2, Y>=2, Z>=2), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid contains non-finite values")


def field_to_grid(fof, frame=OrthoFrame(), depth_res=128):
    """Decode a field into an OccupancyGrid in scene coordinates.

    Grid axes are (x, y, z): x follows columns, y follows rows bottom-up,
    z follows the uniform decode depths.
    """
    occ = decode_grid(fof, depth_res)  # (H, W, D), row 0 = top
    values = np.ascontiguousarray(np.transpose(occ[::-1, :, :], (1, 0, 2)))
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
    return OccupancyGrid(values, origin, spacing)


def marching_cubes(grid, iso=0.5):
    """Extract the iso-surface triangle mesh of an occupancy grid.

    Faces are wound so normals point out of the high-occupancy region. A
    constant grid yields an empty mesh.
    """
    v = grid.values
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

    # One vertex per crossing grid edge, numbered axis by axis: vid[axis][p]
    # is the vertex on the edge from grid point p along axis (0 elsewhere).
    vid = np.zeros((3,) + v.shape, dtype=np.int64)
    positions, n = [], 0
    for axis in range(3):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        cross = np.nonzero(below[lo] != below[hi])
        va, vb = v[lo][cross], v[hi][cross]
        vid[axis][cross] = np.arange(n, n + len(va))
        base = np.stack(cross, axis=1).astype(np.float64)
        base[:, axis] += (iso - va) / (vb - va)
        positions.append(grid.origin + grid.spacing * base)
        n += len(va)

    # Each face corner is a cube edge named by TRI_TABLE; its vertex id sits
    # at a fixed flat offset from the cube's own grid point in vid.
    edge_offset = EDGE_AXIS * v.size + np.ravel_multi_index(EDGE_ORIGIN.T, v.shape)
    rows = TRI_TABLE[case[ci, cj, ck]]  # (n_active, 16), -1 padded in trailing triples
    cube, slot = np.nonzero(rows >= 0)
    point = np.ravel_multi_index((ci[cube], cj[cube], ck[cube]), v.shape)
    faces = vid.ravel()[point + edge_offset[rows[cube, slot]]].reshape(-1, 3)
    # The table's winding already points out of the high-occupancy region
    # under this corner layout (verified by signed volume on spheres).
    return TriMesh(np.concatenate(positions, axis=0), faces)


def reconstruct_field(fof, frame=OrthoFrame(), grid_res=128, iso=0.5):
    """decode_grid + marching_cubes convenience wrapper."""
    if not isinstance(fof, FourierField):
        fof = FourierField(fof)
    return marching_cubes(field_to_grid(fof, frame, grid_res), iso=iso)


def sample_surface(mesh, n, seed=0):
    """Area-weighted surface samples.

    Faces are chosen by inverse transform sampling on cumulative areas and
    points placed with the uniform barycentric map; deterministic for a fixed
    seed. Returns (points (n, 3), normals (n, 3)) where normals are the face
    normals of the sampled faces.
    """
    face_idx, pts = _sample_points(mesh, _sample_uniforms(n, seed))
    return pts, mesh.face_normals()[face_idx]


def _sample_uniforms(n, seed):
    """The 3n uniforms that sample_surface(mesh, n, seed) draws for any mesh."""
    return np.asarray(Xoshiro256StarStar(seed).uniforms(3 * n), dtype=np.float64)


def _sample_points(mesh, u):
    """Face indices and points of the area-weighted samples for uniforms u.

    u holds 3n uniforms: n choose faces, 2n place the barycentric points.
    """
    if mesh.n_faces == 0:
        raise DomainError("cannot sample an empty mesh")
    n = len(u) // 3
    if n < 1:
        raise DomainError("need at least one sample")
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
