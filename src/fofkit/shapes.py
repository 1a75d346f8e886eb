"""Procedural watertight ground-truth shapes for the experiment harness.

Sphere and torus are analytic triangulations with exact vertex normals; the
cube is the plain 12-triangle box. The capsule figure (a humanoid stand-in:
torso, head, two arms, two legs) is built by extracting the iso-surface of a
union-of-capsules distance field, which fuses the overlapping parts into one
watertight manifold. All defaults fit inside [-0.9, 0.9]^3.

Every builder is array code that does only the work its output reads, and
each reproduces a per-element build bit for bit: the icosphere numbers its
edge midpoints in the order a per-edge dict would and rounds each midpoint
as a lone 3-vector would; the torus faces come from one grid of vertex
ids; and the capsule figure evaluates its distance field exactly only in
the narrow band marching cubes reads (see make_capsule_figure for the
bound). tests/test_shapes.py keeps those per-element builds as oracles.
"""

import numpy as np

from .errors import above, integer, one_of, require
from .fof import DEPTH_RES
from .mesh import TriMesh

POSITIVE = above(0)  # cube size and sphere and torus radii


def make_cube(size=1.0):
    """Axis-aligned cube of edge length ``size`` centered at the origin."""
    require("size", size, POSITIVE)
    h = size / 2.0
    v = np.array([
        [-h, -h, -h], [h, -h, -h], [h, h, -h], [-h, h, -h],
        [-h, -h, h], [h, -h, h], [h, h, h], [-h, h, h],
    ])
    f = np.array([
        [0, 2, 1], [0, 3, 2],  # z = -h
        [4, 5, 6], [4, 6, 7],  # z = +h
        [0, 1, 5], [0, 5, 4],  # y = -h
        [3, 7, 6], [3, 6, 2],  # y = +h
        [0, 4, 7], [0, 7, 3],  # x = -h
        [1, 2, 6], [1, 6, 5],  # x = +h
    ], dtype=np.int64)
    return TriMesh(v, f)


def make_sphere(radius=0.6, subdivisions=4):
    """Icosphere with vertices and normals on the exact sphere."""
    require("radius", radius, POSITIVE)
    require("subdivisions", subdivisions, integer(0))
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(subdivisions):
        verts, faces = _subdivide_unit(verts, faces)
    normals = verts.copy()
    return TriMesh(verts * radius, faces, normals)


def _subdivide_unit(verts, faces):
    """One 4-way subdivision with midpoints projected to the unit sphere.

    Each face's edges (ab, bc, ca) get one midpoint vertex per undirected
    edge, numbered after the old vertices in the order the edges first
    appear in that (face, edge) sequence. The midpoint sum is commutative,
    so it does not matter which end of an edge comes first.
    """
    n = len(verts)
    ends = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, edge = np.unique(ends[:, 0] * n + ends[:, 1], return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct edges in order of first appearance
    rank = np.argsort(order)
    a, b = ends[first[order]].T
    p = (verts[a] + verts[b]) / 2.0
    # np.linalg.norm of one 3-vector is sqrt(p.dot(p)); vecdot runs that
    # same dot kernel row by row, so every midpoint rounds as it did alone.
    p = p / np.sqrt(np.vecdot(p, p))[:, None]
    ab, bc, ca = (n + rank[edge]).reshape(-1, 3).T
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, p]), out.reshape(-1, 3)


def make_torus(major_radius=0.45, minor_radius=0.2, major_segments=96, minor_segments=48):
    """Torus around the z axis with exact normals."""
    require("minor_radius", minor_radius, POSITIVE)
    require("major_radius", major_radius, above(minor_radius))
    require("major_segments", major_segments, integer(3))
    require("minor_segments", minor_segments, integer(3))
    u = 2.0 * np.pi * np.arange(major_segments) / major_segments
    v = 2.0 * np.pi * np.arange(minor_segments) / minor_segments
    uu, vv = np.meshgrid(u, v, indexing="ij")
    cx = np.cos(uu)
    sx = np.sin(uu)
    ring = major_radius + minor_radius * np.cos(vv)
    verts = np.stack([ring * cx, ring * sx, minor_radius * np.sin(vv)], axis=-1).reshape(-1, 3)
    normals = np.stack([np.cos(vv) * cx, np.cos(vv) * sx, np.sin(vv)], axis=-1).reshape(-1, 3)

    # Quad (i, j) joins grid ids a = (i, j), b = (i + 1, j),
    # c = (i + 1, j + 1) and d = (i, j + 1), both indices wrapping around.
    a = np.arange(major_segments * minor_segments, dtype=np.int64)
    a = a.reshape(major_segments, minor_segments)
    b = np.roll(a, -1, axis=0)
    c = np.roll(b, -1, axis=1)
    d = np.roll(a, -1, axis=1)
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return TriMesh(verts, faces, normals)


# Edge, in grid points, of make_capsule_figure's narrow-band blocks.
BLOCK = 8

# Capsule figure: segments (p0, p1, radius) in scene units.
FIGURE_CAPSULES = (
    ((0.0, -0.25, 0.0), (0.0, 0.20, 0.0), 0.17),     # torso
    ((0.0, 0.42, 0.0), (0.0, 0.50, 0.0), 0.11),      # head
    ((-0.13, 0.20, 0.0), (-0.40, -0.15, 0.30), 0.06),  # left arm (raised forward)
    ((0.13, 0.20, 0.0), (0.40, -0.15, 0.30), 0.06),   # right arm
    ((-0.08, -0.22, 0.0), (-0.16, -0.78, 0.0), 0.075),  # left leg
    ((0.08, -0.22, 0.0), (0.16, -0.78, 0.0), 0.075),  # right leg
)


def capsule_sdf(points, p0, p1, radius):
    """Signed distance to a capsule (segment swept by a sphere)."""
    p = np.asarray(points, dtype=np.float64)
    a = np.asarray(p0, dtype=np.float64)
    b = np.asarray(p1, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip(((p - a) @ ab) / denom, 0.0, 1.0) if denom > 0 else 0.0
    closest = a + np.multiply.outer(t, ab)
    return np.linalg.norm(p - closest, axis=-1) - radius


def figure_sdf(points, capsules=FIGURE_CAPSULES):
    """Union (pointwise min) of the figure's capsule distances."""
    d = capsule_sdf(points, *capsules[0])
    for cap in capsules[1:]:
        d = np.minimum(d, capsule_sdf(points, *cap))
    return d


def make_capsule_figure(grid_res=160, capsules=FIGURE_CAPSULES):
    """Humanoid capsule union, meshed from its distance field.

    The grid holds occupancy 0.5 - d / spacing for the union's signed
    distance d, so the 0.5 iso-surface is d's zero level set. Marching cubes
    reads every grid value only for its side of 0.5, and reads the value
    itself only at the two ends of a crossing edge, one whose ends lie on
    opposite sides. So d is evaluated exactly only in a narrow band:

    - The grid is cut into blocks of up to 8^3 points, and d is evaluated at
      each block's center c.
    - d is 1-Lipschitz (Hart, "Sphere Tracing", 1996): |d(y) - d(c)| is at
      most |y - c|. A block's points, and each grid neighbor of them, lie
      within h + spacing of c, where h is the block's half-diagonal.
    - So when |d(c)| > h + spacing + margin, all of them lie on c's side,
      and no edge with an end in the block crosses. Such a far block gets
      occupancy 1 inside and 0 outside, without evaluating d.
    - Every other block gets 0.5 - d / spacing from the same points and the
      same float operations as a dense evaluation. So the crossing edges,
      the values at their ends, and hence the mesh and its normals, are the
      dense grid's bit for bit.

    margin covers rounding. Let S bound every grid bound, capsule
    coordinate and radius in magnitude, and u = 2^-53. capsule_sdf's dozen
    rounded operations put its result within 64 u S of the exact distance
    (the dot product's error moves the clipped segment parameter by at most
    11 u S / |p1 - p0|, and so the closest point by at most 11 u S). The
    center, h and each grid step round by a few u S more. margin =
    2^-30 S exceeds the sum by a factor over 10^5. A point y near a far
    block then has |computed d(y)| > margin / 2, so 0.5 - d(y) / spacing
    stays strictly on its side of 0.5; and margin is under 10^-7 spacing at
    the default grid, so it widens the band by a negligible amount.

    Vertex normals come from central differences of the analytic field.
    """
    from .surface import OccupancyGrid, marching_cubes

    require("grid_res", grid_res, DEPTH_RES)
    lo, hi = -0.95, 0.95
    axis = np.linspace(lo, hi, grid_res)
    spacing = axis[1] - axis[0]
    first = np.arange(0, grid_res, BLOCK)
    # Grid indices of each block along one axis; a short last block repeats its end.
    idx = np.minimum(first[:, None] + np.arange(BLOCK), grid_res - 1)
    nb = len(first)
    mid = (axis[idx[:, 0]] + axis[idx[:, -1]]) / 2.0
    half = (axis[idx[:, -1]] - axis[idx[:, 0]]) / 2.0
    centers = np.stack(np.meshgrid(mid, mid, mid, indexing="ij"), axis=-1).reshape(-1, 3)
    half_sq = np.stack(np.meshgrid(half, half, half, indexing="ij"), axis=-1).reshape(-1, 3) ** 2
    half_diag = np.sqrt(half_sq.sum(axis=1))
    d_center = figure_sdf(centers, capsules)
    scale = max([hi] + [abs(x) for p0, p1, r in capsules for x in (*p0, *p1, r)])
    near = np.abs(d_center) <= half_diag + spacing + 2.0 ** -30 * scale

    # Occupancy = 1 inside; iso at 0.5 lands on the zero level set.
    inside = (d_center < 0.0).reshape(nb, nb, nb).astype(np.float64)
    occ = inside.repeat(BLOCK, 0).repeat(BLOCK, 1).repeat(BLOCK, 2)
    occ = occ[:grid_res, :grid_res, :grid_res]
    bi, bj, bk = np.unravel_index(np.flatnonzero(near), (nb, nb, nb))
    i, j, k = np.broadcast_arrays(idx[bi][:, :, None, None], idx[bj][:, None, :, None],
                                  idx[bk][:, None, None, :])
    pts = np.stack([axis[i], axis[j], axis[k]], axis=-1).reshape(-1, 3)
    occ[i, j, k] = (0.5 - figure_sdf(pts, capsules) / spacing).reshape(i.shape)
    grid = OccupancyGrid(occ, origin=np.array([lo, lo, lo]), spacing=np.full(3, spacing))
    mesh = marching_cubes(grid, iso=0.5)

    eps = spacing / 4.0
    n = np.stack([
        figure_sdf(mesh.vertices + [eps, 0, 0], capsules) - figure_sdf(mesh.vertices - [eps, 0, 0], capsules),
        figure_sdf(mesh.vertices + [0, eps, 0], capsules) - figure_sdf(mesh.vertices - [0, eps, 0], capsules),
        figure_sdf(mesh.vertices + [0, 0, eps], capsules) - figure_sdf(mesh.vertices - [0, 0, eps], capsules),
    ], axis=1)
    ln = np.linalg.norm(n, axis=1, keepdims=True)
    ln[ln == 0.0] = 1.0
    mesh.normals = n / ln
    return mesh


SHAPE_MAKERS = {
    "sphere": make_sphere,
    "torus": make_torus,
    "capsule_figure": make_capsule_figure,
    "cube": make_cube,
}
SHAPE = one_of(SHAPE_MAKERS)


def make_shape(kind, **params):
    """Dispatch by shape name: sphere | torus | capsule_figure | cube."""
    require("kind", kind, SHAPE)
    return SHAPE_MAKERS[kind](**params)
