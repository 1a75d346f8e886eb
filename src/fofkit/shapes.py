"""Procedural watertight ground-truth shapes for the experiment harness.

Sphere and torus are analytic triangulations with exact vertex normals; the
cube is the plain 12-triangle box. The capsule figure (a humanoid stand-in:
torso, head, two arms, two legs) is built by extracting the iso-surface of a
union-of-capsules distance field, which fuses the overlapping parts into one
watertight manifold. All defaults fit inside [-0.9, 0.9]^3.
"""

import math
import numbers

import numpy as np

from .errors import DomainError
from .mesh import TriMesh


def _check_count(name, value, low):
    if not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")


def make_cube(size=1.0):
    """Axis-aligned cube of edge length ``size`` centered at the origin."""
    if not 0.0 < size < math.inf:
        raise DomainError(f"cube size must be positive and finite, got {size!r}")
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
    if not 0.0 < radius < math.inf:
        raise DomainError(f"sphere radius must be positive and finite, got {radius!r}")
    _check_count("subdivisions", subdivisions, 0)
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
    """One 4-way subdivision with midpoints projected to the unit sphere."""
    edge_mid = {}
    verts = list(map(tuple, verts))

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in edge_mid:
            p = (np.asarray(verts[a]) + np.asarray(verts[b])) / 2.0
            p /= np.linalg.norm(p)
            edge_mid[key] = len(verts)
            verts.append(tuple(p))
        return edge_mid[key]

    out = []
    for a, b, c in faces:
        ab = midpoint(a, b)
        bc = midpoint(b, c)
        ca = midpoint(c, a)
        out.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.asarray(verts, dtype=np.float64), np.asarray(out, dtype=np.int64)


def make_torus(major_radius=0.45, minor_radius=0.2, major_segments=96, minor_segments=48):
    """Torus around the z axis with exact normals."""
    if not 0.0 < minor_radius < major_radius < math.inf:
        raise DomainError("need 0 < minor_radius < major_radius, both finite, got "
                          f"{minor_radius!r} and {major_radius!r}")
    _check_count("major_segments", major_segments, 3)
    _check_count("minor_segments", minor_segments, 3)
    u = 2.0 * np.pi * np.arange(major_segments) / major_segments
    v = 2.0 * np.pi * np.arange(minor_segments) / minor_segments
    uu, vv = np.meshgrid(u, v, indexing="ij")
    cx = np.cos(uu)
    sx = np.sin(uu)
    ring = major_radius + minor_radius * np.cos(vv)
    verts = np.stack([ring * cx, ring * sx, minor_radius * np.sin(vv)], axis=-1).reshape(-1, 3)
    normals = np.stack([np.cos(vv) * cx, np.cos(vv) * sx, np.sin(vv)], axis=-1).reshape(-1, 3)

    faces = []
    for i in range(major_segments):
        i2 = (i + 1) % major_segments
        for j in range(minor_segments):
            j2 = (j + 1) % minor_segments
            a = i * minor_segments + j
            b = i2 * minor_segments + j
            c = i2 * minor_segments + j2
            d = i * minor_segments + j2
            faces.append([a, b, c])
            faces.append([a, c, d])
    return TriMesh(verts, np.asarray(faces, dtype=np.int64), normals)


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

    Vertex normals come from central differences of the analytic field.
    """
    from .surface import OccupancyGrid, marching_cubes

    _check_count("grid_res", grid_res, 2)
    lo, hi = -0.95, 0.95
    axis = np.linspace(lo, hi, grid_res)
    spacing = axis[1] - axis[0]
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    d = figure_sdf(pts, capsules).reshape(grid_res, grid_res, grid_res)
    # Occupancy = 1 inside; iso at 0.5 lands on the zero level set.
    occ = 0.5 - d / spacing
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


def make_shape(kind, **params):
    """Dispatch by shape name: sphere | torus | capsule_figure | cube."""
    if kind not in SHAPE_MAKERS:
        raise DomainError(f"unknown shape {kind!r}; choose from {sorted(SHAPE_MAKERS)}")
    return SHAPE_MAKERS[kind](**params)
