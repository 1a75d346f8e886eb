"""The shape builders against their per-element reference builds.

Each reference is the loop or dense evaluation that the builder replaced,
kept here as the oracle: the builders must reproduce it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fofkit.shapes import (FIGURE_CAPSULES, figure_sdf, make_capsule_figure, make_sphere,
                           make_torus)
from fofkit.surface import OccupancyGrid, marching_cubes


def subdivide_by_dict(verts, faces):
    """One 4-way subdivision, one dict lookup per face edge."""
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


def torus_faces_by_loop(major_segments, minor_segments):
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
    return np.asarray(faces, dtype=np.int64)


def capsule_figure_dense(grid_res=160, capsules=FIGURE_CAPSULES):
    """make_capsule_figure with the distance evaluated at every grid point."""
    lo, hi = -0.95, 0.95
    axis = np.linspace(lo, hi, grid_res)
    spacing = axis[1] - axis[0]
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    d = figure_sdf(pts, capsules).reshape(grid_res, grid_res, grid_res)
    grid = OccupancyGrid(0.5 - d / spacing, origin=np.array([lo, lo, lo]),
                         spacing=np.full(3, spacing))
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


def assert_same_mesh(got, want):
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)
    assert got.faces.dtype == want.faces.dtype == np.int64
    assert (got.normals is None) == (want.normals is None)
    if want.normals is not None:
        assert np.array_equal(got.normals, want.normals)


def test_sphere_matches_dict_subdivision():
    unit = make_sphere(1.0, 0)
    verts, faces = unit.vertices, unit.faces
    for level in range(6):
        if level:
            verts, faces = subdivide_by_dict(verts, faces)
        got = make_sphere(0.6, level)
        assert np.array_equal(got.vertices, verts * 0.6), level
        assert np.array_equal(got.normals, verts), level
        assert np.array_equal(got.faces, faces), level


@pytest.mark.parametrize("segments", [(96, 48), (3, 3), (7, 5), (4, 11), (10, 3)])
def test_torus_faces_match_loop(segments):
    got = make_torus(0.45, 0.2, *segments)
    want = torus_faces_by_loop(*segments)
    assert got.faces.dtype == np.int64 and np.array_equal(got.faces, want)


def test_capsule_figure_matches_dense_build(capsule_mesh):
    assert_same_mesh(capsule_mesh, capsule_figure_dense())


COORD = st.floats(-0.8, 0.8, allow_nan=False)
CAPSULE = st.tuples(st.tuples(COORD, COORD, COORD), st.tuples(COORD, COORD, COORD),
                    st.floats(0.0, 0.4, allow_nan=False))


@settings(max_examples=30, deadline=None)
@given(capsules=st.lists(CAPSULE, min_size=1, max_size=4).map(tuple),
       grid_res=st.integers(2, 64))
def test_capsule_sets_match_dense_build(capsules, grid_res):
    assert_same_mesh(make_capsule_figure(grid_res, capsules),
                     capsule_figure_dense(grid_res, capsules))


def test_figure_sdf_of_a_subset_is_the_dense_value():
    # capsule_sdf's (p - a) @ ab runs through BLAS; the narrow band relies
    # on each row's value not depending on which other rows are evaluated.
    axis = np.linspace(-0.95, 0.95, 48)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    dense = figure_sdf(pts)
    rng = np.random.default_rng(0)
    subsets = [np.sort(rng.choice(len(pts), size, replace=False))
               for size in (1, 2, 3, 5, 77, 4096)]
    subsets.append(np.flatnonzero(np.abs(dense) < 0.05))  # the band
    subsets += [np.arange(n) for n in range(1, 18)]  # short prefixes
    subsets += [np.arange(n, 2 * n + 3) for n in (1, 7, 1000)]  # unaligned starts
    for idx in subsets:
        assert np.array_equal(figure_sdf(pts[idx]), dense[idx]), len(idx)
