import re
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fofkit.completion import vgcc_blend
from fofkit.config import HarnessConfig
from fofkit.errors import DomainError, MeshError, ShapeError
from fofkit.fof import BasisConfig, FourierField, decode_grid
from fofkit.mesh import TriMesh, check_watertight, field_volume, mesh_to_fof
from fofkit.mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_CORNERS, EDGE_ORIGIN, TRI_TABLE
from fofkit.metrics import chamfer
from fofkit.occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.raster import OrthoFrame
from fofkit.shapes import make_cube, make_sphere
from fofkit.render import BACK, FRONT, render_normals, render_silhouette
from fofkit.selftest import (check_spliced_reconstruction, painted_fields, same_reconstruction,
                             spliced_columns)
from fofkit import surface
from fofkit.surface import (OccupancyGrid, ReconstructionReference, _index_dtype, field_to_grid,
                            marching_cubes, mesh_volume, reconstruct_field, sample_surface)
from fofkit.sweep import prepare_context

SPHERE_AREA = 4 * np.pi * 0.6 ** 2
SPHERE_VOLUME = 4 / 3 * np.pi * 0.6 ** 3


def unit_grid(values):
    values = np.asarray(values, dtype=np.float64)
    return OccupancyGrid(values, origin=np.zeros(3), spacing=np.ones(3))


class TestMarchingCubes:
    def test_constant_grid_empty(self):
        mesh = marching_cubes(unit_grid(np.zeros((4, 4, 4))))
        assert mesh.n_faces == 0
        assert mesh.n_vertices == 0

    @pytest.mark.parametrize("iso", [np.nan, np.inf, -np.inf])
    def test_non_finite_iso_rejected(self, iso):
        # Every comparison with nan is false, so a nan iso would silently
        # extract an empty mesh.
        values = np.zeros((4, 4, 4))
        values[1:3, 1:3, 1:3] = 1.0
        with pytest.raises(DomainError, match="iso must be finite"):
            marching_cubes(unit_grid(values), iso=iso)

    def test_single_voxel_closed_surface(self):
        values = np.zeros((8, 8, 8))
        values[4, 4, 4] = 1.0
        mesh = marching_cubes(unit_grid(values), iso=0.5)
        assert mesh.n_faces == 8
        ok, _ = check_watertight(mesh)
        assert ok
        vol, orient = mesh_volume(mesh)
        assert vol > 0
        assert orient == 1
        # surface encloses the hot sample point
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        assert np.all(lo < [4, 4, 4]) and np.all(hi > [4, 4, 4])

    def test_sphere_surface_area(self, sphere_recon):
        area = sphere_recon.face_areas().sum()
        assert area == pytest.approx(SPHERE_AREA, rel=0.03)

    def test_vertices_lie_on_crossing_edges(self):
        rng = np.random.default_rng(3)
        values = rng.random((6, 6, 6))
        grid = unit_grid(values)
        mesh = marching_cubes(grid, iso=0.5)
        v = mesh.vertices
        # each vertex has exactly one non-integer coordinate, between samples
        # straddling the iso level
        frac = v - np.floor(v)
        on_axis = np.isclose(frac, 0.0)
        assert np.all(on_axis.sum(axis=1) >= 2)
        for vertex in v[:50]:
            axis = int(np.argmax(~np.isclose(vertex - np.floor(vertex), 0.0)))
            base = np.floor(vertex).astype(int)
            t = vertex[axis] - base[axis]
            assert 0.0 <= t <= 1.0
            a = values[tuple(base)]
            nxt = base.copy()
            nxt[axis] += 1
            b = values[tuple(nxt)]
            assert (a < 0.5) != (b < 0.5)

    def test_resolution_consistency(self, sphere_mesh):
        # Doubling the extraction grid does not increase the Chamfer error.
        # A res^3 grid implies a res^2 field (decode keeps the field's lateral
        # resolution), so each resolution runs its own encode+extract.
        gt_pts, _ = sample_surface(sphere_mesh, 10_000, seed=5)
        cds = []
        for res in (32, 64, 128):
            frame = OrthoFrame(res, res)
            field = mesh_to_fof(sphere_mesh, frame, BasisConfig(15))
            recon = reconstruct_field(field, frame, res)
            pts, _ = sample_surface(recon, 10_000, seed=5)
            cds.append(chamfer(pts, gt_pts))
        assert cds[2] <= cds[1] <= cds[0]


def marching_cubes_by_hand(grid, iso=0.5):
    """Reference extractor: marching_cubes as it was when it spelled out the
    cube layout itself (eight corner slices, an int64 case array, -1 filled
    index grids with offset copies and a twelve-row edge gather), kept as
    it was."""
    v = grid.values
    below = v < iso

    # Case index per cube from the 8 corner bits.
    b = [below[:-1, :-1, :-1], below[1:, :-1, :-1], below[1:, 1:, :-1], below[:-1, 1:, :-1],
         below[:-1, :-1, 1:], below[1:, :-1, 1:], below[1:, 1:, 1:], below[:-1, 1:, 1:]]
    case = np.zeros(b[0].shape, dtype=np.int64)
    for bit, corner in enumerate(b):
        case |= corner.astype(np.int64) << bit
    active = (case != 0) & (case != 255)
    if not active.any():
        return TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    ci, cj, ck = np.nonzero(active)
    case_a = case[ci, cj, ck]

    # One vertex per crossing grid edge, indexed globally per axis.
    def crossings(axis):
        sl_lo = [slice(None)] * 3
        sl_hi = [slice(None)] * 3
        sl_lo[axis] = slice(None, -1)
        sl_hi[axis] = slice(1, None)
        va = v[tuple(sl_lo)]
        vb = v[tuple(sl_hi)]
        mask = below[tuple(sl_lo)] != below[tuple(sl_hi)]
        idx = np.full(va.shape, -1, dtype=np.int64)
        n = int(mask.sum())
        idx[mask] = np.arange(n)
        t = (iso - va[mask]) / (vb[mask] - va[mask])
        base = np.stack(np.nonzero(mask), axis=1).astype(np.float64)
        base[:, axis] += t
        pos = grid.origin + grid.spacing * base
        return idx, pos, n

    vidx_x, pos_x, nx = crossings(0)
    vidx_y, pos_y, ny = crossings(1)
    vidx_z, pos_z, nz = crossings(2)
    vidx_y_off = vidx_y.copy()
    vidx_y_off[vidx_y >= 0] += nx
    vidx_z_off = vidx_z.copy()
    vidx_z_off[vidx_z >= 0] += nx + ny
    vertices = np.concatenate([pos_x, pos_y, pos_z], axis=0)

    # Global vertex id of each of the 12 cube edges, per active cube.
    edge_vertex = np.stack([
        vidx_x[ci, cj, ck],
        vidx_y_off[ci + 1, cj, ck],
        vidx_x[ci, cj + 1, ck],
        vidx_y_off[ci, cj, ck],
        vidx_x[ci, cj, ck + 1],
        vidx_y_off[ci + 1, cj, ck + 1],
        vidx_x[ci, cj + 1, ck + 1],
        vidx_y_off[ci, cj, ck + 1],
        vidx_z_off[ci, cj, ck],
        vidx_z_off[ci + 1, cj, ck],
        vidx_z_off[ci + 1, cj + 1, ck],
        vidx_z_off[ci, cj + 1, ck],
    ], axis=1)

    rows = TRI_TABLE[case_a]  # (n_active, 16), -1 padded in trailing triples
    valid = rows >= 0
    faces = edge_vertex[np.nonzero(valid)[0], rows[valid]].reshape(-1, 3)
    return TriMesh(vertices, faces)


def assert_same_mesh(got, want):
    assert got.vertices.shape == want.vertices.shape
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))
    assert got.faces.dtype == want.faces.dtype
    assert np.array_equal(got.faces, want.faces)
    return got


def assert_same_extraction(grid, iso=0.5):
    return assert_same_mesh(marching_cubes(grid, iso), marching_cubes_by_hand(grid, iso))


def dense_grid(field, frame, depth_res):
    """The full-frame grid of a field: decode_grid's (H, W, D) samples with
    rows flipped and moved to the (X, Y, Z) layout, on field_to_grid's
    index-to-scene map."""
    grid = field_to_grid(field, frame, depth_res)
    values = np.transpose(decode_grid(field, depth_res)[::-1], (1, 0, 2))
    return OccupancyGrid(values, grid.origin, grid.spacing)


def assert_cropped_equals_dense(field, frame, depth_res, iso=0.5):
    """reconstruct_field extracts, bit for bit, what the hand-written
    extractor takes from the full-frame grid."""
    return assert_same_mesh(reconstruct_field(field, frame, depth_res, iso),
                            marching_cubes_by_hand(dense_grid(field, frame, depth_res), iso))


def whole_frame(field, frame):
    """A field on a window of frame as the field of the whole frame."""
    data = np.zeros((frame.height, frame.width, field.channels))
    data[field.window] = field.data
    return FourierField(data)


def cell_fields(ctx, cfg):
    """The naive and blend fields of one occluded default-sweep cell, and its
    naive field under the noise policy, on the context's fields' window."""
    pair = synthesize_occlusion(render_silhouette(ctx["gt"], ctx["frame"]),
                                OccluderSpec(cfg.occluder_kind, 0, 0.4))
    naive = occlude_field(ctx["c_gt"], pair, "zero", sigma=cfg.noise_sigma, seed=0)
    noisy = occlude_field(ctx["c_gt"], pair, "noise", sigma=cfg.noise_sigma, seed=0)
    blend = vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)
    return {"naive": naive, "blend": blend, "noise": noisy, "gt": ctx["c_gt"],
            "prior": ctx["c_prior"]}


@pytest.fixture(scope="module")
def sweep_context():
    cfg = HarnessConfig.load()
    return cfg, prepare_context(cfg)


@pytest.fixture(scope="module")
def sweep_fields(sweep_context):
    """The default sweep's naive and blend fields of one occluded cell, and
    its naive field under the noise policy, on the whole frame."""
    cfg, ctx = sweep_context
    ctx = dict(ctx, c_gt=whole_frame(ctx["c_gt"], ctx["frame"]),
               c_prior=whole_frame(ctx["c_prior"], ctx["frame"]))
    return ctx["frame"], cfg.grid_res, cell_fields(ctx, cfg)


class TestCubeLayout:
    """marching_cubes reads its cube layout from mc_tables; it must extract
    what the hand-written layout did, bit for bit."""

    def test_edges_are_unit_grid_edges(self):
        for e, (c0, c1) in enumerate(EDGE_CORNERS):
            step = np.zeros(3, dtype=np.int64)
            step[EDGE_AXIS[e]] = 1
            ends = {tuple(CORNER_OFFSETS[c0]), tuple(CORNER_OFFSETS[c1])}
            assert ends == {tuple(EDGE_ORIGIN[e]), tuple(EDGE_ORIGIN[e] + step)}, e

    def test_corner_offsets_are_the_unit_cube(self):
        assert {tuple(c) for c in CORNER_OFFSETS} == {
            (i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}

    @settings(max_examples=150, deadline=None)
    @given(values=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6),
                                               st.integers(2, 6)),
                         elements=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
    def test_samples_at_iso(self, values):
        assert_same_extraction(unit_grid(values))

    def test_random_grid_with_exact_iso_samples(self):
        rng = np.random.default_rng(7)
        values = rng.random((12, 9, 10))
        values[rng.random(values.shape) < 0.2] = 0.5
        assert assert_same_extraction(unit_grid(values)).n_faces > 0

    @pytest.mark.parametrize("fill", [0.0, 0.49, 0.5, 1.0])
    def test_constant_grid(self, fill):
        assert assert_same_extraction(unit_grid(np.full((3, 4, 5), fill))).n_faces == 0

    def test_single_voxel(self):
        values = np.zeros((8, 8, 8))
        values[4, 4, 4] = 1.0
        assert assert_same_extraction(unit_grid(values)).n_faces == 8

    def test_smallest_odd_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert_same_extraction(unit_grid(rng.random((2, 3, 5))), iso=0.4)

    def test_non_unit_origin_and_spacing(self):
        rng = np.random.default_rng(5)
        grid = OccupancyGrid(rng.random((7, 5, 6)), origin=np.array([-0.3, 1.7, -2.1]),
                             spacing=np.array([0.1, 0.37, 1.3]))
        assert assert_same_extraction(grid, iso=0.6).n_faces > 0

    @pytest.mark.parametrize("method", ["naive", "blend", "noise"])
    def test_sweep_fields(self, sweep_fields, method):
        frame, grid_res, fields = sweep_fields
        grid = field_to_grid(fields[method], frame, grid_res)
        want = marching_cubes_by_hand(dense_grid(fields[method], frame, grid_res))
        assert assert_same_mesh(marching_cubes(grid), want).n_faces > 0


def random_support_field(live, order=3, seed=0):
    """A field whose pixels are live where live is set: c0 near 0.5 and
    random harmonics, so the decoded columns cross every tested iso."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=live.shape + (2 * order + 1,)) * 0.4
    data[..., 0] += 0.5
    data[~live] = 0.0
    return FourierField(data)


def bits(*arrays):
    """The dtypes, shapes and bytes of arrays."""
    return [(a.dtype, a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def reconstruction_bits(reconstruction):
    """The dtypes and bytes of a (mesh, front map, back map) reconstruction."""
    mesh, *maps = reconstruction
    return bits(mesh.vertices, mesh.faces, *[a for m in maps for a in (m.data, m.mask)])


class TestCroppedExtraction:
    """field_to_grid returns only the box of live columns; extracting from it
    must give the full-frame mesh bit for bit at any iso."""

    @pytest.mark.parametrize("iso", [0.5, 0.0, -0.1])
    @pytest.mark.parametrize("method", ["naive", "blend", "noise"])
    def test_sweep_fields(self, sweep_fields, method, iso):
        frame, grid_res, fields = sweep_fields
        assert assert_cropped_equals_dense(fields[method], frame, grid_res, iso).n_faces > 0

    @pytest.mark.parametrize("iso", [0.5, 0.0, -0.1])
    def test_live_pixels_touch_every_frame_edge(self, iso):
        live = np.random.default_rng(1).random((12, 10)) < 0.3
        live[0, 4] = live[-1, 7] = live[5, 0] = live[2, -1] = True
        field = random_support_field(live, seed=2)
        grid = field_to_grid(field, OrthoFrame(10, 12), 9)
        assert grid.values.shape == (10, 12, 9)
        assert np.array_equal(grid.offset, [0, 0, 0])
        assert assert_cropped_equals_dense(field, OrthoFrame(10, 12), 9, iso).n_faces > 0

    @pytest.mark.parametrize("iso", [0.5, 0.0, -0.1])
    @pytest.mark.parametrize("pixel", [(4, 6), (0, 0), (11, 9), (0, 5)])
    def test_single_live_pixel(self, pixel, iso):
        live = np.zeros((12, 10), dtype=bool)
        live[pixel] = True
        field = random_support_field(live, seed=3)
        grid = field_to_grid(field, OrthoFrame(10, 12), 9)
        # one cell on each side of the pixel's column, clamped to the frame
        x, y = pixel[1], 11 - pixel[0]
        assert np.array_equal(grid.offset, [max(x - 1, 0), max(y - 1, 0), 0])
        assert grid.values.shape[:2] == (min(x + 2, 10) - max(x - 1, 0),
                                         min(y + 2, 12) - max(y - 1, 0))
        assert_cropped_equals_dense(field, OrthoFrame(10, 12), 9, iso)

    @pytest.mark.parametrize("iso", [0.5, 0.0, -0.1])
    def test_two_depth_samples(self, iso):
        live = np.zeros((12, 10), dtype=bool)
        live[3:9, 2:6] = True
        field = random_support_field(live, seed=4)
        assert field_to_grid(field, OrthoFrame(10, 12), 2).values.shape == (6, 8, 2)
        assert_cropped_equals_dense(field, OrthoFrame(10, 12), 2, iso)

    @pytest.mark.parametrize("iso", [0.5, -0.1])
    def test_all_zero_field_gives_empty_mesh(self, iso):
        field = FourierField(np.zeros((12, 10, 7)))
        grid = field_to_grid(field, OrthoFrame(10, 12), 9)
        assert grid.values.shape == (2, 2, 9) and not grid.values.any()
        assert np.array_equal(grid.offset, [0, 0, 0])
        mesh = assert_cropped_equals_dense(field, OrthoFrame(10, 12), 9, iso)
        assert mesh.n_faces == 0 and mesh.n_vertices == 0

    @pytest.mark.parametrize("iso", [0.5, -0.1])
    @pytest.mark.parametrize("offset", [(0, 0, 0), (3, 0, 0), (0, 2, 5), (4, 1, 3)])
    def test_integer_offset_equivariance(self, offset, iso):
        rng = np.random.default_rng(sum(offset))
        small = np.zeros((6, 5, 7))
        small[1:-1, 1:-1, 1:-1] = rng.random((4, 3, 5)) * 1.4 - 0.4
        large = np.zeros(tuple(np.add(offset, small.shape) + [2, 3, 1]))
        large[tuple(slice(o, o + n) for o, n in zip(offset, small.shape))] = small
        origin, spacing = np.array([-0.3, 1.7, -2.1]), np.array([0.1, 0.37, 1.3])
        want = marching_cubes(OccupancyGrid(large, origin, spacing), iso)
        got = marching_cubes(OccupancyGrid(small, origin, spacing, offset), iso)
        assert assert_same_mesh(got, want).n_faces > 0

    @pytest.mark.parametrize("offset", [(1, 2), (0, 0, 0, 0), ((0, 0, 0),), (-1, 0, 0),
                                        (0.0, 0, 0), (0.5, 1, 2), (True, False, True),
                                        "abc"])
    def test_bad_offset_rejected(self, offset):
        with pytest.raises(ShapeError, match="offset"):
            OccupancyGrid(np.zeros((2, 2, 2)), offset=offset)

    @pytest.mark.parametrize("name, value, error", [
        ("spacing", 1.0, ShapeError), ("spacing", (1.0, 1.0), ShapeError),
        ("origin", np.zeros((1, 3)), ShapeError), ("origin", "abc", ShapeError),
        ("origin", (True, False, True), ShapeError), ("origin", (0, None, 0), ShapeError),
        ("origin", (0.0, np.nan, 0.0), DomainError), ("origin", (np.inf, 0, 0), DomainError),
        ("spacing", (1.0, 1.0, np.nan), DomainError), ("spacing", (1, 0, 1), DomainError),
        ("spacing", (-1, 1, 1), DomainError), ("spacing", (1.0, -np.inf, 1.0), DomainError)])
    def test_bad_origin_or_spacing_rejected(self, name, value, error):
        with pytest.raises(error, match=name):
            OccupancyGrid(np.zeros((2, 2, 2)), **{name: value})


class TestRoundTrip:
    @pytest.mark.parametrize("shape", ["sphere", "torus", "capsule_figure"])
    def test_chamfer_bound(self, shape, request, frame128):
        mesh = request.getfixturevalue(
            {"sphere": "sphere_mesh", "torus": "torus_mesh",
             "capsule_figure": "capsule_mesh"}[shape])
        field = mesh_to_fof(mesh, frame128, BasisConfig(15))
        recon = reconstruct_field(field, frame128, 128)
        a, _ = sample_surface(mesh, 10_000, seed=11)
        b, _ = sample_surface(recon, 10_000, seed=11)
        assert chamfer(a, b) <= 2.0  # centi-units

    def test_roundtrip_watertight(self, sphere_recon):
        assert check_watertight(sphere_recon)[0]


class TestSampleSurface:
    def test_single_triangle_inside(self):
        tri = TriMesh([[0, 0, 0], [2, 0, 0], [0, 3, 0]], [[0, 1, 2]])
        pts, normals = sample_surface(tri, 1000, seed=1)
        # all points in the triangle plane with non-negative barycentrics
        assert np.allclose(pts[:, 2], 0.0)
        u = pts[:, 0] / 2
        v = pts[:, 1] / 3
        assert np.all(u >= 0) and np.all(v >= 0) and np.all(u + v <= 1.0 + 1e-12)
        assert np.allclose(normals, [0, 0, 1])

    def test_area_weighting(self):
        # area ratio 3:1 between two triangles
        mesh = TriMesh(
            [[0, 0, 0], [3, 0, 0], [0, 2, 0], [10, 0, 0], [11, 0, 0], [10, 2, 0]],
            [[0, 1, 2], [3, 4, 5]])
        pts, _ = sample_surface(mesh, 40_000, seed=0)
        on_big = pts[:, 0] < 5.0
        ratio = on_big.sum() / (~on_big).sum()
        assert ratio == pytest.approx(3.0, rel=0.02)

    def test_sphere_radius(self, sphere_mesh):
        pts, _ = sample_surface(sphere_mesh, 10_000, seed=2)
        assert np.linalg.norm(pts, axis=1).mean() == pytest.approx(0.6, rel=0.01)

    def test_deterministic(self, sphere_mesh):
        a, na = sample_surface(sphere_mesh, 100, seed=9)
        b, nb = sample_surface(sphere_mesh, 100, seed=9)
        assert np.array_equal(a, b) and np.array_equal(na, nb)

    def test_empty_mesh_rejected(self):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(DomainError):
            sample_surface(empty, 10)


class TestMeshVolume:
    def test_unit_cube(self):
        vol, orient = mesh_volume(make_cube(1.0))
        assert vol == pytest.approx(1.0, abs=1e-12)
        assert orient == 1

    def test_icosphere(self):
        vol, _ = mesh_volume(make_sphere(0.6, 4))
        assert vol == pytest.approx(SPHERE_VOLUME, rel=0.005)

    def test_inverted_winding_diagnostic(self):
        cube = make_cube(1.0)
        flipped = TriMesh(cube.vertices, cube.faces[:, ::-1])
        vol, orient = mesh_volume(flipped)
        assert vol == pytest.approx(1.0, abs=1e-12)
        assert orient == -1

    def test_rejects_open_mesh(self):
        tri = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError):
            mesh_volume(tri)


class TestFieldToGrid:
    def test_grid_matches_decode(self, sphere_field, frame128):
        grid = field_to_grid(sphere_field, frame128, 64)
        (nx, ny, nz), (x0, y0, z0) = grid.values.shape, grid.offset
        assert nz == 64 and z0 == 0
        # x axis follows columns, y axis follows rows bottom-up
        occ = decode_grid(sphere_field, 64)
        assert grid.values[3, 5, 10] == occ[128 - 1 - (5 + y0), 3 + x0, 10]
        dense = np.transpose(occ[::-1], (1, 0, 2))
        assert np.array_equal(grid.values, dense[x0:x0 + nx, y0:y0 + ny])
        # the box holds every live pixel
        rows, cols = np.nonzero(np.any(sphere_field.data != 0.0, axis=2))
        assert len(rows)
        assert x0 <= cols.min() and cols.max() < x0 + nx
        assert y0 <= 127 - rows.max() and 127 - rows.min() < y0 + ny

    def test_scene_coordinates_center(self, sphere_field, frame128):
        grid = field_to_grid(sphere_field, frame128, 128)
        # center voxel of the sphere grid decodes to ~1 occupancy
        x0, y0, z0 = grid.offset
        assert grid.values[64 - x0, 64 - y0, 64 - z0] > 0.9
        # index->scene transform covers [-1, 1]
        assert grid.origin[2] == pytest.approx(-1.0)
        top = grid.origin + grid.spacing * (grid.offset + np.array(grid.values.shape) - 1)
        assert top[2] == pytest.approx(1.0)


class TestFieldFrameSize:
    @pytest.mark.parametrize("frame", [OrthoFrame(128, 128), OrthoFrame(64, 32),
                                       OrthoFrame(32, 64)])
    def test_mismatch_is_shape_error(self, frame):
        field = mesh_to_fof(make_sphere(0.6, 2), OrthoFrame(64, 64), BasisConfig(3))
        for call in (lambda: field_to_grid(field, frame, 16),
                     lambda: reconstruct_field(field, frame, 16),
                     lambda: field_volume(field, frame)):
            with pytest.raises(ShapeError, match=f"field 64x64 .* frame "
                                                 f"{frame.height}x{frame.width}"):
                call()


class TestReconstructFieldArguments:
    @pytest.mark.parametrize("grid_res", [1, 0, -3, 2.5, True])
    def test_bad_grid_res_names_grid_res(self, grid_res):
        # It used to reach depth_samples and report "depth_res must be >= 2",
        # an argument the caller never passed.
        field = mesh_to_fof(make_sphere(0.6, 1), OrthoFrame(16, 16), BasisConfig(3))
        with pytest.raises(DomainError, match=r"^grid_res must be an integer >= 2, got "):
            reconstruct_field(field, OrthoFrame(16, 16), grid_res)

    def test_numpy_integer_grid_res_accepted(self):
        field = mesh_to_fof(make_sphere(0.6, 1), OrthoFrame(16, 16), BasisConfig(3))
        assert isinstance(reconstruct_field(field, OrthoFrame(16, 16), np.int64(2)), TriMesh)


class TestDepthResArgument:
    @pytest.mark.parametrize("depth_res", [2.5, 16.0, 1, 0, -3, True, "16"])
    def test_bad_depth_res_names_depth_res(self, depth_res):
        # A non-integer used to pass the ">= 2" test and fail later with
        # "depth z must lie in [-1, 1]".
        field = mesh_to_fof(make_sphere(0.6, 1), OrthoFrame(16, 16), BasisConfig(3))
        for call in (lambda: field_to_grid(field, OrthoFrame(16, 16), depth_res),
                     lambda: decode_grid(field, depth_res)):
            with pytest.raises(DomainError, match=r"^depth_res must be an integer >= 2, got "
                                                  + re.escape(repr(depth_res)) + "$"):
                call()

    def test_numpy_integer_depth_res_accepted(self):
        field = mesh_to_fof(make_sphere(0.6, 1), OrthoFrame(16, 16), BasisConfig(3))
        assert field_to_grid(field, OrthoFrame(16, 16), np.int32(2)).values.shape[2] == 2
        assert decode_grid(field, np.int64(3)).shape == (16, 16, 3)


class TestReconstructionReference:
    """reconstruct(field) equals reconstruct_field + render_normals bit for
    bit (selftest.same_reconstruction), and decodes exactly the live corner
    columns of the cubes that no source serves (selftest.spliced_columns)."""

    def test_painted_fields(self):
        check = check_spliced_reconstruction(60, 11)
        assert check["ok"], check["detail"]

    def test_pixels_with_dead_neighbourhoods_are_background(self):
        # reconstruct renders its near faces with no pixel mask: a pixel
        # whose 3 x 3 columns are all zero must be covered by no face.
        frame, depth, _, fields = painted_fields(30, 8)
        H, W = frame.height, frame.width
        dead_pixels = drawn = 0
        for data in fields:
            live = np.pad(np.any(data != 0.0, axis=2), 1)
            dead = ~np.any([live[r:r + H, c:c + W] for r in range(3) for c in range(3)], axis=0)
            dead_pixels += dead.sum()
            for iso in (0.5, 0.0, -0.1):
                mesh = reconstruct_field(FourierField(data), frame, depth, iso)
                drawn += mesh.n_faces > 0
                for normal_map in render_normals(mesh, frame, (FRONT, BACK)):
                    assert not normal_map.mask[dead].any()
                    assert not normal_map.data[dead].any()
        assert dead_pixels > 0 and drawn > 0

    @pytest.fixture(scope="class")
    def reference(self, sweep_fields):
        frame, grid_res, fields = sweep_fields
        return ReconstructionReference((fields["gt"], fields["prior"]), frame, grid_res)

    @pytest.mark.parametrize("method", ["naive", "blend", "noise", "gt", "prior"])
    def test_sweep_fields(self, sweep_fields, reference, method):
        field = sweep_fields[2][method]
        before = reference.decoded_columns
        assert same_reconstruction(reference, field)
        decoded = reference.decoded_columns - before
        sources = [source.field.data for source in reference.sources]
        assert decoded == spliced_columns(field.data, sources)
        # naive: the cubes across M's edge; blend: those and the feather
        # ramp's; noise: every cube with a column in M.
        assert decoded == {"naive": 129, "blend": 578, "noise": 2000, "gt": 0, "prior": 0}[method]

    def test_all_zero_and_array_fields(self, reference, sweep_fields):
        assert same_reconstruction(reference, np.zeros_like(sweep_fields[2]["gt"].data))
        assert same_reconstruction(reference, -sweep_fields[2]["gt"].data * 0.0)
        assert reference.reconstruct(sweep_fields[2]["naive"].data)[0].n_faces > 0

    def test_other_channel_count_falls_back(self, sweep_fields, reference):
        field = FourierField(sweep_fields[2]["gt"].data[..., :7])
        before = reference.decoded_columns
        assert same_reconstruction(reference, field)
        assert reference.decoded_columns - before == np.any(field.data != 0.0, axis=2).sum()

    @pytest.mark.parametrize("size", [(1, 6), (6, 1), (1, 1)])
    def test_frame_without_a_grid_falls_back(self, size):
        # A frame under 2 px wide or tall holds no cube: a zero field is
        # extracted over its own box, empty with background maps, and a
        # live field or source raises ShapeError.
        frame = OrthoFrame(*size)
        source = np.zeros((size[1], size[0], 3))
        reference = ReconstructionReference((source,), frame, 5)
        assert reference.sources[0].faces.shape == (0, 3)
        assert reference.extract(source).match == []
        assert same_reconstruction(reference, source)
        mesh, front, back = reference.reconstruct(source)
        assert mesh.n_faces == 0 and not front.mask.any() and not back.mask.any()
        with pytest.raises(ShapeError):
            reference.reconstruct(source + 0.5)
        with pytest.raises(ShapeError):
            ReconstructionReference((source + 0.5,), frame, 5)

    def test_no_sources(self):
        reference = ReconstructionReference((), OrthoFrame(6, 5), 5)
        live = np.zeros((5, 6), dtype=bool)
        live[0, 0] = True
        field = random_support_field(live, seed=3)
        assert same_reconstruction(reference, field)
        assert reference.decoded_columns == 1
        assert same_reconstruction(reference, np.zeros((5, 6, 7)))

    def test_two_steps_are_reconstruct(self, sweep_fields, reference):
        # render(extract(f)) equals reconstruct(f) bit for bit; a field that
        # falls back (another channel count; the zero field, whose empty box
        # [0, 2) x [0, 2) lies outside the sources') carries no source masks.
        fields = dict(sweep_fields[2], zero=np.zeros_like(sweep_fields[2]["gt"].data),
                      channels=FourierField(sweep_fields[2]["gt"].data[..., :7]))
        for name, field in fields.items():
            extraction = reference.extract(field)
            assert (extraction.match == []) == (name in ("zero", "channels"))
            assert reconstruction_bits(reference.render(extraction)) == \
                reconstruction_bits(reference.reconstruct(field)), name
        live = np.zeros((5, 6), dtype=bool)
        live[0, 0] = True
        for fallback, field in [  # a live column off the box; a frame with no grid
                (ReconstructionReference((), OrthoFrame(6, 5), 5), random_support_field(live)),
                (ReconstructionReference((np.zeros((6, 1, 3)),), OrthoFrame(1, 6), 5),
                 np.zeros((6, 1, 3)))]:
            extraction = fallback.extract(field)
            assert extraction.match == []
            assert reconstruction_bits(fallback.render(extraction)) == \
                reconstruction_bits(fallback.reconstruct(field))

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython 3.10 keeps a call's arguments on the caller's stack")
    def test_a_temporary_field_is_freed_before_the_cubes(self, sweep_fields, reference,
                                                          monkeypatch):
        # extract drops the field once the last slab's column store is
        # decoded. A spliced cell field is one slab, so a field passed as a
        # temporary, as a sweep cell passes each, is freed before any cube
        # is extracted; a whole field extracted over its own box takes two
        # slabs, and is freed before the second slab's cubes.
        fields = sweep_fields[2]
        refs, freed = [], []

        def temporary(data):
            field = FourierField(data.copy())
            refs.append(weakref.ref(field.data))
            freed.append([])
            return field

        def cube_faces(*args):
            freed[-1].append(refs[-1]() is None)
            return surface_cube_faces(*args)

        surface_cube_faces = surface._cube_faces
        monkeypatch.setattr(surface, "_cube_faces", cube_faces)
        for name, data in [("naive", fields["naive"].data), ("blend", fields["blend"].data),
                           ("channels", fields["gt"].data[..., :7])]:
            extraction = reference.extract(temporary(data))
            assert (extraction.match == []) == (name == "channels")
            assert freed[-1] == ([False, True] if name == "channels" else [True]), name

    @pytest.mark.parametrize("store_bytes", [None, 1], ids=["default slabs", "one-row slabs"])
    @pytest.mark.parametrize("fields", ["sweep", "random support"])
    def test_sources_are_the_box_grids_meshes(self, sweep_fields, monkeypatch, fields,
                                              store_bytes):
        # A source is extracted from column stores of its live columns, a
        # slab of cube rows at a time (two slabs of the sweep's box by
        # default; one row each with a 1-byte budget), and counts no
        # decoded column; it must be the marching-cubes mesh of its box
        # grid, cube ids, edge keys and maps included, bit for bit.
        if store_bytes is not None:
            monkeypatch.setattr(surface, "_STORE_BYTES", store_bytes)
        if fields == "sweep":
            frame, grid_res, sources = sweep_fields[0], sweep_fields[1], \
                (sweep_fields[2]["gt"], sweep_fields[2]["prior"])
        else:
            frame, grid_res = OrthoFrame(10, 12), 9
            rng = np.random.default_rng(4)
            sources = [random_support_field(rng.random((12, 10)) < p, seed=s)
                       for s, p in ((5, 0.3), (6, 0.6))]
        reference = ReconstructionReference(sources, frame, grid_res)
        assert reference.decoded_columns == 0
        (x0, y0), (x1, y1) = reference.lo, reference.hi
        for source, field in zip(reference.sources, sources):
            grid = surface._box_grid(field, frame, reference.lo, reference.hi, grid_res,
                                     surface._live_columns(field)[x0:x1, y0:y1])
            vertices, faces, cubes, keys = surface._cube_mesh(
                *surface._grid_store(grid.values), None, 0.5, grid.origin, grid.spacing,
                grid.offset)
            mesh = TriMesh(vertices, faces)
            assert mesh.n_faces > 0
            assert bits(source.vertices, source.faces, source.cubes, source.keys) == \
                bits(mesh.vertices, mesh.faces.astype(source.faces.dtype), cubes, keys)
            for got, want in zip(source.maps, render_normals(mesh, frame, (FRONT, BACK))):
                assert bits(got.data, got.mask) == bits(want.data, want.mask)

    def test_one_row_slabs(self, sweep_fields, reference, monkeypatch):
        # With a 1-byte store budget every slab is one row of cubes: spliced
        # fields and fields extracted over their own box still give the
        # full path's mesh and maps, and decode each live corner column once.
        frame, grid_res, fields = sweep_fields
        monkeypatch.setattr(surface, "_STORE_BYTES", 1)
        sources = [source.field.data for source in reference.sources]
        cases = [(reference, fields[m], spliced_columns(fields[m].data, sources))
                 for m in ("naive", "blend", "noise", "gt", "prior")]
        for data in (np.zeros_like(fields["gt"].data), fields["gt"].data[..., :7]):
            cases.append((reference, data, np.any(data != 0.0, axis=2).sum()))
        live = np.zeros((5, 6), dtype=bool)
        live[0, 0] = True
        cases += [(ReconstructionReference((), OrthoFrame(6, 5), 5), random_support_field(live), 1),
                  (ReconstructionReference((np.zeros((6, 1, 3)),), OrthoFrame(1, 6), 5),
                   np.zeros((6, 1, 3)), 0)]
        for one, field, decoded in cases:
            before = one.decoded_columns
            assert same_reconstruction(one, field)
            assert one.decoded_columns - before == decoded

    def test_one_merge_per_extraction(self, sweep_fields, reference, monkeypatch):
        # The served sources' faces and every slab's mesh are merged in one
        # _merge call: once per source when a reference is built, once for
        # a whole-frame reconstruct_field of two slabs, and once per
        # extraction when every slab is one row of cubes. Every extraction,
        # spliced or over its own box, carries its box and each face's cube
        # id, in ascending order.
        frame, grid_res, fields = sweep_fields
        merges, slabs = [], []

        def merge(parts, dtype):
            merges.append(len(parts))
            return surface_merge(parts, dtype)

        def cube_mesh(*args):
            slabs.append(1)
            return surface_cube_mesh(*args)

        surface_merge, surface_cube_mesh = surface._merge, surface._cube_mesh
        monkeypatch.setattr(surface, "_merge", merge)
        monkeypatch.setattr(surface, "_cube_mesh", cube_mesh)
        ReconstructionReference((fields["gt"], fields["prior"]), frame, grid_res)
        assert merges == [2, 2]
        del merges[:]
        assert reconstruct_field(fields["naive"], frame, grid_res).n_faces > 0
        assert merges == [2]
        monkeypatch.setattr(surface, "_STORE_BYTES", 1)
        channels = FourierField(fields["gt"].data[..., :7])
        for field in (fields["naive"], fields["blend"], channels):
            del merges[:], slabs[:]
            extraction = reference.extract(field)
            # One part per slab and per serving source.
            assert len(merges) == 1 and len(slabs) > 2
            assert len(slabs) <= merges[0] <= len(slabs) + len(reference.sources)
            assert extraction.cubes.shape == (extraction.mesh.n_faces,)
            assert np.all(np.diff(extraction.cubes) >= 0)
            lo, hi = extraction.box
            if field is channels:
                assert extraction.match == []
                assert bits(lo, hi) == bits(*surface._frame_box(
                    surface._live_columns(field), np.zeros(2, dtype=np.int64), frame))
            else:
                assert len(extraction.match) == 3 and bits(lo, hi) == bits(reference.lo,
                                                                            reference.hi)
            assert same_reconstruction(reference, field)

    def test_sources_keep_the_box_index_type(self, reference):
        for source in reference.sources:
            assert source.faces.dtype == source.cubes.dtype == source.keys.dtype == np.int32
            assert source.vertices.dtype == np.float64

    def test_index_dtype_widens_at_2_31(self):
        # 3 * X * Y * Z edge keys: 2 145 386 496 fit int32, 2 148 532 224
        # do not. The product is taken in Python integers, so no size wraps.
        assert _index_dtype((1024, 1024, 682)) is np.int32
        assert _index_dtype((1024, 1024, 683)) is np.int64
        assert _index_dtype(np.array([2 ** 21] * 3)) is np.int64

    def test_int64_sources_reconstruct_alike(self, sweep_fields, reference, monkeypatch):
        # The index type is a storage choice: sources kept as int64 give
        # the same reconstructions bit for bit.
        frame, grid_res, fields = sweep_fields
        monkeypatch.setattr(surface, "_index_dtype", lambda shape: np.int64)
        wide = ReconstructionReference((fields["gt"], fields["prior"]), frame, grid_res)
        assert wide.sources[0].faces.dtype == np.int64
        for method in ("naive", "blend", "noise"):
            assert reconstruction_bits(wide.reconstruct(fields[method])) == \
                reconstruction_bits(reference.reconstruct(fields[method])), method

    def test_bad_arguments(self, sweep_fields):
        frame, grid_res, fields = sweep_fields
        with pytest.raises(ShapeError, match="source fields differ"):
            ReconstructionReference((fields["gt"], fields["gt"].data[..., :5]), frame)
        with pytest.raises(ShapeError, match="does not match frame"):
            ReconstructionReference((fields["gt"],), OrthoFrame(64, 64))
        with pytest.raises(DomainError, match="grid_res"):
            ReconstructionReference((fields["gt"],), frame, 1)
        with pytest.raises(DomainError, match="iso"):
            ReconstructionReference((fields["gt"],), frame, grid_res, np.nan)
        reference = ReconstructionReference((), frame, 4)
        with pytest.raises(ShapeError, match="does not match frame"):
            reference.reconstruct(np.zeros((4, 4, 3)))


class TestTables:
    def test_tri_table_uses_exactly_the_crossing_edges(self):
        # marching_cubes takes its vertices from the face corners, so each
        # case must name every edge whose two corners differ in its bits and
        # no other edge. Complementary cases then use the same edges.
        for case in range(256):
            bits = (case >> EDGE_CORNERS) & 1
            crossing = set(np.flatnonzero(bits[:, 0] != bits[:, 1]).tolist())
            row = TRI_TABLE[case]
            assert set(row[row >= 0].tolist()) == crossing, case


class TestWindowFields:
    """Fields on a window of the frame reconstruct as the whole frame's
    fields do, bit for bit: through a reference whose sources share the
    window, and through reconstruct_field and field_to_grid."""

    def test_window_sources_reconstruct_alike(self, sweep_context, sweep_fields):
        cfg, ctx = sweep_context
        frame, grid_res, whole = sweep_fields
        on = cell_fields(ctx, cfg)
        window = ctx["c_gt"].window
        windowed = ReconstructionReference((on["gt"], on["prior"]), frame, grid_res)
        reference = ReconstructionReference((whole["gt"], whole["prior"]), frame, grid_res)
        assert windowed.window == window and reference.window == (slice(0, 128), slice(0, 128))
        assert bits(windowed.lo, windowed.hi) == bits(reference.lo, reference.hi)
        for a, b in zip(windowed.sources, reference.sources):
            assert bits(a.vertices, a.faces, a.cubes, a.keys) == \
                bits(b.vertices, b.faces, b.cubes, b.keys)
            for got, want in zip(a.maps, b.maps):
                assert bits(got.data, got.mask) == bits(want.data, want.mask)
        for method in ("naive", "blend", "noise", "gt", "prior"):
            assert on[method].window == window
            assert bits(on[method].data) == bits(whole[method].data[window])
            decoded = windowed.decoded_columns, reference.decoded_columns
            extraction = windowed.extract(on[method])
            assert extraction.match != [], method
            assert reconstruction_bits(windowed.render(extraction)) == \
                reconstruction_bits(reference.reconstruct(whole[method])), method
            assert windowed.decoded_columns - decoded[0] == \
                reference.decoded_columns - decoded[1], method

    def test_another_window_falls_back(self, sweep_context, sweep_fields):
        # A field on the whole frame, or on another window, is not spliced
        # into window sources; it is extracted whole, and still bit for bit.
        cfg, ctx = sweep_context
        frame, grid_res, whole = sweep_fields
        windowed = ReconstructionReference((ctx["c_gt"], ctx["c_prior"]), frame, grid_res)
        rows, cols = ctx["c_gt"].window
        shifted = (slice(rows.start - 1, rows.stop - 1), cols)
        for field in (whole["naive"], FourierField(whole["naive"].data[shifted], shifted)):
            before = windowed.decoded_columns
            assert windowed.extract(field).match == []
            assert windowed.decoded_columns - before == np.any(field.data != 0.0, axis=2).sum()
            assert same_reconstruction(windowed, field)

    @pytest.mark.parametrize("iso", [0.5, -0.1])
    def test_live_columns_on_the_window_edge(self, iso):
        # A window whose edges inside the frame hold live columns: the box
        # of the field's live columns reaches one column past the window,
        # where the field is zero, as the whole frame's field is.
        frame, depth = OrthoFrame(10, 12), 9
        live = np.zeros((12, 10), dtype=bool)
        live[3:8, 2:7] = True
        data = random_support_field(live, seed=5).data
        window = (slice(3, 8), slice(2, 7))
        field, full = FourierField(data[window], window), FourierField(data)
        want = reconstruct_field(full, frame, depth, iso)
        assert_same_mesh(reconstruct_field(field, frame, depth, iso), want)
        assert_same_mesh(marching_cubes(field_to_grid(field, frame, depth), iso), want)
        assert want.n_faces > 0
        grid, full_grid = field_to_grid(field, frame, depth), field_to_grid(full, frame, depth)
        assert bits(grid.values, grid.offset) == bits(full_grid.values, full_grid.offset)
        reference = ReconstructionReference((field,), frame, depth, iso)
        assert same_reconstruction(reference, field)
        painted = field.copy()
        painted.data[1:3, 1:3] = 0.0
        assert same_reconstruction(reference, painted)
        assert reference.extract(painted).match != []

    def test_reconstruct_field_makes_no_grid(self, sweep_context, sweep_fields, monkeypatch):
        # No reference and no reconstruct_field decodes a box grid or runs
        # marching_cubes: not the build, not a spliced field, and not a
        # field extracted over its own box (another channel count, another
        # window, a live column off the box, the zero field, a 1-px frame).
        # Each still gives field_to_grid's mesh and maps, bit for bit.
        cfg, ctx = sweep_context
        frame, grid_res, whole = sweep_fields
        on, window = cell_fields(ctx, cfg), ctx["c_gt"].window
        off_box = on["naive"].copy()
        off_box.data[0, 0] = on["gt"].data[39, 39]
        rows, cols = window
        live = np.zeros((5, 6), dtype=bool)
        live[0, 0] = True
        cases = [  # sources, frame, grid_res, {field: spliced}
            ((on["gt"], on["prior"]), frame, grid_res, [
                (on["blend"], True), (FourierField(on["gt"].data[..., :7], window), False),
                (whole["naive"], False), (off_box, False),
                (FourierField(whole["naive"].data[rows.start - 1:rows.stop - 1, cols],
                              (slice(rows.start - 1, rows.stop - 1), cols)), False),
                (FourierField(np.zeros_like(on["gt"].data), window), False)]),
            ((), OrthoFrame(6, 5), 5, [(random_support_field(live), False)]),
            ((np.zeros((6, 1, 3)),), OrthoFrame(1, 6), 5, [(np.zeros((6, 1, 3)), False)])]
        wants = []
        for _, case_frame, depth, fields in cases:
            for field, _ in fields:
                mesh = marching_cubes(field_to_grid(field, case_frame, depth))
                wants.append(reconstruction_bits(
                    (mesh,) + render_normals(mesh, case_frame, (FRONT, BACK))))

        def no_grid(*args):
            raise AssertionError("a box grid was decoded")

        for name in ("field_to_grid", "_box_grid", "marching_cubes"):
            monkeypatch.setattr(surface, name, no_grid)
        wants = iter(wants)
        for sources, case_frame, depth, fields in cases:
            reference = ReconstructionReference(sources, case_frame, depth)
            for field, spliced in fields:
                want = next(wants)
                extraction = reference.extract(field)
                assert (extraction.match != []) == spliced
                assert reconstruction_bits(reference.render(extraction)) == want
                assert reconstruction_bits((reconstruct_field(field, case_frame, depth),)) == \
                    want[:2]
