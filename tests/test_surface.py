import re

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
from fofkit.surface import (OccupancyGrid, field_to_grid, marching_cubes,
                            mesh_volume, reconstruct_field, sample_surface)
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


@pytest.fixture(scope="module")
def sweep_fields():
    """The default sweep's naive and blend fields of one occluded cell, and
    its naive field under the noise policy."""
    cfg = HarnessConfig.load()
    ctx = prepare_context(cfg)
    pair = synthesize_occlusion(ctx["body"], OccluderSpec(cfg.occluder_kind, 0, 0.4))
    naive = occlude_field(ctx["c_gt"], pair, "zero", sigma=cfg.noise_sigma, seed=0)
    noisy = occlude_field(ctx["c_gt"], pair, "noise", sigma=cfg.noise_sigma, seed=0)
    blend = vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)
    return ctx["frame"], cfg.grid_res, {"naive": naive, "blend": blend, "noise": noisy}


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
