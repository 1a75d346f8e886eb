import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fofkit.completion import vgcc_blend
from fofkit.config import HarnessConfig
from fofkit.errors import DomainError, MeshError
from fofkit.fof import BasisConfig
from fofkit.mesh import TriMesh, check_watertight, mesh_to_fof
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


def assert_same_extraction(grid, iso=0.5):
    got, want = marching_cubes(grid, iso), marching_cubes_by_hand(grid, iso)
    assert got.vertices.shape == want.vertices.shape
    assert np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))
    assert got.faces.dtype == want.faces.dtype
    assert np.array_equal(got.faces, want.faces)
    return got


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
        assert assert_same_extraction(grid).n_faces > 0


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
        assert grid.values.shape == (128, 128, 64)
        # x axis follows columns, y axis follows rows bottom-up
        from fofkit.fof import decode_grid
        occ = decode_grid(sphere_field, 64)
        assert grid.values[3, 5, 10] == occ[128 - 1 - 5, 3, 10]

    def test_scene_coordinates_center(self, sphere_field, frame128):
        grid = field_to_grid(sphere_field, frame128, 128)
        # center voxel of the sphere grid decodes to ~1 occupancy
        assert grid.values[64, 64, 64] > 0.9
        # index->scene transform covers [-1, 1]
        assert grid.origin[2] == pytest.approx(-1.0)
        top = grid.origin + grid.spacing * (np.array(grid.values.shape) - 1)
        assert top[2] == pytest.approx(1.0)


class TestTables:
    def test_tri_table_consistent_with_edge_table(self):
        from fofkit.mc_tables import EDGE_TABLE, TRI_TABLE
        for case in range(256):
            used = 0
            for e in TRI_TABLE[case]:
                if e >= 0:
                    used |= 1 << int(e)
            assert used == EDGE_TABLE[case]

    def test_complementary_cases_same_edges(self):
        from fofkit.mc_tables import EDGE_TABLE
        assert np.array_equal(EDGE_TABLE, EDGE_TABLE[::-1])
