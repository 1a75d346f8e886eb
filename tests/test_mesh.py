import numpy as np
import pytest

from fofkit.errors import DomainError, MeshError, ObjParseError
from fofkit.fof import BasisConfig, intervals_to_coeffs
from fofkit.mesh import (TriMesh, check_watertight, field_volume, fit_to_frame,
                         load_obj, mesh_to_fof, mesh_volume_divergence,
                         normalize_mesh, ray_cast_all, ray_intervals, save_obj)
from fofkit.metrics import chamfer
from fofkit.raster import OrthoFrame
from fofkit.shapes import make_cube, make_sphere


def tetrahedron():
    return TriMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


class TestObjIO:
    def test_tetra_roundtrip(self, tmp_path):
        mesh = tetrahedron()
        path = tmp_path / "tet.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.max(np.abs(back.vertices - mesh.vertices)) <= 1e-7

    def test_zero_index_is_error(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ObjParseError):
            load_obj(path)

    def test_sphere_roundtrip_chamfer_zero(self, tmp_path):
        mesh = make_sphere(0.6, 3)
        path = tmp_path / "sphere.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        # Vertex sets agree to printed precision: chamfer is numerically zero.
        assert chamfer(back.vertices, mesh.vertices) <= 1e-5
        assert np.array_equal(back.faces, mesh.faces)

    def test_normals_roundtrip(self, tmp_path):
        mesh = make_sphere(0.6, 1)
        path = tmp_path / "n.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        assert back.normals is not None
        assert np.max(np.abs(back.normals - mesh.normals)) <= 1e-7

    def test_ignored_records_warn_not_fail(self, tmp_path, caplog):
        path = tmp_path / "mat.obj"
        path.write_text("mtllib foo.mtl\nusemtl bar\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_obj(path)
        assert mesh.n_faces == 1

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "broken.obj"
        path.write_text("v 0 0 0\nv oops 0 0\n")
        with pytest.raises(ObjParseError, match=":2:"):
            load_obj(path)

    def test_bad_normal_is_parse_error(self, tmp_path):
        path = tmp_path / "vn.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn x y z\nf 1//1 2//1 3//1\n")
        with pytest.raises(ObjParseError, match=":4:"):
            load_obj(path)

    def test_bad_normal_index_is_parse_error(self, tmp_path):
        path = tmp_path / "fn.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//a 2//b 3//c\n")
        with pytest.raises(ObjParseError, match=":5:"):
            load_obj(path)

    def test_missing_normal_is_parse_error(self, tmp_path):
        path = tmp_path / "fm.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//2 2//2 3//2\n")
        with pytest.raises(ObjParseError, match="missing normal"):
            load_obj(path)

    def test_mixed_faces_keep_normals_on_their_vertices(self, tmp_path):
        # A face without normal indices before one with them must not shift
        # the later face's normals onto other vertices.
        head = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 1 0 0\nvn 0 1 0\nvn 0 0 1\nf 1 2 3\n"
        path = tmp_path / "mixed.obj"
        path.write_text(head + "f 3//1 1//2 2//3\n")
        normals = load_obj(path).normals
        assert np.array_equal(normals, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        path.write_text(head + "f 3//1 1//2 2//4\n")
        with pytest.raises(ObjParseError, match="missing normal"):
            load_obj(path)


class TestWatertight:
    def test_closed_icosphere(self):
        ok, boundary = check_watertight(make_sphere(0.6, 2))
        assert ok and boundary == []

    def test_single_triangle(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        ok, boundary = check_watertight(mesh)
        assert not ok
        assert len(boundary) == 3

    def test_icosphere_missing_face(self):
        sphere = make_sphere(0.6, 1)
        mesh = TriMesh(sphere.vertices, sphere.faces[:-1])
        ok, boundary = check_watertight(mesh)
        assert not ok
        assert len(boundary) == 3

    def test_duplicated_face_not_watertight(self):
        mesh = tetrahedron()
        doubled = TriMesh(mesh.vertices, np.vstack([mesh.faces, mesh.faces[:1]]))
        assert not check_watertight(doubled)[0]


class TestRayIntervals:
    def test_miss_is_empty(self, sphere_mesh, frame128):
        assert len(ray_intervals(sphere_mesh, frame128, (0, 0))) == 0

    def test_cube_center_pixel(self):
        frame = OrthoFrame(128, 128)
        cube = make_cube(1.0)  # spans z in [-0.5, 0.5]
        iv = ray_intervals(cube, frame, (64, 64))
        assert len(iv) == 1
        assert iv.intervals[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert iv.intervals[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_sphere_chord_analytic(self, frame128):
        sphere = make_sphere(0.6, 5)  # fine enough to approximate the ball
        # pixel at planar offset rho ~= 0.3 from the axis
        col = 83  # x = -1 + 2*(83+0.5)/128 = 0.3046875
        row = 63  # y = 1 - 2*(63+0.5)/128 = 0.0078125
        x = -1 + 2 * (col + 0.5) / 128
        y = 1 - 2 * (row + 0.5) / 128
        rho2 = x * x + y * y
        half_chord = np.sqrt(0.36 - rho2)
        iv = ray_intervals(sphere, frame128, (row, col))
        assert len(iv) == 1
        assert iv.intervals[0, 0] == pytest.approx(-half_chord, abs=2e-3)
        assert iv.intervals[0, 1] == pytest.approx(half_chord, abs=2e-3)

    def test_requires_watertight(self, frame128):
        open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError):
            ray_intervals(open_mesh, frame128, (64, 64))

    def test_pixel_bounds(self, sphere_mesh, frame128):
        with pytest.raises(DomainError):
            ray_intervals(sphere_mesh, frame128, (128, 0))


class TestParity:
    def test_even_hit_counts(self, sphere_mesh, frame128):
        pix, z = ray_cast_all(sphere_mesh, frame128)
        counts = np.bincount(pix, minlength=128 * 128)
        assert np.all(counts % 2 == 0)

    def test_translation_equivariance(self, frame128):
        mesh = make_sphere(0.5, 3)
        delta = 0.123
        shifted = mesh.translated([0.0, 0.0, delta])
        for pixel in [(64, 64), (60, 70), (50, 50)]:
            iv_a = ray_intervals(mesh, frame128, pixel)
            iv_b = ray_intervals(shifted, frame128, pixel)
            assert iv_a.intervals.shape == iv_b.intervals.shape
            if len(iv_a):
                shift = delta / frame128.half_extent
                assert np.max(np.abs(iv_b.intervals - iv_a.intervals - shift)) <= 1e-9


class TestMeshToFof:
    def test_empty_scene(self, frame128):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        field = mesh_to_fof(empty, frame128, BasisConfig(3))
        assert not field.data.any()

    def test_cube_separability(self, frame128):
        cube = make_cube(1.0)
        field = mesh_to_fof(cube, frame128, BasisConfig(15))
        expected = intervals_to_coeffs([(-0.5, 0.5)], BasisConfig(15))
        # interior pixel well away from the cube boundary
        assert np.array_equal(field.data[64, 64], expected)

    def test_matches_per_ray_path_exactly(self, sphere_mesh, sphere_field, frame128):
        cfg = BasisConfig(15)
        for pixel in [(64, 64), (40, 80), (64, 20), (10, 10)]:
            iv = ray_intervals(sphere_mesh, frame128, pixel)
            expected = intervals_to_coeffs(iv, cfg)
            assert np.array_equal(sphere_field.data[pixel[0], pixel[1]], expected)

    def test_sphere_volume_within_1pct(self, sphere_field, frame128):
        vol = field_volume(sphere_field, frame128)
        assert vol == pytest.approx(4 / 3 * np.pi * 0.6 ** 3, rel=0.01)

    def test_volume_matches_divergence_theorem(self, sphere_mesh, sphere_field, frame128):
        mesh_vol = mesh_volume_divergence(sphere_mesh)
        assert field_volume(sphere_field, frame128) == pytest.approx(mesh_vol, rel=0.01)

    def test_rejects_open_mesh(self, frame128):
        open_mesh = TriMesh([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError):
            mesh_to_fof(open_mesh, frame128)


class TestNormalize:
    def test_normalize_to_margin(self):
        mesh = make_cube(4.0).translated([1.0, 2.0, 3.0])
        out, scale, offset = normalize_mesh(mesh, 0.9)
        lo, hi = out.bounds()
        assert np.max(np.abs(lo)) == pytest.approx(0.9)
        assert np.max(np.abs(hi)) == pytest.approx(0.9)

    def test_fit_to_frame_noop_when_inside(self, sphere_mesh, frame128):
        out = fit_to_frame(sphere_mesh, frame128)
        assert out is sphere_mesh

    def test_fit_to_frame_scales_when_outside(self, frame128):
        big = make_cube(4.0)
        out = fit_to_frame(big, frame128)
        lo, hi = out.bounds()
        assert np.max(np.abs([lo, hi])) <= 0.9 + 1e-12


class TestDegenerateRayPolicy:
    def test_corner_on_pixel_center_stays_even(self):
        # cube corners projecting exactly onto pixel centers: the coverage
        # tie rules keep every per-pixel hit count even with no recasts
        frame = OrthoFrame(2, 2)
        cube = make_cube(1.0)
        pix, z = ray_cast_all(cube, frame)
        counts = np.bincount(pix, minlength=4)
        assert np.all(counts % 2 == 0)

    def test_jitter_retries_then_empty(self, monkeypatch, frame128):
        # force odd hit counts: the caster must recast with the fixed diagonal
        # jitter up to three times, then give the ray up as empty
        import fofkit.mesh as mesh_mod

        calls = []

        def always_odd(px, py, tris, tri_z):
            calls.append((px, py))
            return np.array([0.0])

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", always_odd)
        iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 0
        assert len(calls) == 4  # initial cast + 3 jittered recasts
        base = calls[0]
        for k, (px, py) in enumerate(calls):
            assert px == pytest.approx(base[0] + k * 1e-4)
            assert py == pytest.approx(base[1] + k * 1e-4)

    def test_jitter_recovers_even_count(self, monkeypatch, frame128):
        import fofkit.mesh as mesh_mod

        state = {"n": 0}
        real = mesh_mod.ray_hits_at_point

        def odd_once(px, py, tris, tri_z):
            state["n"] += 1
            if state["n"] == 1:
                return np.array([0.0])
            return real(px, py, tris, tri_z)

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", odd_once)
        iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 1  # second attempt hits the true cube interval
