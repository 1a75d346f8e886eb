import numpy as np
import pytest

from fofkit import raster
from fofkit.errors import DomainError, ShapeError
from fofkit.mesh import TriMesh
from fofkit.raster import OrthoFrame
from fofkit.render import NormalMap, normal_map_error, render_normals, render_silhouette
from fofkit.shapes import make_sphere


def unit_quad(z=0.0):
    return TriMesh(
        [[-0.5, -0.5, z], [0.5, -0.5, z], [0.5, 0.5, z], [-0.5, 0.5, z]],
        [[0, 1, 2], [0, 2, 3]])


class TestRenderNormals:
    def test_front_quad_all_up(self, frame128):
        nm = render_normals(unit_quad(), frame128, "front")
        assert nm.mask.sum() == 64 * 64
        assert np.allclose(nm.data[nm.mask], [0, 0, 1], atol=1e-12)

    def test_back_quad_all_up_in_back_frame(self, frame128):
        nm = render_normals(unit_quad(), frame128, "back")
        assert np.allclose(nm.data[nm.mask], [0, 0, 1], atol=1e-12)

    def test_empty_mesh_background(self, frame128):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        nm = render_normals(empty, frame128, "front")
        assert not nm.mask.any()
        assert not nm.data.any()

    def test_foreground_normals_unit_length(self, sphere_mesh, frame128):
        nm = render_normals(sphere_mesh, frame128, "front")
        norms = np.linalg.norm(nm.data[nm.mask], axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-5
        assert not nm.data[~nm.mask].any()

    def test_sphere_center_pixel(self, sphere_mesh):
        # odd frame size puts a pixel center exactly on the axis
        frame = OrthoFrame(129, 129)
        nm = render_normals(sphere_mesh, frame, "front")
        assert np.linalg.norm(nm.data[64, 64] - [0, 0, 1]) <= 1e-3

    def test_sphere_transverse_magnitude(self, sphere_mesh, frame128):
        nm = render_normals(sphere_mesh, frame128, "front")
        row, col = 64, 83
        x = -1 + 2 * (col + 0.5) / 128
        y = 1 - 2 * (row + 0.5) / 128
        expected = np.hypot(x, y) / 0.6
        got = np.hypot(nm.data[row, col, 0], nm.data[row, col, 1])
        assert got == pytest.approx(expected, abs=2e-2)

    def test_depth_ordering_exact(self, frame128):
        near = unit_quad(z=0.5)
        far = TriMesh(
            [[-0.7, -0.7, -0.2], [0.7, -0.7, -0.2], [0.7, 0.7, -0.2], [-0.7, 0.7, -0.2]],
            [[0, 1, 2], [0, 2, 3]])
        far.normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        near.normals = np.tile([0.6, 0.0, 0.8], (4, 1))
        both = TriMesh(np.vstack([far.vertices, near.vertices]),
                       np.vstack([far.faces, near.faces + 4]),
                       np.vstack([far.normals, near.normals]))
        nm = render_normals(both, frame128, "front")
        near_mask = render_normals(near, frame128, "front").mask
        assert np.allclose(nm.data[near_mask], [0.6, 0.0, 0.8])

    def test_back_view_sees_min_z_surface(self, sphere_mesh):
        frame = OrthoFrame(129, 129)  # odd size: pixel center on the axis
        nm = render_normals(sphere_mesh, frame, "back")
        # the center pixel of the back view shows the z = -0.6 pole; its
        # outward normal (0,0,-1) maps to (0,0,1) in the back view frame
        assert np.linalg.norm(nm.data[64, 64] - [0, 0, 1]) <= 1e-3

    def test_back_view_x_component_flips(self, sphere_mesh, frame128):
        front = render_normals(sphere_mesh, frame128, "front")
        back = render_normals(sphere_mesh, frame128, "back")
        row, col = 64, 83  # right of image center, world +x
        assert front.data[row, col, 0] > 0
        assert back.data[row, col, 0] < 0

    def test_front_back_masks_identical(self, sphere_mesh, frame128):
        front = render_normals(sphere_mesh, frame128, "front")
        back = render_normals(sphere_mesh, frame128, "back")
        assert np.array_equal(front.mask, back.mask)

    def test_deterministic(self, sphere_mesh, frame128):
        a = render_normals(sphere_mesh, frame128, "front")
        b = render_normals(sphere_mesh, frame128, "front")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.mask, b.mask)


class TestSharedCoveragePass:
    """A tuple of views renders every map from one coverage pass, each equal
    to its own one-view render."""

    @staticmethod
    def mesh(sphere_mesh, kind):
        return {"vertex_normals": sphere_mesh,
                "face_normals": TriMesh(sphere_mesh.vertices, sphere_mesh.faces),
                "empty": TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)),
                "outside": sphere_mesh.translated([5.0, 0.0, 0.0])}[kind]

    @pytest.mark.parametrize("kind", ["vertex_normals", "face_normals", "empty", "outside"])
    def test_equals_one_view_renders(self, sphere_mesh, frame128, kind):
        mesh = self.mesh(sphere_mesh, kind)
        views = ("front", "back")
        maps = render_normals(mesh, frame128, views)
        assert isinstance(maps, tuple) and len(maps) == 2
        for view, got in zip(views, maps):
            want = render_normals(mesh, frame128, view)
            assert np.array_equal(got.data, want.data) and np.array_equal(got.mask, want.mask)
            assert got.data.tobytes() == want.data.tobytes()
        assert maps[0].mask.any() == (kind in ("vertex_normals", "face_normals"))

    def test_one_coverage_pass(self, sphere_mesh, frame128, monkeypatch):
        calls = []
        rasterize = raster.rasterize_coverage

        def counting(*args):
            calls.append(1)
            return rasterize(*args)

        monkeypatch.setattr(raster, "rasterize_coverage", counting)
        back, front, back_again = render_normals(sphere_mesh, frame128, ("back", "front", "back"))
        # One call per block of faces for the three views together.
        assert len(calls) == len(raster._face_blocks(sphere_mesh.n_faces))
        assert np.array_equal(back.data, back_again.data)
        assert np.array_equal(front.data, render_normals(sphere_mesh, frame128, "front").data)

    def test_unknown_view_in_tuple(self, sphere_mesh, frame128):
        with pytest.raises(DomainError, match="view must be"):
            render_normals(sphere_mesh, frame128, ("front", "side"))


class TestSilhouette:
    def test_empty(self, frame128):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        assert not render_silhouette(empty, frame128).any()

    def test_half_frame_quad(self, frame128):
        # quad covering the left half of the frame
        quad = TriMesh(
            [[-1, -1, 0], [0, -1, 0], [0, 1, 0], [-1, 1, 0]],
            [[0, 1, 2], [0, 2, 3]])
        mask = render_silhouette(quad, frame128)
        assert mask.mean() == pytest.approx(0.5, abs=1.0 / 128)

    def test_sphere_disc_fraction(self, sphere_mesh, frame128):
        mask = render_silhouette(sphere_mesh, frame128)
        assert mask.mean() == pytest.approx(np.pi * 0.36 / 4.0, rel=0.01)

    def test_matches_front_mask(self, sphere_mesh, frame128):
        assert np.array_equal(render_silhouette(sphere_mesh, frame128),
                              render_normals(sphere_mesh, frame128, "front").mask)


class TestNormalMapError:
    def test_identical_zero(self, sphere_mesh, frame128):
        nm = render_normals(sphere_mesh, frame128, "front")
        assert normal_map_error(nm, nm) == 0.0

    def test_antipodal_200(self, sphere_mesh, frame128):
        nm = render_normals(sphere_mesh, frame128, "front")
        neg = NormalMap(-nm.data, nm.mask.copy())
        assert normal_map_error(nm, neg) == pytest.approx(200.0)

    def test_mask_disagreement_penalty(self):
        a = NormalMap(np.zeros((4, 4, 3)), np.zeros((4, 4), dtype=bool))
        b_data = np.zeros((4, 4, 3))
        b_data[0, 0] = [0, 0, 1]
        b = NormalMap(b_data, b_data.any(axis=2))
        assert normal_map_error(a, b) == pytest.approx(100.0)

    def test_symmetric(self, sphere_mesh, frame128):
        a = render_normals(sphere_mesh, frame128, "front")
        b = render_normals(make_sphere(0.55, 3), frame128, "front")
        assert normal_map_error(a, b) == normal_map_error(b, a)

    def test_shape_mismatch(self, frame128):
        a = NormalMap(np.zeros((4, 4, 3)), np.zeros((4, 4), dtype=bool))
        b = NormalMap(np.zeros((5, 4, 3)), np.zeros((5, 4), dtype=bool))
        with pytest.raises(ShapeError):
            normal_map_error(a, b)

    def test_resolution_monotonicity(self, sphere_mesh, frame128):
        # Each resolution runs its own encode+extract: a res^3 grid implies a
        # res^2 field. (From a fixed 128^2 field the error saturates at the
        # encoding floor and 64 vs 128 depth samples are within noise of it.)
        from fofkit.fof import BasisConfig
        from fofkit.mesh import mesh_to_fof
        from fofkit.surface import reconstruct_field
        gt = render_normals(sphere_mesh, frame128, "front")
        errs = []
        for res in (64, 128):
            frame = OrthoFrame(res, res)
            field = mesh_to_fof(sphere_mesh, frame, BasisConfig(15))
            recon = reconstruct_field(field, frame, res)
            errs.append(normal_map_error(render_normals(recon, frame128, "front"), gt))
        assert errs[0] > errs[1] > 0


class TestNormalMapFromArray:
    def test_pfm_roundtrip_recovers_mask(self, sphere_mesh, frame128, tmp_path):
        from fofkit.tensor_io import read_pfm, write_pfm
        nm = render_normals(sphere_mesh, frame128, "front")
        path = tmp_path / "n.pfm"
        write_pfm(path, nm.data)
        back = NormalMap.from_array(read_pfm(path))
        assert np.array_equal(back.mask, nm.mask)
        assert np.max(np.abs(back.data - nm.data)) <= 1e-7  # f32 storage
