import numpy as np
import pytest

from fofkit import mesh as mesh_mod, raster
from fofkit.fof import BasisConfig, intervals_to_coeffs
from fofkit.mesh import TriMesh, mesh_to_fof, ray_cast_all, ray_intervals
from fofkit.raster import (OrthoFrame, _covered, _setup, _Setup, bary_interp, face_coverage,
                           rasterize_coverage)
from fofkit.render import render_silhouette
from fofkit.shapes import make_cube


def triangle_set(seed, width, height):
    """Small triangles of every kind the coverage rule has to decide."""
    rng = np.random.default_rng(seed)
    size = np.array([width, height], dtype=np.float64)
    # Vertices up to half a frame beyond each edge: many triangles are partly
    # outside the frame, some wholly.
    spread = (rng.random((12, 3, 2)) * 2.0 - 0.5) * size
    # A few pixels across, anywhere in the frame.
    small = rng.random((12, 1, 2)) * size + rng.normal(0.0, 2.0, (12, 3, 2))
    # Vertices on pixel centres, so edges and corners pass through centres.
    on_centres = rng.integers(0, (width, height), (12, 1, 2)) + 0.5 \
        + rng.integers(-3, 4, (12, 3, 2))
    # Zero area: a repeated vertex, and three collinear pixel centres.
    flat = on_centres[:4].copy()
    flat[:2, 2] = flat[:2, 0]
    flat[2:, 2] = 2.0 * flat[2:, 1] - flat[2:, 0]
    # Wholly outside: left of the frame, and below it.
    outside = small[:2] - [2.0 * width, 0.0]
    outside[1] = small[1] + [0.0, 2.0 * height]
    return np.concatenate([spread, small, on_centres, flat, outside])


def every_pixel_records(tris, width, height):
    """Records of testing every triangle against every pixel centre."""
    row, col = np.divmod(np.arange(width * height), width)
    t = _setup(tris)
    inside, bary = _covered(col + 0.5, row + 0.5, _Setup(*(f[:, None] for f in t)))
    tri, pixel = np.nonzero(inside)
    return pixel, tri, bary


def sorted_records(pixel, tri, bary):
    order = np.lexsort((tri, pixel))
    return pixel[order], tri[order], bary[order].view(np.uint64)


FRAMES = [(17, 9), (5, 23), (1, 12), (32, 20)]


def test_project_faces_maps_each_corner_by_the_camera_formulas():
    # Raster xy and NDC depth of each face corner, as the module docstring
    # defines them, applied to every vertex and then gathered: bit for bit.
    rng = np.random.default_rng(3)
    frame = OrthoFrame(48, 40, (0.02, -0.01, 0.3), 0.8)
    vertices = rng.normal(size=(50, 3))
    faces = rng.integers(0, 50, size=(70, 3))
    ndc = (vertices - np.asarray(frame.center)) / frame.half_extent
    want_xy = np.stack([(ndc[:, 0] + 1.0) * (frame.width / 2.0),
                        (1.0 - ndc[:, 1]) * (frame.height / 2.0)], axis=1)[faces]
    xy, depth = frame.project_faces(vertices, faces)
    assert xy.shape == (70, 3, 2) and depth.shape == (70, 3)
    assert np.ascontiguousarray(xy).tobytes() == want_xy.tobytes()
    assert depth.tobytes() == np.ascontiguousarray(ndc[:, 2][faces]).tobytes()


class TestCoverageOracle:
    @pytest.mark.parametrize("width,height", FRAMES)
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_every_pixel_test(self, seed, width, height):
        tris = triangle_set(seed, width, height)
        rec = rasterize_coverage(tris, width, height)
        got = sorted_records(rec.pixel, rec.tri, rec.bary)
        want = sorted_records(*every_pixel_records(tris, width, height))
        assert len(want[0]) > 0
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("width,height", FRAMES)
    def test_pass_boundaries_inside_a_box(self, width, height, monkeypatch):
        # Seven tests per pass: most boxes are split across passes.
        monkeypatch.setattr(raster, "_PASS_TESTS", 7)
        tris = triangle_set(5, width, height)
        rec = rasterize_coverage(tris, width, height)
        got = sorted_records(rec.pixel, rec.tri, rec.bary)
        want = sorted_records(*every_pixel_records(tris, width, height))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_no_live_triangle(self):
        tris = triangle_set(0, 8, 8)[-6:]  # the zero-area and outside ones
        rec = rasterize_coverage(tris, 8, 8)
        assert rec.pixel.shape == rec.tri.shape == (0,) and rec.bary.shape == (0, 3)
        rec = rasterize_coverage(np.empty((0, 3, 2)), 8, 8)
        assert rec.pixel.shape == (0,) and rec.bary.shape == (0, 3)


class TestFaceCoverage:
    """face_coverage, one face block at a time, is rasterize_coverage of the
    whole projected mesh, record for record, with each record's depth."""

    @pytest.fixture(params=["capsule_figure", "sphere", "empty"])
    def mesh(self, request, capsule_mesh, sphere_mesh):
        return {"capsule_figure": capsule_mesh, "sphere": sphere_mesh,
                "empty": TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))}[request.param]

    def test_equals_the_whole_mesh_pass(self, mesh, frame128):
        got = face_coverage(mesh.vertices, mesh.faces, frame128)
        tris, tri_z = frame128.project_faces(mesh.vertices, mesh.faces)
        rec = rasterize_coverage(tris, frame128.width, frame128.height)
        want = rec.pixel, rec.tri, rec.bary, bary_interp(rec.bary, tri_z[rec.tri])
        assert len(got) == 4 and (len(want[0]) > 0) == (mesh.n_faces > 0)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_encoder_takes_one_pass(self, capsule_mesh, frame128, monkeypatch):
        # One rasterize_coverage call per face block, each on that block's
        # faces, and no pixel needs a recast.
        sizes, real = [], raster.rasterize_coverage

        def counting(tris, width, height):
            sizes.append(len(tris))
            return real(tris, width, height)

        def no_recast(*args):
            raise AssertionError("a pixel was recast")

        monkeypatch.setattr(raster, "rasterize_coverage", counting)
        monkeypatch.setattr(mesh_mod, "_cast_pixel", no_recast)
        pix, _ = ray_cast_all(capsule_mesh, frame128)
        blocks = raster._face_blocks(capsule_mesh.n_faces)
        assert len(blocks) == 9
        assert sizes == [len(range(capsule_mesh.n_faces)[b]) for b in blocks]
        assert len(pix) > 0


class TestTallFrame:
    """A one-column frame 12 000 pixels tall; the cube covers rows 300-11 699."""

    @pytest.fixture(scope="class")
    def scene(self):
        return make_cube(1.9), OrthoFrame(1, 12000)

    def test_silhouette(self, scene):
        assert render_silhouette(*scene).sum() == 11400

    def test_encoder_matches_single_ray(self, scene):
        cube, frame = scene
        field = mesh_to_fof(cube, frame)
        for row in (0, 600, 6000, 11399, 11400, 11999):
            want = intervals_to_coeffs(ray_intervals(cube, frame, (row, 0)), BasisConfig())
            assert np.array_equal(field.data[row, 0], want), row
