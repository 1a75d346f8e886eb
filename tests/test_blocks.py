"""Blocked per-face and per-cube temporaries.

Rasterization, face areas, marching cubes and the exhaustive P2S oracle work
through fixed-size blocks. On the README chain's reconstruction each blocked
layer stays within a fixed working memory, and no block size changes a bit
of any result: each block constant is patched to a tiny value and the
outputs are compared with those of the default blocks.
"""

import tracemalloc

import numpy as np
import pytest

from fofkit import metrics, raster, surface
from fofkit.cli import main
from fofkit.completion import degrade_prior
from fofkit.fof import BasisConfig, FourierField
from fofkit.mesh import TriMesh, drop_degenerate_faces, load_obj, mesh_to_fof, save_obj
from fofkit.metrics import p2s_exhaustive
from fofkit.occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.raster import OrthoFrame, rasterize_coverage
from fofkit.render import BACK, FRONT, render_normals, render_silhouette
from fofkit.shapes import make_sphere
from fofkit.surface import (ReconstructionReference, _cube_faces, _sample_points,
                            _sample_uniforms, field_to_grid, marching_cubes, reconstruct_field,
                            sample_surface)
from fofkit.tensor_io import read_tensor


@pytest.fixture(scope="module")
def readme_chain(tmp_path_factory):
    """The README walkthrough's reconstruction (82 136 faces) and the
    grid it was extracted from, on the default 128 x 128 frame."""
    d = tmp_path_factory.mktemp("readme_chain")
    assert main(["shapes", "sphere", str(d / "gt.obj"), "--subdivisions", "4"]) == 0
    save_obj(degrade_prior(load_obj(d / "gt.obj"), 20, 0.5), d / "prior.obj")
    steps = [
        ("encode", d / "gt.obj", d / "gt.oaht", "--order", 15),
        ("silhouette", d / "gt.obj", d / "body.pgm"),
        ("occlude", d / "gt.oaht", d / "body.pgm", d / "occ.oaht", "--ratio", 0.4, "--seed", 7),
        ("encode", d / "prior.obj", d / "prior.oaht"),
        ("blend", d / "occ.oaht", d / "prior.oaht", d / "occ.oaht.V.pgm", d / "occ.oaht.M.pgm",
         d / "done.oaht"),
        ("reconstruct", d / "done.oaht", d / "recon.obj", "--grid-res", 128),
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    grid = field_to_grid(FourierField(read_tensor(str(d / "done.oaht"))[1]), OrthoFrame(), 128)
    recon = load_obj(d / "recon.obj")
    assert recon.n_faces > 60_000
    return recon, grid


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Peaks on the 82 136-face reconstruction, outputs included: with
    whole-mesh temporaries they were 30.3 MB (render_normals), 23.7 MB
    (marching_cubes) and 14.8 MB (the samples' face areas); blocked, 7.8,
    10.1 and 4.4 MB."""

    def test_render_normals(self, readme_chain):
        recon, _ = readme_chain
        maps, peak = traced_peak(render_normals, recon, OrthoFrame(), (FRONT, BACK))
        assert maps[0].mask.sum() > 4000
        assert peak < 12e6

    def test_marching_cubes(self, readme_chain):
        recon, grid = readme_chain
        mesh, peak = traced_peak(marching_cubes, grid)
        assert np.array_equal(mesh.faces, recon.faces)
        assert peak < 14e6

    def test_sample_points(self, readme_chain):
        recon, _ = readme_chain
        (faces, _), peak = traced_peak(_sample_points, recon, _sample_uniforms(10_000, 0))
        assert len(faces) == 10_000
        assert peak < 7e6


@pytest.fixture(scope="module")
def mesh():
    return make_sphere(0.6, 3)


@pytest.fixture(scope="module")
def frame():
    return OrthoFrame(48, 40, (0.02, -0.01, 0.0), 0.8)


def bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


class TestFaceBlocks:
    """raster._FACE_BLOCK (with raster._PASS_TESTS) sets how many faces
    rasterization, render_normals and face areas take at a time."""

    @pytest.fixture(params=[(1, 1), (5, 7), (64, 300)], ids=["1x1", "5x7", "64x300"])
    def tiny(self, request, monkeypatch):
        def patch():
            monkeypatch.setattr(raster, "_FACE_BLOCK", request.param[0])
            monkeypatch.setattr(raster, "_PASS_TESTS", request.param[1])
        return patch

    def test_coverage_records_in_the_same_order(self, mesh, frame, tiny):
        tris, _ = frame.project_faces(mesh.vertices, mesh.faces)
        want = rasterize_coverage(tris, frame.width, frame.height)
        tiny()
        got = rasterize_coverage(tris, frame.width, frame.height)
        assert len(want.pixel) > 0
        assert bits(got.pixel, got.tri, got.bary) == bits(want.pixel, want.tri, want.bary)

    @pytest.mark.parametrize("normals", ["vertex", "face"])
    def test_normal_maps(self, mesh, frame, tiny, normals):
        m = mesh if normals == "vertex" else TriMesh(mesh.vertices, mesh.faces)
        want = render_normals(m, frame, (FRONT, BACK))
        tiny()
        for g, w in zip(render_normals(m, frame, (FRONT, BACK)), want):
            assert w.mask.any()
            assert bits(g.data, g.mask) == bits(w.data, w.mask)

    def test_face_areas_and_samples(self, mesh, tiny):
        areas = mesh.face_areas()
        pts, nrm = sample_surface(mesh, 500, seed=4)
        faces = np.concatenate([mesh.faces, [[0, 0, 1], [3, 4, 3]]])
        kept = drop_degenerate_faces(mesh.vertices, faces)
        tiny()
        assert bits(mesh.face_areas()) == bits(areas)
        assert bits(*sample_surface(mesh, 500, seed=4)) == bits(pts, nrm)
        assert np.array_equal(drop_degenerate_faces(mesh.vertices, faces), kept)


class TestCubeRows:
    """surface._CUBE_ROWS sets how many rows of cube columns marching cubes
    takes at a time."""

    @pytest.fixture(scope="class")
    def fields(self, mesh):
        frame = OrthoFrame(40, 40)
        gt = mesh_to_fof(mesh, frame, BasisConfig(7))
        prior = mesh_to_fof(degrade_prior(mesh, 10, 0.5), frame, BasisConfig(7))
        pair = synthesize_occlusion(render_silhouette(mesh, frame),
                                    OccluderSpec("rectangle", seed=1, ratio=0.4))
        return frame, gt, prior, occlude_field(gt, pair, "zero")

    @pytest.mark.parametrize("rows", [1, 3])
    def test_meshes_and_faces(self, fields, monkeypatch, rows):
        frame, gt, _, occluded = fields
        grid = field_to_grid(occluded, frame, 24)
        columns = np.random.default_rng(rows).random((grid.values.shape[0] - 1,
                                                      grid.values.shape[1] - 1)) < 0.5
        want = [_cube_faces(grid.values, c, 0.5) for c in (None, columns)]
        mesh = marching_cubes(grid)
        monkeypatch.setattr(surface, "_CUBE_ROWS", rows)
        for c, w in zip((None, columns), want):
            assert len(w[0]) > 0
            assert bits(*_cube_faces(grid.values, c, 0.5)) == bits(*w)
        got = marching_cubes(grid)
        assert bits(got.vertices, got.faces) == bits(mesh.vertices, mesh.faces)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_spliced_reconstruction(self, fields, monkeypatch, rows):
        frame, gt, prior, occluded = fields
        want_mesh = reconstruct_field(occluded, frame, 24)
        want_maps = render_normals(want_mesh, frame, (FRONT, BACK))
        monkeypatch.setattr(surface, "_CUBE_ROWS", rows)
        got_mesh, *got_maps = ReconstructionReference((gt, prior), frame, 24).reconstruct(occluded)
        assert bits(got_mesh.vertices, got_mesh.faces) == bits(want_mesh.vertices, want_mesh.faces)
        for g, w in zip(got_maps, want_maps):
            assert bits(g.data, g.mask) == bits(w.data, w.mask)


@pytest.mark.parametrize("pairs", [1, 3 * 320 + 5])
def test_exhaustive_tiles(monkeypatch, rng, pairs):
    # One point's row per tile, then three rows per tile with a short last tile.
    mesh = make_sphere(0.6, 2)
    pts = rng.normal(size=(40, 3)) * 0.7
    want = p2s_exhaustive(pts, mesh)
    monkeypatch.setattr(metrics, "_EXHAUSTIVE_PAIRS", pairs)
    assert bits(p2s_exhaustive(pts, mesh)) == bits(want)
