"""Blocked per-face and per-cube temporaries, and the working memory of
the reconstruction splice.

Rasterization, face areas, marching cubes and the exhaustive P2S oracle work
through fixed-size blocks. On the README chain's reconstruction each blocked
layer stays within a fixed working memory, and no block size changes a bit
of any result: each block constant is patched to a tiny value and the
outputs are compared with those of the default blocks. The default sweep's
ReconstructionReference keeps no decoded grid, and its reconstructions
decode into column stores of the columns they read; a sweep cell holds at
most one field and one reconstruction.
"""

import tracemalloc

import numpy as np
import pytest

from fofkit import completion, metrics, raster, surface, sweep
from fofkit.cli import main
from fofkit.completion import degrade_prior, vgcc_blend
from fofkit.config import HarnessConfig
from fofkit.fof import BasisConfig, FourierField
from fofkit.mesh import TriMesh, drop_degenerate_faces, load_obj, mesh_to_fof, save_obj
from fofkit.metrics import p2s_exhaustive
from fofkit.occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.raster import OrthoFrame, rasterize_coverage
from fofkit.render import BACK, FRONT, render_normals, render_silhouette
from fofkit.shapes import make_sphere
from fofkit.surface import (ReconstructionReference, _cube_faces, _distinct, _edge_vertices,
                            _grid_store, _sample_points, _sample_uniforms, field_to_grid,
                            marching_cubes, reconstruct_field, sample_surface)
from fofkit.sweep import prepare_context
from fofkit.tensor_io import read_tensor


@pytest.fixture(scope="module")
def readme_chain(tmp_path_factory):
    """The README walkthrough's reconstruction (82 136 faces), the grid it
    was extracted from, on the default 128 x 128 frame, and the directory of
    the chain's files."""
    d = tmp_path_factory.mktemp("readme_chain")
    assert main(["shapes", "sphere", str(d / "gt.obj"), "--subdivisions", "4"]) == 0
    save_obj(degrade_prior(load_obj(d / "gt.obj"), 20, 0.5), d / "prior.obj")
    steps = [
        ("encode", d / "gt.obj", d / "gt.oaht", "--order", 15),
        ("silhouette", d / "gt.obj", d / "body.pgm"),
        ("occlude", d / "gt.oaht", d / "body.pgm", d / "occ.oaht", "--ratio", 0.4, "--seed", 7),
        ("encode", d / "prior.obj", d / "prior.oaht"),
        blend_step(d, d / "done.oaht"),
        ("reconstruct", d / "done.oaht", d / "recon.obj", "--grid-res", 128),
    ]
    for argv in steps:
        assert main([str(a) for a in argv]) == 0, argv[0]
    grid = field_to_grid(FourierField(read_tensor(str(d / "done.oaht"))[1]), OrthoFrame(), 128)
    recon = load_obj(d / "recon.obj")
    assert recon.n_faces > 60_000
    return recon, grid, d


def blend_step(d, out):
    """The README chain's blend command, writing out."""
    return ("blend", d / "occ.oaht", d / "prior.oaht", d / "occ.oaht.V.pgm", d / "occ.oaht.M.pgm",
            out)


@pytest.fixture(scope="module")
def default_sweep():
    """The default sweep's config, its context and its ReconstructionReference."""
    cfg = HarnessConfig.load()
    ctx = prepare_context(cfg)
    return cfg, ctx, ReconstructionReference((ctx["c_gt"], ctx["c_prior"]), ctx["frame"],
                                             cfg.grid_res, cfg.iso)


def traced(fn, *args):
    """fn(*args), and the bytes that tracemalloc saw it leave allocated and
    allocate at the peak."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return (out,) + tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Peaks on the 82 136-face reconstruction, outputs included: with
    whole-mesh temporaries they were 30.3 MB (render_normals), 23.7 MB
    (marching_cubes) and 14.8 MB (the samples' face areas); blocked, 7.6,
    9.5 (10.8 with an int64 triangle table) and 4.4 MB. The default sweep's
    reference kept both sources' box grids, 20.1 MB in all, and each
    reconstruct copied one, peaking at 14.5-16.9 MB on a blend field;
    without them, 7.7 MB and 8.4-10.1 MB. Its build peaked at 20.1 MB while
    one source's grid was still bound as the next was decoded; with one
    grid live at a time, 17.1 MB. A default-sweep cell peaked at
    18.8-21.8 MB while it kept c_obs, the naive reconstruction and each
    field to its end; dropping each at its last reader, 13.2-14.2 MB. With
    int64 faces, cube ids and keys and a cube-column copy, the reference
    kept 7.7 MB and its build peaked at 17.1 MB; with int32 indices and no
    copy, 4.9 and 15.6 MB. A cell whose blend field stayed bound while the
    splice rendered peaked at 14.2 MB; dropped after extract, 12.8 MB. With
    each field freed at its last reader (extract frees a field passed as a
    temporary once it has decoded it, c_obs is made again for the blend and
    mixed in place a block of pixels at a time, and render_normals takes
    4 096 faces at a time), 7.9-8.7 MB, set by the splice's face merge.
    Without box grids (each source is extracted from column stores of its
    live columns, a slab of at most 3.5 MiB of samples at a time), the
    build peaks at 9.6 MB. A cell then peaks at 5.4-5.9 MB, set by the
    column store's decode and the splice's render: its mesh is dropped
    after sampling, before scoring; the slab loop frees each column store
    once its cubes are extracted; the merge numbers vertices in int32 and
    places 4 096 faces at a time; the store is decoded in its own rows, a chunk
    of coefficients at a time; _edge_vertices takes 4 096 keys at a time;
    render_normals projects each block's corners, not every vertex; face
    areas and normals gather their corners without copying the vertices;
    and the samples' cumulative areas are summed in place. On the README
    reconstruction render_normals peaks at 2.5 MB (5.1 before), marching
    cubes at 7.7 MB (9.4 with int64 keys and vertex numbers) and the
    samples at 1.4 MB (3.1 before). Each bound below is the measured
    figure plus the margin stated beside it."""

    def test_render_normals(self, readme_chain):
        recon, _, _ = readme_chain
        maps, _, peak = traced(render_normals, recon, OrthoFrame(), (FRONT, BACK))
        assert maps[0].mask.sum() > 4000
        assert peak < 2.75e6  # 2.52 MB measured; 9 % margin

    def test_marching_cubes(self, readme_chain):
        recon, grid, _ = readme_chain
        mesh, _, peak = traced(marching_cubes, grid)
        assert np.array_equal(mesh.faces, recon.faces)
        assert peak < 8.4e6  # 7.70 MB measured; 9 % margin

    def test_sample_points(self, readme_chain):
        recon, _, _ = readme_chain
        (faces, _), _, peak = traced(_sample_points, recon, _sample_uniforms(10_000, 0))
        assert len(faces) == 10_000
        assert peak < 1.47e6  # 1.35 MB measured; 9 % margin

    def test_blend_command(self, readme_chain):
        # The prior is mixed into the observed field, so two 4 MB fields are
        # live while blending (three, 13.0 MB, with a blend copy). The peak
        # is reading the prior beside the observed field.
        _, _, d = readme_chain
        code, _, peak = traced(main, [str(a) for a in blend_step(d, d / "again.oaht")])
        assert code == 0
        assert (d / "again.oaht").read_bytes() == (d / "done.oaht").read_bytes()
        assert peak < 11.4e6  # 10.45 MB measured; 9 % margin

    def test_occlude_command(self, readme_chain):
        # The read field is occluded in place, so one 4 MB field is live,
        # not two (14.44 MB with an occluded copy). The peak is reading the
        # field: its 2 MB float32 payload beside the 4 MB field.
        _, _, d = readme_chain
        code, _, peak = traced(main, ["occlude", str(d / "gt.oaht"), str(d / "body.pgm"),
                                      str(d / "occ_again.oaht"), "--ratio", "0.4", "--seed", "7"])
        assert code == 0
        for suffix in ("", ".meta", ".V.pgm", ".M.pgm"):
            assert (d / ("occ_again.oaht" + suffix)).read_bytes() == \
                (d / ("occ.oaht" + suffix)).read_bytes()
        assert peak < 11.35e6  # 10.38 MB measured; 9 % margin

    def test_reconstruct_command(self, readme_chain, monkeypatch):
        # The field is extracted a slab of cube rows at a time from column
        # stores of its live columns: no box grid (6.2 MB) is decoded, and
        # the peak is the field beside one slab's store and the mesh so far
        # (13.94 MB with the grid).
        _, _, d = readme_chain

        def no_grid(*args):
            raise AssertionError("a box grid was decoded")

        monkeypatch.setattr(surface, "_box_grid", no_grid)
        code, _, peak = traced(main, ["reconstruct", str(d / "done.oaht"),
                                      str(d / "recon_again.obj"), "--grid-res", "128"])
        assert code == 0
        assert (d / "recon_again.obj").read_bytes() == (d / "recon.obj").read_bytes()
        assert peak < 13.8e6  # 12.66 MB measured; 9 % margin

    def test_prepare_context(self):
        # c_gt and c_prior are encoded on the window of the meshes' columns
        # (78 x 78 of the 128 x 128 frame), 1.51 MB each instead of 4.06 MB:
        # the context retained 8.40 MB and peaked at 12.47 MB on the whole
        # frame.
        ctx, retained, peak = traced(prepare_context, HarnessConfig.load())
        assert ctx["c_gt"].data.shape == ctx["c_prior"].data.shape == (78, 78, 31)
        assert retained < 3.5e6  # 3.29 MB measured; 6 % margin
        assert peak < 8.0e6  # 7.36 MB measured; 8.7 % margin

    def test_reconstruction_reference_keeps_no_grid(self, default_sweep):
        cfg, ctx, _ = default_sweep
        reference, retained, _ = traced(ReconstructionReference, (ctx["c_gt"], ctx["c_prior"]),
                                        ctx["frame"], cfg.grid_res, cfg.iso)
        assert len(reference.sources) == 2
        assert retained < 5.2e6

    def test_reconstruction_reference_build(self, default_sweep):
        # No box grid is made: one slab's column store of live columns is
        # live at a time.
        cfg, ctx, _ = default_sweep
        _, _, peak = traced(ReconstructionReference, (ctx["c_gt"], ctx["c_prior"]),
                            ctx["frame"], cfg.grid_res, cfg.iso)
        assert peak < 10.4e6  # 9.57 MB measured; 9 % margin

    def test_sweep_cell(self, default_sweep, monkeypatch):
        # A cell holds one field or one mesh at a time beside one step's
        # working set. Its fields lie on the context's window, so decoding
        # the column store beside its field (5.94 MB on the whole frame)
        # peaks below the splice's render: 5.90 MB measured; the bound
        # leaves 9 %.
        cfg, ctx, _ = default_sweep
        ctx = dict(ctx)
        monkeypatch.setattr(sweep, "_CTX", ctx)
        sweep._reference(ctx)
        peaks = []
        for ratio in cfg.sweep_ratios:
            for seed in cfg.sweep_seeds:
                rows, _, peak = traced(sweep._run_cell, (float(ratio), int(seed)))
                assert [r[2] for r in rows] == list(sweep.METHODS)
                assert np.isfinite([r[3:] for r in rows]).all()
                peaks.append(peak)
        assert len(peaks) == 20 and max(peaks) < 6.43e6

    def test_spliced_reconstructions(self, default_sweep):
        cfg, ctx, reference = default_sweep
        peaks = []
        body = render_silhouette(ctx["gt"], ctx["frame"])
        for ratio in cfg.sweep_ratios:
            for seed in cfg.sweep_seeds:
                pair = synthesize_occlusion(body,
                                            OccluderSpec(cfg.occluder_kind, seed, ratio))
                naive = occlude_field(ctx["c_gt"], pair, cfg.occlusion_policy,
                                      sigma=cfg.noise_sigma, seed=seed)
                blend = vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)
                for field in (naive, blend):
                    (mesh, _, _), _, peak = traced(reference.reconstruct, field)
                    assert mesh.n_faces > 0
                    peaks.append(peak)
        assert len(peaks) == 40 and max(peaks) < 6.4e6  # 5.86 MB measured; 9 % margin

    @pytest.mark.parametrize("rows", [1, 3])
    def test_column_store(self, readme_chain, monkeypatch, rows):
        # A store of only the corner columns of some cubes, the others all
        # reading one shared zero row, gives the dense grid's faces and
        # vertices for those cubes.
        _, grid, _ = readme_chain
        store, index = _grid_store(grid.values)
        X, Y = index.shape
        cubes = np.random.default_rng(rows).random((X - 1, Y - 1)) < 0.05
        corner = np.zeros((X, Y), dtype=bool)
        for ox, oy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            corner[ox:ox + X - 1, oy:oy + Y - 1] |= cubes
        held = np.flatnonzero(corner)
        assert 0 < len(held) < X * Y / 2
        compact = np.zeros((len(held) + 1, store.shape[1]))
        compact[1:] = store[held]
        rows_of = np.zeros(X * Y, dtype=np.int64)
        rows_of[held] = np.arange(1, len(held) + 1)
        rows_of = rows_of.reshape(X, Y)
        want = _cube_faces(store, index, cubes, 0.5)
        monkeypatch.setattr(surface, "_CUBE_ROWS", rows)
        got = _cube_faces(compact, rows_of, cubes, 0.5)
        assert len(want[0]) > 1000
        assert bits(*got) == bits(*want)
        keys = _distinct(want[1])[0]
        place = (grid.origin, grid.spacing, grid.offset)
        assert bits(_edge_vertices(compact, rows_of, keys, 0.5, *place)) == \
            bits(_edge_vertices(store, index, keys, 0.5, *place))


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
        store, index = _grid_store(grid.values)
        columns = np.random.default_rng(rows).random((index.shape[0] - 1,
                                                      index.shape[1] - 1)) < 0.5
        want = [_cube_faces(store, index, c, 0.5) for c in (None, columns)]
        mesh = marching_cubes(grid)
        monkeypatch.setattr(surface, "_CUBE_ROWS", rows)
        for c, w in zip((None, columns), want):
            assert len(w[0]) > 0
            assert bits(*_cube_faces(store, index, c, 0.5)) == bits(*w)
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


@pytest.mark.parametrize("pixels", [1, 7])
def test_blend_blocks(monkeypatch, pixels):
    # completion._BLEND_PIXELS sets how many occluded pixels vgcc_blend
    # mixes at a time; a block of one pixel, then blocks with a short last
    # one, give the one-block field bit for bit.
    mesh = make_sphere(0.6, 2)
    frame = OrthoFrame(40, 40)
    gt = mesh_to_fof(mesh, frame, BasisConfig(7))
    prior = mesh_to_fof(degrade_prior(mesh, 10, 0.5), frame, BasisConfig(7))
    pair = synthesize_occlusion(render_silhouette(mesh, frame),
                                OccluderSpec("rectangle", seed=1, ratio=0.4))
    observed = occlude_field(gt, pair, "noise", sigma=0.1, seed=2)
    monkeypatch.setattr(completion, "_BLEND_PIXELS", 1 << 20)
    want = vgcc_blend(observed, prior, pair, 3.0)
    monkeypatch.setattr(completion, "_BLEND_PIXELS", pixels)
    assert pair.M.sum() > 10 * pixels
    assert bits(vgcc_blend(observed, prior, pair, 3.0).data) == bits(want.data)


@pytest.mark.parametrize("pairs", [1, 3 * 320 + 5])
def test_exhaustive_tiles(monkeypatch, rng, pairs):
    # One point's row per tile, then three rows per tile with a short last tile.
    mesh = make_sphere(0.6, 2)
    pts = rng.normal(size=(40, 3)) * 0.7
    want = p2s_exhaustive(pts, mesh)
    monkeypatch.setattr(metrics, "_EXHAUSTIVE_PAIRS", pairs)
    assert bits(p2s_exhaustive(pts, mesh)) == bits(want)
