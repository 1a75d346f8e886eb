import logging
import sys
import weakref

import numpy as np
import pytest

from fofkit import metrics, surface, sweep
from fofkit.config import HarnessConfig
from fofkit.completion import blend_alpha, degrade_prior, vgcc_blend
from fofkit.fof import FourierField
from fofkit.mesh import encoding_window
from fofkit.occlusion import (OCCLUDER_KINDS, OCCLUSION_POLICIES, MaskPair, OccluderSpec,
                              occlude_field, synthesize_occlusion)
from fofkit.render import render_silhouette
from fofkit.selftest import same_reconstruction, spliced_columns

TINY = ["sweep.ratios=0.0,0.4", "sweep.seeds=1", "sweep.eval_samples=500",
        "extract.grid_res=48", "frame.width=48", "frame.height=48"]


def test_one_ground_truth_index_per_run(tmp_path, monkeypatch):
    built = []

    class CountingIndex(metrics.SurfaceDistanceIndex):
        def __init__(self, mesh):
            built.append(mesh)
            super().__init__(mesh)

    monkeypatch.setattr(metrics, "SurfaceDistanceIndex", CountingIndex)
    rows = sweep.run_sweep(HarnessConfig.load(overrides=TINY), str(tmp_path), jobs=1)
    assert len(rows) == 4
    assert len(built) == 1 and built[0] is sweep._CTX["gt"]


@pytest.fixture(scope="module")
def default_context():
    cfg = HarnessConfig.load()
    return cfg, sweep.prepare_context(cfg)


def test_context_fields_lie_on_the_window(default_context):
    # c_gt and c_prior are encoded on one window: the columns of both
    # meshes' projected vertices plus one pixel on each side. The body lies
    # on it, one pixel inside its edges.
    cfg, ctx = default_context
    prior = degrade_prior(ctx["gt"], cfg.prior_iterations, cfg.prior_strength)
    window = encoding_window((ctx["gt"], prior), ctx["frame"])
    assert window == (slice(25, 103), slice(25, 103))
    for name in ("c_gt", "c_prior"):
        assert ctx[name].window == window and ctx[name].data.shape == (78, 78, 31)
    body = render_silhouette(ctx["gt"], ctx["frame"])
    inner = np.zeros_like(body)
    inner[26:102, 26:102] = True
    assert body.any() and not (body & ~inner).any()


def test_cells_take_the_body_from_the_eval_reference(default_context):
    # A cell places its occluder on the ground truth's front-map
    # foreground, which must be render_silhouette(gt, frame) bit for bit.
    _, ctx = default_context
    reference, _ = sweep._reference(dict(ctx))
    body = reference.front.mask
    assert body.dtype == bool and body.any()
    assert np.array_equal(body, render_silhouette(ctx["gt"], ctx["frame"]))


@pytest.mark.parametrize("policy", OCCLUSION_POLICIES)
def test_cell_fields_are_the_whole_frame_fields_cropped(default_context, policy):
    # At ratio 0.6, seed 0, alpha of the masks cropped to the window differs
    # from the frame's alpha cropped in the last bits; a cell's fields must
    # be the whole frame's fields cropped, bit for bit.
    cfg, ctx = default_context
    window, frame = ctx["c_gt"].window, ctx["frame"]
    pair = synthesize_occlusion(render_silhouette(ctx["gt"], ctx["frame"]),
                                OccluderSpec(cfg.occluder_kind, 0, 0.6))
    cropped = MaskPair(pair.V[window], pair.M[window], pair.body[window])
    assert not np.array_equal(blend_alpha(cropped, cfg.feather_px),
                              blend_alpha(pair, cfg.feather_px)[window])
    whole = {}
    for name in ("c_gt", "c_prior"):
        whole[name] = FourierField(np.zeros((frame.height, frame.width, 31)))
        whole[name].data[window] = ctx[name].data
    want_naive = occlude_field(whole["c_gt"], pair, policy, sigma=cfg.noise_sigma, seed=0)
    want_blend = vgcc_blend(want_naive, whole["c_prior"], pair, cfg.feather_px)
    naive = occlude_field(ctx["c_gt"], pair, policy, sigma=cfg.noise_sigma, seed=0)
    assert naive.window == window
    assert naive.data.tobytes() == want_naive.data[window].tobytes()
    blend = vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px, overwrite_obs=True)
    assert blend.window == window
    assert blend.data.tobytes() == want_blend.data[window].tobytes()


def test_run_sweep_hooks(tmp_path, monkeypatch):
    # The benchmark times a sweep by replacing these two module globals, so
    # run_sweep must look both up at call time: set-up once, then one call
    # per cell, with the reference already built when the first cell runs.
    calls = []
    orig_prepare, orig_cell = sweep.prepare_context, sweep._run_cell

    def prepare(cfg):
        calls.append("prepare")
        return orig_prepare(cfg)

    def cell(c):
        calls.append(c)
        assert "reference" in sweep._CTX
        return orig_cell(c)

    monkeypatch.setattr(sweep, "prepare_context", prepare)
    monkeypatch.setattr(sweep, "_run_cell", cell)
    sweep.run_sweep(HarnessConfig.load(overrides=TINY), str(tmp_path), jobs=1)
    assert calls == ["prepare", (0.0, 1), (0.4, 1)]


def test_cells_log_their_decoded_columns(tmp_path, caplog):
    cfg = HarnessConfig.load(overrides=TINY)
    with caplog.at_level(logging.DEBUG, logger="fofkit.sweep"):
        sweep.run_sweep(cfg, str(tmp_path), jobs=1)
    ctx = sweep._CTX
    pair = synthesize_occlusion(render_silhouette(ctx["gt"], ctx["frame"]),
                                OccluderSpec(cfg.occluder_kind, 1, 0.4))
    naive = occlude_field(ctx["c_gt"], pair, cfg.occlusion_policy, sigma=cfg.noise_sigma, seed=1)
    blend = vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)
    sources = [ctx["c_gt"].data, ctx["c_prior"].data]
    decoded = sum(spliced_columns(f.data, sources) for f in (naive, blend))
    assert decoded > 0
    assert [m for m in caplog.messages if "decoded" in m] == [
        "cell ratio=0.0 seed=1: decoded 0 columns",
        f"cell ratio=0.4 seed=1: decoded {decoded} columns"]


@pytest.mark.parametrize("policy", OCCLUSION_POLICIES)
def test_ratio_zero_cell_rows_are_equal(monkeypatch, policy):
    # With no occluder M is empty, so both fields are c_gt and the blend
    # row is the naive one.
    cfg = HarnessConfig.load(overrides=TINY + [f"occlude.policy={policy}"])
    monkeypatch.setattr(sweep, "_CTX", sweep.prepare_context(cfg))
    naive, blend = sweep._run_cell((0.0, 1))
    assert naive[2:] == ("naive",) + blend[3:] and blend[2] == "blend"
    assert naive[:2] == blend[:2] == (0.0, 1)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's stack")
def test_a_cells_mesh_is_freed_before_it_is_scored(monkeypatch):
    # A cell samples each reconstruction mesh and drops it before Chamfer,
    # P2S and the normal-map errors run, so no mesh is live beside their
    # working sets.
    meshes, dead = [], []
    orig_render, orig_chamfer = surface.ReconstructionReference.render, metrics.chamfer

    def render(self, extraction):
        out = orig_render(self, extraction)
        meshes.append(weakref.ref(out[0]))
        return out

    def chamfer(*args, **kwargs):
        dead.append(meshes[-1]() is None)
        return orig_chamfer(*args, **kwargs)

    monkeypatch.setattr(surface.ReconstructionReference, "render", render)
    monkeypatch.setattr(metrics, "chamfer", chamfer)
    monkeypatch.setattr(sweep, "_CTX", sweep.prepare_context(HarnessConfig.load(overrides=TINY)))
    for cell in ((0.0, 1), (0.4, 1)):
        assert np.isfinite([row[3:] for row in sweep._run_cell(cell)]).all()
    assert len(meshes) == len(dead) == 4 and all(dead)


def test_no_default_cell_falls_back(default_context):
    # Every field of the default sweep's cells is spliced into c_gt and
    # c_prior: none is extracted over its own box.
    cfg, ctx = default_context
    ctx = dict(ctx)
    _, reconstruction = sweep._reference(ctx)
    body = render_silhouette(ctx["gt"], ctx["frame"])
    for ratio in cfg.sweep_ratios:
        for seed in cfg.sweep_seeds:
            pair = synthesize_occlusion(body, OccluderSpec(cfg.occluder_kind, seed, ratio))
            naive = occlude_field(ctx["c_gt"], pair, cfg.occlusion_policy,
                                  sigma=cfg.noise_sigma, seed=seed)
            for field in (naive, vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)):
                assert reconstruction.extract(field).match != [], (ratio, seed)


def test_one_reconstruction_reference_per_run(tmp_path, monkeypatch):
    # Built once per run from c_gt and c_prior: after prepare_context, whose
    # time the benchmark reports as set-up, and before the first cell.
    events = []

    class CountingReference(surface.ReconstructionReference):
        def __init__(self, sources, *args):
            events.append(("built", sources))
            super().__init__(sources, *args)

    orig_prepare, orig_cell = sweep.prepare_context, sweep._run_cell

    def prepare(cfg):
        ctx = orig_prepare(cfg)
        events.append("prepared")
        return ctx

    def cell(c):
        events.append("cell")
        return orig_cell(c)

    monkeypatch.setattr(sweep, "ReconstructionReference", CountingReference)
    monkeypatch.setattr(sweep, "prepare_context", prepare)
    monkeypatch.setattr(sweep, "_run_cell", cell)
    sweep.run_sweep(HarnessConfig.load(overrides=TINY), str(tmp_path), jobs=1)
    assert [e if isinstance(e, str) else e[0] for e in events] == [
        "prepared", "built", "cell", "cell"]
    assert events[1][1] == (sweep._CTX["c_gt"], sweep._CTX["c_prior"])
    assert isinstance(sweep._CTX["reconstruction"], CountingReference)


def test_cell_runs_on_a_bare_context(monkeypatch, tmp_path):
    # A context from prepare_context alone builds both references on first
    # use, and its cells write the rows a run writes.
    cfg = HarnessConfig.load(overrides=TINY)
    rows = sweep.run_sweep(cfg, str(tmp_path), jobs=1)
    ctx = sweep.prepare_context(cfg)
    monkeypatch.setattr(sweep, "_CTX", ctx)
    assert "reference" not in ctx and "reconstruction" not in ctx
    assert sorted(sweep._run_cell((0.4, 1))) == [r for r in rows if r[0] == 0.4]
    assert isinstance(ctx["reconstruction"], surface.ReconstructionReference)


# The config matrix: a small frame, every shape x every occluder kind x both
# policies.
MATRIX = ["frame.width=48", "frame.height=48", "extract.grid_res=48",
          "sweep.eval_samples=2000", "sweep.ratios=0.4,0.8", "sweep.seeds=0"]


@pytest.mark.parametrize("shape", ["sphere", "torus", "cube", "capsule_figure"])
@pytest.mark.parametrize("kind", OCCLUDER_KINDS)
@pytest.mark.parametrize("policy", OCCLUSION_POLICIES)
def test_config_matrix_runs_every_cell(tmp_path, shape, kind, policy):
    # Most faults need one or two interacting settings to appear, so each
    # pair of shape, kind and policy runs end to end. The blend's own
    # invariants (P2S no worse than naive, one component) wait on the seam
    # fix and are not asserted here.
    cfg = HarnessConfig.load(overrides=MATRIX + [
        f"sweep.shape={shape}", f"occlude.kind={kind}", f"occlude.policy={policy}"])
    rows = sweep.run_sweep(cfg, str(tmp_path / "jobs1"), jobs=1)
    assert len(rows) == 4 and np.isfinite([r[3:] for r in rows]).all()
    # Every cell's spliced reconstructions equal the full path's.
    ctx = sweep._CTX
    body = render_silhouette(ctx["gt"], ctx["frame"])
    for ratio in cfg.sweep_ratios:
        pair = synthesize_occlusion(body, OccluderSpec(kind, 0, ratio))
        naive = occlude_field(ctx["c_gt"], pair, policy, sigma=cfg.noise_sigma, seed=0)
        for field in (naive, vgcc_blend(naive, ctx["c_prior"], pair, cfg.feather_px)):
            assert same_reconstruction(ctx["reconstruction"], field)
            # No cell field falls back to an extraction over its own box.
            assert ctx["reconstruction"].extract(field).match != []
    if shape == "sphere":
        sweep.run_sweep(cfg, str(tmp_path / "jobs2"), jobs=2)
        assert ((tmp_path / "jobs1" / "curves.csv").read_bytes()
                == (tmp_path / "jobs2" / "curves.csv").read_bytes())
