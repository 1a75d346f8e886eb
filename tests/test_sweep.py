from fofkit import metrics, sweep
from fofkit.config import HarnessConfig

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


def test_ratio_zero_cell_reconstructs_once(monkeypatch):
    # With no occluder the blend row is the naive one, so one reconstruction
    # and one evaluation serve both rows.
    calls = []
    orig = sweep.reconstruct_field

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(sweep, "reconstruct_field", counting)
    monkeypatch.setattr(sweep, "_CTX", sweep.prepare_context(HarnessConfig.load(overrides=TINY)))
    naive, blend = sweep._run_cell((0.0, 1))
    assert len(calls) == 1
    assert naive[2:] == ("naive",) + blend[3:] and blend[2] == "blend"
    assert naive[:2] == blend[:2] == (0.0, 1)
