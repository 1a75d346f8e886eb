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
