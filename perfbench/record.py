"""Write a benchmark record: every workload untraced and traced, plus the
baseline cross-checks.

    python3 perfbench/record.py --out perfbench/records/baseline.json \
        [--seed 0] [--spread spread.json ...]

For each workload the record holds the untraced end-to-end metrics, the
traced per-layer metrics, the trace overhead (traced run_s minus untraced
run_s), the kernel counts computed from array sizes and the host facts.
``--spread`` embeds the output of ``spread.py`` as the measured noise. The
cross-checks time the hot spots named in ROADMAP.md's baseline (P2S share of
one traced capsule_figure cell, decode_grid at 128^3, the ground-truth work
evaluate_pair repeats, CRC-64 of one field, uniforms(30000)) and compare
them with it.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import child_env  # noqa: E402
from spread import run_once  # noqa: E402

# ROADMAP.md baseline (2 vCPU, Python 3.11, numpy 2.4.6, scipy 1.17.1).
ROADMAP_BASELINE = {
    "p2s_share_of_capsule_cell": 12.1 / 13.2,
    "decode_grid_128cubed_s": 0.193,
    "evaluate_pair_gt_work_s": 0.157,
    "crc64_one_field_s": 0.29,
    "uniforms_30000_s": 0.035,
}
# On this kind of shared 2-core host, six identical 2-cell capsule sweeps
# took 20.4 to 25.8 s, so a single timing can sit 25 % off its peers.
NOISE_TOLERANCE = 0.3


def best_time(fn, repeats=5):
    """Best of ``repeats`` wall times, the usual figure for a micro-benchmark:
    slower repeats measure the host's other load, not the code."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def micro():
    """Time the baseline hot spots in isolation; prints one JSON line."""
    import numpy as np
    from fofkit import sweep
    from fofkit.config import HarnessConfig
    from fofkit.fof import BasisConfig, decode_grid
    from fofkit.metrics import SurfaceDistanceIndex
    from fofkit.render import render_normals
    from fofkit.rng import Xoshiro256StarStar
    from fofkit.surface import sample_surface
    from fofkit.sweep import prepare_context
    from fofkit.tensor_io import crc64
    from scipy.spatial import cKDTree
    from tracing import Tracer

    field = np.random.default_rng(0).standard_normal((128, 128, BasisConfig(15).channels))
    payload = field.astype("<f4").tobytes()
    out = {
        "decode_grid_128cubed_s": best_time(lambda: decode_grid(field, 128)),
        "crc64_one_field_s": best_time(lambda: crc64(payload), repeats=3),
        "crc64_one_field_bytes": len(payload),
        "uniforms_30000_s": best_time(lambda: Xoshiro256StarStar(0).uniforms(30000)),
    }
    contexts = {}
    for shape in ("sphere", "capsule_figure"):
        ctx = contexts[shape] = prepare_context(
            HarnessConfig.load(None, [f"sweep.shape={shape}"]))
        gt, frame = ctx["gt"], ctx["frame"]

        def gt_work():
            pts, _ = sample_surface(gt, 10_000, 0)
            cKDTree(pts)
            SurfaceDistanceIndex(gt)
            render_normals(gt, frame, "front")
            render_normals(gt, frame, "back")

        out[f"evaluate_pair_gt_work_s.{shape}"] = best_time(gt_work, repeats=3)
        out[f"gt_faces.{shape}"] = gt.n_faces
    # P2S share of one traced capsule_figure cell (ratio 0.4, seed 0)
    sweep._CTX = contexts["capsule_figure"]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("sweep.cell"):
            sweep._run_cell((0.4, 0))
    finally:
        tracer.close()
    spans = tracer.summary()
    out["capsule_cell_s"] = spans["sweep.cell"]["s"]
    out["capsule_cell_p2s_s"] = spans["metrics.p2s"]["s"]
    out["p2s_share_of_capsule_cell"] = out["capsule_cell_p2s_s"] / out["capsule_cell_s"]
    print(json.dumps(out))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", action="append", default=[])
    p.add_argument("--micro", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.micro:
        micro()
        return 0
    if not args.out:
        p.error("--out is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    record = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain_rec, plain = run_once(name, args.seed, seconds, trace=0)
        traced_rec, traced = run_once(name, args.seed, seconds, trace=1)
        run_s = plain["metrics"]["run_s"]["value"]
        traced_run_s = traced["metrics"]["trace.run_s"]["value"]
        record["host"] = plain_rec["host"]
        record["workloads"][name] = {
            "why": w["why"],
            "plan": plain_rec["plan"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_frac": plain_rec["failed_frac"],
            "reference": plain_rec["reference"],
            "digests": plain_rec["digests"],
            "checks": plain_rec["checks"],
            "unit_s": [u["s"] for u in plain_rec["units"]],
            "unit_count": len(plain_rec["units"]),
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "trace_overhead": {"traced_run_s": traced_run_s, "untraced_run_s": run_s,
                               "overhead_s": traced_run_s - run_s,
                               "overhead_share_of_untraced": (traced_run_s - run_s) / run_s},
            "traces": traced_rec["traces"],
            "spans": traced_rec["spans"],
            "computed": traced_rec["computed"],
        }
        print(name, "done", flush=True)

    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--micro"],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    measured = json.loads(proc.stdout.strip().splitlines()[-1])
    measured["evaluate_pair_gt_work_s"] = measured["evaluate_pair_gt_work_s.sphere"]
    checks = {}
    for key, base in ROADMAP_BASELINE.items():
        got = measured[key]
        checks[key] = {"roadmap": base, "measured": got, "measured_over_roadmap": got / base,
                       "within_noise": abs(got / base - 1.0) <= NOISE_TOLERANCE}
    record["baseline_cross_check"] = {
        "tolerance": NOISE_TOLERANCE,
        "note": ("P2S share is from one traced capsule_figure cell (ratio 0.4, seed 0); "
                 "evaluate_pair_gt_work_s is the sphere ground truth, the capsule "
                 "figure's is in 'micro'."),
        "checks": checks,
        "micro": measured,
    }
    record["noise"] = {"note": ("six 2-cell capsule sweeps on this kind of host took "
                                "20.4 to 25.8 s, and one sphere cell (ratio 0.2) repeated "
                                "seven times in 90 s took 3.4 to 4.6 s; spreads below are "
                                "quartile distance over median across seeds")}
    for path in args.spread:
        with open(path, "r", encoding="utf-8") as fh:
            for name, stats in json.load(fh).items():
                record["noise"][name] = stats
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as fh:
        record["layer_map"] = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
