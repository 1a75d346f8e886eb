"""fofkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_sphere --seed 0 --seconds 20 --trace 0

Run from the root of a fofkit checkout; the package is imported from its
``src/`` directory, so nothing needs installing. The workload runs in a
child process with BLAS threads pinned to 1, so its peak RSS is its own.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer ones with ``--trace 1``). The line before it is
the full record: host facts, plan, per-unit times, output digests, checks
and, when traced, span totals and computed kernel counts.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 170
# Per-layer times reported as self time (minus the layers they call).
SELF_TIME_LAYERS = {"surface.field_to_grid"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_json(name, base=ROOT):
    with open(os.path.join(base, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    """Environment of a workload process: fofkit from src/, BLAS on one thread."""
    from host import BLAS_ENV

    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    env.update({k: "1" for k in BLAS_ENV})
    return env


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "fofkit", "__init__.py")):
        print(f"perfbench: no fofkit package under {SRC}; run from a fofkit checkout",
              file=sys.stderr)
        return 2
    spec = load_json("BENCHMARK.json")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    env = child_env()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--child", work]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: workload exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    record = json.loads(lines[-1])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    kind = "per_layer" if args.trace else "end_to_end"
    values = record["per_layer"] if args.trace else end_to_end(record)
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = record["attempted"]
    failed = record["failed"]
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted == record["planned"],
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(record):
    ok = [u for u in record["units"] if u["ok"]]
    return {
        "setup_s": statistics.median(record["setup_samples"]),
        "run_s": record["run_s"],
        "unit_s.p50": statistics.median(u["s"] for u in record["units"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "cd.blend.mean": statistics.fmean(u["cd_blend"] for u in ok) if ok else float("nan"),
        "p2s.blend.mean": statistics.fmean(u["p2s_blend"] for u in ok) if ok else float("nan"),
    }


def child(args):
    import fofkit  # resolved through PYTHONPATH=src
    if not os.path.abspath(fofkit.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported fofkit from {fofkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from host import host_facts, steal_seconds
    from tracing import Tracer, span
    from workloads import WORKLOADS

    steal0 = steal_seconds()
    wl = WORKLOADS[args.workload]
    plan = wl.plan(args.seed, args.seconds)
    work = args.child
    setup_samples = []
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        # untraced runs time set-up several times and report the median
        n_setups = 1 if args.trace else wl.setup_samples
        for _ in range(n_setups - wl.setups_in_run):
            t0 = time.perf_counter()
            with span(tracer, "bench.setup"):
                wl.setup(plan, work, tracer)
            setup_samples.append(time.perf_counter() - t0)
        res = wl.run(plan, work, tracer)
    finally:
        if tracer is not None:
            tracer.close()
    setup_samples += res.setup_s_in_run
    steal1 = steal_seconds()

    reference = check_reference(args, plan, res)
    failed = sum(1 for u in res.units if not u.ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "plan": plan,
        "host": host_facts(jobs=1),
        # CPU time stolen by other guests while this run measured; a large
        # value explains a slow run without any change to the program
        "steal_s": None if steal0 is None else steal1 - steal0,
        "planned": planned_units(plan),
        "attempted": len(res.units),
        "failed": failed,
        "failed_frac": failed / max(len(res.units), 1),
        "units": [u.as_dict() for u in res.units],
        "setup_samples": setup_samples,
        "run_s": res.run_s,
        "digests": res.digests,
        "reference": reference,
        "checks": res.checks,
    }
    if tracer is not None:
        summary = tracer.summary()
        record["spans"] = summary
        record["counts"] = tracer.counts
        record["traces"] = tracer.by_trace()
        record["per_layer"] = per_layer(summary, tracer.counts, res.run_s)
        record["computed"] = computed_counts(summary, tracer.counts)
    print(json.dumps(record))
    return 0


def planned_units(plan):
    if "chains" in plan:
        return len(plan["chains"])
    return len(plan["ratios"]) * len(plan["seeds"])


def check_reference(args, plan, res):
    """Compare output digests with perfbench/references.json for this seed.

    A mismatch marks the units whose output differs as failed; seeds without
    a stored reference are checked only for finite rows, exit codes and
    field read-back. A reference made for another plan is reported stale.
    """
    refs = load_json("references.json", HERE).get(args.workload, {}).get(str(args.seed))
    if refs is None:
        return "none"
    if json.dumps(refs["plan"], sort_keys=True) != json.dumps(plan, sort_keys=True):
        print(f"perfbench: reference for seed {args.seed} was made for another plan",
              file=sys.stderr)
        return "stale"
    status = "match"
    for name, want in refs["digests"].items():
        got = res.digests.get(name)
        if isinstance(want, list):
            for unit, w, g in zip(res.units, want, got or []):
                if w != g:
                    unit.ok = False
                    status = "mismatch"
        elif want != got:
            for unit in res.units:
                unit.ok = False
            status = "mismatch"
    return status


def per_layer(summary, counts, traced_run_s):
    """Per-layer values by metric name.

    ``<layer>.s`` is the layer's inclusive time (self time for
    SELF_TIME_LAYERS), ``<layer>.build_s``/``.query_s`` name class methods,
    and the remaining names are counters. A layer never called reads 0.
    """
    from tracing import COUNTERS, LAYERS

    out = {"trace.run_s": traced_run_s}
    timed = {name for name, *_ in LAYERS} | {n for n in summary}
    for layer in timed:
        row = summary.get(layer, {"s": 0.0, "self_s": 0.0})
        key = "self_s" if layer in SELF_TIME_LAYERS else "s"
        stem, _, method = layer.rpartition(".")
        if method in ("build", "query") and stem.endswith("SurfaceDistanceIndex"):
            out[f"{layer}_s"] = row[key]
        else:
            out[f"{layer}.s"] = row[key]
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    for cmd in ("shapes", "encode", "silhouette", "occlude", "blend", "reconstruct",
                "render-normals", "eval"):
        out.setdefault(f"cli.{cmd}.s", 0.0)
    return out


def _ratio(num, den):
    return num / den if den else None


def computed_counts(summary, counts):
    """Kernel work computed from array sizes, each ratio with its base."""
    dg_calls = summary.get("fof.decode_grid", {}).get("calls", 0)
    crc_s = summary.get("tensor_io.crc64", {}).get("s", 0.0)
    return {
        "label": "computed from array sizes",
        "decode_grid": {
            "multiply_adds": counts.get("fof.decode_grid.madds", 0),
            "bytes": counts.get("fof.decode_grid.bytes", 0),
            "calls": dg_calls,
            "multiply_adds_per_call": _ratio(counts.get("fof.decode_grid.madds", 0), dg_calls),
            "formula": "multiply-adds = H*W*D*K; bytes = 8*(H*W*K + H*W*D)",
        },
        "p2s": {
            "pairs": counts.get("metrics.point_triangle_distance.pairs", 0),
            "query_points": counts.get("metrics.SurfaceDistanceIndex.query_points", 0),
            "pairs_per_query_point": _ratio(
                counts.get("metrics.point_triangle_distance.pairs", 0),
                counts.get("metrics.SurfaceDistanceIndex.query_points", 0)),
            "base": "points passed to SurfaceDistanceIndex.query",
        },
        "raster": {
            "records": counts.get("raster.rasterize_coverage.records", 0),
            "calls": counts.get("raster.rasterize_coverage.calls", 0),
            "records_per_call": _ratio(counts.get("raster.rasterize_coverage.records", 0),
                                       counts.get("raster.rasterize_coverage.calls", 0)),
            "base": "rasterize_coverage calls",
        },
        "crc64": {
            "bytes": counts.get("tensor_io.crc64.bytes", 0),
            "s": crc_s,
            "bytes_per_s": _ratio(counts.get("tensor_io.crc64.bytes", 0), crc_s),
            "base": "traced crc64 seconds",
        },
    }


if __name__ == "__main__":
    sys.exit(main())
