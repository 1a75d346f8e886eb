"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload sweep_sphere --seeds 1-10 [--out spread.json]

Runs ``perfbench/run.py`` once per seed (untraced, BENCHMARK.json's
run_seconds), then prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median next
to the metric's bound. A spread under a third of the bound is steady.
``--bless`` stores each seed's output digests in references.json, which
later runs of that seed must match.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def bless(workload, seed, record):
    path = os.path.join(HERE, "references.json")
    with open(path, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    refs.setdefault(workload, {})[str(seed)] = {"plan": record["plan"],
                                                "digests": record["digests"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=None)
    p.add_argument("--bless", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        runs = []
        for seed in seed_list(args.seeds):
            record, result = run_once(workload, seed, spec["run_seconds"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "reference": record["reference"]})
            if args.bless and result["correct"]:
                bless(workload, seed, record)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        stats = {name: dict(spread(v), bound=bounds[name]) for name, v in values.items()}
        report[workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            flag = "steady" if s["spread"] is not None and s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:14s} {name:16s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
