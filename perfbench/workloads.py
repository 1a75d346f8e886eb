"""The benchmark's workloads: an occlusion sweep and a CLI file chain.

Each workload turns (seed, seconds) into a fixed plan of units, sets up the
shared inputs, and runs the units through fofkit's public entry points:
``sweep.run_sweep`` for the sweep and ``cli.main`` for the file chain. A
unit is one sweep cell (both methods) or one CLI chain.
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import time
import traceback

import numpy as np

from fofkit import cli, completion, mesh, sweep
from fofkit.config import HarnessConfig
from tracing import span

RATIOS = (0.2, 0.4, 0.6, 0.8)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Unit:
    """Outcome of one unit: its parameters, wall and CPU time, and accuracy.

    CPU time is kept beside wall time so a reader can tell a slower program
    from a busier host."""

    def __init__(self, params):
        self.params = params
        self.s = None
        self.cpu_s = None
        self.ok = True
        self.cd_blend = None
        self.p2s_blend = None

    def as_dict(self):
        return {"params": self.params, "s": self.s, "cpu_s": self.cpu_s, "ok": self.ok,
                "cd_blend": self.cd_blend, "p2s_blend": self.p2s_blend}


class RunResult:
    def __init__(self, units):
        self.units = units
        self.run_s = None
        self.setup_s_in_run = []
        self.digests = {}
        self.checks = {}


class SweepWorkload:
    """``run_sweep`` with --jobs 1 on one shape; the seed picks the cell seeds.

    A run covers every ratio in ``ratios`` for ``n`` consecutive cell seeds
    starting at the workload seed, with ``eval_seed`` equal to the seed;
    ``n`` is the number of seed rows of nominal cost ``row_s`` that fit in
    the requested seconds.
    """

    setups_in_run = 1

    def __init__(self, shape, ratios, row_s, setup_samples):
        self.shape = shape
        self.ratios = ratios
        self.row_s = row_s
        self.setup_samples = setup_samples

    def plan(self, seed, seconds):
        n = max(1, int(seconds // self.row_s))
        return {"shape": self.shape, "ratios": list(self.ratios),
                "seeds": [seed + i for i in range(n)], "eval_seed": seed, "jobs": 1}

    def config(self, plan):
        return HarnessConfig.load(None, [
            f"sweep.shape={plan['shape']}",
            "sweep.ratios=" + ",".join(repr(r) for r in plan["ratios"]),
            "sweep.seeds=" + ",".join(str(s) for s in plan["seeds"]),
            f"sweep.eval_seed={plan['eval_seed']}",
            "sweep.jobs=1",
        ])

    def setup(self, plan, work, tracer=None):
        sweep.prepare_context(self.config(plan))

    def run(self, plan, work, tracer=None):
        cfg = self.config(plan)
        out_dir = os.path.join(work, "sweep")
        units = []
        result = RunResult(units)
        orig_cell, orig_prepare = sweep._run_cell, sweep.prepare_context

        def timed_prepare(c):
            t0 = time.perf_counter()
            try:
                return orig_prepare(c)
            finally:
                result.setup_s_in_run.append(time.perf_counter() - t0)

        def timed_cell(cell):
            unit = Unit({"ratio": cell[0], "seed": cell[1]})
            units.append(unit)
            if tracer is not None:
                tracer.trace_id = f"unit-{len(units) - 1}"
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with span(tracer, "sweep.cell"):
                    rows = orig_cell(cell)
            finally:
                unit.s = time.perf_counter() - t0
                unit.cpu_s = time.process_time() - c0
                if tracer is not None:
                    tracer.trace_id = "run"
            unit.ok = all(np.isfinite(r[3:]).all() for r in rows)
            blend = [r for r in rows if r[2] == "blend"]
            if blend:
                unit.cd_blend, unit.p2s_blend = blend[0][3], blend[0][4]
            return rows

        # run_sweep looks both names up in its module at call time, so these
        # timers see every cell and the in-run set-up without editing src/.
        sweep._run_cell, sweep.prepare_context = timed_cell, timed_prepare
        try:
            t0 = time.perf_counter()
            rows = sweep.run_sweep(cfg, out_dir, jobs=1)
            total = time.perf_counter() - t0
        finally:
            sweep._run_cell, sweep.prepare_context = orig_cell, orig_prepare
        result.run_s = total - sum(result.setup_s_in_run)
        result.digests["curves.csv"] = sha256_file(os.path.join(out_dir, "curves.csv"))
        result.checks["rows"] = len(rows)
        result.checks["rows_expected"] = 2 * len(plan["ratios"]) * len(plan["seeds"])
        if len(rows) != result.checks["rows_expected"]:
            for unit in units:
                unit.ok = False
        return result


class CliChainWorkload:
    """The README command chain, run in-process through ``fofkit.cli.main``.

    Set-up makes the ground-truth sphere with ``fofkit shapes`` and writes a
    Laplacian-degraded prior OBJ next to it. Each unit then runs
    encode x2 -> silhouette -> occlude -> blend -> reconstruct ->
    render-normals -> eval in its own directory, reading back every file
    the previous command wrote. Chain i uses ratio ``ratios[i % len(ratios)]``
    and CLI --seed equal to the workload seed plus i, so every chain has its
    own occluder placement. A run has at least one chain per ratio, more
    when chains of nominal cost ``chain_s`` fit in the requested seconds.
    """

    setups_in_run = 0

    def __init__(self, ratios, chain_s, setup_samples):
        self.ratios = ratios
        self.chain_s = chain_s
        self.setup_samples = setup_samples

    def plan(self, seed, seconds):
        n = max(len(self.ratios), int(seconds // self.chain_s))
        return {"chains": [{"ratio": self.ratios[i % len(self.ratios)], "seed": seed + i}
                           for i in range(n)]}

    def setup(self, plan, work, tracer=None):
        gt = os.path.join(work, "gt.obj")
        _cli(["shapes", "sphere", gt], tracer)
        prior = completion.degrade_prior(mesh.load_obj(gt), 20, 0.5)
        mesh.save_obj(prior, os.path.join(work, "prior.obj"))

    def run(self, plan, work, tracer=None):
        gt = os.path.join(work, "gt.obj")
        prior_obj = os.path.join(work, "prior.obj")
        units = []
        result = RunResult(units)
        check = _FieldRoundTrip()
        check.install()
        try:
            t0 = time.perf_counter()
            for i, chain in enumerate(plan["chains"]):
                unit = Unit(chain)
                units.append(unit)
                if tracer is not None:
                    tracer.trace_id = f"unit-{i}"
                d = os.path.join(work, f"chain{i}")
                os.makedirs(d, exist_ok=True)
                ratio, seed = chain["ratio"], chain["seed"]
                steps = [
                    ["encode", gt, f"{d}/gt.oaht", "--order", "15"],
                    ["encode", prior_obj, f"{d}/prior.oaht", "--order", "15"],
                    ["silhouette", gt, f"{d}/body.pgm"],
                    ["occlude", f"{d}/gt.oaht", f"{d}/body.pgm", f"{d}/occ.oaht",
                     "--ratio", repr(ratio), "--seed", str(seed)],
                    ["blend", f"{d}/occ.oaht", f"{d}/prior.oaht", f"{d}/occ.oaht.V.pgm",
                     f"{d}/occ.oaht.M.pgm", f"{d}/done.oaht"],
                    ["reconstruct", f"{d}/done.oaht", f"{d}/recon.obj", "--grid-res", "128"],
                    ["render-normals", f"{d}/recon.obj", f"{d}/front.pfm", f"{d}/back.pfm"],
                    ["eval", f"{d}/recon.obj", gt, f"{d}/metrics.csv", "--seed", str(seed)],
                ]
                u0, c0 = time.perf_counter(), time.process_time()
                with span(tracer, "cli.chain"):
                    codes = [_cli(argv, tracer) for argv in steps]
                unit.s = time.perf_counter() - u0
                unit.cpu_s = time.process_time() - c0
                unit.ok = all(c == 0 for c in codes)
                if unit.ok:
                    unit.cd_blend, unit.p2s_blend = _read_metrics(f"{d}/metrics.csv")
                    unit.ok = math.isfinite(unit.cd_blend) and math.isfinite(unit.p2s_blend)
                    result.digests.setdefault("metrics.csv", []).append(
                        sha256_file(f"{d}/metrics.csv"))
                else:
                    result.digests.setdefault("metrics.csv", []).append(None)
            result.run_s = time.perf_counter() - t0
        finally:
            check.close()
            if tracer is not None:
                tracer.trace_id = "run"
        result.checks["fields_written"] = check.written
        result.checks["fields_read_back_equal"] = check.equal
        result.checks["fields_read_back_differ"] = check.differ
        if check.differ or check.equal != check.written:
            for unit in units:
                unit.ok = False
        return result


def _cli(argv, tracer):
    """Run one fofkit command in-process; returns its exit code."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), span(tracer, f"cli.{argv[0]}"):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed unit, not a crashed benchmark
        traceback.print_exc(file=sys.stderr)
        return 1


def _read_metrics(path):
    with open(path, "r", encoding="utf-8") as fh:
        header, row = fh.read().splitlines()[:2]
    values = dict(zip(header.split(","), row.split(",")))
    return float(values["cd"]), float(values["p2s"])


class _FieldRoundTrip:
    """Checks that ``read_tensor`` of each field the CLI wrote equals the
    float32 cast of the field it had in memory when writing it."""

    def __init__(self):
        self.expected = {}
        self.written = 0
        self.equal = 0
        self.differ = 0
        self._orig = None

    def install(self):
        self._orig = (cli.write_tensor, cli.read_tensor)
        write, read = self._orig

        def checked_write(path, data, dims=None):
            write(path, data, dims=dims)
            arr = np.array(data, dtype=np.float32)
            self.expected[path] = arr.reshape(dims) if dims is not None else arr
            self.written += 1

        def checked_read(path):
            dims, arr = read(path)
            want = self.expected.pop(path, None)
            if want is not None:
                if want.shape == arr.shape and np.array_equal(want, arr):
                    self.equal += 1
                else:
                    self.differ += 1
            return dims, arr

        cli.write_tensor, cli.read_tensor = checked_write, checked_read

    def close(self):
        cli.write_tensor, cli.read_tensor = self._orig


WORKLOADS = {
    # Set-up is timed setup_samples times per untraced run (median reported).
    # On a 2-core host a sphere row (four cells) takes about 13 s and a chain
    # about 7 s, so a 45 s run does three rows or six chains; many units per
    # run keep the median steady while the host's speed drifts.
    "sweep_sphere": SweepWorkload("sphere", RATIOS, row_s=14.0, setup_samples=31),
    "cli_files": CliChainWorkload((0.2, 0.4, 0.6), chain_s=7.5, setup_samples=9),
}
