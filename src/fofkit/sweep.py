"""Occlusion-ratio sweep: encode, occlude, complete, reconstruct, evaluate.

For each (ratio, seed) cell the ground-truth field is corrupted on the
synthesized occlusion mask and reconstructed twice: once from the corrupted
field alone (method "naive") and once after visibility-guided blending with
the degraded-prior field (method "blend"). Every cell row carries Chamfer,
point-to-surface and normal-map error against the ground truth.

The ground-truth half of every evaluation (samples, kd-tree, distance index,
normal maps) is the same in every cell, so run_sweep builds one
metrics.EvalReference per run, before any cell starts, and the cells score
their reconstructions against it. Its front map's foreground is the body
silhouette that each cell's occluder is placed on, render_silhouette(gt,
frame) bit for bit, so the ground truth is rendered once per run.

Every coefficient field of a run lies on one window of the frame: the
columns that the ground truth's and the prior's projected vertices bound,
plus one pixel on each side, clamped (mesh.encoding_window), which holds
every live column and so the reconstruction box. prepare_context encodes
c_gt and c_prior on it (78 x 78 of the default 128 x 128 frame), and
occlude_field and vgcc_blend keep their inputs' window, taking the frame's
masks cropped to it. Blend weights are computed on the frame's masks and
then cropped, so every field is the whole frame's field cropped, bit for
bit. The masks and the normal maps stay frame-sized, as the meshes are.

Occlusion changes only the occluded columns. Outside M both methods' fields
hold c_gt's coefficients bit for bit; under policy=zero the naive field's M
columns are zero, and the blend's deep M columns equal c_prior's with ==
once the feather ramp reaches 0. So run_sweep also builds one
surface.ReconstructionReference over c_gt and c_prior per run, after
prepare_context, and each cell's reconstruct(field) copies those sources'
marching-cubes faces for cubes whose four columns match (exact: the decode
accumulator is never -0.0, so +-0.0 coefficients add nothing) and their
normal-map pixels whose 3 x 3 columns match. Only the cubes the occluder
changed are extracted, from their live corner columns alone, decoded into
a small column store; the reference's sources are extracted by the same
slab loop, so no decoded grid is built or kept. Every mesh and map equals
the full path's bit for bit. Each cell logs at DEBUG how many columns its
reconstructions decoded, so `fofkit -v sweep` shows it for any --jobs.

Every field-sized array of a cell dies at its last reader, so a cell holds
one window field or one mesh at a time beside one step's working set. Each
field is made as a temporary argument of ReconstructionReference.extract,
which drops it once it has decoded the fresh cubes' corner columns, before
the cubes are extracted: a cell's fresh cubes fit one column store. CPython
3.11 and later hand a call's arguments over to the callee, so the field is
then freed. The column store of those columns is freed once their cubes
are extracted, before the faces are merged. Each reconstruction is scored
by EvalReference.start, which drops its mesh once sampled and its maps
once compared, and hands its Chamfer half (the kd-tree work, which runs in
scipy without the GIL) to a one-thread executor that the cell joins before
it returns. A cell starts the blend reconstruction (vgcc_blend mixes
c_prior into c_obs's own coefficients, overwrite_obs, so no second field is
made), then the naive one, making c_obs again (occlude_field is a pure
function of c_gt, the mask pair, the policy, sigma and the seed), and then
finishes both in that order, each P2S walk on the cell's own thread.
Blend goes first for memory: its extraction and render peak higher than
the naive one's, whose mesh has the hole, so only the lower peak runs
beside a Chamfer half in flight. Rows are written in METHODS order. A
failed blend fails its own row; a failed naive reconstruction, or a failure
outside both, fails the cell, as when naive ran first.
At ratio 0 the occluder mask is empty, so both fields are c_gt, both rows
are equal, and every cube is served by c_gt. A cell peaks while the
splice renders, above what the run holds: the context, the
ReconstructionReference and the EvalReference. Mixing in place also
matters to the process's peak RSS: with c_obs and a blend copy live
together, the malloc heap may have to grow by a field.

Cells are independent and run in a worker pool of the platform's default
start method. The context, with both references, is built before the pool
starts, and the pool's initializer hands it to each worker: a fork worker
inherits it, a spawn or forkserver worker unpickles it, and none builds
anything. No helper thread outlives its cell, so none is alive when a pool
forks. Rows are written through one sink in (ratio, seed, method) order
with repr float formatting, so reruns with the same config are
byte-identical under any start method.
"""

import logging
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .completion import degrade_prior, vgcc_blend
from .errors import FofkitError
from .fof import BasisConfig
from .mesh import encoding_window, fit_to_frame, mesh_to_fof
from .metrics import EvalReference
from .occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from .shapes import make_shape
from .surface import ReconstructionReference

log = logging.getLogger(__name__)

CSV_HEADER = "ratio,seed,method,cd,p2s,normal_err"
METHODS = ("naive", "blend")

# The run's context; run_sweep installs it before the pool starts, and the
# pool's initializer installs it in each worker.
_CTX = {}


def _install(ctx):
    global _CTX
    _CTX = ctx


def _run_cell(cell):
    ratio, seed = cell
    ctx = _CTX
    cfg = ctx["cfg"]
    scores, failed = {}, {}
    try:
        reference, reconstruction = _reference(ctx)
        decoded = reconstruction.decoded_columns
        # The body is the ground truth's front-map foreground, which is
        # render_silhouette(gt, frame): one coverage pass of the same mesh.
        pair = synthesize_occlusion(reference.front.mask,
                                    OccluderSpec(cfg.occluder_kind, seed, ratio))

        def observed():
            return occlude_field(ctx["c_gt"], pair, cfg.occlusion_policy,
                                 sigma=cfg.noise_sigma, seed=seed)

        def blended():
            return vgcc_blend(observed(), ctx["c_prior"], pair, cfg.feather_px,
                              overwrite_obs=True)

        with ThreadPoolExecutor(1) as helper:
            pending = {}
            for method, make in (("blend", blended), ("naive", observed)):
                try:
                    # The field is a temporary that extract frees once it
                    # has decoded it, and the reconstruction one that start
                    # frees part by part before the Chamfer half starts.
                    pending[method] = reference.start(
                        reconstruction.render(reconstruction.extract(make())), helper.submit)
                except FofkitError as exc:
                    failed[method] = exc
            for method in list(pending):
                try:
                    report = pending.pop(method)()
                    scores[method] = (report.cd, report.p2s, report.normal_err)
                except FofkitError as exc:
                    failed[method] = exc
        if not failed:
            log.debug("cell ratio=%s seed=%s: decoded %d columns", ratio, seed,
                      reconstruction.decoded_columns - decoded)
    except FofkitError as exc:
        failed["naive"] = exc
    # A failed blend fails its own row; a failed naive reconstruction, or a
    # failure outside both, fails the cell.
    if failed:
        log.error("cell ratio=%s seed=%s failed: %s", ratio, seed,
                  failed.get("naive", failed.get("blend")))
    if "naive" in failed:
        scores.clear()
    nan = (float("nan"),) * 3
    return [(ratio, seed, method) + scores.get(method, nan) for method in METHODS]


def _reference(ctx):
    """The context's ground-truth EvalReference and its
    ReconstructionReference over c_gt and c_prior, built on first use, so
    that a context made by prepare_context alone also runs cells. The
    ReconstructionReference is built first, so that its build's column
    stores are not live beside the EvalReference."""
    if "reference" not in ctx:
        cfg = ctx["cfg"]
        ctx["reconstruction"] = ReconstructionReference(
            (ctx["c_gt"], ctx["c_prior"]), ctx["frame"], cfg.grid_res, cfg.iso)
        ctx["reference"] = EvalReference(ctx["gt"], ctx["frame"], cfg.eval_samples,
                                         cfg.eval_seed)
    return ctx["reference"], ctx["reconstruction"]


def prepare_context(cfg):
    """Build the shared ground-truth artifacts of one sweep run; the cells
    read their settings from ``cfg``, which the context holds. c_gt and
    c_prior are encoded on the meshes' encoding_window, found before either
    ray cast, so each field is sized before its cast and fails fast."""
    frame = cfg.frame()
    basis = BasisConfig(cfg.order)
    gt = fit_to_frame(make_shape(cfg.sweep_shape), frame)
    prior = degrade_prior(gt, cfg.prior_iterations, cfg.prior_strength)
    window = encoding_window((gt, prior), frame)
    return {
        "cfg": cfg,
        "frame": frame,
        "gt": gt,
        "c_gt": mesh_to_fof(gt, frame, basis, window),
        "c_prior": mesh_to_fof(prior, frame, basis, window),
    }


def run_sweep(cfg, out_dir, jobs=None):
    """Execute the sweep; writes curves.csv, curves.svg and config.ini.

    Returns the list of result rows in deterministic order. ``cfg`` was
    checked when it was built, so no output is written for a bad config;
    out_dir is created only once every cell has run, so a run that raises
    (out of memory, say) leaves none behind.
    """
    if jobs is None:
        jobs = cfg.jobs
    if jobs <= 0:
        jobs = os.cpu_count() or 1

    _install(prepare_context(cfg))
    _reference(_CTX)  # once per run, before the cells and the pool
    cells = [(float(r), int(s)) for r in cfg.sweep_ratios for s in cfg.sweep_seeds]
    if jobs == 1 or len(cells) == 1:
        results = [_run_cell(c) for c in cells]
    else:
        with multiprocessing.Pool(min(jobs, len(cells)), initializer=_install,
                                  initargs=(_CTX,)) as pool:
            results = pool.map(_run_cell, cells)
    rows = sorted(r for group in results for r in group)

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "curves.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for ratio, seed, method, cd, p2s_val, nerr in rows:
            fh.write(f"{ratio!r},{seed},{method},{cd!r},{p2s_val!r},{nerr!r}\n")

    svg_path = os.path.join(out_dir, "curves.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_sweep_svg(rows))

    with open(os.path.join(out_dir, "config.ini"), "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_text())
    return rows


def mean_by_ratio(rows, method):
    """Mean Chamfer distance per ratio for one method; skips nan cells."""
    acc = {}
    for ratio, _, row_method, cd, *_ in rows:
        if row_method != method or not np.isfinite(cd):
            continue
        acc.setdefault(ratio, []).append(cd)
    return {ratio: float(np.mean(vals)) for ratio, vals in sorted(acc.items())}


_PALETTE = {"naive": "#d62728", "blend": "#1f77b4"}


def render_sweep_svg(rows):
    """Hand-emitted SVG line chart: occlusion ratio vs mean Chamfer distance."""
    width, height = 800, 500
    margin_l, margin_r, margin_t, margin_b = 70, 30, 40, 60
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    curves = {m: mean_by_ratio(rows, m) for m in METHODS}
    xs = sorted({x for c in curves.values() for x in c})
    ys = [y for c in curves.values() for y in c.values()]
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = 0.0, max(ys) * 1.1 if max(ys) > 0 else 1.0

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<text x="{margin_l + plot_w / 2:.6g}" y="{height - 15}" text-anchor="middle" '
        f'font-size="16">occlusion ratio</text>',
        f'<text x="18" y="{margin_t + plot_h / 2:.6g}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 18 {margin_t + plot_h / 2:.6g})">Chamfer distance (centi-units)</text>',
    ]
    for x in xs:
        parts.append(f'<line x1="{sx(x):.6g}" y1="{margin_t + plot_h}" x2="{sx(x):.6g}" '
                     f'y2="{margin_t + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(x):.6g}" y="{margin_t + plot_h + 22}" text-anchor="middle" '
                     f'font-size="13">{x:.6g}</text>')
    for i in range(6):
        y = y_lo + (y_hi - y_lo) * i / 5
        parts.append(f'<line x1="{margin_l - 5}" y1="{sy(y):.6g}" x2="{margin_l}" '
                     f'y2="{sy(y):.6g}" stroke="black"/>')
        parts.append(f'<text x="{margin_l - 10}" y="{sy(y) + 5:.6g}" text-anchor="end" '
                     f'font-size="13">{y:.4g}</text>')
    for m in METHODS:
        pts = " ".join(f"{sx(x):.6g},{sy(y):.6g}" for x, y in curves[m].items())
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{_PALETTE[m]}" '
                         f'stroke-width="2.5"/>')
    for i, m in enumerate(METHODS):
        y = margin_t + 10 + 22 * i
        x = margin_l + plot_w - 150
        parts.append(f'<line x1="{x}" y1="{y}" x2="{x + 30}" y2="{y}" '
                     f'stroke="{_PALETTE[m]}" stroke-width="2.5"/>')
        parts.append(f'<text x="{x + 38}" y="{y + 5}" font-size="14">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
