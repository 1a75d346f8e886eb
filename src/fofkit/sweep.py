"""Occlusion-ratio sweep: encode, occlude, complete, reconstruct, evaluate.

For each (ratio, seed) cell the ground-truth field is corrupted on the
synthesized occlusion mask and reconstructed twice: once from the corrupted
field alone (method "naive") and once after visibility-guided blending with
the degraded-prior field (method "blend"). Every cell row carries Chamfer,
point-to-surface and normal-map error against the ground truth.

The ground-truth half of every evaluation (samples, kd-tree, distance index,
normal maps) is the same in every cell, so run_sweep builds one
metrics.EvalReference per run, before any cell starts, and the cells score
their reconstructions against it.

Cells are independent and run in a fork-based worker pool; rows are written
through one sink in (ratio, seed, method) order with repr float formatting,
so reruns with the same config are byte-identical.
"""

import logging
import multiprocessing
import os

import numpy as np

from .completion import degrade_prior, vgcc_blend
from .errors import FofkitError
from .fof import BasisConfig
from .mesh import fit_to_frame, mesh_to_fof
from .metrics import EvalReference
from .occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from .render import render_silhouette
from .shapes import make_shape
from .surface import reconstruct_field

log = logging.getLogger(__name__)

CSV_HEADER = "ratio,seed,method,cd,p2s,normal_err"
METHODS = ("naive", "blend")

# Shared state for fork workers; populated by run_sweep before the pool starts.
_CTX = {}


def _run_cell(cell):
    ratio, seed = cell
    ctx = _CTX
    cfg = ctx["cfg"]
    rows = []
    try:
        if ratio == 0.0:
            pair = None
            c_obs = ctx["c_gt"]
        else:
            pair = synthesize_occlusion(ctx["body"], OccluderSpec(cfg.occluder_kind, seed, ratio))
            c_obs = occlude_field(ctx["c_gt"], pair, cfg.occlusion_policy,
                                  sigma=cfg.noise_sigma, seed=seed)
        for method in METHODS:
            if method == "blend" and pair is None:
                # No occluder: the blend field is c_obs itself, so the blend
                # row is the naive one.
                rows.append((ratio, seed, method) + rows[0][3:])
                continue
            field = c_obs
            if method == "blend":
                field = vgcc_blend(c_obs, ctx["c_prior"], pair, cfg.feather_px)
            recon = reconstruct_field(field, ctx["frame"], cfg.grid_res, iso=cfg.iso)
            rep = _reference(ctx).evaluate(recon)
            rows.append((ratio, seed, method, rep.cd, rep.p2s, rep.normal_err))
    except FofkitError as exc:
        log.error("cell ratio=%s seed=%s failed: %s", ratio, seed, exc)
        done = {r[2] for r in rows}
        for method in METHODS:
            if method not in done:
                rows.append((ratio, seed, method, float("nan"), float("nan"), float("nan")))
    return rows


def _reference(ctx):
    """The context's ground-truth EvalReference, built on first use, so that
    a context made by prepare_context alone also runs cells."""
    if "reference" not in ctx:
        cfg = ctx["cfg"]
        ctx["reference"] = EvalReference(ctx["gt"], ctx["frame"], cfg.eval_samples,
                                         cfg.eval_seed)
    return ctx["reference"]


def prepare_context(cfg):
    """Build the shared ground-truth artifacts of one sweep run; the cells
    read their settings from ``cfg``, which the context holds."""
    frame = cfg.frame()
    basis = BasisConfig(cfg.order)
    gt = fit_to_frame(make_shape(cfg.sweep_shape), frame)
    prior = degrade_prior(gt, cfg.prior_iterations, cfg.prior_strength)
    return {
        "cfg": cfg,
        "frame": frame,
        "gt": gt,
        "c_gt": mesh_to_fof(gt, frame, basis),
        "c_prior": mesh_to_fof(prior, frame, basis),
        "body": render_silhouette(gt, frame),
    }


def run_sweep(cfg, out_dir, jobs=None):
    """Execute the sweep; writes curves.csv, curves.svg and config.ini.

    Returns the list of result rows in deterministic order. ``cfg`` was
    checked when it was built, so no output is written for a bad config.
    """
    os.makedirs(out_dir, exist_ok=True)
    if jobs is None:
        jobs = cfg.jobs
    if jobs <= 0:
        jobs = os.cpu_count() or 1

    global _CTX
    _CTX = prepare_context(cfg)
    _reference(_CTX)  # once per run, before the cells and the pool's fork
    cells = [(float(r), int(s)) for r in cfg.sweep_ratios for s in cfg.sweep_seeds]
    try:
        pool_ctx = multiprocessing.get_context("fork")  # workers inherit _CTX
    except ValueError:
        pool_ctx = None
    if jobs == 1 or len(cells) == 1 or pool_ctx is None:
        results = [_run_cell(c) for c in cells]
    else:
        with pool_ctx.Pool(min(jobs, len(cells))) as pool:
            results = pool.map(_run_cell, cells)
    rows = sorted(r for group in results for r in group)

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


def mean_by_ratio(rows, method, column=3):
    """Mean metric per ratio for one method; skips failed (nan) cells."""
    acc = {}
    for row in rows:
        if row[2] != method or not np.isfinite(row[column]):
            continue
        acc.setdefault(row[0], []).append(row[column])
    return {ratio: float(np.mean(vals)) for ratio, vals in sorted(acc.items())}


_PALETTE = {"naive": "#d62728", "blend": "#1f77b4"}


def render_sweep_svg(rows, width=800, height=500):
    """Hand-emitted SVG line chart: occlusion ratio vs mean Chamfer distance."""
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
