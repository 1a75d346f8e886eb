"""Command-line pipeline driver.

Subcommands:

    shapes          generate a procedural watertight ground-truth mesh
    encode          mesh -> Fourier occupancy field (.oaht + .meta sidecar)
    reconstruct     field -> iso-surface mesh
    occlude         corrupt a field under a synthesized occlusion mask
    blend           visibility-guided completion from a prior field
    render-normals  front/back normal maps of a mesh (PFM)
    eval            geometry metrics of a reconstruction vs ground truth
    sweep           full occlusion-ratio experiment (CSV + SVG + config echo)
    selftest        embedded oracle suite

Exit codes: 0 success, 2 configuration error, 3 data error or a sweep with
failed cells, 4 selftest invariant failure. OAHUMAN_SEED provides the seed
when --seed is omitted.
"""

import argparse
import inspect
import logging
import os
import sys

import numpy as np

from . import __version__
from .completion import vgcc_blend
from .config import SETTINGS, HarnessConfig, default_seed, parse_checked
from .errors import ConfigError, DomainError, FofkitError
from .fof import BasisConfig, FourierField, _check_frame
from .mesh import _require_watertight, load_obj, mesh_to_fof, normalize_mesh, save_obj
from .metrics import evaluate_pair, MetricReport
from .occlusion import OCCLUDER_KINDS, OCCLUSION_POLICIES, RATIO, MaskPair, OccluderSpec, \
    occlude_field, synthesize_occlusion
from .raster import OrthoFrame
from .render import render_normals, render_silhouette
from .rng import SEED
from .selftest import run_selftest
from .shapes import SHAPE_MAKERS, make_shape
from .surface import reconstruct_field
from .sweep import METHODS, run_sweep
from .tensor_io import read_pgm, read_tensor, write_pfm, write_pgm, write_png16, \
    write_tensor

log = logging.getLogger("fofkit")


_SETTING = {f"{sec}.{key}": (text, parse, check) for sec, key, text, parse, check, _ in SETTINGS}


def _checked_type(name, parse, check):
    """An argparse type that parses and range-checks like a SETTINGS row, so
    a bad flag value is a usage error (exit 2) before any work."""
    def convert(raw):
        try:
            return parse_checked(name, raw, parse, check)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_setting(p, flag, setting, **kwargs):
    """A flag that parses, checks and defaults like the harness setting it
    stands for; argparse passes the default text through the parser too."""
    text, parse, check = _SETTING[setting]
    p.add_argument(flag, type=_checked_type(setting, parse, check), default=text, **kwargs)


def _add_frame_args(p):
    _add_setting(p, "--width", "frame.width")
    _add_setting(p, "--height", "frame.height")
    _add_setting(p, "--center", "frame.center", help="frame center as x,y,z")
    _add_setting(p, "--half-extent", "frame.half_extent")


def _frame_from_args(args):
    return OrthoFrame(args.width, args.height, args.center, args.half_extent)


def _seed_or_env(value):
    return default_seed() if value is None else value


def _write_field(path, field, frame, order):
    write_tensor(path, field.data, dims=field.data.shape)
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"width = {frame.width}\nheight = {frame.height}\n")
        cx, cy, cz = frame.center
        fh.write(f"center = {cx!r},{cy!r},{cz!r}\n")
        fh.write(f"half_extent = {frame.half_extent!r}\n")
        fh.write(f"order = {order}\n")


def _read_field(path):
    dims, data = read_tensor(path)
    if len(dims) != 3:
        raise DomainError(f"{path}: expected a (H, W, K) field tensor, got dims {dims}")
    field = FourierField(data)
    meta_path = path + ".meta"
    frame = None
    if os.path.exists(meta_path):
        meta = {}
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if "=" in line:
                        key, value = line.split("=", 1)
                        meta[key.strip()] = value.strip()
            frame = OrthoFrame(int(meta["width"]), int(meta["height"]),
                               tuple(float(t) for t in meta["center"].split(",")),
                               float(meta["half_extent"]))
            _check_frame(field, frame)
        except (KeyError, ValueError) as exc:  # UnicodeDecodeError and ShapeError too
            raise ConfigError(f"{meta_path}: bad field metadata: {exc}") from exc
    if frame is None:
        frame = OrthoFrame(field.width, field.height)
    return field, frame


def cmd_shapes(args):
    # Each flag's dest is the name of the maker parameter it sets.
    params = inspect.signature(SHAPE_MAKERS[args.kind]).parameters
    try:
        mesh = make_shape(args.kind, **{k: v for k, v in vars(args).items() if k in params})
    except DomainError as exc:
        raise ConfigError(f"invalid shape: {exc}") from exc
    if mesh.n_faces == 0:
        raise FofkitError("generated mesh has no faces")
    _require_watertight(mesh)
    save_obj(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_faces} faces")


def cmd_encode(args):
    mesh = load_obj(args.mesh)
    if args.normalize:
        mesh, _, _ = normalize_mesh(mesh)
    frame = _frame_from_args(args)
    field = mesh_to_fof(mesh, frame, BasisConfig(args.order))
    _write_field(args.out, field, frame, args.order)
    print(f"wrote {args.out}: {field.height}x{field.width}x{field.channels}")


def cmd_reconstruct(args):
    field, frame = _read_field(args.field)
    mesh = reconstruct_field(field, frame, args.grid_res, iso=args.iso)
    save_obj(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_faces} faces")


def cmd_occlude(args):
    field, frame = _read_field(args.field)
    body = read_pgm(args.body)
    seed = _seed_or_env(args.seed)
    pair = synthesize_occlusion(body, OccluderSpec(args.kind, seed, args.ratio))
    out = occlude_field(field, pair, args.policy, sigma=args.sigma, seed=seed)
    _write_field(args.out, out, frame, field.order)
    write_pgm(args.out_visible, pair.V)
    write_pgm(args.out_mask, pair.M)
    achieved = pair.M.sum() / max(pair.body.sum(), 1)
    print(f"wrote {args.out} (+V/M masks); achieved ratio {achieved:.4f}")


def cmd_blend(args):
    obs, frame = _read_field(args.observed)
    prior, _ = _read_field(args.prior)
    v = read_pgm(args.visible)
    m = read_pgm(args.mask)
    pair = MaskPair(v, m, v | m)
    out = vgcc_blend(obs, prior, pair, args.feather)
    _write_field(args.out, out, frame, obs.order)
    print(f"wrote {args.out}")


def cmd_render_normals(args):
    mesh = load_obj(args.mesh)
    frame = _frame_from_args(args)
    front, back = render_normals(mesh, frame, ("front", "back"))
    write_pfm(args.out_front, front.data)
    write_pfm(args.out_back, back.data)
    if args.out_mask:
        write_pgm(args.out_mask, front.mask)
    if args.png16:
        write_png16(args.out_front + ".png", front.data)
        write_png16(args.out_back + ".png", back.data)
    print(f"wrote {args.out_front}, {args.out_back}")


def cmd_eval(args):
    recon = load_obj(args.recon)
    gt = load_obj(args.gt)
    frame = _frame_from_args(args)
    report = evaluate_pair(recon, gt, frame, args.samples, _seed_or_env(args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(MetricReport.csv_header() + "\n")
        fh.write(report.csv_row() + "\n")
    with open(args.out + ".txt", "w", encoding="utf-8") as fh:
        fh.write(report.sidecar_text())
    print(f"CD {report.cd:.4f}  P2S {report.p2s:.4f}  normal {report.normal_err:.4f} "
          f"(centi-units; wrote {args.out})")


def cmd_silhouette(args):
    mesh = load_obj(args.mesh)
    frame = _frame_from_args(args)
    write_pgm(args.out, render_silhouette(mesh, frame))
    print(f"wrote {args.out}")


def cmd_sweep(args):
    cfg = HarnessConfig.load(args.config, args.set or ())
    rows = run_sweep(cfg, args.out, jobs=args.jobs)
    n_bad = len({r[:2] for r in rows if not np.isfinite(r[3:]).all()})
    print(f"wrote {args.out}/curves.csv ({len(rows)} rows, {n_bad} failed cells), "
          f"curves.svg, config.ini")
    if n_bad:
        print(f"error: {n_bad} of {len(rows) // len(METHODS)} sweep cells failed",
              file=sys.stderr)
        return 3


def cmd_selftest(args):
    ok = run_selftest()
    if not ok:
        return 4
    print("all selftest checks passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fofkit",
        description="Fourier occupancy field pipeline and occlusion experiment harness")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="generate a procedural mesh")
    p.add_argument("kind", choices=tuple(SHAPE_MAKERS))
    p.add_argument("out")
    # Each flag takes the default, and its type, of the maker parameter it sets.
    defaults = {name: param.default for maker in SHAPE_MAKERS.values()
                for name, param in inspect.signature(maker).parameters.items()}
    for name in ("radius", "subdivisions", "major_radius", "minor_radius", "grid_res", "size"):
        p.add_argument("--" + name.replace("_", "-"), type=type(defaults[name]),
                       default=defaults[name])
    p.set_defaults(func=cmd_shapes)

    p = sub.add_parser("encode", help="encode a mesh into a Fourier field")
    p.add_argument("mesh")
    p.add_argument("out")
    _add_frame_args(p)
    _add_setting(p, "--order", "encode.order")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the mesh to a 0.9 half-extent bounding box first")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="extract the 0.5 iso-surface of a field")
    p.add_argument("field")
    p.add_argument("out")
    _add_setting(p, "--grid-res", "extract.grid_res")
    _add_setting(p, "--iso", "extract.iso")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("occlude", help="corrupt a field under a synthetic occluder")
    p.add_argument("field")
    p.add_argument("body", help="body silhouette PGM")
    p.add_argument("out")
    p.add_argument("--ratio", type=_checked_type("ratio", float, RATIO), required=True)
    p.add_argument("--seed", type=_checked_type("seed", int, SEED), default=None)
    _add_setting(p, "--kind", "occlude.kind", choices=OCCLUDER_KINDS)
    _add_setting(p, "--policy", "occlude.policy", choices=OCCLUSION_POLICIES)
    _add_setting(p, "--sigma", "occlude.sigma")
    p.add_argument("--out-visible", default=None)
    p.add_argument("--out-mask", default=None)
    p.set_defaults(func=cmd_occlude)

    p = sub.add_parser("blend", help="visibility-guided completion from a prior field")
    p.add_argument("observed")
    p.add_argument("prior")
    p.add_argument("visible", help="V mask PGM")
    p.add_argument("mask", help="M mask PGM")
    p.add_argument("out")
    _add_setting(p, "--feather", "occlude.feather_px")
    p.set_defaults(func=cmd_blend)

    p = sub.add_parser("render-normals", help="front/back normal maps of a mesh")
    p.add_argument("mesh")
    p.add_argument("out_front")
    p.add_argument("out_back")
    _add_frame_args(p)
    p.add_argument("--out-mask", default=None)
    p.add_argument("--png16", action="store_true",
                   help="also write quantized 16-bit PNGs next to the PFMs")
    p.set_defaults(func=cmd_render_normals)

    p = sub.add_parser("silhouette", help="body silhouette mask of a mesh")
    p.add_argument("mesh")
    p.add_argument("out")
    _add_frame_args(p)
    p.set_defaults(func=cmd_silhouette)

    p = sub.add_parser("eval", help="geometry metrics of recon vs ground truth")
    p.add_argument("recon")
    p.add_argument("gt")
    p.add_argument("out")
    _add_frame_args(p)
    _add_setting(p, "--samples", "sweep.eval_samples")
    p.add_argument("--seed", type=_checked_type("seed", int, SEED), default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="occlusion-ratio experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the embedded oracle suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if getattr(args, "command", None) == "occlude":
        if args.out_visible is None:
            args.out_visible = args.out + ".V.pgm"
        if args.out_mask is None:
            args.out_mask = args.out + ".M.pgm"
    try:
        return args.func(args) or 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FofkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
