"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also exercised by a plain ``pytest`` run.
"""

import os
import time

import numpy as np
import pytest

import fofkit.sweep as sweep_mod
from fofkit.completion import degrade_prior
from fofkit.config import HarnessConfig
from fofkit.fof import BasisConfig, IntervalList, intervals_to_coeffs
from fofkit.mesh import TriMesh, check_watertight, mesh_to_fof
from fofkit.metrics import (SurfaceDistanceIndex, chamfer, chamfer_bruteforce,
                            p2s_exhaustive, psnr, ssim)
from fofkit.occlusion import MaskPair, OccluderSpec, synthesize_occlusion, weight_map
from fofkit.raster import OrthoFrame
from fofkit.render import normal_map_error, render_normals, render_silhouette
from fofkit.selftest import (coeffs_by_quadrature, finite_difference, quadrature_grid,
                             random_snapped_intervals)
from fofkit.shapes import make_sphere
from fofkit.surface import marching_cubes, mesh_volume, reconstruct_field, \
    sample_surface, OccupancyGrid
from fofkit.sweep import mean_by_ratio, run_sweep
from fofkit.losses import FeaturePyramid, LevelWeights, feat_loss, geo_loss, \
    mse_coeff_loss
from fofkit.tensor_io import (CrcMismatchError, read_pfm, read_pgm, read_png16,
                              read_ppm, read_tensor, write_pfm, write_pgm,
                              write_png16, write_ppm, write_tensor)

FRAME = OrthoFrame(128, 128)
SPHERE_AREA = 4.0 * np.pi * 0.6 ** 2
SPHERE_VOLUME = 4.0 / 3.0 * np.pi * 0.6 ** 3


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def shapes(sphere_mesh, torus_mesh, capsule_mesh):
    """The session's sphere (r 0.6, 4 subdivisions), torus and capsule figure."""
    return {"sphere": sphere_mesh, "torus": torus_mesh, "capsule_figure": capsule_mesh}


@pytest.fixture(scope="module")
def roundtrips(shapes):
    """Timed encode(128^2, N=15) -> decode(128) -> extract round trips."""
    out = {}
    for name, mesh in shapes.items():
        t0 = time.perf_counter()
        field = mesh_to_fof(mesh, FRAME, BasisConfig(15))
        recon = reconstruct_field(field, FRAME, 128)
        elapsed = time.perf_counter() - t0
        out[name] = {"mesh": mesh, "field": field, "recon": recon, "seconds": elapsed}
    return out


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Default-protocol sweeps (ratios .2/.4/.6/.8, five seeds) per shape."""
    results = {}
    jobs = os.cpu_count() or 1
    t0 = time.perf_counter()
    for shape in ("sphere", "capsule_figure"):
        cfg = HarnessConfig.load(overrides=[f"sweep.shape={shape}"])
        out_dir = tmp_path_factory.mktemp(f"sweep_{shape}")
        rows = run_sweep(cfg, str(out_dir), jobs=jobs)
        ctx = sweep_mod._CTX
        gt_pts, _ = sample_surface(ctx["gt"], 10_000, seed=0)
        rt_pts, _ = sample_surface(
            reconstruct_field(ctx["c_gt"], ctx["frame"], 128), 10_000, seed=0)
        prior = degrade_prior(ctx["gt"], cfg.prior_iterations, cfg.prior_strength)
        prior_pts, _ = sample_surface(prior, 10_000, seed=0)
        results[shape] = {
            "rows": rows,
            "cd_rt": chamfer(rt_pts, gt_pts),
            "cd_prior": chamfer(prior_pts, gt_pts),
            "out_dir": str(out_dir),
        }
    results["seconds"] = time.perf_counter() - t0
    return results


def test_criterion_1_closed_form_encoding():
    rng = np.random.default_rng(100)
    z = quadrature_grid()
    configs = {n: BasisConfig(n) for n in (1, 5, 15)}
    t0 = time.perf_counter()
    worst = 0.0
    bw = {}
    h = z[1] - z[0]
    w = np.full(len(z), h)
    w[0] = w[-1] = h / 2.0
    for _ in range(1000):
        idx = random_snapped_intervals(rng, z)
        iv = IntervalList(z[idx])
        quad15 = coeffs_by_quadrature(idx, configs[15], z)
        for n, cfg in configs.items():
            exact = intervals_to_coeffs(iv, cfg)
            worst = max(worst, float(np.max(np.abs(exact - quad15[:cfg.channels]))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"1000 interval lists, N in (1, 5, 15): worst coefficient error "
                  f"{worst:.2e} (bound 1e-6), runtime {elapsed:.1f}s (bound 10s)")


def test_criterion_2_round_trip(roundtrips):
    details = []
    ok = True
    for name, rt in roundtrips.items():
        a, _ = sample_surface(rt["mesh"], 10_000, seed=0)
        b, _ = sample_surface(rt["recon"], 10_000, seed=0)
        cd = chamfer(a, b)
        # vectorized single-worker pipeline; the same measurement covers the
        # 60 s single-worker and 15 s parallel bounds
        ok &= cd <= 2.0 and rt["seconds"] <= 60.0 and rt["seconds"] <= 15.0
        details.append(f"{name}: CD {cd:.3f} (bound 2.0), {rt['seconds']:.1f}s")
    report(2, ok, "; ".join(details))


def test_criterion_3_marching_cubes(roundtrips):
    sphere_recon = roundtrips["sphere"]["recon"]
    area = float(sphere_recon.face_areas().sum())
    vol, orient = mesh_volume(sphere_recon)
    area_ok = abs(area - SPHERE_AREA) / SPHERE_AREA <= 0.03
    vol_ok = abs(vol - SPHERE_VOLUME) / SPHERE_VOLUME <= 0.03
    watertight_ok = all(check_watertight(rt["recon"])[0] for rt in roundtrips.values())
    values = np.zeros((8, 8, 8))
    values[4, 4, 4] = 1.0
    voxel_mesh = marching_cubes(
        OccupancyGrid(values, origin=np.zeros(3), spacing=np.ones(3)), iso=0.5)
    watertight_ok &= check_watertight(voxel_mesh)[0]
    ok = area_ok and vol_ok and watertight_ok and orient == 1
    report(3, ok, f"sphere area {area:.4f} vs {SPHERE_AREA:.4f} (3%), volume {vol:.4f} "
                  f"vs {SPHERE_VOLUME:.4f} (3%), all round-trip meshes watertight: "
                  f"{watertight_ok}")


def test_criterion_4_weight_truth_table():
    bits = [(v, m, b) for v in (0, 1) for m in (0, 1) for b in (0, 1)]
    pair = MaskPair(np.array([[v for v, _, _ in bits]], dtype=bool),
                    np.array([[m for _, m, _ in bits]], dtype=bool),
                    np.array([[b for _, _, b in bits]], dtype=bool))
    omega = weight_map(pair, 2.0, 1.0)
    expected = np.array([[2.0 if m else (1.0 if v else 0.0) for v, m, _ in bits]])
    table_ok = np.array_equal(omega, expected)

    body = render_silhouette(make_sphere(0.6, 3), FRAME)
    rng = np.random.default_rng(4)
    leak = 0.0
    for seed in range(100):
        p = synthesize_occlusion(body, OccluderSpec("rectangle", seed,
                                                    float(rng.uniform(0.05, 0.9))))
        leak += weight_map(p, 2.0, 1.0)[~p.body].sum()
    ok = table_ok and leak == 0.0
    report(4, ok, f"exhaustive 2x2x2 case table exact: {table_ok}; background weight "
                  f"over 100 random mask pairs: {leak}")


def test_criterion_5_gradient_suite():
    rng = np.random.default_rng(5)
    worst = {"mse": 0.0, "feat": 0.0, "geo": 0.0}

    def rel(analytic, fd):
        return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12))

    for _ in range(100):
        c = rng.normal(size=(3, 4, 5))
        c_gt = rng.normal(size=(3, 4, 5))
        _, g = mse_coeff_loss(c, c_gt)
        worst["mse"] = max(worst["mse"], rel(g, finite_difference(
            lambda x: mse_coeff_loss(x, c_gt)[0], c)))

        f = FeaturePyramid([rng.normal(size=(4, 4, 2)), rng.normal(size=(2, 2, 3))])
        f_sup = FeaturePyramid([lv + rng.normal(size=lv.shape) for lv in f.levels])
        w = LevelWeights([0.5, 1.0])
        om = rng.random((4, 4))
        _, gs = feat_loss(f, f_sup, w, om)
        for k in range(2):
            def fn(x, k=k):
                levels = [lv.copy() for lv in f.levels]
                levels[k] = x
                return feat_loss(FeaturePyramid(levels), f_sup, w, om)[0]
            worst["feat"] = max(worst["feat"], rel(gs[k], finite_difference(fn, f.levels[k])))

        lam = float(rng.random() + 0.25)
        _, g_mse, _ = geo_loss(c, c_gt, f, f_sup, w, om, lam)
        worst["geo"] = max(worst["geo"], rel(g_mse, finite_difference(
            lambda x: geo_loss(x, c_gt, f, f_sup, w, om, lam)[0], c)))
    ok = all(v <= 1e-4 for v in worst.values())
    report(5, ok, "worst relative error over 100 instances each: "
                  + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " (bound 1e-4)")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(6)
    kd_exact = True
    for _ in range(100):
        a = rng.normal(size=(int(rng.integers(1, 501)), 3))
        b = rng.normal(size=(int(rng.integers(1, 501)), 3))
        kd_exact &= chamfer(a, b) == chamfer_bruteforce(a, b)

    mesh = make_sphere(0.6, 2)
    index = SurfaceDistanceIndex(mesh)
    bvh_exact = True
    for _ in range(100):
        pts = rng.normal(size=(50, 3)) * 0.7
        bvh_exact &= np.array_equal(index.query(pts), p2s_exhaustive(pts, mesh))
    ok = kd_exact and bvh_exact
    report(6, ok, f"kd-tree == brute force on 100 clouds: {kd_exact}; BVH == exhaustive "
                  f"on 100 clouds: {bvh_exact}")


def test_criterion_7_occlusion_sweep(sweeps):
    details = []
    ok = True
    for shape in ("sphere", "capsule_figure"):
        data = sweeps[shape]
        naive = mean_by_ratio(data["rows"], "naive")
        blend = mean_by_ratio(data["rows"], "blend")
        ratios = sorted(naive)
        mono = all(naive[ratios[i + 1]] >= naive[ratios[i]] * 0.95
                   for i in range(len(ratios) - 1))
        dominates = all(blend[r] <= naive[r] for r in ratios if r >= 0.4)
        bound = data["cd_prior"] + data["cd_rt"] + 2.0
        capped = blend[0.8] <= bound
        ok &= mono and dominates and capped
        details.append(
            f"{shape}: naive {['%.2f' % naive[r] for r in ratios]} non-decr(5%)={mono}, "
            f"blend<=naive@>=0.4={dominates}, blend@0.8 {blend[0.8]:.2f} <= "
            f"{bound:.2f}={capped}")
    runtime_ok = sweeps["seconds"] <= 600.0
    ok &= runtime_ok
    details.append(f"runtime {sweeps['seconds']:.0f}s (bound 600s)")
    report(7, ok, "; ".join(details))


def test_criterion_8_normal_rendering(shapes):
    quad = TriMesh(
        [[-0.5, -0.5, 0], [0.5, -0.5, 0], [0.5, 0.5, 0], [-0.5, 0.5, 0]],
        [[0, 1, 2], [0, 2, 3]])
    nm = render_normals(quad, FRAME, "front")
    quad_err = float(np.max(np.linalg.norm(nm.data[nm.mask] - [0, 0, 1], axis=1)))

    odd = OrthoFrame(129, 129)  # pixel center exactly on the axis
    center = render_normals(shapes["sphere"], odd, "front").data[64, 64]
    center_err = float(np.linalg.norm(center - [0, 0, 1]))

    gt_map = render_normals(shapes["sphere"], FRAME, "front")
    self_err = normal_map_error(gt_map, gt_map)
    errs = []
    for res in (64, 128):  # res^3 extraction = res^2 field + res depth samples
        frame = OrthoFrame(res, res)
        field = mesh_to_fof(shapes["sphere"], frame, BasisConfig(15))
        recon = reconstruct_field(field, frame, res)
        errs.append(normal_map_error(render_normals(recon, FRAME, "front"), gt_map))
    ok = quad_err <= 1e-6 and center_err <= 1e-3 and self_err == 0.0 and errs[0] > errs[1]
    report(8, ok, f"quad max |n-(0,0,1)| {quad_err:.2e} (1e-6); sphere center "
                  f"{center_err:.2e} (1e-3); self error {self_err}; 64^3 -> 128^3 error "
                  f"{errs[0]:.3f} -> {errs[1]:.3f} decreasing={errs[0] > errs[1]}")


def test_criterion_9_image_metrics():
    rng = np.random.default_rng(9)
    x = rng.random((32, 32, 3))
    ssim_id = ssim(x, x)
    psnr_id = psnr(x, x)
    offset = psnr(np.zeros((16, 16)), np.full((16, 16), 0.1))
    sym = True
    for _ in range(50):
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        sym &= ssim(a, b) == ssim(b, a)
        sym &= psnr(a, b) == psnr(b, a)
    ok = ssim_id == 1.0 and psnr_id == 99.0 and abs(offset - 20.0) <= 1e-12 and sym
    report(9, ok, f"ssim(x,x)={ssim_id}, psnr(x,x)={psnr_id}, psnr(+0.1)={offset!r} "
                  f"(20.0 at f64 rounding), symmetric over 50 pairs: {sym}")


def test_criterion_10_determinism_and_formats(tmp_path):
    rng = np.random.default_rng(10)
    ok = True
    details = []

    arr = rng.normal(size=(16, 16, 7))
    path = str(tmp_path / "t.oaht")
    write_tensor(path, arr)
    dims, back = read_tensor(path)
    tensor_ok = dims == (16, 16, 7) and np.array_equal(back, arr.astype(np.float32))
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[40] ^= 0x10
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    try:
        read_tensor(path)
        crc_ok = False
    except CrcMismatchError:
        crc_ok = True
    details.append(f"tensor exact+CRC: {tensor_ok and crc_ok}")
    ok &= tensor_ok and crc_ok

    img = rng.normal(size=(5, 4, 3)).astype(np.float32).astype(np.float64)
    write_pfm(tmp_path / "t.pfm", img)
    pfm_ok = np.array_equal(read_pfm(tmp_path / "t.pfm"), img)
    mask = rng.random((6, 6)) > 0.5
    write_pgm(tmp_path / "t.pgm", mask)
    pgm_ok = np.array_equal(read_pgm(tmp_path / "t.pgm"), mask)
    rgb = np.clip(np.rint(rng.random((4, 4, 3)) * 255) / 255, 0, 1)
    write_ppm(tmp_path / "t.ppm", rgb)
    ppm_ok = np.array_equal(read_ppm(tmp_path / "t.ppm"), rgb)
    normals = rng.normal(size=(4, 4, 3))
    normals /= np.linalg.norm(normals, axis=2, keepdims=True)
    write_png16(tmp_path / "t.png", normals)
    png_ok = float(np.max(np.abs(read_png16(tmp_path / "t.png") - normals))) <= 2.0 / 65535
    details.append(f"pfm/pgm/ppm/png16: {pfm_ok}/{pgm_ok}/{ppm_ok}/{png_ok}")
    ok &= pfm_ok and pgm_ok and ppm_ok and png_ok

    overrides = ["sweep.ratios=0.5", "sweep.seeds=0,1", "sweep.eval_samples=2000",
                 "extract.grid_res=64", "frame.width=64", "frame.height=64"]
    cfg = HarnessConfig.load(overrides=overrides)
    run_sweep(cfg, str(tmp_path / "a"), jobs=1)
    run_sweep(cfg, str(tmp_path / "b"), jobs=2)
    same = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("curves.csv", "curves.svg", "config.ini"))
    details.append(f"sweep rerun byte-identical (jobs 1 vs 2): {same}")
    ok &= same
    report(10, ok, "; ".join(details))
