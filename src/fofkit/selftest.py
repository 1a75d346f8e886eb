"""Embedded oracle suite: independent re-derivations of the core results.

Each check validates an optimized path against a slower, obviously-correct
oracle: trapezoid quadrature for the closed-form encoding, exhaustive search
for the kd-tree and the BVH, central finite differences for the loss
gradients, the literal case table for the visibility weights, and
extraction from the full-frame grid for the cropped reconstruction.
"""

import os
import tempfile

import numpy as np

from .fof import BasisConfig, IntervalList, basis_eval, decode_grid, decode_ray, \
    FourierField, intervals_to_coeffs, parseval_energy
from .losses import FeaturePyramid, LevelWeights, feat_loss, geo_loss, mse_coeff_loss
from .metrics import chamfer, chamfer_bruteforce, SurfaceDistanceIndex, p2s_exhaustive
from .occlusion import MaskPair, weight_map
from .raster import OrthoFrame
from .shapes import make_sphere, make_torus
from .surface import OccupancyGrid, field_to_grid, marching_cubes, reconstruct_field
from .tensor_io import CrcMismatchError, read_tensor, write_tensor

QUAD_SAMPLES = 100_000


def quadrature_grid(samples=QUAD_SAMPLES):
    return np.linspace(-1.0, 1.0, samples)


def random_snapped_intervals(rng, z, max_intervals=4, min_gap_nodes=8):
    """Random disjoint interval list with endpoints on the quadrature grid.

    Snapping keeps the trapezoid oracle accurate to well below 1e-6: with the
    jump nodes set to 1/2, the quadrature error is O(h^2) instead of O(h).
    """
    n = len(z)
    count = rng.integers(1, max_intervals + 1)
    while True:
        idx = np.sort(rng.choice(n, size=2 * count, replace=False))
        if np.all(np.diff(idx) >= min_gap_nodes):
            break
    return idx.reshape(-1, 2)


def occupancy_on_grid(endpoint_idx, samples=QUAD_SAMPLES):
    occ = np.zeros(samples, dtype=np.float64)
    for ia, ib in endpoint_idx:
        occ[ia + 1:ib] = 1.0
        occ[ia] = occ[ib] = 0.5
    return occ


_WEIGHTED_BASIS = {}


def _weighted_basis(order, samples):
    """Trapezoid-weighted basis matrix, cached: quadrature is a single GEMV."""
    key = (order, samples)
    if key not in _WEIGHTED_BASIS:
        z = quadrature_grid(samples)
        h = z[1] - z[0]
        w = np.full(samples, h)
        w[0] = w[-1] = h / 2.0
        _WEIGHTED_BASIS[key] = basis_eval(z, BasisConfig(order)) * w[:, None]
    return _WEIGHTED_BASIS[key]


def coeffs_by_quadrature(endpoint_idx, cfg, z=None):
    """Trapezoid-rule projection of the occupancy indicator onto the basis."""
    samples = QUAD_SAMPLES if z is None else len(z)
    occ = occupancy_on_grid(endpoint_idx, samples)
    q = occ @ _weighted_basis(cfg.order, samples)
    q[0] /= 2.0  # c0 is half the plain integral
    return q


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def check_closed_form_vs_quadrature(n_lists=200, seed=0):
    rng = np.random.default_rng(seed)
    z = quadrature_grid()
    cfg = BasisConfig(15)
    worst = 0.0
    for _ in range(n_lists):
        idx = random_snapped_intervals(rng, z)
        iv = IntervalList(z[idx])
        exact = intervals_to_coeffs(iv, cfg)
        quad = coeffs_by_quadrature(idx, cfg, z)
        worst = max(worst, float(np.max(np.abs(exact - quad))))
    return _check("closed-form encoding vs trapezoid quadrature", worst <= 1e-6,
                  f"worst coefficient error {worst:.2e} over {n_lists} lists (bound 1e-6)")


def check_bessel_bound(n_lists=100, seed=1):
    rng = np.random.default_rng(seed)
    z = quadrature_grid()
    ok = True
    worst = -np.inf
    for _ in range(n_lists):
        idx = random_snapped_intervals(rng, z)
        iv = IntervalList(z[idx])
        slack = iv.total_length() - parseval_energy(intervals_to_coeffs(iv, BasisConfig(15)))
        worst = max(worst, -slack)
        ok &= slack >= -1e-12
    return _check("Bessel energy bound", ok, f"worst violation {max(worst, 0):.2e}")


def check_decode_consistency(seed=2):
    rng = np.random.default_rng(seed)
    field = FourierField(rng.normal(size=(5, 6, 31)))
    grid = decode_grid(field, 9)
    zs = np.linspace(-1, 1, 9)
    exact = all(
        grid[r, c, k] == decode_ray(field.data[r, c], zs[k])
        for r in range(5) for c in range(6) for k in range(9))
    return _check("decode_grid equals decode_ray exactly", exact, "bitwise over 270 samples")


def check_cropped_reconstruction(seed=7):
    rng = np.random.default_rng(seed)
    frame = OrthoFrame(10, 12)
    data = rng.normal(size=(12, 10, 7)) * 0.4
    data[..., 0] += 0.5
    live = np.zeros((12, 10), dtype=bool)
    live[4:8, 3:6] = True  # inside the frame
    live[9:, 7:] = True  # touching its bottom and right edges
    data[~live] = 0.0
    field = FourierField(data)
    grid = field_to_grid(field, frame, 9)
    dense = OccupancyGrid(np.transpose(decode_grid(field, 9)[::-1], (1, 0, 2)),
                          grid.origin, grid.spacing)
    exact = True
    for iso in (0.5, 0.0, -0.1):
        got, want = reconstruct_field(field, frame, 9, iso), marching_cubes(dense, iso)
        exact &= (want.n_faces > 0 and got.vertices.shape == want.vertices.shape
                  and np.array_equal(got.vertices.view(np.int64), want.vertices.view(np.int64))
                  and np.array_equal(got.faces, want.faces))
    return _check("cropped reconstruction equals dense extraction", exact,
                  "bitwise at iso 0.5, 0 and -0.1 on a 12x10 field")


def check_kdtree_vs_bruteforce(n_clouds=20, seed=3):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_clouds):
        a = rng.normal(size=(int(rng.integers(2, 500)), 3))
        b = rng.normal(size=(int(rng.integers(2, 500)), 3))
        ok &= chamfer(a, b) == chamfer_bruteforce(a, b)
    # Samples on a sphere shell against shell points mixed with points well
    # inside it, as an occluded reconstruction scored against its ground
    # truth produces them.
    shell = rng.normal(size=(1500, 3))
    shell *= 0.6 / np.linalg.norm(shell, axis=1, keepdims=True)
    inner = shell[:400] * rng.uniform(0.1, 0.7, size=(400, 1))
    a = np.concatenate([shell[400:] + rng.normal(size=(1100, 3)) * 1e-3, inner])
    ok &= chamfer(a, shell) == chamfer_bruteforce(a, shell)
    return _check("kd-tree chamfer equals exhaustive search", ok,
                  f"exact equality over {n_clouds} clouds and a sphere shell")


def check_bvh_vs_exhaustive(n_instances=20, seed=4):
    rng = np.random.default_rng(seed)
    sphere = make_sphere(0.6, 2)
    ok = True
    for mesh in [sphere] * n_instances + [make_torus()]:
        pts = rng.normal(size=(50, 3)) * 0.5
        index = SurfaceDistanceIndex(mesh)
        want = p2s_exhaustive(pts, mesh)
        # Adversarial seeds: each point starts from the face whose centroid
        # is farthest from it.
        gap = ((pts[:, None, :] - index.bvh.tri_verts.mean(axis=1)[None]) ** 2).sum(axis=2)
        ok &= np.array_equal(index.query(pts), want)
        ok &= np.array_equal(index.query(pts, np.argmax(gap, axis=1)), want)
    return _check("BVH point-to-surface equals exhaustive scan", ok,
                  f"exact equality over {n_instances} sphere instances and a torus, "
                  "with nearest-centroid and farthest-centroid seeds")


def finite_difference(fn, x, step=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def _rel_grad_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12))


def check_gradients(n_instances=10, seed=5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        c = rng.normal(size=(3, 4, 5))
        c_gt = rng.normal(size=(3, 4, 5))
        _, g = mse_coeff_loss(c, c_gt)
        worst = max(worst, _rel_grad_err(g, finite_difference(
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
            worst = max(worst, _rel_grad_err(gs[k], finite_difference(fn, f.levels[k])))

        lam = float(rng.random() + 0.5)
        _, g_mse, _ = geo_loss(c, c_gt, f, f_sup, w, om, lam)
        worst = max(worst, _rel_grad_err(g_mse, finite_difference(
            lambda x: geo_loss(x, c_gt, f, f_sup, w, om, lam)[0], c)))
    return _check("analytic gradients vs central finite differences", worst <= 1e-4,
                  f"worst relative error {worst:.2e} (bound 1e-4)")


def check_weight_truth_table():
    bits = [(v, m, b) for v in (0, 1) for m in (0, 1) for b in (0, 1)]
    V = np.array([[v for v, _, _ in bits]], dtype=bool)
    M = np.array([[m for _, m, _ in bits]], dtype=bool)
    body = np.array([[b for _, _, b in bits]], dtype=bool)
    omega = weight_map(MaskPair(V, M, body), 2.0, 1.0)
    expected = np.array([[2.0 if m else (1.0 if v else 0.0) for v, m, _ in bits]])
    ok = np.array_equal(omega, expected)
    return _check("visibility weight case table", ok, "exhaustive 8 bit combinations")


def check_tensor_roundtrip():
    rng = np.random.default_rng(6)
    arr = rng.normal(size=(4, 5, 3)).astype(np.float32)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.oaht")
        write_tensor(path, arr)
        dims, back = read_tensor(path)
        ok = dims == (4, 5, 3) and np.array_equal(back, arr)
        blob = bytearray(open(path, "rb").read())
        blob[32 + 8] ^= 0x40  # flip a payload byte (header is 32 bytes for ndim=3)
        open(path, "wb").write(bytes(blob))
        try:
            read_tensor(path)
            rejected = False
        except CrcMismatchError:
            rejected = True
    return _check("tensor container round trip and CRC rejection", ok and rejected,
                  "byte-exact payload, corrupt byte rejected")


ALL_CHECKS = (
    check_closed_form_vs_quadrature,
    check_bessel_bound,
    check_decode_consistency,
    check_cropped_reconstruction,
    check_kdtree_vs_bruteforce,
    check_bvh_vs_exhaustive,
    check_gradients,
    check_weight_truth_table,
    check_tensor_roundtrip,
)


def run_selftest(out=print):
    """Run every embedded check; returns True iff all pass."""
    all_ok = True
    for fn in ALL_CHECKS:
        result = fn()
        status = "PASS" if result["ok"] else "FAIL"
        out(f"[{status}] {result['name']}: {result['detail']}")
        all_ok &= result["ok"]
    return all_ok
