"""Embedded oracle suite: independent re-derivations of the core results.

Each check validates an optimized path against a slower, obviously-correct
oracle: trapezoid quadrature for the closed-form encoding, exhaustive search
for the kd-tree and the BVH, the CRC for the tensor container, extraction
from the full-frame grid for the cropped reconstruction, full extraction and
rendering for the spliced one, single-ray casting for the encoding on a
window of the frame, and the scalar xoshiro256** stream for the uniforms
drawn in lanes.

Each oracle property has one driver loop here. `fofkit selftest` runs the
checks with their default counts and seeds; the acceptance criteria and the
unit tests call the same checks with their own.
"""

import os
import tempfile

import numpy as np

from .fof import BasisConfig, IntervalList, basis_eval, decode_grid, decode_ray, \
    FourierField, intervals_to_coeffs, parseval_energy
from .mesh import encoding_window, mesh_to_fof, ray_intervals
from .metrics import chamfer, chamfer_bruteforce, SurfaceDistanceIndex, p2s_exhaustive
from .raster import OrthoFrame
from .shapes import make_sphere, make_torus
from .render import BACK, FRONT, render_normals
from .rng import _LANES, Xoshiro256StarStar
from .surface import (OccupancyGrid, ReconstructionReference, field_to_grid, marching_cubes,
                      reconstruct_field, sample_surface)
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
    """Orders 1, 5 and 15 against the prefix of one order-15 quadrature."""
    rng = np.random.default_rng(seed)
    z = quadrature_grid()
    configs = [BasisConfig(n) for n in (1, 5, 15)]
    worst = 0.0
    for _ in range(n_lists):
        idx = random_snapped_intervals(rng, z)
        iv = IntervalList(z[idx])
        quad = coeffs_by_quadrature(idx, configs[-1], z)
        for cfg in configs:
            exact = intervals_to_coeffs(iv, cfg)
            worst = max(worst, float(np.max(np.abs(exact - quad[:cfg.channels]))))
    return _check("closed-form encoding vs trapezoid quadrature", worst <= 1e-6,
                  f"worst coefficient error {worst:.2e} over {n_lists} lists, "
                  "N in (1, 5, 15) (bound 1e-6)")


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


def same_reconstruction(reference, field):
    """True when reference.reconstruct(field) gives the mesh that
    marching_cubes extracts from field_to_grid's grid and the front and back
    maps, data and mask, that render_normals draws of it, bit for bit."""
    got = reference.reconstruct(field)
    mesh = marching_cubes(field_to_grid(field, reference.frame, reference.grid_res),
                          reference.iso)
    want = (mesh,) + render_normals(mesh, reference.frame, (FRONT, BACK))

    def same(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
            a.view(np.int64) if a.dtype == np.float64 else a,
            b.view(np.int64) if b.dtype == np.float64 else b)

    return (same(got[0].vertices, want[0].vertices) and same(got[0].faces, want[0].faces)
            and all(same(g.data, w.data) and same(g.mask, w.mask)
                    for g, w in zip(got[1:], want[1:])))


def painted_fields(n_fields, seed):
    """The frame, grid depth, source fields and painted fields, as data
    arrays, of check_spliced_reconstruction(n_fields, seed)."""
    rng = np.random.default_rng(seed)
    H, W, K, depth = 11, 13, 7, 9
    frame = OrthoFrame(W, H)

    def random_columns(n):
        data = rng.normal(size=(n, K)) * 0.4
        data[:, 0] += 0.5
        return data

    sources = []
    for rows, cols in ((slice(0, 7), slice(0, 9)), (slice(1, 9), slice(2, 13))):
        data = np.zeros((H, W, K))
        data[rows, cols] = random_columns(H * W).reshape(H, W, K)[rows, cols]
        data[rng.random(data.shape) < 0.3] = 0.0
        sources.append(data)
    a, b = sources
    body = np.any(a != 0.0, axis=2) | np.any(b != 0.0, axis=2)
    noise = np.zeros((H, W, K))
    noise[body] = random_columns(int(body.sum()))
    painters = (a, b, np.zeros((H, W, K)), np.where(a == 0.0, -0.0, a),
                np.where(b == 0.0, -0.0, b), noise)
    fields = []
    for i in range(n_fields):
        data = painters[rng.integers(len(painters))].copy()
        for size in [3] * int(rng.integers(0, 4)) + [1] * int(rng.integers(0, 5)):
            r0, c0 = rng.integers(0, H - size + 1), rng.integers(0, W - size + 1)
            data[r0:r0 + size, c0:c0 + size] = \
                painters[rng.integers(len(painters))][r0:r0 + size, c0:c0 + size]
        if i % 5 == 4:
            data[H - 1, rng.integers(W)] = random_columns(1)[0]
        fields.append(data)
    return frame, depth, sources, fields


def spliced_columns(data, sources):
    """How many columns ReconstructionReference(sources).reconstruct(data)
    decodes when data does not fall back, data and sources being (H, W, K)
    arrays: the live corner pixels of the cubes, 2 x 2 blocks of pixels,
    whose four pixels match no one source, the all-zero field included,
    with ==."""
    live = np.any(data != 0.0, axis=2)
    served = np.zeros((live.shape[0] - 1, live.shape[1] - 1), dtype=bool)
    for m in [np.all(data == s, axis=2) for s in sources] + [~live]:
        served |= m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    corner = np.zeros(live.shape, dtype=bool)
    for dr in range(2):
        for dc in range(2):
            corner[dr:dr + served.shape[0], dc:dc + served.shape[1]] |= ~served
    return int(np.count_nonzero(corner & live))


def check_spliced_reconstruction(n_fields=30, seed=8):
    """ReconstructionReference against field_to_grid, marching_cubes and
    render_normals.

    Two random source fields A and B, with some zero coefficients, live on
    boxes that touch the frame's top, left and right edges. Each field is
    painted from A, B, zero, copies of A or B with their zeros negated, and
    random columns on the sources' columns: a base, a few 3 x 3 patches and
    a few single columns. Every fifth field also has a live column on the
    bottom row, beyond the reference's box, and so falls back. Every field
    must reconstruct bit for bit, decoding exactly spliced_columns(field,
    sources) columns, or all live columns in a fallback.
    """
    frame, depth, sources, fields = painted_fields(n_fields, seed)
    references = [ReconstructionReference(sources, frame, depth, iso) for iso in (0.5, -0.1)]
    ok = True
    for data in fields:
        live = np.any(data != 0.0, axis=2)
        # The rows of the sources reach row 8, so the box holds rows up to 9,
        # and a field falls back when a live column lies below row 8.
        fallback = live[9:].any()
        decoded = live.sum() if fallback else spliced_columns(data, sources)
        for reference in references:
            before = reference.decoded_columns
            ok &= same_reconstruction(reference, FourierField(data))
            ok &= reference.decoded_columns - before == decoded
    return _check("spliced reconstruction equals full extraction and rendering", ok,
                  f"bitwise mesh and maps, and the exact decode count, over {n_fields} painted "
                  f"{frame.height}x{frame.width} fields at iso 0.5 and -0.1")


def check_window_encoding(order=3):
    """mesh_to_fof on encoding_window's window against single-ray casting.

    Spheres inside a 20 x 16 frame and past its corners are encoded on
    their windows. Every pixel of the window must hold the coefficients of
    its own ray, ray_intervals then intervals_to_coeffs, bit for bit; every
    pixel off the window must cast no interval; and the window must hold
    each live pixel's 3 x 3 neighbourhood on the frame, as the sweep's
    reconstruction box needs.
    """
    frame = OrthoFrame(20, 16, (0.05, -0.02, 0.0), 1.0)
    cfg = BasisConfig(order)
    ok = True
    clamped = 0
    for offset in ((0.0, 0.0, 0.0), (0.8, 0.75, 0.1), (-0.85, -0.7, 0.0)):
        mesh = make_sphere(0.45, 1).translated(offset)
        window = encoding_window((mesh,), frame)
        field = mesh_to_fof(mesh, frame, cfg, window)
        rows, cols = window
        clamped += rows.start == 0 or cols.start == 0 or rows.stop == frame.height \
            or cols.stop == frame.width
        held = np.zeros((frame.height, frame.width), dtype=bool)
        held[window] = True
        live = np.zeros_like(held)
        for r in range(frame.height):
            for c in range(frame.width):
                want = intervals_to_coeffs(ray_intervals(mesh, frame, (r, c)), cfg)
                live[r, c] = want.any()
                if held[r, c]:
                    got = field.data[r - rows.start, c - cols.start]
                    ok &= np.array_equal(got.view(np.int64), want.view(np.int64))
        near = np.pad(live, 1)
        near = np.any([near[dr:dr + frame.height, dc:dc + frame.width]
                       for dr in range(3) for dc in range(3)], axis=0)
        ok &= field.window == window and live.any() and not np.any(near & ~held)
    return _check("window encoding equals single-ray casting", ok and clamped >= 2,
                  f"bitwise on 3 windows of a {frame.height}x{frame.width} frame, "
                  f"{clamped} clamped at its edges, each holding its live pixels' neighbours")


def check_kdtree_vs_bruteforce(n_clouds=20, seed=3):
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_clouds):
        a = rng.normal(size=(int(rng.integers(1, 501)), 3))
        b = rng.normal(size=(int(rng.integers(1, 501)), 3))
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
    sphere, torus = make_sphere(0.6, 2), make_torus()
    meshes = [(sphere, SurfaceDistanceIndex(sphere))] * n_instances
    ok = True
    for i, (mesh, index) in enumerate(meshes + [(torus, SurfaceDistanceIndex(torus))]):
        # Points 0.2-0.6 units inside or outside the surface, where the
        # slab bounds prune, join the scattered ones.
        shell, normals = sample_surface(mesh, 25, seed=seed + i)
        off = rng.uniform(0.2, 0.6, size=(25, 1)) * rng.choice([-1.0, 1.0], size=(25, 1))
        pts = np.concatenate([rng.normal(size=(50, 3)) * 0.5, shell + off * normals])
        want = p2s_exhaustive(pts, mesh)
        # Adversarial seeds: each point starts from the face whose centroid
        # is farthest from it.
        gap = ((pts[:, None, :] - mesh.vertices[mesh.faces].mean(axis=1)[None]) ** 2).sum(axis=2)
        ok &= np.array_equal(index.query(pts), want)
        ok &= np.array_equal(index.query(pts, np.argmax(gap, axis=1)), want)
    return _check("BVH point-to-surface equals exhaustive scan", ok,
                  f"exact equality over {n_instances} sphere instances and a torus, "
                  "scattered and off-surface points, nearest- and farthest-centroid seeds")


def check_tensor_roundtrip(seed=6, shape=(4, 5, 3)):
    """float64 data reads back as its float32 cast; a flipped payload bit
    fails the CRC."""
    arr = np.random.default_rng(seed).normal(size=shape)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.oaht")
        write_tensor(path, arr)
        dims, back = read_tensor(path)
        ok = dims == shape and np.array_equal(back, arr.astype(np.float32))
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[8 + 8 * len(shape) + 8] ^= 0x40  # the header is 8 + 8 * ndim bytes
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            read_tensor(path)
            rejected = False
        except CrcMismatchError:
            rejected = True
    return _check("tensor container round trip and CRC rejection", ok and rejected,
                  f"byte-exact {shape} payload, corrupt bit rejected")


def check_uniform_lanes(seed=9):
    """uniforms(n) equals n scalar random() draws bit for bit, and leaves the
    generator in the same state, for sizes on and next to lane boundaries."""
    sizes = (0, 1, 2, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES - 1, 2 * _LANES,
             2 * _LANES + 1, 7 * _LANES + 3, 30000)
    ok = True
    for stream, n in enumerate(sizes):
        drawn, scalar = Xoshiro256StarStar(seed, stream), Xoshiro256StarStar(seed, stream)
        got = drawn.uniforms(n)
        want = np.array([scalar.random() for _ in range(n)], dtype=np.float64)
        ok &= np.array_equal(got.view(np.uint64), want.view(np.uint64)) and drawn._s == scalar._s
    return _check("uniforms in lanes vs the scalar stream", ok,
                  f"{len(sizes)} sizes up to {max(sizes)} draws, and the state after")


ALL_CHECKS = (
    check_closed_form_vs_quadrature,
    check_bessel_bound,
    check_decode_consistency,
    check_cropped_reconstruction,
    check_spliced_reconstruction,
    check_window_encoding,
    check_kdtree_vs_bruteforce,
    check_bvh_vs_exhaustive,
    check_tensor_roundtrip,
    check_uniform_lanes,
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
