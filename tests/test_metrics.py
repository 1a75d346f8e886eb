import itertools

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fofkit import metrics
from fofkit.errors import DomainError, ShapeError
from fofkit.fof import BasisConfig
from fofkit.mesh import TriMesh, mesh_to_fof
from fofkit.metrics import (QUERY_BLOCK, UNIT_SCALE, EvalReference, MetricReport,
                            SurfaceDistanceIndex, chamfer, chamfer_bruteforce, config_hash,
                            evaluate_pair, nearest_bruteforce, p2s, p2s_exhaustive,
                            point_triangle_closest, point_triangle_distance, psnr, ssim)
from fofkit.occlusion import OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.raster import OrthoFrame
from fofkit.render import normal_map_error, render_normals, render_silhouette
from fofkit.shapes import make_sphere
from fofkit.surface import _sample_points, _sample_uniforms, reconstruct_field, sample_surface


class TestChamfer:
    def test_identical_zero(self, rng):
        a = rng.normal(size=(50, 3))
        assert chamfer(a, a) == 0.0

    def test_single_points(self):
        assert chamfer([[0, 0, 0]], [[1, 0, 0]]) == 100.0

    def test_symmetric(self, rng):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(70, 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            chamfer(np.empty((0, 3)), [[0, 0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, rng, bad):
        good = rng.normal(size=(20, 3))
        worse = good.copy()
        worse[7, 1] = bad
        for a, b in ((worse, good), (good, worse), (worse, cKDTree(good))):
            with pytest.raises(DomainError, match="non-finite"):
                chamfer(a, b)
            with pytest.raises(DomainError, match="non-finite"):
                chamfer(a, b, return_index=True)

    def test_kdtree_equals_bruteforce(self, rng):
        # oracle equivalence on random clouds up to 500 points
        for _ in range(30):
            a = rng.normal(size=(int(rng.integers(1, 500)), 3))
            b = rng.normal(size=(int(rng.integers(1, 500)), 3))
            assert chamfer(a, b) == chamfer_bruteforce(a, b)

    def test_kdtree_equals_bruteforce_on_a_shell(self, rng):
        # Samples on a sphere shell against other shell points mixed with
        # points well inside it, as an occluded reconstruction produces them:
        # the case the kd-tree layout is chosen for.
        b = _unit(rng.normal(size=(2000, 3))) * 0.6
        a = np.concatenate([_unit(rng.normal(size=(900, 3))) * 0.6,
                            _unit(rng.normal(size=(600, 3))) * rng.uniform(0.05, 0.55, (600, 1))])
        assert chamfer(a, b) == chamfer_bruteforce(a, b)
        cd, nearest = chamfer(a, b, return_index=True)
        assert cd == chamfer(a, b)
        assert np.array_equal(np.linalg.norm(a - b[nearest], axis=1), nearest_bruteforce(a, b))

    def test_triangle_inequality_diagnostic(self, rng):
        # mean-NN chamfer is not a metric; audit and count, don't assert
        violations = 0
        for _ in range(100):
            a = rng.normal(size=(20, 3))
            b = rng.normal(size=(20, 3))
            c = rng.normal(size=(20, 3))
            if chamfer(a, c) > chamfer(a, b) + chamfer(b, c) + 1e-9:
                violations += 1
        assert violations <= 100  # diagnostic only


class TestPointTriangle:
    def test_face_region_height(self):
        tri = np.array([[[0, 0, 0], [4, 0, 0], [0, 4, 0]]], dtype=float)
        d = point_triangle_distance(np.array([[1.0, 1.0, 0.7]]), tri)
        assert d[0] == pytest.approx(0.7, abs=1e-12)

    def test_vertex_region(self):
        tri = np.array([[[0, 0, 0], [1, 0, 0], [0, 1, 0]]], dtype=float)
        d = point_triangle_distance(np.array([[-3.0, -4.0, 0.0]]), tri)
        assert d[0] == pytest.approx(5.0, abs=1e-12)

    def test_edge_region(self):
        tri = np.array([[[0, 0, 0], [2, 0, 0], [0, 2, 0]]], dtype=float)
        d = point_triangle_distance(np.array([[1.0, -2.0, 0.0]]), tri)
        assert d[0] == pytest.approx(2.0, abs=1e-12)


def point_triangle_closest_all_branches(points, tris):
    """Reference kernel: the form point_triangle_closest replaced, kept as it
    was. It evaluates all seven closed forms on every pair and keeps the
    first region that holds."""
    p = np.asarray(points, dtype=np.float64)
    t = np.asarray(tris, dtype=np.float64)
    a, b, c = t[:, 0], t[:, 1], t[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    out = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def assign(mask, value):
        m = mask & ~done
        if m.any():
            out[m] = value[m]
            done[m] = True

    assign((d1 <= 0) & (d2 <= 0), a)  # vertex A
    assign((d3 >= 0) & (d4 <= d3), b)  # vertex B
    assign((d6 >= 0) & (d5 <= d6), c)  # vertex C

    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
        edge_ab = a + v_ab[:, None] * ab
        assign((vc <= 0) & (d1 >= 0) & (d3 <= 0), edge_ab)

        v_ac = d2 / (d2 - d6)
        edge_ac = a + v_ac[:, None] * ac
        assign((vb <= 0) & (d2 >= 0) & (d6 <= 0), edge_ac)

        v_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        edge_bc = b + v_bc[:, None] * (c - b)
        assign((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), edge_bc)

        denom = va + vb + vc
        v = vb / denom
        w = vc / denom
        face = a + v[:, None] * ab + w[:, None] * ac
    assign(np.ones(len(p), dtype=bool), face)
    return out


def assert_kernel_matches_reference(points, tris):
    closest = point_triangle_closest_all_branches(points, tris)
    assert np.array_equal(point_triangle_closest(points, tris), closest, equal_nan=True)
    assert np.array_equal(point_triangle_distance(points, tris),
                          np.linalg.norm(points - closest, axis=1), equal_nan=True)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def points_by_region(rng, n):
    """n random triangles and, for each of the seven regions, one point per
    triangle placed well inside that region, with its exact closest point."""
    a, b, c = (rng.normal(size=(n, 3)) for _ in range(3))
    normal = _unit(np.cross(b - a, c - a))
    lift = rng.uniform(-1.0, 1.0, size=(n, 1)) * normal
    out = rng.uniform(0.2, 1.0, size=(n, 1))
    groups = {}
    for name, v, e1, e2 in (("A", a, b, c), ("B", b, c, a), ("C", c, a, b)):
        # Between the outward extensions of the two edges at v.
        groups[name] = (v - out * (_unit(e1 - v) + _unit(e2 - v)) + lift, v)
    for name, u, v, w in (("AB", a, b, c), ("AC", a, c, b), ("BC", b, c, a)):
        t = rng.uniform(0.2, 0.8, size=(n, 1))
        foot = u + t * (v - u)
        away = _unit(np.cross(v - u, normal))
        away *= np.sign(np.einsum("ij,ij->i", away, foot - w))[:, None]
        groups[name] = (foot + out * away + lift, foot)
    s, t = rng.uniform(0.1, 0.45, size=(2, n, 1))
    foot = a + s * (b - a) + t * (c - a)
    groups["face"] = (foot + lift, foot)
    return np.stack([a, b, c], axis=1), groups


class TestKernelMatchesAllBranches:
    """The region-first kernel equals the all-branches form bit for bit."""

    def test_each_region(self, rng):
        tris, groups = points_by_region(rng, 500)
        for name, (pts, foot) in groups.items():
            closest = point_triangle_closest_all_branches(pts, tris)
            # Far from the foot if any pair had fallen in another region.
            assert np.allclose(closest, foot, atol=1e-9), name
            assert_kernel_matches_reference(pts, tris)

    def test_mixed_regions_in_one_call(self, rng):
        tris, groups = points_by_region(rng, 200)
        pts = np.concatenate([p for p, _ in groups.values()])
        order = rng.permutation(len(pts))
        assert_kernel_matches_reference(pts[order], np.tile(tris, (7, 1, 1))[order])

    def test_points_on_vertices_and_edges(self, rng):
        tris = rng.normal(size=(300, 3, 3))
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        t = rng.uniform(size=(300, 1))
        on = [a, b, c, 0.5 * (a + b), a + t * (c - a), b + t * (c - b),
              a + 2.0 * (b - a), (a + b + c) / 3.0]
        for pts in on:
            assert_kernel_matches_reference(pts, tris)

    @pytest.mark.parametrize("kind", ["zero_area", "repeated_vertex", "collinear",
                                      "one_ulp_edge"])
    def test_degenerate_triangles(self, rng, kind):
        a, b = rng.normal(size=(2, 400, 3))
        tris = {"zero_area": np.stack([a, a, a], axis=1),
                "repeated_vertex": np.stack([a, a, b], axis=1),
                "collinear": np.stack([a, b, a + 2.0 * (b - a)], axis=1),
                # B and C one ulp apart: rounding lets both vertex tests hold.
                "one_ulp_edge": np.stack([a, b, np.nextafter(b, np.inf)], axis=1)}[kind]
        pts = np.concatenate([rng.normal(size=(400, 3)), a, b, 0.5 * (a + b)])
        assert_kernel_matches_reference(pts, np.tile(tris, (4, 1, 1)))

    def test_nan_coordinates(self, rng):
        pts = rng.normal(size=(60, 3))
        tris = rng.normal(size=(60, 3, 3))
        pts[0:10, rng.integers(0, 3)] = np.nan
        tris[10:20, 0, 1] = np.nan
        tris[20:30, 1] = np.nan
        tris[30:40, 2, 2] = np.nan
        pts[40:50] = np.nan
        tris[40:50] = np.nan
        assert_kernel_matches_reference(pts, tris)

    def test_no_pairs(self):
        assert_kernel_matches_reference(np.empty((0, 3)), np.empty((0, 3, 3)))


class TestP2S:
    def test_points_on_mesh_zero(self, sphere_mesh):
        pts, _ = sample_surface(sphere_mesh, 500, seed=1)
        assert p2s(pts, sphere_mesh) <= 1e-6

    def test_height_above_large_triangle(self):
        mesh = TriMesh([[0, 0, 0], [10, 0, 0], [0, 10, 0]], [[0, 1, 2]])
        assert p2s([[2.0, 2.0, 0.05]], mesh) == pytest.approx(5.0, abs=1e-9)

    def test_bvh_equals_exhaustive(self, rng):
        # oracle equivalence against the all-triangles scan
        mesh = make_sphere(0.6, 2)  # 320 faces
        index = SurfaceDistanceIndex(mesh)
        for _ in range(20):
            pts = rng.normal(size=(40, 3)) * 0.7
            fast = index.query(pts)
            slow = p2s_exhaustive(pts, mesh)
            assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_empty_inputs_rejected(self, sphere_mesh):
        with pytest.raises(DomainError):
            p2s(np.empty((0, 3)), sphere_mesh)
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(DomainError):
            p2s([[0, 0, 0]], empty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, sphere_mesh, bad):
        index = SurfaceDistanceIndex(sphere_mesh)
        points = np.array([[0.1, 0.2, 0.3], [bad, 0.0, 0.0], [0.0, 0.7, 0.0]])
        for mesh in (sphere_mesh, index):
            with pytest.raises(DomainError, match="non-finite"):
                p2s(points, mesh)
        with pytest.raises(DomainError, match="non-finite"):
            index.query(points)
        with pytest.raises(DomainError, match="non-finite"):
            index.query(points, np.zeros(3, dtype=np.int64))


class TestP2SFrontier:
    """The frontier traversal returns the exhaustive minimum bit for bit."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return make_sphere(0.6, 3)

    @pytest.fixture(scope="class")
    def index(self, mesh):
        return SurfaceDistanceIndex(mesh)

    @pytest.mark.parametrize("kind", ["surface", "vertices", "far", "interior"])
    def test_equals_exhaustive_exactly(self, mesh, index, kind):
        pts, nrm = sample_surface(mesh, 300, seed=2)
        points = {"surface": pts, "vertices": mesh.vertices[:300],
                  "far": nrm * 3.0, "interior": nrm * 0.2}[kind]
        assert np.array_equal(index.query(points), p2s_exhaustive(points, mesh))

    def test_blocks_concatenate(self, index, rng):
        points = rng.normal(size=(QUERY_BLOCK + 300, 3)) * 0.7
        cut = QUERY_BLOCK - 100
        split = np.concatenate([index.query(points[:cut]), index.query(points[cut:])])
        assert np.array_equal(index.query(points), split)

    def test_split_frontier_is_exact(self, mesh, index, rng, monkeypatch):
        points = rng.normal(size=(300, 3)) * 0.7
        monkeypatch.setattr(metrics, "MAX_FRONTIER", 64)
        assert np.array_equal(index.query(points), p2s_exhaustive(points, mesh))

    @staticmethod
    def hard_points(mesh, rng):
        """Points at and near the sphere's center, where every triangle is
        within bound, and points 0.2-0.6 units off the surface either way."""
        pts, nrm = sample_surface(mesh, 300, seed=6)
        scale = 10.0 ** rng.uniform(-12, -1, size=(200, 1))
        off = rng.uniform(0.2, 0.6, size=(300, 1)) * rng.choice([-1.0, 1.0], size=(300, 1))
        return {"center": np.concatenate([np.zeros((1, 3)), rng.normal(size=(200, 3)) * scale]),
                "off_surface": pts + off * nrm}

    @pytest.mark.parametrize("kind", ["center", "off_surface"])
    @pytest.mark.parametrize("max_frontier", [None, 64])
    def test_hard_points_exact(self, mesh, index, rng, monkeypatch, kind, max_frontier):
        if max_frontier is not None:
            monkeypatch.setattr(metrics, "MAX_FRONTIER", max_frontier)
        points = self.hard_points(mesh, rng)[kind]
        assert np.array_equal(index.query(points), p2s_exhaustive(points, mesh))

    @pytest.mark.parametrize("max_frontier", [None, 64])
    def test_torus_exact(self, torus_mesh, rng, monkeypatch, max_frontier):
        if max_frontier is not None:
            monkeypatch.setattr(metrics, "MAX_FRONTIER", max_frontier)
        pts, nrm = sample_surface(torus_mesh, 200, seed=7)
        points = np.concatenate([pts, pts + rng.uniform(-0.5, 0.5, size=(200, 1)) * nrm,
                                 rng.uniform(-0.8, 0.8, size=(100, 3)), np.zeros((1, 3))])
        index = SurfaceDistanceIndex(torus_mesh)
        assert np.array_equal(index.query(points), p2s_exhaustive(points, torus_mesh))

    @pytest.mark.parametrize("signs", list(itertools.product([1.0, -1.0], repeat=3)))
    def test_near_tie_at_a_box_corner(self, signs):
        # The nearest triangle's closest point is the corner of its box, so
        # its box distance equals its distance. A second triangle, whose
        # centroid is nearer and so seeds the bound, is 1e-12 farther: only a
        # box test that is exact keeps the nearest triangle.
        p = np.full(3, 0.1)
        d = np.linalg.norm(p)
        centre = p + (d + 1e-12) * np.ones(3) / np.sqrt(3.0)
        e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        ring = [0.05 * (np.cos(t) * e1 + np.sin(t) * e2) for t in (0.0, 2.1, 4.2)]
        vertices = np.array([[0, 0, 0], [-1, -0.2, -0.5], [-0.3, -1, -0.1]]
                            + [centre + r for r in ring]) * signs
        mesh = TriMesh(vertices, [[0, 1, 2], [3, 4, 5]])
        points = p[None] * signs
        assert p2s_exhaustive(points, mesh)[0] == d
        assert np.array_equal(SurfaceDistanceIndex(mesh).query(points),
                              p2s_exhaustive(points, mesh))

    def test_kernel_looked_up_in_module_namespace(self, mesh, index, monkeypatch):
        # Tracers count P2S work by wrapping metrics.point_triangle_distance.
        pts, _ = sample_surface(mesh, 300, seed=4)
        expected = index.query(pts)
        pairs = []

        def counting(points, tris):
            pairs.append(len(points))
            return point_triangle_distance(points, tris)

        monkeypatch.setattr(metrics, "point_triangle_distance", counting)
        assert np.array_equal(index.query(pts), expected)
        assert pairs and sum(pairs) >= len(pts)


def farthest_faces(points, mesh):
    """For each point, the face at the largest exact distance from it."""
    tris = mesh.vertices[mesh.faces]
    n, m = len(points), len(tris)
    d = point_triangle_distance(np.repeat(points, m, axis=0), np.tile(tris, (n, 1, 1)))
    return np.argmax(d.reshape(n, m), axis=1)


def nearest_sample_faces(points, mesh, n=2000, seed=3):
    """For each point, the face of its nearest surface sample; NaN points get
    face 0."""
    faces, samples = _sample_points(mesh, _sample_uniforms(n, seed))
    finite = np.isfinite(points).all(axis=1)
    out = np.zeros(len(points), dtype=np.int64)
    out[finite] = faces[cKDTree(samples).query(points[finite])[1]]
    return out


class TestSeededQuery:
    """A seeded query returns the exhaustive minimum bit for bit, however
    good or bad its seed faces are."""

    @pytest.fixture(scope="class")
    def mesh(self):
        return make_sphere(0.6, 3)

    @staticmethod
    def points(mesh, rng, kind):
        pts, nrm = sample_surface(mesh, 200, seed=8)
        if kind == "off_surface":
            off = rng.uniform(0.2, 0.6, size=(200, 1)) * rng.choice([-1.0, 1.0], size=(200, 1))
            return np.concatenate([pts, pts + off * nrm, nrm * 0.2])
        if kind == "center":
            scale = 10.0 ** rng.uniform(-12, -1, size=(150, 1))
            return np.concatenate([np.zeros((1, 3)), rng.normal(size=(150, 3)) * scale])
        pts = pts + rng.uniform(-0.3, 0.3, size=(200, 1)) * nrm
        pts[::7, rng.integers(0, 3)] = np.nan
        pts[::11] = np.nan
        return pts

    @pytest.mark.parametrize("kind", ["off_surface", "center", "nan"])
    @pytest.mark.parametrize("seeding", ["nearest_sample", "farthest"])
    @pytest.mark.parametrize("max_frontier", [None, 64])
    def test_equals_exhaustive(self, mesh, rng, monkeypatch, kind, seeding, max_frontier):
        if max_frontier is not None:
            monkeypatch.setattr(metrics, "MAX_FRONTIER", max_frontier)
        points = self.points(mesh, rng, kind)
        seeds = {"nearest_sample": nearest_sample_faces,
                 "farthest": farthest_faces}[seeding](points, mesh)
        index = SurfaceDistanceIndex(mesh)
        if kind == "nan":
            # NaN points are rejected; the finite ones still score exactly.
            with pytest.raises(DomainError, match="non-finite"):
                index.query(points, seeds)
            finite = np.isfinite(points).all(axis=1)
            assert 0 < finite.sum() < len(points)
            points, seeds = points[finite], seeds[finite]
        assert np.array_equal(index.query(points, seeds), p2s_exhaustive(points, mesh))

    @pytest.mark.parametrize("seeding", ["nearest_sample", "farthest"])
    @pytest.mark.parametrize("max_frontier", [None, 64])
    def test_torus(self, torus_mesh, rng, monkeypatch, seeding, max_frontier):
        if max_frontier is not None:
            monkeypatch.setattr(metrics, "MAX_FRONTIER", max_frontier)
        pts, nrm = sample_surface(torus_mesh, 60, seed=9)
        points = np.concatenate([pts, pts + rng.uniform(-0.5, 0.5, size=(60, 1)) * nrm,
                                 rng.uniform(-0.8, 0.8, size=(30, 3)), np.zeros((1, 3))])
        seeds = {"nearest_sample": nearest_sample_faces,
                 "farthest": farthest_faces}[seeding](points, torus_mesh)
        assert np.array_equal(SurfaceDistanceIndex(torus_mesh).query(points, seeds),
                              p2s_exhaustive(points, torus_mesh))

    def test_p2s_passes_seeds(self, mesh, rng):
        points = self.points(mesh, rng, "off_surface")
        seeds = farthest_faces(points, mesh)
        assert p2s(points, mesh, seeds) == p2s(points, mesh)

    def test_one_seed_per_point(self, mesh):
        with pytest.raises(ShapeError, match="one seed face per point"):
            SurfaceDistanceIndex(mesh).query(np.zeros((3, 3)), [0, 1])


class TestSSIM:
    def test_identity_exactly_one(self, rng):
        img = rng.random((32, 32, 3))
        assert ssim(img, img) == 1.0

    def test_constant_images(self):
        img = np.full((16, 16), 0.42)
        assert ssim(img, img.copy()) == 1.0

    def test_checkerboard_inverse(self):
        cb = (np.indices((32, 32)).sum(axis=0) % 2).astype(np.float64)
        assert ssim(cb, 1.0 - cb) < 0.1

    def test_range(self, rng):
        for _ in range(10):
            a = rng.random((16, 16))
            b = rng.random((16, 16))
            v = ssim(a, b)
            assert -1.0 <= v <= 1.0

    def test_symmetric(self, rng):
        a = rng.random((16, 16, 3))
        b = rng.random((16, 16, 3))
        assert ssim(a, b) == ssim(b, a)

    def test_domain_validation(self, rng):
        a = rng.random((16, 16)) + 0.5
        with pytest.raises(DomainError):
            ssim(a, a)
        with pytest.raises(ShapeError):
            ssim(np.zeros((16, 16)), np.zeros((16, 17)))


class TestPSNR:
    def test_identity_cap(self, rng):
        img = rng.random((8, 8))
        assert psnr(img, img) == 99.0

    def test_uniform_offset_20db(self):
        a = np.zeros((16, 16))
        b = np.full((16, 16), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_symmetric(self, rng):
        for _ in range(20):
            a = rng.random((8, 8))
            b = rng.random((8, 8))
            assert psnr(a, b) == psnr(b, a)

    def test_nonnegative(self, rng):
        for _ in range(10):
            a = rng.random((8, 8))
            b = rng.random((8, 8))
            assert psnr(a, b) >= 0.0


class TestEvaluatePair:
    def test_identical_meshes(self, sphere_mesh, frame128):
        rep = evaluate_pair(sphere_mesh, sphere_mesh, frame128, 2000, seed=3)
        assert rep.cd == 0.0
        assert rep.p2s <= 1e-6
        assert rep.normal_err == 0.0
        assert rep.config_hash

    def test_translated_sphere(self, sphere_mesh, frame128):
        # Same-seed sampling gives exact correspondences, so the rigid value
        # 0.01 * 100 = 1.0 bounds the chamfer from above; dense-sampling
        # convergence bounds it from below by 0.01 * E|n_x| * 100 = 0.5.
        # Measured 0.902 at n=10^4 (kd-tree == brute force verified).
        rep = evaluate_pair(sphere_mesh.translated([0.01, 0, 0]), sphere_mesh,
                            frame128, 10_000, seed=0)
        assert 0.5 <= rep.cd <= 1.0
        assert rep.cd == pytest.approx(0.902, abs=0.05)

    def test_roundtrip_sphere_bound(self, sphere_recon, sphere_mesh, frame128):
        rep = evaluate_pair(sphere_recon, sphere_mesh, frame128, 10_000, seed=0)
        assert rep.cd <= 2.0

    def test_csv_row_roundtrip(self, sphere_mesh, frame128):
        rep = evaluate_pair(sphere_mesh, sphere_mesh, frame128, 500, seed=1)
        header = MetricReport.csv_header().split(",")
        row = rep.csv_row().split(",")
        assert len(header) == len(row)
        assert float(row[header.index("cd")]) == rep.cd
        assert "units" in rep.sidecar_text()


def oneshot_report(recon, gt, frame, n, seed):
    """A comparison assembled from the public primitives, each surface
    sampled and each normal map rendered on its own."""
    pts_recon, _ = sample_surface(recon, n, seed)
    pts_gt, _ = sample_surface(gt, n, seed)
    err = [normal_map_error(render_normals(recon, frame, view), render_normals(gt, frame, view))
           for view in ("front", "back")]
    return MetricReport(cd=chamfer(pts_recon, pts_gt), p2s=p2s(pts_recon, gt),
                        normal_err=0.5 * (err[0] + err[1]), n_samples=n, seed=seed,
                        config_hash=config_hash(frame, n, seed))


class TestEvalReference:
    def test_equals_oneshot_for_every_recon(self, sphere_mesh, sphere_field, frame128):
        pair = synthesize_occlusion(render_silhouette(sphere_mesh, frame128),
                                    OccluderSpec("rectangle", seed=3, ratio=0.4))
        occluded = reconstruct_field(occlude_field(sphere_field, pair, "zero"), frame128, 64)
        ref = EvalReference(sphere_mesh, frame128, 2000, seed=5)
        for recon in (sphere_mesh, sphere_mesh.translated([0.01, 0, 0]), occluded):
            want = oneshot_report(recon, sphere_mesh, frame128, 2000, 5)
            assert ref.evaluate(recon) == want
            assert evaluate_pair(recon, sphere_mesh, frame128, 2000, seed=5) == want

    def test_equals_exhaustive_pieces_on_an_occluded_sphere(self):
        # Many reconstruction samples lie far inside the ground truth here,
        # where the P2S seed and the kd-tree layout matter most; the report
        # must still equal one assembled from the oracles and one-view renders.
        gt = make_sphere(0.6, 3)
        frame = OrthoFrame(64, 64)
        pair = synthesize_occlusion(render_silhouette(gt, frame),
                                    OccluderSpec("rectangle", seed=0, ratio=0.4))
        field = occlude_field(mesh_to_fof(gt, frame, BasisConfig(15)), pair, "zero")
        recon = reconstruct_field(field, frame, 64)
        n, seed = 2000, 5
        pts, _ = sample_surface(recon, n, seed)
        gt_pts, _ = sample_surface(gt, n, seed)
        dist = p2s_exhaustive(pts, gt)
        assert (dist > 0.1).mean() > 0.1
        err = [normal_map_error(render_normals(recon, frame, v), render_normals(gt, frame, v))
               for v in ("front", "back")]
        want = MetricReport(cd=chamfer(pts, gt_pts), p2s=float(dist.mean() * UNIT_SCALE),
                            normal_err=0.5 * (err[0] + err[1]), n_samples=n, seed=seed,
                            config_hash=config_hash(frame, n, seed))
        assert EvalReference(gt, frame, n, seed).evaluate(recon) == want

    def test_empty_recon_raises_like_evaluate_pair(self, sphere_mesh, frame128):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        with pytest.raises(DomainError, match="cannot sample an empty mesh"):
            EvalReference(sphere_mesh, frame128, 100).evaluate(empty)
        with pytest.raises(DomainError, match="cannot sample an empty mesh"):
            evaluate_pair(empty, sphere_mesh, frame128, 100)
