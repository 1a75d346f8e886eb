import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fofkit import metrics
from fofkit.errors import DomainError, ShapeError
from fofkit.fof import BasisConfig
from fofkit.mesh import BVH, TriMesh, mesh_to_fof
from fofkit.metrics import (UNIT_SCALE, EvalReference, MetricReport, SurfaceDistanceIndex,
                            chamfer, chamfer_bruteforce, config_hash, evaluate_pair,
                            nearest_bruteforce, p2s, p2s_exhaustive, point_triangle_closest,
                            point_triangle_distance, psnr, ssim)
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


def _div(x, y):
    """x / y in IEEE doubles, where Python's float division raises on 0."""
    if y != 0.0 or math.isnan(y):
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def point_triangle_distance_scalar(p, tri):
    """One pair's distance in Python floats, without numpy: Ericson's first
    region that holds, each dot product summed as (x + z) + y and the
    squared distance left to right."""
    def sub(u, v):
        return [u[0] - v[0], u[1] - v[1], u[2] - v[2]]

    def dot(u, v):
        return (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]

    def along(o, t, e):
        return [o[0] + t * e[0], o[1] + t * e[1], o[2] + t * e[2]]

    a, b, c = tri
    ab, ac = sub(b, a), sub(c, a)
    ap, bp, cp = sub(p, a), sub(p, b), sub(p, c)
    d1, d2 = dot(ab, ap), dot(ac, ap)
    d3, d4 = dot(ab, bp), dot(ac, bp)
    d5, d6 = dot(ab, cp), dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    if d1 <= 0 and d2 <= 0:
        q = a
    elif d3 >= 0 and d4 <= d3:
        q = b
    elif d6 >= 0 and d5 <= d6:
        q = c
    elif vc <= 0 and d1 >= 0 and d3 <= 0:
        q = along(a, _div(d1, d1 - d3), ab)
    elif vb <= 0 and d2 >= 0 and d6 <= 0:
        q = along(a, _div(d2, d2 - d6), ac)
    elif va <= 0 and d4 - d3 >= 0 and d5 - d6 >= 0:
        q = along(b, _div(d4 - d3, (d4 - d3) + (d5 - d6)), sub(c, b))
    else:
        denom = va + vb + vc
        q = along(along(a, _div(vb, denom), ab), _div(vc, denom), ac)
    r = sub(p, q)
    return math.sqrt((r[0] * r[0] + r[1] * r[1]) + r[2] * r[2])


def assert_same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestKernelMatchesScalarReference:
    """The pair kernel's arithmetic, pinned without einsum or np.linalg.norm."""

    @staticmethod
    def check(points, tris):
        want = [point_triangle_distance_scalar(p, t)
                for p, t in zip(points.tolist(), tris.tolist())]
        assert_same_bits(point_triangle_distance(points, tris), want)

    def test_each_region(self, rng):
        tris, groups = points_by_region(rng, 200)
        for pts, _ in groups.values():
            self.check(pts, tris)

    @pytest.mark.parametrize("kind", ["zero_area", "repeated_vertex", "collinear",
                                      "one_ulp_edge"])
    def test_degenerate_triangles(self, rng, kind):
        a, b = rng.normal(size=(2, 100, 3))
        tris = {"zero_area": np.stack([a, a, a], axis=1),
                "repeated_vertex": np.stack([a, a, b], axis=1),
                "collinear": np.stack([a, b, a + 2.0 * (b - a)], axis=1),
                "one_ulp_edge": np.stack([a, b, np.nextafter(b, np.inf)], axis=1)}[kind]
        pts = np.concatenate([rng.normal(size=(100, 3)), a, b, 0.5 * (a + b)])
        self.check(pts, np.tile(tris, (4, 1, 1)))

    def test_axis_major_triangles(self, rng):
        # The BVH hands the kernel transposed views of (3, 3, n) rows.
        tris, groups = points_by_region(rng, 100)
        rows = np.ascontiguousarray(tris.transpose(1, 2, 0))
        for pts, _ in groups.values():
            assert_same_bits(point_triangle_distance(pts, rows.transpose(2, 0, 1)),
                             point_triangle_distance(pts, tris))


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
            assert np.array_equal(index.query(pts), p2s_exhaustive(pts, mesh))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertices_rejected(self, sphere_mesh, bad):
        # TriMesh rejects such vertices too, but its fields stay writable.
        mesh = sphere_mesh.copy()
        mesh.vertices[7, 1] = bad
        points = np.zeros((2, 3))
        with pytest.raises(DomainError, match="mesh vertices contain non-finite"):
            SurfaceDistanceIndex(mesh)
        with pytest.raises(DomainError, match="mesh vertices contain non-finite"):
            p2s(points, mesh)
        with pytest.raises(DomainError, match="mesh vertices contain non-finite"):
            evaluate_pair(sphere_mesh, mesh, OrthoFrame(32, 32), 100)

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
        # A point's distance does not depend on the points queried with it.
        points = rng.normal(size=(2348, 3)) * 0.7
        cut = 1948
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

    @pytest.mark.parametrize("tilt", [(1.0, 2.0, 3.0), (-3.0, 1.0, -0.5), (0.2, -1.0, 4.0)])
    def test_near_tie_inside_a_face(self, tilt):
        # The nearest triangle is large and tilted, and the point lies over
        # its interior, so the distance is the height over its plane, which
        # its slab gap also measures. A small triangle whose centroid is
        # nearer seeds the bound 1e-12 farther: the nearest triangle survives
        # only if no slab on its path, its leaf's included, overstates the gap.
        normal = np.array(tilt) / np.linalg.norm(tilt)
        e1 = np.cross(normal, [0.0, 0.0, 1.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        foot = np.array([0.05, -0.02, 0.01])
        big = [foot + 2.0 * (np.cos(t) * e1 + np.sin(t) * e2) for t in (0.3, 2.4, 4.5)]
        p = foot + 0.1 * normal
        d = p2s_exhaustive(p[None], TriMesh(big, [[0, 1, 2]]))[0]
        centre = p + (d + 1e-12) * e1
        ring = [0.01 * (np.cos(t) * normal + np.sin(t) * e2) for t in (0.0, 2.1, 4.2)]
        mesh = TriMesh(big + [centre + r for r in ring], [[0, 1, 2], [3, 4, 5]])
        index = SurfaceDistanceIndex(mesh)
        assert index._centroid_tree.query(p)[1] == 1
        want = p2s_exhaustive(p[None], mesh)
        assert want[0] == d < point_triangle_distance(p[None], mesh.vertices[mesh.faces][1:])[0]
        assert np.array_equal(index.query(p[None]), want)

    @pytest.mark.parametrize("max_frontier", [None, 64])
    def test_capsule_figure_off_surface(self, capsule_mesh, rng, monkeypatch, max_frontier):
        if max_frontier is not None:
            monkeypatch.setattr(metrics, "MAX_FRONTIER", max_frontier)
        pts, nrm = sample_surface(capsule_mesh, 150, seed=10)
        off = rng.uniform(0.2, 0.6, size=(150, 1)) * rng.choice([-1.0, 1.0], size=(150, 1))
        points = pts + off * nrm
        assert np.array_equal(SurfaceDistanceIndex(capsule_mesh).query(points),
                              p2s_exhaustive(points, capsule_mesh))

    def test_marching_cubes_reconstruction(self, sphere_recon, rng):
        # Many small tilted faces of a reconstruction, and points 0-0.5 units
        # off it on either side.
        pts, nrm = sample_surface(sphere_recon, 150, seed=11)
        points = pts + rng.uniform(-0.5, 0.5, size=(150, 1)) * nrm
        assert np.array_equal(SurfaceDistanceIndex(sphere_recon).query(points),
                              p2s_exhaustive(points, sphere_recon))

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


def subtree_slots(bvh, node):
    """The slots of the triangles under a BVH node; a leaf holds one."""
    if bvh.node_start[node] >= 0:
        return bvh.node_start[node:node + 1]
    return np.concatenate([subtree_slots(bvh, bvh.node_left[node]),
                           subtree_slots(bvh, bvh.node_right[node])])


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@st.composite
def slab_cases(draw):
    """Triangles, some of them slivers, collinear or of zero area, turned by
    a random rotation and scaled by 1e-100 to 1e100; and points scattered
    around them, on the planes of triangles or within 1e-12 of them (scaled
    alike), far out along their normals, and at corners."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-100, 1e100])) * 10.0 ** draw(st.integers(-12, 12))
    m = draw(st.integers(1, 40))
    a, b, c = rng.normal(size=(3, m, 1, 3))
    t = rng.uniform(-1.0, 2.0, size=(m, 1, 1))
    kind = rng.integers(0, 4, size=(m, 1, 1))
    c = np.where(kind == 1, a + t * (b - a) + rng.normal(size=(m, 1, 3)) * 1e-9, c)  # sliver
    c = np.where(kind == 2, a + t * (b - a), c)  # collinear
    b = np.where(kind == 3, a, b)  # zero area
    c = np.where(kind == 3, a, c)
    tris = np.concatenate([a, b, c], axis=1) @ random_rotation(rng).T * scale
    j = rng.integers(0, m, size=30)
    s, u = rng.uniform(-0.5, 1.5, size=(2, 30, 1))
    ta, tb, tc = tris[j, 0], tris[j, 1], tris[j, 2]
    on_plane = ta + s * (tb - ta) + u * (tc - ta)
    lift = np.cross(tb - ta, tc - ta)
    with np.errstate(invalid="ignore", divide="ignore"):
        lift /= np.linalg.norm(lift, axis=1, keepdims=True)
    lift = np.nan_to_num(lift)
    # Far out along a normal, the gap and the distance agree to rounding.
    far = on_plane + lift * 10.0 ** rng.uniform(0.0, 8.0, size=(30, 1)) * scale
    lift *= rng.choice([0.0, 1e-12, -1e-12, 1e-13], size=(30, 1)) * scale
    points = np.concatenate([rng.normal(size=(30, 3)) * 2.0 * scale, on_plane, on_plane + lift,
                             far, tris[j, rng.integers(0, 3, size=30)]])
    return tris.reshape(-1, 3), np.arange(3 * m).reshape(m, 3), points


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the kernel overflows near 1e100
class TestSlabBound:
    """A slab gap, less its margin, never exceeds the computed kernel
    distance to any triangle under that slab, so pruning by it is exact."""

    @staticmethod
    def check(vertices, faces, points):
        bvh = BVH(vertices, faces)
        m, n = bvh.slot_rows.shape[2], len(points)
        tris = np.tile(bvh.slot_rows, (1, 1, n)).transpose(2, 0, 1)
        d = point_triangle_distance(np.repeat(points, m, axis=0), tris).reshape(n, m)
        margin = metrics._slab_margin(bvh, points)

        def overstated(gap, dist):
            # A NaN distance never lowers a best distance, and _below keeps
            # every pair whose gap is NaN or infinite.
            return (gap > dist) & (gap < np.inf)

        coords = points.T.copy()
        for node in range(len(bvh.node_a)):
            gap = metrics._slab_gap(coords, np.arange(n), bvh, np.full(n, node), margin)
            assert not overstated(gap[:, None], d[:, subtree_slots(bvh, node)]).any()

    def test_unprovable_gaps_keep_their_pairs(self):
        gap = np.array([np.inf, np.nan, -np.inf, 1.0, 2.0, 0.5])
        assert np.array_equal(metrics._below(gap, np.full(6, 1.0)),
                              [True, True, True, False, False, True])

    @settings(max_examples=300, deadline=None)
    @given(case=slab_cases())
    def test_gap_never_exceeds_kernel_distance(self, case):
        self.check(*case)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_on_plane_points_of_a_sphere(self, rng, scale):
        mesh = make_sphere(0.6, 2)
        tris = mesh.vertices[mesh.faces]
        s, u = rng.uniform(0.0, 0.5, size=(2, len(tris), 1))
        points = tris[:, 0] + s * (tris[:, 1] - tris[:, 0]) + u * (tris[:, 2] - tris[:, 0])
        self.check(mesh.vertices * scale, mesh.faces, points[::4] * scale)


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


@pytest.mark.parametrize("fn", [ssim, psnr])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_image_rejected(fn, bad, rng):
    a = rng.random((16, 16))
    b = a.copy()
    b[3, 5] = bad
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            fn(x, y)


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
