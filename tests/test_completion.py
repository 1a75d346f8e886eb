import numpy as np
import pytest

from fofkit.completion import (blend_alpha, chamfer_distance_transform, degrade_prior,
                               vgcc_blend)
from fofkit.errors import DomainError, ShapeError
from fofkit.fof import BasisConfig, FourierField
from fofkit.mesh import TriMesh, check_watertight, mesh_to_fof
from fofkit.metrics import chamfer
from fofkit.occlusion import MaskPair, OccluderSpec, occlude_field, synthesize_occlusion
from fofkit.render import render_silhouette
from fofkit.shapes import make_cube, make_sphere
from fofkit.surface import reconstruct_field, sample_surface


def degrade_prior_by_add_at(mesh, iterations, strength):
    """Reference Laplacian smoothing: neighbor sums by np.add.at."""
    f = mesh.faces
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    deg = np.bincount(src, minlength=mesh.n_vertices).astype(np.float64)
    deg[deg == 0.0] = 1.0
    verts = mesh.vertices.copy()
    for _ in range(iterations):
        acc = np.zeros_like(verts)
        np.add.at(acc, src, verts[dst])
        verts = verts + strength * (acc / deg[:, None] - verts)
    return verts


@pytest.fixture()
def cube_mesh():
    return make_cube(1.0)


@pytest.fixture()
def loose_vertex_mesh(cube_mesh):
    """The cube plus one vertex that no face uses."""
    return TriMesh(np.vstack([cube_mesh.vertices, [[0.3, -0.2, 0.1]]]), cube_mesh.faces)


class TestDegradePrior:
    @pytest.mark.parametrize("shape", ["sphere_mesh", "torus_mesh", "cube_mesh", "capsule_mesh",
                                       "loose_vertex_mesh"])
    @pytest.mark.parametrize("iterations, strength", [(20, 0.5), (3, 0.8)])
    def test_matches_add_at_smoothing(self, request, shape, iterations, strength):
        mesh = request.getfixturevalue(shape)
        out = degrade_prior(mesh, iterations, strength)
        assert np.array_equal(out.vertices, degrade_prior_by_add_at(mesh, iterations, strength))
        assert np.array_equal(out.faces, mesh.faces) and out.normals is None

    def test_zero_iterations_identity(self, sphere_mesh):
        out = degrade_prior(sphere_mesh, 0, 0.5)
        assert np.array_equal(out.vertices, sphere_mesh.vertices)
        assert np.array_equal(out.faces, sphere_mesh.faces)

    def test_sphere_shrinks(self, sphere_mesh):
        prev = 0.6
        for iters in (1, 5, 20):
            out = degrade_prior(sphere_mesh, iters, 0.5)
            radius = np.linalg.norm(out.vertices, axis=1).mean()
            assert radius < prev
            prev = radius

    def test_watertight_preserved(self, sphere_mesh):
        out = degrade_prior(sphere_mesh, 10, 0.8)
        assert check_watertight(out)[0]
        assert np.array_equal(out.faces, sphere_mesh.faces)

    def test_capsule_figure_chamfer_band(self, capsule_mesh):
        out = degrade_prior(capsule_mesh, 20, 0.5)
        a, _ = sample_surface(capsule_mesh, 10_000, seed=4)
        b, _ = sample_surface(out, 10_000, seed=4)
        cd = chamfer(a, b) / 100.0  # scene units
        assert 0.0 < cd <= 0.05

    def test_strength_validation(self, sphere_mesh):
        with pytest.raises(DomainError):
            degrade_prior(sphere_mesh, 5, 1.5)
        with pytest.raises(DomainError):
            degrade_prior(sphere_mesh, -1, 0.5)

    @pytest.mark.parametrize("iterations", [2.5, np.float64(3.0), "3", None])
    def test_non_integer_iterations(self, sphere_mesh, iterations):
        with pytest.raises(DomainError, match="iterations"):
            degrade_prior(sphere_mesh, iterations, 0.5)


class TestDistanceTransform:
    def test_values_inside_block(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[3:6, 3:6] = True
        d = chamfer_distance_transform(mask)
        assert d[4, 4] == pytest.approx(2.0)
        assert d[3, 4] == pytest.approx(1.0)
        assert d[3, 3] == pytest.approx(1.0)
        assert np.all(d[~mask] == 0.0)

    def test_unit_slope(self):
        mask = np.zeros((5, 20), dtype=bool)
        mask[:, 5:] = True
        d = chamfer_distance_transform(mask)
        assert np.allclose(d[2, 5:], np.arange(1, 16))


@pytest.fixture(scope="module")
def setup(frame128):
    gt = make_sphere(0.6, 3)
    body = render_silhouette(gt, frame128)
    c_obs = mesh_to_fof(gt, frame128, BasisConfig(7))
    c_prior = FourierField(c_obs.data * 0.5)
    return gt, body, c_obs, c_prior


class TestBlend:

    def test_empty_mask_identity(self, setup):
        gt, body, c_obs, c_prior = setup
        pair = MaskPair(body, np.zeros_like(body), body)
        out = vgcc_blend(c_obs, c_prior, pair, 3.0)
        assert np.array_equal(out.data, c_obs.data)

    def test_full_mask_feather0_copies_prior(self, setup):
        gt, body, c_obs, c_prior = setup
        pair = MaskPair(np.zeros_like(body), body, body)
        out = vgcc_blend(c_obs, c_prior, pair, 0.0)
        assert np.array_equal(out.data[body], c_prior.data[body])
        assert np.array_equal(out.data[~body], c_obs.data[~body])

    def test_visible_pixels_exact(self, setup):
        gt, body, c_obs, c_prior = setup
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 3, 0.5))
        out = vgcc_blend(c_obs, c_prior, pair, 3.0)
        assert np.array_equal(out.data[pair.V], c_obs.data[pair.V])

    def test_convexity_per_channel(self, setup):
        gt, body, c_obs, c_prior = setup
        pair = synthesize_occlusion(body, OccluderSpec("ellipse", 5, 0.6))
        out = vgcc_blend(c_obs, c_prior, pair, 3.0)
        lo = np.minimum(c_obs.data, c_prior.data)
        hi = np.maximum(c_obs.data, c_prior.data)
        assert np.all(out.data >= lo - 1e-15)
        assert np.all(out.data <= hi + 1e-15)

    def test_alpha_ramp(self, setup):
        gt, body, c_obs, c_prior = setup
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 1, 0.5))
        alpha = blend_alpha(pair, 3.0)
        assert np.all(alpha[pair.V] == 1.0)
        assert np.all(alpha[~pair.body] == 1.0)
        d = chamfer_distance_transform(pair.M)
        deep = pair.M & (d >= 3.0)
        if deep.any():
            assert np.all(alpha[deep] == 0.0)

    def test_shape_mismatch(self, setup):
        gt, body, c_obs, c_prior = setup
        small = np.zeros((8, 8), dtype=bool)
        with pytest.raises(ShapeError):
            vgcc_blend(c_obs, c_prior, MaskPair(small, small, small))

    def test_raw_arrays_taken_as_fields(self, setup):
        # decode_grid and field_to_grid take an (H, W, K) array too.
        gt, body, c_obs, c_prior = setup
        pair = synthesize_occlusion(body, OccluderSpec("ellipse", 5, 0.6))
        want = vgcc_blend(c_obs, c_prior, pair)
        got = vgcc_blend(c_obs.data.tolist(), c_prior.data, pair)
        assert np.array_equal(got.data, want.data)

    def test_overwrite_obs(self, setup):
        # Mixing into C_obs's own coefficients gives the copy's values bit
        # for bit and holds C_obs's memory; without the flag C_obs is kept.
        gt, body, c_obs, c_prior = setup
        pair = synthesize_occlusion(body, OccluderSpec("ellipse", 5, 0.6))
        before = c_obs.data.copy()
        want = vgcc_blend(c_obs, c_prior, pair)
        assert np.array_equal(c_obs.data, before)
        obs = c_obs.copy()
        got = vgcc_blend(obs, c_prior, pair, overwrite_obs=True)
        assert got.data.tobytes() == want.data.tobytes()
        assert np.shares_memory(got.data, obs.data)
        assert not np.array_equal(want.data, before)

    @pytest.mark.parametrize("feather", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("occluded", [True, False])
    def test_non_finite_feather(self, setup, feather, occluded):
        gt, body, c_obs, c_prior = setup
        pair = MaskPair(body & ~occluded, body & occluded, body)
        with pytest.raises(DomainError, match="feather_px"):
            vgcc_blend(c_obs, c_prior, pair, feather)

    def test_blend_beats_zero_fill(self, sphere_mesh, sphere_field, frame128):
        # ratio 0.6: completion from a smoothed prior must reconstruct at
        # least as well as leaving the occluded coefficients zeroed
        gt_pts, _ = sample_surface(sphere_mesh, 10_000, seed=0)
        body = render_silhouette(sphere_mesh, frame128)
        prior = degrade_prior(sphere_mesh, 20, 0.5)
        c_prior = mesh_to_fof(prior, frame128, BasisConfig(15))
        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 2, 0.6))
        c_obs = occlude_field(sphere_field, pair, "zero")

        naive_pts, _ = sample_surface(
            reconstruct_field(c_obs, frame128, 128), 10_000, seed=0)
        blend_pts, _ = sample_surface(
            reconstruct_field(vgcc_blend(c_obs, c_prior, pair, 3.0), frame128, 128),
            10_000, seed=0)
        assert chamfer(blend_pts, gt_pts) <= chamfer(naive_pts, gt_pts)

    def test_bounded_completion_error(self, sphere_mesh, sphere_field, frame128):
        # blend error <= prior error + unoccluded round-trip error + 0.02
        gt_pts, _ = sample_surface(sphere_mesh, 10_000, seed=0)
        body = render_silhouette(sphere_mesh, frame128)
        prior = degrade_prior(sphere_mesh, 20, 0.5)
        c_prior = mesh_to_fof(prior, frame128, BasisConfig(15))
        prior_pts, _ = sample_surface(prior, 10_000, seed=0)
        cd_prior = chamfer(prior_pts, gt_pts)
        rt_pts, _ = sample_surface(
            reconstruct_field(sphere_field, frame128, 128), 10_000, seed=0)
        cd_rt = chamfer(rt_pts, gt_pts)

        pair = synthesize_occlusion(body, OccluderSpec("rectangle", 9, 0.6))
        c_obs = occlude_field(sphere_field, pair, "zero")
        blend_pts, _ = sample_surface(
            reconstruct_field(vgcc_blend(c_obs, c_prior, pair, 3.0), frame128, 128),
            10_000, seed=0)
        assert chamfer(blend_pts, gt_pts) <= cd_prior + cd_rt + 2.0
