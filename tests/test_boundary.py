"""The library boundary: each argument contract is written once, and no
malformed argument turns into a number.

* Each config.SETTINGS row's range check is the object that the library
  function reading the setting passes to errors.require.
* Arguments that were once accepted, turned into NaN or garbage, or raised
  an untyped exception now raise a FofkitError that names the argument.
* A Hypothesis property, in the style of QuickCheck (Claessen & Hughes, ICFP
  2000) and Hypothesis (MacIver et al., JOSS 2019), feeds malformed scalars,
  point sets, arrays and objects to the public names that take them. Each call
  returns a finite result or raises a FofkitError, never another exception.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import fofkit
from fofkit import (BasisConfig, EvalReference, FourierField, IntervalList, MaskPair, NormalMap,
                    OccluderSpec, OccupancyGrid, OrthoFrame, TriMesh, basis_eval, chamfer,
                    check_watertight, decode_grid, decode_ray, degrade_prior, evaluate_pair,
                    intervals_to_coeffs, load_obj, marching_cubes, mesh_to_fof, mesh_volume,
                    normal_map_error, normalize_mesh, occlude_field, p2s, parseval_energy,
                    ray_intervals, reconstruct_field, render_normals, render_silhouette,
                    sample_surface, save_obj, synthesize_occlusion, vgcc_blend)
from fofkit import sweep
from fofkit.config import SETTINGS, HarnessConfig
from fofkit.errors import FofkitError
from fofkit.mesh import fit_to_frame
from fofkit.metrics import p2s_exhaustive
from fofkit.shapes import make_cube
from fofkit.tensor_io import read_pgm, read_png16, read_tensor, write_pfm, write_png16, write_tensor

nan, inf = math.nan, math.inf

CUBE = make_cube(1.0)
FRAME = OrthoFrame(8, 8)
FIELD = mesh_to_fof(CUBE, FRAME, BasisConfig(2))
BODY = render_silhouette(CUBE, FRAME)
M = BODY & (np.arange(8) < 4)[None, :]
PAIR = MaskPair(BODY & ~M, M, BODY)
GRID = OccupancyGrid(np.random.default_rng(0).random((4, 4, 4)))
NORMALS = render_normals(CUBE, FRAME)


# -- settings reuse the library's checks --------------------------------------

def test_each_setting_check_is_the_library_check(tmp_path, monkeypatch):
    """Run a sweep cell and record every require call in the library; each
    checked SETTINGS row's check must be among them, by identity, with the
    configured value (or one item of a list value)."""
    calls, real = [], fofkit.errors.require

    def spy(name, value, check):
        calls.append((name, value, check))
        return real(name, value, check)

    # config's own calls do not count: the library must pass the same object.
    for module in list(vars(fofkit).values()):
        if module is not fofkit.config and getattr(module, "require", None) is real:
            monkeypatch.setattr(module, "require", spy)
    cfg = HarnessConfig.load(overrides=[
        "frame.width=24", "frame.height=24", "extract.grid_res=24", "sweep.ratios=0.4",
        "sweep.seeds=3", "sweep.eval_samples=200", "sweep.eval_seed=2",
        "occlude.policy=noise"])
    sweep.run_sweep(cfg, str(tmp_path), jobs=1)
    checked = [row for row in SETTINGS if row[4] is not None]
    assert len(checked) == len(SETTINGS) - 1  # all but sweep.jobs
    for sec, key, _, _, check, attr in checked:
        value = getattr(cfg.frame() if attr is None else cfg, attr or key)
        values = value if isinstance(value, list) else [value]
        assert any(c is check and v in values for _, v, c in calls), f"{sec}.{key}"


# -- probes that once leaked ---------------------------------------------------

PROBES = {
    "BasisConfig(2.5)": ("order", lambda: BasisConfig(2.5)),
    "BasisConfig(nan)": ("order", lambda: BasisConfig(nan)),
    "OrthoFrame(2.5, 4)": ("width", lambda: OrthoFrame(2.5, 4)),
    "OrthoFrame(nan, 4)": ("width", lambda: OrthoFrame(nan, 4)),
    "sample_surface(mesh, 2.5)": ("n", lambda: sample_surface(CUBE, 2.5)),
    "evaluate_pair(r, g, frame, 2.5)": ("n_samples",
                                        lambda: evaluate_pair(CUBE, CUBE, FRAME, 2.5)),
    "OccluderSpec(kind, nan, 0.4)": ("seed", lambda: OccluderSpec("rectangle", nan, 0.4)),
    "OccluderSpec(kind, 2.5, 0.4)": ("seed", lambda: OccluderSpec("rectangle", 2.5, 0.4)),
    "occlude_field(sigma=nan)": ("sigma",
                                 lambda: occlude_field(FIELD, PAIR, "noise", sigma=nan)),
    "chamfer((6, 2) points)": ("chamfer points", lambda: chamfer(np.ones((6, 2)), CUBE.vertices)),
    "p2s((6, 2) points)": ("p2s points", lambda: p2s(np.ones((6, 2)), CUBE)),
    # Squared distances beyond about 1e308 overflow the kd-tree (IndexError
    # at the parent), fourth powers beyond about 1e308 the P2S kernel (NaN).
    "chamfer(1e200 point)": ("chamfer points too far apart",
                             lambda: chamfer([[1e200, 0.0, 0.0]], CUBE.vertices)),
    "p2s(1e80 cube)": ("mesh vertices", lambda: p2s(np.ones((2, 3)), TriMesh(
        CUBE.vertices * 1e80, CUBE.faces))),
    "TriMesh((6, 2) vertices)": ("mesh vertices", lambda: TriMesh(np.ones((6, 2)), [[0, 1, 2]])),
    "TriMesh(face 2.5)": ("mesh faces", lambda: TriMesh(CUBE.vertices, [[0, 1, 2.5]])),
    "decode_ray(c, nan)": ("depth z", lambda: decode_ray(np.zeros(5), nan)),
    "decode_ray(c, [0.1, 0.2])": ("depth z", lambda: decode_ray(np.zeros(5), [0.1, 0.2])),
    "IntervalList(flat)": ("intervals", lambda: IntervalList([-0.5, -0.2, 0.1, 0.4])),
    "ray_intervals(pixel 3.5)": ("pixel", lambda: ray_intervals(CUBE, FRAME, (3.5, 4))),
    # Whole arrays that once raised an untyped ValueError, read as all-True
    # masks or returned NaN.
    "FourierField('ab')": ("field coefficients", lambda: FourierField("ab")),
    "FourierField(ragged)": ("field coefficients",
                             lambda: FourierField([[[0.5]], [[0.5, 0.5]]])),
    "TriMesh(ragged vertices)": ("mesh vertices", lambda: TriMesh([[0, 0, 0], [1, 1]], [])),
    "MaskPair('a', 'b', 'c')": ("body", lambda: MaskPair("a", "b", "c")),
    "MaskPair(NaN mask)": ("^M contain non-finite",
                           lambda: MaskPair(BODY, np.where(M, nan, 0.0), BODY)),
    "NormalMap(NaN)": ("normal map data",
                       lambda: NormalMap(np.full((2, 2, 3), nan), np.ones((2, 2), bool))),
    "OccupancyGrid('a')": ("grid values", lambda: OccupancyGrid("a")),
    "parseval_energy('ab')": ("coeffs", lambda: parseval_energy("ab")),
    "parseval_energy([nan, 0, 0])": ("coeffs", lambda: parseval_energy([nan, 0, 0])),
    "decode_ray([nan, 0, 0], 0)": ("coeffs", lambda: decode_ray([nan, 0, 0], 0)),
    "synthesize_occlusion('a')": ("body", lambda: synthesize_occlusion("a", OccluderSpec())),
    "synthesize_occlusion(NaN body)": ("body", lambda: synthesize_occlusion(
        np.full((8, 8), nan), OccluderSpec())),
    "p2s_exhaustive((6, 2) points)": ("p2s points",
                                      lambda: p2s_exhaustive(np.ones((6, 2)), CUBE)),
    # Objects that once raised AttributeError.
    "marching_cubes('a')": ("^grid must be of type OccupancyGrid", lambda: marching_cubes("a")),
    "normal_map_error('a', b)": ("^normal map a must be of type NormalMap",
                                 lambda: normal_map_error("a", NORMALS)),
    "render_normals('a')": ("^mesh must be of type TriMesh", lambda: render_normals("a")),
    "check_watertight('a')": ("^mesh must be of type TriMesh", lambda: check_watertight("a")),
    "mesh_volume('a')": ("^mesh must be of type TriMesh", lambda: mesh_volume("a")),
    "mesh_to_fof(mesh, 'a')": ("^frame must be of type OrthoFrame",
                               lambda: mesh_to_fof(CUBE, "a")),
    "mesh_to_fof(mesh, frame, 'a')": ("^cfg must be of type BasisConfig",
                                      lambda: mesh_to_fof(CUBE, FRAME, "a")),
    "render_normals(mesh, 'a')": ("^frame must be of type OrthoFrame",
                                  lambda: render_normals(CUBE, "a")),
    "reconstruct_field(field, 'a')": ("^frame must be of type OrthoFrame",
                                      lambda: reconstruct_field(FIELD, "a")),
    "EvalReference(gt, 'a')": ("^frame must be of type OrthoFrame",
                               lambda: EvalReference(CUBE, "a")),
    "evaluate_pair('a', gt, frame)": ("^mesh must be of type TriMesh",
                                      lambda: evaluate_pair("a", CUBE, FRAME)),
    "evaluate_pair(recon, 'a', frame)": ("^mesh must be of type TriMesh",
                                         lambda: evaluate_pair(CUBE, "a", FRAME)),
    "sample_surface('a', 4)": ("^mesh must be of type TriMesh", lambda: sample_surface("a", 4)),
    "p2s(points, 'a')": ("^mesh must be of type TriMesh", lambda: p2s(CUBE.vertices, "a")),
    "degrade_prior('a')": ("^mesh must be of type TriMesh", lambda: degrade_prior("a")),
    "normalize_mesh('a')": ("^mesh must be of type TriMesh", lambda: normalize_mesh("a")),
    "fit_to_frame('a')": ("^mesh must be of type TriMesh", lambda: fit_to_frame("a")),
    "fit_to_frame(mesh, 'a')": ("^frame must be of type OrthoFrame",
                                lambda: fit_to_frame(CUBE, "a")),
    "fit_to_frame(mesh, frame, 'a')": ("^margin must be", lambda: fit_to_frame(CUBE, FRAME, "a")),
    "occlude_field(field, 'a')": ("^pair must be of type MaskPair",
                                  lambda: occlude_field(FIELD, "a")),
    "vgcc_blend(field, field, 'a')": ("^pair must be of type MaskPair",
                                      lambda: vgcc_blend(FIELD, FIELD, "a")),
    "synthesize_occlusion(body, 'a')": ("^spec must be of type OccluderSpec",
                                        lambda: synthesize_occlusion(BODY, "a")),
    # File entry points: swapped arguments raised AttributeError, and an
    # integer path made open() read stdin or write stdout, and close it.
    "save_obj(path, mesh)": ("^mesh must be of type TriMesh", lambda: save_obj("m.obj", CUBE)),
    "save_obj(mesh, True)": ("^path must be", lambda: save_obj(CUBE, True)),
    "load_obj(0)": ("^path must be", lambda: load_obj(0)),
    "read_tensor(0)": ("^path must be", lambda: read_tensor(0)),
    "write_tensor(1, data)": ("^path must be", lambda: write_tensor(1, np.zeros(2))),
    "read_pgm(0)": ("^path must be", lambda: read_pgm(0)),
    "write_pfm(1, data)": ("^path must be", lambda: write_pfm(1, np.zeros((1, 1, 3)))),
    "read_png16(0)": ("^path must be", lambda: read_png16(0)),
    "write_png16(1, normals)": ("^path must be", lambda: write_png16(1, np.zeros((1, 1, 3)))),
}


@pytest.mark.parametrize("probe", PROBES)
def test_probe_raises_typed_error_naming_the_argument(probe):
    name, call = PROBES[probe]
    with pytest.raises(FofkitError, match=name):
        call()


# -- the property over the public names --------------------------------------

# Malformed scalars. Positive integers are left out: for a count they are
# valid, and a huge one is work, not a malformed argument.
SCALARS = st.one_of(
    st.sampled_from([nan, inf, -inf, 1e300, -1e300, 2.5, -0.5, -1, -3]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**9, -1),
    st.text(max_size=3),
    arrays(np.float64, array_shapes(max_dims=2, max_side=3), elements=st.floats(-2, 2)))

# Malformed point sets: any shape, with NaN, infinities and huge values.
COORDS = st.floats(-10, 10) | st.sampled_from([nan, inf, -inf, 1e75, -1e76, 1e300])
POINTS = st.one_of(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=COORDS),
    arrays(np.int64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.integers(-2, 9)),
    st.lists(st.lists(COORDS, min_size=3, max_size=3), max_size=4),
    st.text(max_size=3), st.floats(allow_nan=True), st.integers(-10**9, 10**9))

# Malformed interval lists: any shape, endpoints in and out of [-1, 1].
INTERVALS = st.one_of(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
           elements=st.floats(-1.5, 1.5) | st.sampled_from([nan, inf, -1.0, 1.0])),
    st.text(max_size=3), st.floats(allow_nan=True))

# Malformed arrays: strings, NaN and infinities, any number of dimensions,
# bool, empty arrays and ragged sequences.
ARRAYS = st.one_of(
    st.text(max_size=3), st.sampled_from([nan, inf, -inf, [[0.5], [0.5, 0.5]]]),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
           elements=st.floats(0, 1) | st.sampled_from([nan, inf, -inf])),
    arrays(np.bool_, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
    st.lists(st.text(max_size=2), max_size=2))

# Malformed objects: anything but the library object an argument names.
OBJECTS = st.one_of(SCALARS, ARRAYS)

# Malformed pixels: a bad row, or the wrong number of indices.
PIXELS = st.one_of(st.tuples(SCALARS, st.integers(0, 7)), SCALARS,
                   st.lists(st.integers(0, 7), max_size=3).map(tuple))

TARGETS = {
    "BasisConfig.order": (SCALARS, lambda v: BasisConfig(v)),
    "basis_eval.z": (SCALARS, lambda v: basis_eval(v, BasisConfig(2))),
    "decode_ray.z": (SCALARS, lambda v: decode_ray(np.zeros(5), v)),
    "decode_grid.depth_res": (SCALARS, lambda v: decode_grid(FIELD, v)),
    "OrthoFrame.width": (SCALARS, lambda v: OrthoFrame(v, 8)),
    "OrthoFrame.height": (SCALARS, lambda v: OrthoFrame(8, v)),
    "OrthoFrame.center": (SCALARS, lambda v: OrthoFrame(8, 8, v)),
    "OrthoFrame.half_extent": (SCALARS, lambda v: OrthoFrame(8, 8, (0, 0, 0), v)),
    "IntervalList.intervals": (INTERVALS, lambda v: IntervalList(v)),
    "intervals_to_coeffs.iv": (INTERVALS, lambda v: intervals_to_coeffs(v, BasisConfig(2))),
    "ray_intervals.pixel": (PIXELS, lambda v: ray_intervals(CUBE, FRAME, v)),
    "TriMesh.vertices": (POINTS, lambda v: TriMesh(v, [[0, 1, 2]])),
    "TriMesh.faces": (POINTS, lambda v: TriMesh(CUBE.vertices, v)),
    "TriMesh.normals": (POINTS, lambda v: TriMesh(CUBE.vertices, CUBE.faces, v)),
    "normalize_mesh.target_half_extent": (SCALARS, lambda v: normalize_mesh(CUBE, v)),
    "OccupancyGrid.origin": (SCALARS, lambda v: OccupancyGrid(GRID.values, origin=v)),
    "OccupancyGrid.spacing": (SCALARS, lambda v: OccupancyGrid(GRID.values, spacing=v)),
    "marching_cubes.iso": (SCALARS, lambda v: marching_cubes(GRID, v)),
    "reconstruct_field.grid_res": (SCALARS, lambda v: reconstruct_field(FIELD, FRAME, v)),
    "reconstruct_field.iso": (SCALARS, lambda v: reconstruct_field(FIELD, FRAME, 4, v)),
    "sample_surface.n": (SCALARS, lambda v: sample_surface(CUBE, v)),
    "sample_surface.seed": (SCALARS, lambda v: sample_surface(CUBE, 4, v)),
    "OccluderSpec.kind": (SCALARS, lambda v: OccluderSpec(v)),
    "OccluderSpec.seed": (SCALARS, lambda v: OccluderSpec("rectangle", v)),
    "OccluderSpec.ratio": (SCALARS, lambda v: OccluderSpec("rectangle", 0, v)),
    "occlude_field.policy": (SCALARS, lambda v: occlude_field(FIELD, PAIR, v)),
    "occlude_field.sigma": (SCALARS, lambda v: occlude_field(FIELD, PAIR, "noise", v)),
    "occlude_field.seed": (SCALARS, lambda v: occlude_field(FIELD, PAIR, "noise", 0.1, v)),
    "degrade_prior.iterations": (SCALARS, lambda v: degrade_prior(CUBE, v)),
    "degrade_prior.strength": (SCALARS, lambda v: degrade_prior(CUBE, 2, v)),
    "vgcc_blend.feather_px": (SCALARS, lambda v: vgcc_blend(FIELD, FIELD, PAIR, v)),
    "EvalReference.n_samples": (SCALARS, lambda v: EvalReference(CUBE, FRAME, v)),
    "EvalReference.seed": (SCALARS, lambda v: EvalReference(CUBE, FRAME, 10, v)),
    "evaluate_pair.n_samples": (SCALARS, lambda v: evaluate_pair(CUBE, CUBE, FRAME, v)),
    "evaluate_pair.seed": (SCALARS, lambda v: evaluate_pair(CUBE, CUBE, FRAME, 10, v)),
    "chamfer.a": (POINTS, lambda v: chamfer(v, CUBE.vertices)),
    "chamfer.b": (POINTS, lambda v: chamfer(CUBE.vertices, v)),
    "p2s.points": (POINTS, lambda v: p2s(v, CUBE)),
    "FourierField.data": (ARRAYS, lambda v: FourierField(v)),
    "MaskPair.V_M_body": (ARRAYS, lambda v: MaskPair(v, v, v)),
    "NormalMap.data": (ARRAYS, lambda v: NormalMap(v, np.ones((2, 2), bool))),
    "NormalMap.from_array": (ARRAYS, lambda v: NormalMap.from_array(v)),
    "OccupancyGrid.values": (ARRAYS, lambda v: OccupancyGrid(v)),
    "decode_ray.coeffs": (ARRAYS, lambda v: decode_ray(v, 0.5)),
    "parseval_energy.coeffs": (ARRAYS, lambda v: parseval_energy(v)),
    "synthesize_occlusion.body": (ARRAYS, lambda v: synthesize_occlusion(v, OccluderSpec())),
    "occlude_field.fof": (ARRAYS, lambda v: occlude_field(v, PAIR)),
    "vgcc_blend.c_obs": (ARRAYS, lambda v: vgcc_blend(v, FIELD, PAIR)),
    "marching_cubes.grid": (OBJECTS, lambda v: marching_cubes(v)),
    "normal_map_error.b": (OBJECTS, lambda v: normal_map_error(NORMALS, v)),
    "render_normals.mesh": (OBJECTS, lambda v: render_normals(v)),
    "render_silhouette.mesh": (OBJECTS, lambda v: render_silhouette(v)),
    "check_watertight.mesh": (OBJECTS, lambda v: check_watertight(v)),
    "mesh_volume.mesh": (OBJECTS, lambda v: mesh_volume(v)),
    "mesh_to_fof.frame": (OBJECTS, lambda v: mesh_to_fof(CUBE, v)),
    "mesh_to_fof.cfg": (OBJECTS, lambda v: mesh_to_fof(CUBE, FRAME, v)),
    "render_normals.frame": (OBJECTS, lambda v: render_normals(CUBE, v)),
    "reconstruct_field.frame": (OBJECTS, lambda v: reconstruct_field(FIELD, v)),
    "EvalReference.frame": (OBJECTS, lambda v: EvalReference(CUBE, v, 10)),
    "evaluate_pair.recon": (OBJECTS, lambda v: evaluate_pair(v, CUBE, FRAME, 10)),
    "evaluate_pair.gt": (OBJECTS, lambda v: evaluate_pair(CUBE, v, FRAME, 10)),
    "sample_surface.mesh": (OBJECTS, lambda v: sample_surface(v, 4)),
    "p2s.mesh": (OBJECTS, lambda v: p2s(CUBE.vertices, v)),
    "degrade_prior.mesh": (OBJECTS, lambda v: degrade_prior(v)),
    "normalize_mesh.mesh": (OBJECTS, lambda v: normalize_mesh(v)),
    "occlude_field.pair": (OBJECTS, lambda v: occlude_field(FIELD, v)),
    "vgcc_blend.pair": (OBJECTS, lambda v: vgcc_blend(FIELD, FIELD, v)),
    "synthesize_occlusion.spec": (OBJECTS, lambda v: synthesize_occlusion(BODY, v)),
}


def _finite(out):
    """No NaN or infinity in a result: its floats, arrays, tuples and the
    fields of the objects it returns."""
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if isinstance(out, (float, np.floating)):
        return math.isfinite(out)
    if isinstance(out, np.ndarray):
        return out.dtype.kind != "f" or bool(np.isfinite(out).all())
    if hasattr(out, "__dataclass_fields__"):
        return all(_finite(getattr(out, f)) for f in out.__dataclass_fields__)
    return True


def test_targets_cover_the_public_names():
    # The names that take a scalar, a point set, an array or an object, and
    # those left out with their reason.
    covered = {target.split(".")[0] for target in TARGETS}
    left_out = {
        "MetricReport",  # a result record that the metrics fill in
        # Files: PROBES check their path and mesh arguments; the OBJ reader and
        # writer have their own fuzz tests.
        "load_obj", "save_obj",
    }
    assert covered | left_out == set(fofkit.__all__)
    assert not covered & left_out


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_malformed_argument_fails_typed_or_gives_a_finite_result(target, data):
    values, call = TARGETS[target]
    value = data.draw(values, label="value")
    try:
        out = call(value)
    except FofkitError:
        return
    assert _finite(out), f"{target}({value!r}) returned {out!r}"
