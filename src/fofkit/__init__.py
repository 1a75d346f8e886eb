"""Fourier occupancy field toolkit.

Encodes watertight meshes into per-pixel depth-axis Fourier coefficient
stacks, reconstructs surfaces from them, synthesizes seeded occlusions,
completes occluded fields from a prior, and measures the results with the
standard geometry metrics. The cli module drives the reproducible experiment
harness.

The public names below are resolved on first use (PEP 562 module
__getattr__ and __dir__): `fofkit.chamfer` or `from fofkit import chamfer`
imports fofkit.metrics then, and not before. So a command that needs no
metric, such as `fofkit encode`, never loads fofkit.metrics or the
scipy.spatial kd-tree it imports.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "fof": ["BasisConfig", "FourierField", "IntervalList", "basis_eval", "decode_grid",
            "decode_ray", "intervals_to_coeffs", "parseval_energy"],
    "raster": ["OrthoFrame"],
    "mesh": ["TriMesh", "check_watertight", "load_obj", "mesh_to_fof", "normalize_mesh",
             "ray_intervals", "save_obj"],
    "surface": ["OccupancyGrid", "marching_cubes", "mesh_volume", "reconstruct_field",
                "sample_surface"],
    "render": ["NormalMap", "normal_map_error", "render_normals", "render_silhouette"],
    "occlusion": ["MaskPair", "OccluderSpec", "occlude_field", "synthesize_occlusion"],
    "completion": ["degrade_prior", "vgcc_blend"],
    "metrics": ["EvalReference", "MetricReport", "chamfer", "evaluate_pair", "p2s"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    """A public name, imported from its module on first use and then kept
    in the package's namespace."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
