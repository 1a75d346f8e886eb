"""Fourier occupancy field toolkit.

Encodes watertight meshes into per-pixel depth-axis Fourier coefficient
stacks, reconstructs surfaces from them, synthesizes seeded occlusions,
completes occluded fields from a prior, and measures the results with the
standard geometry and image metrics. The cli module drives the reproducible
experiment harness.
"""

__version__ = "0.1.0"

from .fof import (BasisConfig, FourierField, IntervalList, basis_eval, decode_grid,
                  decode_ray, intervals_to_coeffs, parseval_energy)
from .raster import OrthoFrame
from .mesh import (TriMesh, check_watertight, load_obj, mesh_to_fof, normalize_mesh,
                   ray_intervals, save_obj)
from .surface import OccupancyGrid, marching_cubes, mesh_volume, reconstruct_field, \
    sample_surface
from .render import NormalMap, normal_map_error, render_normals, render_silhouette
from .occlusion import (MaskPair, OccluderSpec, occlude_field, occlude_image,
                        synthesize_occlusion, weight_map)
from .completion import degrade_prior, vgcc_blend
from .losses import (FeaturePyramid, LevelWeights, feat_loss, geo_loss, image_loss,
                     mse_coeff_loss, normal_loss)
from .metrics import EvalReference, MetricReport, chamfer, evaluate_pair, p2s, psnr, ssim

__all__ = [
    "BasisConfig", "FourierField", "IntervalList", "basis_eval", "decode_grid",
    "decode_ray", "intervals_to_coeffs", "parseval_energy",
    "OrthoFrame", "TriMesh", "check_watertight", "load_obj", "mesh_to_fof",
    "normalize_mesh", "ray_intervals", "save_obj",
    "OccupancyGrid", "marching_cubes", "mesh_volume", "reconstruct_field",
    "sample_surface",
    "NormalMap", "normal_map_error", "render_normals", "render_silhouette",
    "MaskPair", "OccluderSpec", "occlude_field", "occlude_image",
    "synthesize_occlusion", "weight_map",
    "degrade_prior", "vgcc_blend",
    "FeaturePyramid", "LevelWeights", "feat_loss", "geo_loss", "image_loss",
    "mse_coeff_loss", "normal_loss",
    "EvalReference", "MetricReport", "chamfer", "evaluate_pair", "p2s", "psnr", "ssim",
]
