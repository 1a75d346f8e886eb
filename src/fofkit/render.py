"""Software z-buffer rasterizer for pixel-aligned front/back normal maps.

Views: the front camera sits on +z looking along -z; the back camera sits on
-z looking along +z. The back image keeps the front image's pixel grid (its
x axis is mirrored relative to the back camera's natural frame) so both maps
are pixel-aligned. Normals are reported in the right-handed view frame of
each camera: front (n_x, n_y, n_z), back (-n_x, n_y, -n_z); a normal whose
view z is negative (a back-facing surface, e.g. an open sheet seen from
behind) is negated so foreground normals always face the viewer.

Per pixel the nearest surface wins; depth ties keep the lowest triangle
index, so output is deterministic and independent of batching. The coverage
records do not depend on the view, so render_normals(mesh, frame,
(FRONT, BACK)) rasterizes once for both maps.
"""

import numpy as np

from .errors import ShapeError, check_array, check_type, one_of, require
from .mesh import TriMesh
from .raster import CoverageRecords, OrthoFrame, _face_blocks, bary_interp, rasterize_coverage

from dataclasses import dataclass

FRONT = "front"
BACK = "back"


@dataclass
class NormalMap:
    """Unit view-space normals with a foreground mask; background is zero."""

    data: np.ndarray  # (H, W, 3) float64
    mask: np.ndarray  # (H, W) bool

    def __post_init__(self):
        self.data = check_array(self.data, "normal map data", (None, None, 3))
        self.mask = check_array(self.mask, "normal map mask", self.data.shape[:2], dtype=bool)

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @classmethod
    def from_array(cls, data):
        """Rebuild a map from raw pixels; foreground = non-zero vectors."""
        data = check_array(data, "normal map data", (None, None, 3))
        mask = np.linalg.norm(data, axis=2) > 0.5
        out = data.copy()
        out[~mask] = 0.0
        return cls(out, mask)


def render_normals(mesh, frame=OrthoFrame(), view=FRONT):
    """Rasterize interpolated surface normals into a NormalMap.

    view is FRONT, BACK or a tuple of them; a tuple returns a tuple with one
    map per entry, all resolved from one coverage pass, since the coverage
    records do not depend on the view: only the depth sign, the nearest-
    surface sort and the normal flip do. Uses per-vertex normals when the
    mesh carries them, otherwise flat face normals. An empty mesh renders to
    all-background maps.
    """
    check_type(mesh, "mesh", TriMesh)
    check_type(frame, "frame", OrthoFrame)
    views = view if isinstance(view, tuple) else (view,)
    for v in views:
        require("view", v, one_of((FRONT, BACK)))
    H, W = frame.height, frame.width
    # Faces are projected and rasterized one raster block at a time, each
    # block's own corners only, so no per-face or per-vertex array spans
    # the mesh. Each record's depth is interpolated from its own face's
    # corners.
    out = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty((0, 3)), np.empty(0))]
    for block in _face_blocks(mesh.n_faces):
        xy, depth = frame.project_faces(mesh.vertices, mesh.faces[block])
        rec = rasterize_coverage(xy, W, H)
        out.append((rec.pixel, rec.tri + block.start, rec.bary,
                    bary_interp(rec.bary, depth[rec.tri])))
    *rec, z = map(np.concatenate, zip(*out))
    if len(z) == 0:
        maps = tuple(NormalMap(np.zeros((H, W, 3)), np.zeros((H, W), dtype=bool))
                     for _ in views)
    else:
        rec = CoverageRecords(*rec)
        maps = tuple(_nearest_normals(mesh, rec, z, v, H, W) for v in views)
    return maps if isinstance(view, tuple) else maps[0]


def _nearest_normals(mesh, rec, z, view, H, W):
    """The NormalMap of one view from the coverage records rec and their
    front-view depths z; the back view sees depth -z."""
    # Nearest surface per pixel: sort by (pixel, -view depth, tri) and keep
    # the first record of each pixel run. Negation is exact, so the back
    # view's key z equals the negated back depth.
    order = np.lexsort((rec.tri, z if view == BACK else -z, rec.pixel))
    pix = rec.pixel[order]
    first = np.ones(len(pix), dtype=bool)
    first[1:] = pix[1:] != pix[:-1]
    win = order[first]
    win_pix = rec.pixel[win]
    win_tri = rec.tri[win]
    win_bary = rec.bary[win]

    if mesh.normals is None:
        n = mesh.face_normals(win_tri)
    else:
        vn = mesh.normals[mesh.faces[win_tri]]  # (k, 3, 3)
        n = np.einsum("ij,ijk->ik", win_bary, vn)
    if view == BACK:
        n = n * np.array([-1.0, 1.0, -1.0])
    # Renormalize and face the viewer.
    ln = np.linalg.norm(n, axis=1, keepdims=True)
    ln[ln == 0.0] = 1.0
    n = n / ln
    n = np.where(n[:, 2:3] < 0.0, -n, n)

    out = np.zeros((H, W, 3), dtype=np.float64)
    mask = np.zeros((H, W), dtype=bool)
    rows, cols = np.divmod(win_pix, W)
    out[rows, cols] = n
    mask[rows, cols] = True
    return NormalMap(out, mask)


def render_silhouette(mesh, frame=OrthoFrame()):
    """Foreground mask of the front view."""
    return render_normals(mesh, frame, FRONT).mask


def normal_map_error(a, b):
    """Mean normal discrepancy over the union of foreground masks, x100.

    Pixels where exactly one map has foreground contribute distance 1, so
    silhouette mismatches are penalized; symmetric in its arguments.
    """
    check_type(a, "normal map a", NormalMap)
    check_type(b, "normal map b", NormalMap)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"normal map shapes differ: {a.data.shape} vs {b.data.shape}")
    union = a.mask | b.mask
    if not union.any():
        return 0.0
    both = a.mask & b.mask
    dist = np.zeros(a.data.shape[:2], dtype=np.float64)
    dist[both] = np.linalg.norm(a.data[both] - b.data[both], axis=1)
    dist[union & ~both] = 1.0
    return float(dist[union].mean() * 100.0)
