"""Fourier occupancy field core: basis, closed-form interval encoding, decoding.

A solid is stored per pixel as the truncated real Fourier series of its
z-occupancy indicator on the normalized depth axis z in [-1, 1]:

    O(z) = c_0 + sum_n [ c_cos_n * cos(n pi z) + c_sin_n * sin(n pi z) ]

For one occupied interval [a, b] the L2-projection coefficients are closed
form (summed over intervals for multi-interval rays):

    c_0      += (b - a) / 2
    c_cos_n  += (sin(n pi b) - sin(n pi a)) / (n pi)
    c_sin_n  += (cos(n pi a) - cos(n pi b)) / (n pi)

interval_terms is the one implementation of these terms, one row per
interval. intervals_to_coeffs adds a ray's rows in ascending order, and the
batched encoder mesh.mesh_to_fof adds every pixel's rows in the same order,
so both give the same coefficients bit for bit.

Channel layout is [1, cos(pi z), sin(pi z), cos(2 pi z), sin(2 pi z), ...]
giving K = 2 * order + 1 channels. Decoded values are not clamped: the
truncation ringing is part of the representation and the 0.5 iso-crossing is
taken on the raw series.

All arithmetic is float64; file storage quantizes to float32 (see tensor_io).
Decoding accumulates strictly in channel order so that grid decoding and
single-ray decoding are bit-identical. Grid decoding (decode_grid, and
surface.field_to_grid through the same kernel) skips pixels whose
coefficients are all zero (off the body, the field is identically zero):
such a pixel's sum starts at +0.0 and adds only signed zeros, and
+0.0 + (+-0.0) is +0.0, so writing +0.0 there without decoding is exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, check_array, check_type, integer, require
from .raster import OrthoFrame

DEFAULT_ORDER = 15
ORDER = integer(0)
DEPTH_RES = integer(2)  # decode depths; surface's grid_res is one
# check_array's limit for depths: the magnitudes below it are those <= 1.
_DEPTH_LIMIT = np.nextafter(1.0, 2.0)

# Pixels decoded together by _decode_pixels; a (chunk, depth) buffer stays in cache.
_DECODE_CHUNK = 512


@dataclass(frozen=True)
class BasisConfig:
    """Harmonic order of the depth basis; K = 2 * order + 1 channels."""

    order: int = DEFAULT_ORDER

    def __post_init__(self):
        require("order", self.order, ORDER)

    @property
    def channels(self):
        return 2 * self.order + 1

    def freqs(self):
        """Angular frequencies n*pi for n = 1..order."""
        return np.arange(1, self.order + 1, dtype=np.float64) * np.pi


@dataclass
class FourierField:
    """Per-pixel coefficient stack, layout [row][col][channel]."""

    data: np.ndarray  # (H, W, K) float64

    def __post_init__(self):
        self.data = check_array(self.data, "field coefficients", (None, None, None))
        if self.data.shape[2] % 2 != 1:
            raise ShapeError(f"channel count must be odd, got {self.data.shape[2]}")

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]

    @property
    def order(self):
        return (self.channels - 1) // 2

    def copy(self):
        return FourierField(self.data.copy())


def _check_frame(field, frame):
    """ShapeError unless frame is an OrthoFrame with one pixel per pixel of
    the field."""
    check_type(frame, "frame", OrthoFrame)
    if (field.height, field.width) != (frame.height, frame.width):
        raise ShapeError(f"field {field.height}x{field.width} does not match "
                         f"frame {frame.height}x{frame.width}")


@dataclass
class IntervalList:
    """Disjoint, ascending (z_in, z_out) pairs with -1 <= z_in < z_out <= 1."""

    intervals: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        iv = self.intervals = check_array(self.intervals, "intervals", (None, 2), _DEPTH_LIMIT)
        if not np.all(iv[:, 0] < iv[:, 1]):
            raise DomainError("intervals must satisfy z_in < z_out")
        if not np.all(iv[1:, 0] >= iv[:-1, 1]):
            raise DomainError("intervals must be disjoint and sorted ascending")

    def __len__(self):
        return self.intervals.shape[0]

    def total_length(self):
        if not len(self):
            return 0.0
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))


def basis_eval(z, cfg=BasisConfig()):
    """Evaluate [1, cos(pi z), sin(pi z), ..., cos(N pi z), sin(N pi z)].

    z may be a scalar or an array; one basis row of length K is produced per
    depth. A depth that is not a number raises ShapeError, one outside
    [-1, 1] DomainError.
    """
    z = check_array(z, "depth z", None, _DEPTH_LIMIT)
    out = np.empty(z.shape + (cfg.channels,), dtype=np.float64)
    out[..., 0] = 1.0
    args = z[..., None] * cfg.freqs()
    out[..., 1::2] = np.cos(args)
    out[..., 2::2] = np.sin(args)
    return out


def interval_terms(a, b, cfg=BasisConfig()):
    """Closed-form coefficients of each interval [a_i, b_i] on its own.

    a and b are equal-length arrays of interval endpoints; row i of the
    (len(a), K) result is the projection of the indicator of [a_i, b_i].
    Summing rows in ascending interval order is intervals_to_coeffs; the
    batched encoder (mesh.mesh_to_fof) adds the same rows per pixel.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[:, None]
    freqs = cfg.freqs()
    terms = np.empty((a.shape[0], cfg.channels), dtype=np.float64)
    terms[:, :1] = (b - a) / 2.0
    terms[:, 1::2] = (np.sin(freqs * b) - np.sin(freqs * a)) / freqs
    terms[:, 2::2] = (np.cos(freqs * a) - np.cos(freqs * b)) / freqs
    return terms


def intervals_to_coeffs(iv, cfg=BasisConfig()):
    """Closed-form coefficients of the occupancy indicator of ``iv``: the
    rows of interval_terms added in ascending interval order from zero."""
    if not isinstance(iv, IntervalList):
        iv = IntervalList(iv)
    coeffs = np.zeros(cfg.channels, dtype=np.float64)
    for row in interval_terms(iv.intervals[:, 0], iv.intervals[:, 1], cfg):
        coeffs += row
    return coeffs


def decode_ray(coeffs, z, cfg=None):
    """Occupancy O(z) = b(z) . coeffs at one depth z for one ray; unclamped."""
    coeffs = check_array(coeffs, "coeffs", (None,))
    if np.ndim(z) != 0:
        raise ShapeError(f"depth z must be a scalar, got shape {np.shape(z)}")
    if cfg is None:
        if coeffs.shape[0] % 2 != 1:
            raise ShapeError(f"coefficient count must be odd, got {coeffs.shape[0]}")
        cfg = BasisConfig((coeffs.shape[0] - 1) // 2)
    if coeffs.shape[0] != cfg.channels:
        raise ShapeError(f"expected {cfg.channels} coefficients, got {coeffs.shape[0]}")
    basis = basis_eval(z, cfg)
    total = 0.0
    for c in range(cfg.channels):
        total += coeffs[c] * basis[c]
    return float(total)


def depth_samples(depth_res):
    """Uniform decode depths z_k = -1 + 2k/(depth_res - 1); depth_res is an
    integer >= 2."""
    require("depth_res", depth_res, DEPTH_RES)
    k = np.arange(depth_res, dtype=np.float64)
    return -1.0 + 2.0 * k / (depth_res - 1)


def decode_grid(fof, depth_res):
    """Sample occupancy on the (H, W, depth_res) grid of uniform depths.

    Only pixels with a non-zero coefficient are decoded; the rest stay +0.0
    (see _decode_pixels), and every sample equals decode_ray at the same
    depth bit for bit.
    """
    if not isinstance(fof, FourierField):
        fof = FourierField(fof)
    require("depth_res", depth_res, DEPTH_RES)
    live = np.flatnonzero(np.any(fof.data != 0.0, axis=2))
    out = np.zeros((fof.height * fof.width, depth_res))
    _decode_pixels(fof, live, out, live)
    return out.reshape(fof.height, fof.width, depth_res)


def _decode_pixels(fof, pixels, out, rows):
    """Decode the pixels with flat indices `pixels` into rows of `out`.

    out is an (n, depth_res) float64 array; row rows[i] receives pixel
    pixels[i] at the depth_res uniform depths, and no other row is written;
    rows None stands for rows 0, 1, ... Callers leave +0.0 in the rows of
    pixels whose coefficients are all zero, which is exact: such a sum
    starts at +0.0 and each term is a signed zero, and +0.0 + (+-0.0) is
    +0.0. The accumulator is therefore never -0.0, so a +-0.0 coefficient
    adds nothing to any sum, and two pixels whose coefficients compare
    equal with == decode to the same samples bit for bit. Pixels are
    decoded in chunks, accumulating channel by channel into a zeroed
    buffer (out's own rows when rows is None), so every sample equals
    decode_ray at the same depth bit for bit; each chunk gathers its own
    coefficients, so no temporary spans the pixels.
    """
    cfg = BasisConfig(fof.order)
    depth_res = out.shape[1]
    basis = basis_eval(depth_samples(depth_res), cfg)  # (D, K)
    data = fof.data.reshape(-1, cfg.channels)
    term = np.empty((min(_DECODE_CHUNK, len(pixels)), depth_res), dtype=np.float64)
    acc = None if rows is None else np.empty_like(term)
    for s in range(0, len(pixels), _DECODE_CHUNK):
        coeffs = np.ascontiguousarray(data[pixels[s:s + _DECODE_CHUNK]].T)  # (K, n)
        n = coeffs.shape[1]
        a, t = (out[s:s + n] if rows is None else acc[:n]), term[:n]
        a.fill(0.0)
        for c in range(cfg.channels):
            np.multiply(coeffs[c, :, None], basis[:, c], out=t)
            a += t
        if rows is not None:
            out[rows[s:s + n]] = a


def parseval_energy(coeffs):
    """Series energy 2*c0^2 + sum_n (c_cos_n^2 + c_sin_n^2).

    Equals the L2 norm of the truncated series on [-1, 1]; bounded by the
    occupied length of the encoded interval list (Bessel).
    """
    coeffs = check_array(coeffs, "coeffs", (None,))
    if coeffs.shape[0] % 2 != 1:
        raise ShapeError(f"coeffs must be odd in length, got {coeffs.shape[0]}")
    return float(2.0 * coeffs[0] ** 2 + np.sum(coeffs[1:] ** 2))
