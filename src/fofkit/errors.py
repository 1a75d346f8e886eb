"""Exception hierarchy shared across the toolkit, and argument checks.

A check is (predicate, what a valid value is). The library defines the check
of each setting next to the code that reads it and passes it to require, and
config.SETTINGS rows reuse those objects. The constructors below reject NaN.

Every array argument (point sets, fields, grids, maps, masks) passes
check_array: ShapeError for one that is not numbers or has the wrong shape,
DomainError for a non-finite value. An argument that must be a library
object (a mesh, frame, grid or normal map) passes check_type: ShapeError for
anything else. A file path passes check_path before anything is opened:
ShapeError for anything but str, bytes or os.PathLike.
"""

import math
import numbers
import os

import numpy as np


class FofkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FofkitError, ValueError):
    """An argument is outside the mathematical domain of the operation: an
    out-of-range or non-finite scalar, an array with a non-finite value, or
    an unknown name."""


class ShapeError(FofkitError, ValueError):
    """An array argument has the wrong shape, such as a point set that is not
    (n, 3), or is not numbers; or the dimensions of the inputs do not agree."""


class MeshError(FofkitError, ValueError):
    """A mesh violates a structural precondition (e.g. not watertight)."""


class ObjParseError(FofkitError, ValueError):
    """Malformed Wavefront OBJ input."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class OcclusionError(FofkitError, RuntimeError):
    """The requested occlusion ratio could not be synthesized."""


class ConfigError(FofkitError, ValueError):
    """Invalid harness configuration."""


class TensorFormatError(FofkitError, ValueError):
    """Base class for tensor container format violations."""


class BadMagicError(TensorFormatError):
    """File does not start with the expected container magic."""


class UnsupportedVersionError(TensorFormatError):
    """Container version or dtype code is not supported."""


class TruncatedPayloadError(TensorFormatError):
    """The file is not as long as its header promises: payload or footer cut
    short, or bytes after the footer."""


class CrcMismatchError(TensorFormatError):
    """Payload checksum does not match the stored CRC64."""


class SizeError(FofkitError, MemoryError):
    """An array the operation needs is larger than numpy can make: its size
    in bytes does not fit numpy's index type. A MemoryError, as an array
    that the allocator refuses is."""


class ImageFormatError(FofkitError, ValueError):
    """Malformed PFM/PGM/PPM/PNG input."""

    def __init__(self, path, offset, message):
        self.path = path
        self.offset = offset
        super().__init__(f"{path}: byte {offset}: {message}")


def require(name, value, check, error=DomainError):
    """Raise error naming `name` unless check accepts value; a predicate that
    raises, as a comparison does on a string or an array, rejects it."""
    try:
        if check[0](value):
            return
    except (TypeError, ValueError, ArithmeticError):
        pass
    raise error(f"{name} must be {check[1]}, got {value!r}")


def integer(low):
    return (lambda v: isinstance(v, numbers.Integral) and v >= low), f"an integer >= {low}"


def real(lo=-math.inf, hi=math.inf):
    what = (f"in [{lo}, {hi}]" if hi < math.inf else
            f"finite and >= {lo}" if lo > -math.inf else "finite")
    return (lambda v: math.isfinite(v) and lo <= v <= hi), what


def above(lo):
    return (lambda v: math.isfinite(v) and v > lo), f"finite and > {lo}"


def one_of(names):
    return (lambda v: v in names), f"one of {list(names)}"


# Array element kinds accepted for each target dtype kind; bool counts as
# numbers only when the target is bool.
_KINDS = {"b": "biuf", "i": "iu", "f": "iuf"}


def check_array(value, what, shape, limit=math.inf, dtype=np.float64):
    """value as an array of dtype, or ShapeError if it is not numbers or its
    shape differs from shape (None matches any length; shape None any
    shape), DomainError if a value's magnitude is not below limit (NaN or
    infinite by default). The array is not copied when it already has dtype."""
    try:
        a = np.asarray(value)
    except ValueError:  # nested sequences of unequal lengths
        raise ShapeError(f"{what} must be {_describe(shape, dtype)}, "
                         "got a ragged sequence") from None
    if a.dtype.kind not in _KINDS[np.dtype(dtype).kind] or shape is not None and (
            a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))):
        raise ShapeError(f"{what} must be {_describe(shape, dtype)}, got {a.dtype} {a.shape}")
    if limit < math.inf:
        if not (np.abs(a) < limit).all():
            raise DomainError(f"{what} contain non-finite values or ones beyond {limit:g}")
    elif a.dtype.kind == "f" and not np.isfinite(a).all():
        raise DomainError(f"{what} contain non-finite values")
    return a.astype(dtype, copy=False)


def zeros(shape, what, dtype=np.float64):
    """np.zeros(shape, dtype), or SizeError naming what when the array is
    larger than numpy can make, which numpy reports as a ValueError. An
    array it can make but the allocator refuses raises numpy's MemoryError,
    also before any work."""
    try:
        return np.zeros(shape, dtype)
    except ValueError:
        raise SizeError(f"{what} of shape {shape} is larger than numpy can make") from None


def check_type(value, what, cls):
    """value, or ShapeError naming what and cls if it is not a cls."""
    if not isinstance(value, cls):
        raise ShapeError(f"{what} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def check_path(path):
    """path, or ShapeError unless it is a str, bytes or os.PathLike; open()
    would take an integer as a file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ShapeError(f"path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    return path


def _describe(shape, dtype):
    """An expected array as text, such as "an array of numbers of shape (h, w, 3)"."""
    what = "an array of " + ("integers" if np.dtype(dtype).kind == "i" else "numbers")
    if shape is None:
        return what
    names = iter("n" if shape.count(None) == 1 else "hwk")
    dims = ", ".join(next(names) if n is None else str(n) for n in shape)
    return f"{what} of shape ({dims}{',' * (len(shape) == 1)})"
