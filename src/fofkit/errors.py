"""Exception hierarchy shared across the toolkit, and argument checks.

A check is (predicate, what a valid value is). The library defines the check
of each setting next to the code that reads it and passes it to require, and
config.SETTINGS rows reuse those objects. The constructors below reject NaN.
"""

import math
import numbers


class FofkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FofkitError, ValueError):
    """An argument is outside the mathematical domain of the operation: an
    out-of-range or non-finite scalar, or an unknown name."""


class ShapeError(FofkitError, ValueError):
    """An array has the wrong shape, such as a point set that is not (n, 3),
    or the dimensions of the inputs do not agree."""


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
