"""Exception hierarchy shared across the toolkit."""


class FofkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FofkitError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ShapeError(FofkitError, ValueError):
    """Array dimensions of the inputs do not agree."""


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
