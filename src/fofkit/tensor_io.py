"""Bit-exact file formats: tensor container, PFM, PGM, PPM, 16-bit PNG.

Tensor container layout (all integers little-endian):

    magic   4 bytes  b"OAHT"
    version u16      2
    dtype   u8       1 = float32
    ndim    u8
    dims    ndim * u64
    payload product(dims) float32 values, row-major
    footer  u64      CRC-64 of every byte before it, header included

Version 1 files, whose footer is the CRC-64 of the payload bytes only,
still read; their header is unprotected, so a dims edit that keeps the
element count reads back in the edited shape. write_tensor writes
version 2.

The CRC is CRC-64/XZ: ECMA-182 polynomial 0x42F0E1EBA9EA3693, bit-reflected,
initial value and final xor 0xFFFFFFFFFFFFFFFF. crc64 computes it as array
code: the zero-padded payload is split into contiguous lanes that run
table-driven slice-by-8 side by side, and the lane CRCs are joined with
GF(2) "advance by n zero bytes" operators, as zlib's crc32_combine joins
the CRCs of separate pieces. Reads reject wrong magic, unsupported
version/dtype, truncated payloads and checksum mismatches with distinct
exceptions and never return partial data.

Image formats: PFM is the 3-channel float map "PF\\n{W} {H}\\n-1.0\\n" with
rows stored bottom-to-top in little-endian float32; PGM (P5, maxval 255)
stores binary masks as 0/255; PPM (P6) stores 8-bit RGB. The three share
one header writer and one reader (_write_netpbm, _read_netpbm): magic,
width, height and a third field (PFM's scale, the maxval), separated by
whitespace and # comments, then exactly one whitespace byte and the raster.
Normal maps can also be quantized to 16-bit RGB PNG with the n*0.5+0.5
encoding.
"""

import functools
import math
import struct
import zlib

import numpy as np

from .errors import (BadMagicError, CrcMismatchError, ImageFormatError, ShapeError,
                     TensorFormatError, TruncatedPayloadError, UnsupportedVersionError,
                     check_path)

MAGIC = b"OAHT"
VERSION = 2
DTYPE_F32 = 1

_CRC_POLY_REFLECTED = 0xC96C5795D7870F42  # ECMA-182, bit-reversed


def _build_crc_tables():
    tables = np.zeros((8, 256), dtype=np.uint64)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_CRC_POLY_REFLECTED if crc & 1 else 0)
        tables[0, i] = crc
    for i in range(256):
        crc = int(tables[0, i])
        for t in range(1, 8):
            crc = int(tables[0, crc & 0xFF]) ^ (crc >> 8)
            tables[t, i] = crc
    return tables


_CRC_TABLES = _build_crc_tables()
# Slice-by-8 as an operator on the 64-bit state: byte j of (word ^ state)
# is looked up in table 7 - j.
_WORD_STEP = np.ascontiguousarray(_CRC_TABLES[::-1])
_UNIT_STATES = np.uint64(1) << np.arange(64, dtype=np.uint64)
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)


def _apply(tables, states):
    """Apply a GF(2)-linear map of 64-bit CRC states, given as 8 byte tables
    (table j holds the images of the 256 values of state byte j)."""
    b = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = tables[0].take(b[:, 0])
    for j in range(1, 8):
        out ^= tables[j].take(b[:, j])
    return out


def _tables(images):
    """Byte tables of the linear map that sends state bit i to images[i]."""
    return np.bitwise_xor.reduce(
        np.where(_BYTE_BITS, images.reshape(8, 1, 8), np.uint64(0)), axis=2)


@functools.cache
def _zeros_op(j):
    """Byte tables of the map that advances a raw CRC state through 2**j zero
    bytes (zlib's crc32_combine operators, squared from the one-byte step)."""
    if j == 0:
        units = _UNIT_STATES
        return _tables(_CRC_TABLES[0].take((units & np.uint64(0xFF)).astype(np.intp))
                       ^ (units >> np.uint64(8)))
    half = _zeros_op(j - 1)
    return _tables(_apply(half, _apply(half, _UNIT_STATES)))


def crc64(data, crc=0):
    """CRC-64/XZ of a bytes-like object; crc continues an earlier result, so
    crc64(b, crc64(a)) == crc64(a + b).

    The raw CRC (zero initial state, no final xor) is linear over GF(2), and
    zero bytes leave a zero state at zero. So the data is left-padded with
    zero bytes to lanes * k words, split into lanes contiguous pieces of k
    words (k a power of two chosen from the length, about sqrt(words / 64)),
    and slice-by-8 runs over all pieces at once, k steps of one word per
    piece. Adjacent pieces then fold pairwise, level by level:
    raw(A + B) = advance(raw(A), len(B)) ^ raw(B), where advance is the
    linear map for len(B) zero bytes. A zero state is prepended to an odd
    level, which is one more piece of zero padding. The initial value
    crc ^ ~0 enters the same way, advanced through the unpadded length.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    words = -(-buf.size // 8)
    log_k = (words >> 6).bit_length() // 2
    lanes = max(1, -(-words >> log_k))
    padded = np.zeros(8 * lanes << log_k, dtype=np.uint8)
    padded[padded.size - buf.size:] = buf
    pieces = padded.view("<u8").reshape(lanes, 1 << log_k)
    state = np.zeros(lanes, dtype=np.uint64)
    for i in range(1 << log_k):
        state = _apply(_WORD_STEP, pieces[:, i] ^ state)
    j = 3 + log_k  # pieces are 2**j bytes long
    while state.size > 1:
        if state.size % 2:
            state = np.concatenate((np.zeros(1, dtype=np.uint64), state))
        state = _apply(_zeros_op(j), state[0::2]) ^ state[1::2]
        j += 1
    init = np.array([crc ^ 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for j in range(buf.size.bit_length()):
        if buf.size >> j & 1:
            init = _apply(_zeros_op(j), init)
    return int(state[0] ^ init[0]) ^ 0xFFFFFFFFFFFFFFFF


def write_tensor(path, data, dims=None):
    """Write a float32 tensor container; data is converted to float32."""
    arr = np.asarray(data)
    if dims is not None:
        if int(np.prod(dims)) != arr.size:
            raise ShapeError(f"dims {tuple(dims)} do not match {arr.size} values")
        arr = arr.reshape(dims)
    arr = np.ascontiguousarray(arr, dtype="<f4").reshape(arr.shape)  # keeps 0-d as 0-d
    header = MAGIC + struct.pack(f"<HBB{arr.ndim}Q", VERSION, DTYPE_F32, arr.ndim, *arr.shape)
    payload = arr.tobytes()
    with open(check_path(path), "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.write(struct.pack("<Q", crc64(payload, crc64(header))))


def read_tensor(path):
    """Read a tensor container; returns (dims, float32 ndarray)."""
    with open(check_path(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a tensor container (bad magic)")
    version, dtype_code, ndim = struct.unpack_from("<HBB", blob, 4)
    if version not in (1, VERSION):
        raise UnsupportedVersionError(f"{path}: unsupported container version {version}")
    if dtype_code != DTYPE_F32:
        raise UnsupportedVersionError(f"{path}: unsupported dtype code {dtype_code}")
    header_end = 8 + 8 * ndim
    if len(blob) < header_end:
        raise TruncatedPayloadError(f"{path}: header truncated")
    dims = struct.unpack_from(f"<{ndim}Q", blob, 8)
    count = math.prod(dims)
    payload_end = header_end + 4 * count
    if len(blob) != payload_end + 8:
        # Also a longer file: a damaged dim can shrink the payload onto bytes
        # that happen to pass the CRC (zeros read as the CRC of no bytes).
        raise TruncatedPayloadError(
            f"{path}: expected {payload_end + 8} bytes, found {len(blob)}")
    stored = struct.unpack_from("<Q", blob, payload_end)[0]
    covered = header_end if version == 1 else 0
    if crc64(memoryview(blob)[covered:payload_end]) != stored:
        raise CrcMismatchError(f"{path}: CRC mismatch")
    arr = np.frombuffer(blob, dtype="<f4", count=count, offset=header_end)
    try:
        arr = arr.reshape(dims)
    except ValueError as exc:  # e.g. an empty array with a dim past numpy's limits
        raise TensorFormatError(f"{path}: dims {dims}: {exc}") from exc
    return dims, arr.copy()


# ---------------------------------------------------------------------------
# Netpbm family: one header reader and one header writer for PF, P5 and P6.


def _read_netpbm(path, magic, channels, dtype_of):
    """The (H, W, channels) raster of a file that starts with magic, then
    width, height and a third field (PFM's scale, P5/P6's maxval), with
    whitespace and # comments between fields and exactly one whitespace byte
    after the third. dtype_of(third) gives the raster's element type, or
    raises ValueError."""
    with open(check_path(path), "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise ImageFormatError(path, 0, f"expected {magic!r} magic")
    fields, offset = [], len(magic)
    while len(fields) < 3:
        if offset >= len(blob):
            raise ImageFormatError(path, offset, "incomplete header")
        ch = blob[offset:offset + 1]
        if ch == b"#":
            offset = blob.find(b"\n", offset)
            if offset < 0:
                raise ImageFormatError(path, len(blob), "unterminated comment")
            offset += 1
        elif ch.isspace():
            offset += 1
        else:
            end = offset
            while end < len(blob) and not blob[end:end + 1].isspace():
                end += 1
            fields.append(blob[offset:end])
            offset = end
    offset += 1  # single whitespace after the third field
    try:
        w, h = int(fields[0]), int(fields[1])
        dtype = np.dtype(dtype_of(fields[2]))
    except ValueError as exc:
        raise ImageFormatError(path, offset, f"bad header field: {exc}") from exc
    # 2**31 - 1 is PNG's limit; a larger side of an empty image can overflow
    # numpy's shape arithmetic.
    if not (0 <= w < 2**31 and 0 <= h < 2**31):
        raise ImageFormatError(path, offset, f"image size {w}x{h} out of range")
    count = w * h * channels
    if len(blob) - offset < count * dtype.itemsize:
        raise ImageFormatError(path, offset, "payload truncated")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset).reshape(h, w, channels)


def _write_netpbm(path, magic, third, raster):
    """Write the header "{magic}\\n{W} {H}\\n{third}\\n", then the raster's bytes."""
    h, w = raster.shape[:2]
    with open(check_path(path), "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{third}\n".encode("ascii"))
        fh.write(raster.tobytes())


def _maxval_255(maxval):
    if int(maxval) != 255:
        raise ValueError(f"only maxval 255 supported, got {int(maxval)}")
    return np.uint8


def write_pfm(path, data):
    """Write (H, W, 3) float data as little-endian PFM."""
    arr = np.asarray(data, dtype="<f4")
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"PFM writer expects (H, W, 3), got {arr.shape}")
    _write_netpbm(path, "PF", "-1.0", arr[::-1])


def read_pfm(path):
    """Read a 3-channel PFM, little- or big-endian by the scale's sign."""
    raster = _read_netpbm(path, b"PF", 3, lambda scale: "<f4" if float(scale) < 0 else ">f4")
    return raster[::-1].astype(np.float64)


def write_pgm(path, mask):
    """Write a boolean mask as binary P5 with values 0/255."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeError(f"PGM writer expects (H, W), got {m.shape}")
    _write_netpbm(path, "P5", 255, np.where(m.astype(bool), 255, 0).astype(np.uint8))


def read_pgm(path):
    return _read_netpbm(path, b"P5", 1, _maxval_255)[..., 0] >= 128


def write_ppm(path, image):
    """Write (H, W, 3) values in [0, 1] as 8-bit P6."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"PPM writer expects (H, W, 3), got {img.shape}")
    _write_netpbm(path, "P6", 255, np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8))


def read_ppm(path):
    return _read_netpbm(path, b"P6", 3, _maxval_255).astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# Minimal 16-bit RGB PNG codec: filter 0 (none) only, on write and on read.


def _png_chunk(tag, body):
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def write_png16(path, normals):
    """Quantize a (H, W, 3) normal image with n*0.5+0.5 into 16-bit RGB PNG."""
    arr = np.asarray(normals, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3 or not arr.size:
        raise ShapeError(f"PNG writer expects a non-empty (H, W, 3), got {arr.shape}")
    h, w, _ = arr.shape
    enc = np.clip(np.rint((arr * 0.5 + 0.5) * 65535.0), 0, 65535).astype(">u2")
    raw = enc.tobytes()
    stride = w * 6
    scanlines = b"".join(b"\x00" + raw[y * stride:(y + 1) * stride] for y in range(h))
    with open(check_path(path), "wb") as fh:
        fh.write(b"\x89PNG\r\n\x1a\n")
        fh.write(_png_chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)))
        fh.write(_png_chunk(b"IDAT", zlib.compress(scanlines, 6)))
        fh.write(_png_chunk(b"IEND", b""))


def read_png16(path):
    """Read a 16-bit RGB PNG written by write_png16; returns normals (H, W, 3).
    A scanline filtered with any filter but 0 raises ImageFormatError."""
    with open(check_path(path), "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"\x89PNG\r\n\x1a\n":
        raise ImageFormatError(path, 0, "not a PNG file")
    offset, width, height, idat = 8, None, None, b""
    while offset < len(blob):
        if offset + 8 > len(blob):
            raise ImageFormatError(path, offset, "truncated chunk header")
        length, tag = struct.unpack_from(">I4s", blob, offset)
        body = blob[offset + 8:offset + 8 + length]
        if offset + 12 + length > len(blob):
            raise ImageFormatError(path, offset, "truncated chunk body or CRC")
        stored = struct.unpack_from(">I", blob, offset + 8 + length)[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != stored:
            raise ImageFormatError(path, offset, f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            if length != 13:
                raise ImageFormatError(path, offset, f"IHDR must be 13 bytes, got {length}")
            width, height, depth, ctype = struct.unpack_from(">IIBB", body, 0)
            if not (0 < width < 2**31 and 0 < height < 2**31):
                raise ImageFormatError(path, offset, f"PNG size {width}x{height} out of range")
            if depth != 16 or ctype != 2:
                raise ImageFormatError(path, offset, "only 16-bit RGB PNG supported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        offset += 12 + length
    if width is None:
        raise ImageFormatError(path, 8, "missing IHDR")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise ImageFormatError(path, 8, f"bad IDAT stream: {exc}") from exc
    stride = width * 6
    if len(raw) != height * (stride + 1):
        raise ImageFormatError(path, 8, "decompressed size mismatch")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    other = np.flatnonzero(rows[:, 0])
    if len(other):
        raise ImageFormatError(path, 8, f"PNG filter {rows[other[0], 0]} in row {other[0]}: "
                                        "only filter 0 is read")
    enc = rows[:, 1:].reshape(height, width, 3, 2).astype(np.uint16)
    vals = (enc[..., 0] << 8) | enc[..., 1]
    return vals.astype(np.float64) / 65535.0 * 2.0 - 1.0
