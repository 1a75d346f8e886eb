import pathlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fofkit.cli import _read_field, _write_field
from fofkit.errors import (BadMagicError, ConfigError, CrcMismatchError, FofkitError,
                           ImageFormatError, ShapeError, TruncatedPayloadError,
                           UnsupportedVersionError)
from fofkit.fof import FourierField
from fofkit.raster import OrthoFrame
from fofkit.tensor_io import (crc64, read_pfm, read_pgm, read_png16, read_ppm,
                              read_tensor, write_pfm, write_pgm, write_png16,
                              write_ppm, write_tensor)


class TestCrc64:
    def test_check_value(self):
        # standard CRC-64/XZ check ("123456789")
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty(self):
        assert crc64(b"") == 0

    def test_sensitivity(self):
        assert crc64(b"abc") != crc64(b"abd")


def _bytewise_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (0xC96C5795D7870F42 if crc & 1 else 0)
        table.append(crc)
    return table


_BYTEWISE = _bytewise_table()


def crc64_bytewise(data, crc=0):
    """Reference CRC-64/XZ: the reflected table loop, one byte at a time."""
    crc ^= 0xFFFFFFFFFFFFFFFF
    for byte in bytes(data):
        crc = _BYTEWISE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


class TestCrc64Oracle:
    # Word edges, and the lengths where crc64's steps per lane double
    # (1024 * 4**m bytes), each with its neighbours.
    EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 511, 512, 513, 1023, 1024, 1025, 1031, 1032,
             4095, 4096, 4097, 16383, 16384, 16385, 65535, 65536, 65537, 65543]

    def test_edge_lengths(self, rng):
        data = rng.integers(0, 256, max(self.EDGES), dtype=np.uint8).tobytes()
        for n in self.EDGES:
            assert crc64(data[:n]) == crc64_bytewise(data[:n]), n

    def test_random_lengths_and_initial_values(self, rng):
        for n in rng.integers(0, 200_000, 12):
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            init = int(rng.integers(0, 2**63)) * 2 + 1
            assert crc64(data) == crc64_bytewise(data), n
            assert crc64(data, init) == crc64_bytewise(data, init), n

    def test_buffer_kinds(self, rng):
        data = rng.integers(0, 256, 70_001, dtype=np.uint8).tobytes()
        want = crc64_bytewise(data[3:])
        assert crc64(data[3:]) == want
        assert crc64(bytearray(data[3:])) == want
        assert crc64(memoryview(data)[3:]) == want
        assert crc64(memoryview(bytearray(data))[3:]) == want
        assert crc64(np.frombuffer(data, dtype=np.uint8)[3:]) == want

    def test_continuation(self, rng):
        data = rng.integers(0, 256, 9_000, dtype=np.uint8).tobytes()
        for cut in (0, 1, 8, 13, 4096, 8_999, 9_000):
            a, b = data[:cut], data[cut:]
            assert crc64(b, crc64(a)) == crc64(data), cut


def _header_edit(blob, field, value):
    """blob with one header field (version, dtype, ndim or a dim) replaced."""
    out = bytearray(blob)
    if field == "version":
        struct.pack_into("<H", out, 4, value & 0xFFFF)
    elif field == "dtype":
        out[6] = value & 0xFF
    elif field == "ndim":
        out[7] = value & 0xFF
    elif out[7]:
        struct.pack_into("<Q", out, 8 + 8 * (value % out[7]), value >> 8)
    return bytes(out)


def _damaged(blob, edit):
    """blob truncated, with one byte flipped, or with bytes appended."""
    if edit[0] == "truncate":
        return blob[:edit[1] % len(blob)]
    if edit[0] == "flip":
        pos = edit[1] % len(blob)
        return blob[:pos] + bytes([blob[pos] ^ edit[2]]) + blob[pos + 1:]
    return blob + edit[1]


_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.sampled_from(["version", "dtype", "ndim", "dim"]),
              st.integers(0, 2**72 - 1)),
)


class TestTensorFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arr=arrays(np.float32, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                      elements=st.floats(width=32)),
           edit=_EDITS)
    def test_damaged_container(self, tmp_path, arr, edit):
        path = tmp_path / "fuzz.oaht"
        write_tensor(path, arr)
        blob = path.read_bytes()
        dims_edited = edit[0] == "dim" or (
            edit[0] == "flip" and 8 <= edit[1] % len(blob) < 8 + 8 * arr.ndim)
        if edit[0] in ("truncate", "flip", "append"):
            path.write_bytes(_damaged(blob, edit))
        else:
            path.write_bytes(_header_edit(blob, *edit))
        try:
            dims, back = read_tensor(path)
        except FofkitError:
            return
        # The CRC covers the payload, not the header: a dims edit that keeps
        # the element count reads back the same values in the edited shape.
        assert back.shape == dims
        assert back.tobytes() == arr.tobytes()
        if not dims_edited:
            assert dims == arr.shape

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arr=arrays(np.float32, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                      elements=st.floats(width=32)),
           edit=st.one_of(st.tuples(st.sampled_from(["version", "dtype", "ndim", "dim"]),
                                    st.integers(0, 2**72 - 1)),
                          st.tuples(st.just("version"), st.just(1))))
    def test_header_rewrite_rejected(self, tmp_path, arr, edit):
        # The version 2 CRC covers the header: any rewritten field fails.
        path = tmp_path / "h.oaht"
        write_tensor(path, arr)
        blob = path.read_bytes()
        edited = _header_edit(blob, *edit)
        assume(edited != blob)
        path.write_bytes(edited)
        with pytest.raises(FofkitError):
            read_tensor(path)

    @pytest.mark.parametrize("rewrite", ["downgrade", "swap_dims"])
    def test_header_rewrite_is_a_crc_mismatch(self, tmp_path, rewrite):
        # Read as version 1, or with dims (4, 8) swapped to (8, 4), the file
        # keeps its length, so only the CRC over the header tells.
        path = tmp_path / "d.oaht"
        write_tensor(path, np.arange(32, dtype=np.float32).reshape(4, 8))
        blob = path.read_bytes()
        if rewrite == "downgrade":
            blob = _header_edit(blob, "version", 1)
        else:
            blob = _header_edit(_header_edit(blob, "dim", 8 << 8), "dim", 4 << 8 | 1)
        path.write_bytes(blob)
        with pytest.raises(CrcMismatchError):
            read_tensor(path)

    def test_reads_version_1(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        payload = arr.tobytes()
        v1 = b"OAHT" + struct.pack("<HBB2Q", 1, 1, 2, 2, 3) + payload
        path = tmp_path / "v1.oaht"
        path.write_bytes(v1 + struct.pack("<Q", crc64(payload)))
        dims, back = read_tensor(path)
        assert dims == (2, 3) and np.array_equal(back, arr)
        # Its header is not covered: swapped dims read back in the new shape.
        path.write_bytes(_header_edit(_header_edit(path.read_bytes(), "dim", 3 << 8),
                                      "dim", 2 << 8 | 1))
        assert read_tensor(path)[0] == (3, 2)

    def test_writes_version_2_with_whole_file_crc(self, tmp_path):
        path = tmp_path / "v2.oaht"
        write_tensor(path, np.ones((2, 2), dtype=np.float32))
        blob = path.read_bytes()
        assert struct.unpack_from("<H", blob, 4)[0] == 2
        assert struct.unpack_from("<Q", blob, len(blob) - 8)[0] == crc64(blob[:-8])

    def test_zeroed_dim_over_zero_payload_rejected(self, tmp_path):
        # With dims (2, 0) the payload is empty and the "CRC" is read from the
        # first eight zero payload bytes, which is the CRC of no bytes.
        path = tmp_path / "z.oaht"
        write_tensor(path, np.zeros((2, 2), dtype=np.float32))
        path.write_bytes(_header_edit(path.read_bytes(), "dim", 1))
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.oaht"
        write_tensor(path, np.ones(3, dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_zero_dim_array_keeps_its_shape(self, tmp_path):
        path = tmp_path / "s.oaht"
        write_tensor(path, np.float32(2.5))
        assert read_tensor(path)[0] == ()


def _png_chunks(blob):
    """(tag, body) of every chunk of a PNG file with valid chunk framing."""
    chunks, offset = [], 8
    while offset < len(blob):
        (length,) = struct.unpack_from(">I", blob, offset)
        chunks.append((blob[offset + 4:offset + 8], blob[offset + 8:offset + 8 + length]))
        offset += 12 + length
    return chunks


def _png_file(chunks):
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(body)) + tag + body
        + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF) for tag, body in chunks)


_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
)
# Header field values: numbers of any sign and size, and text that is not one.
_FIELD = st.one_of(st.integers(-8, 8).map(str), st.integers(-2**70, 2**70).map(str),
                   st.sampled_from(["nan", "inf", "-inf", "-0", "1e3", "1.5", "", "1_0", "0x10"]),
                   st.text(max_size=6))
_IMAGES = arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4), st.just(3)),
                 elements=st.floats(-1.0, 1.0, width=32))
# One of the three header fields (width, height, scale or maxval) replaced.
_HEADER_EDIT = st.tuples(st.just("header"), st.integers(0, 2), _FIELD)


def _edited(fields, edit):
    """Header fields as text, with the one an edit names replaced."""
    fields = [str(f) for f in fields]
    fields[edit[1]] = edit[2]
    return fields


def _ints(*fields):
    """The fields as ints when each is one token a header parser reads whole
    (no whitespace, no comment), else None."""
    try:
        if all(f.split() == [f] and "#" not in f for f in fields):
            return [int(f) for f in fields]
    except ValueError:
        pass
    return None


_FUZZ = settings(max_examples=400, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
# Per magic: writer, reader, third header field, the data written for a
# drawn image, and the round-trip bound.
_NETPBM = {
    "PF": (write_pfm, read_pfm, "-1.0", lambda img: img, 0.0),
    "P5": (write_pgm, read_pgm, "255", lambda img: img[..., 0] > 0, 0.0),
    "P6": (write_ppm, read_ppm, "255", lambda img: img * 0.5 + 0.5, 0.5 / 255 + 1e-12),
}


def check_netpbm(tmp_path, img, magic, edit):
    """The _NETPBM row for magic round-trips the data derived from img, and
    the file, damaged or with one header field edited, raises only
    FofkitError or reads back an image of the right channels (and, after a
    readable size edit, of the edited size)."""
    write, read, third, data_of, bound = _NETPBM[magic]
    path, data = tmp_path / "img", data_of(img)
    write(path, data)
    back = read(path)
    assert back.shape == data.shape and np.all(np.abs(back - 1.0 * data) <= bound)
    blob = path.read_bytes()
    if edit[0] == "header":
        w, h, edited = _edited([data.shape[1], data.shape[0], third], edit)
        payload = blob[len(f"{magic}\n{data.shape[1]} {data.shape[0]}\n{third}\n"):]
        blob = f"{magic}\n{w} {h}\n{edited}\n".encode() + payload
    else:
        blob = _damaged(blob, edit)
    path.write_bytes(blob)
    try:
        back = read(path)
    except FofkitError:
        return
    assert back.shape[2:] == data.shape[2:]
    size = edit[0] == "header" and _ints(h, w)
    if size:
        assert list(back.shape[:2]) == size


class TestImageFuzz:
    """Damaged PFM, PGM, PPM and PNG16 files raise only FofkitError, and
    undamaged ones read back what was written."""

    @_FUZZ
    @given(img=_IMAGES, edit=st.one_of(_DAMAGE, _HEADER_EDIT))
    def test_pfm(self, tmp_path, img, edit):
        check_netpbm(tmp_path, img, "PF", edit)

    @_FUZZ
    @given(img=_IMAGES, magic=st.sampled_from(["P5", "P6"]),
           edit=st.one_of(_DAMAGE, _HEADER_EDIT))
    def test_pgm_and_ppm(self, tmp_path, img, magic, edit):
        check_netpbm(tmp_path, img, magic, edit)

    @_FUZZ
    @given(img=_IMAGES, edit=st.one_of(
        _DAMAGE,
        # one chunk's body replaced, under a valid CRC
        st.tuples(st.just("body"), st.integers(0, 2), st.binary(max_size=40)),
        # one IHDR field (width, height, depth, colour type) rewritten
        st.tuples(st.just("ihdr"), st.integers(0, 3), st.integers(0, 2**32 - 1)),
        # a valid zlib stream of the right length, e.g. with other filter types
        st.tuples(st.just("scanlines"), st.binary(min_size=1, max_size=64))))
    def test_png16(self, tmp_path, img, edit):
        assume(img.size)  # PNG sides are at least 1
        path = tmp_path / "n.png"
        write_png16(path, img)
        assert np.max(np.abs(read_png16(path) - img), initial=0.0) <= 1.0 / 65535 + 1e-12
        blob = path.read_bytes()
        chunks = _png_chunks(blob)
        if edit[0] == "body":
            chunks[edit[1]] = (chunks[edit[1]][0], edit[2])
            blob = _png_file(chunks)
        elif edit[0] == "ihdr":
            fields = list(struct.unpack(">IIBBBBB", chunks[0][1]))
            fields[edit[1]] = edit[2] if edit[1] < 2 else edit[2] & 0xFF
            chunks[0] = (b"IHDR", struct.pack(">IIBBBBB", *fields))
            blob = _png_file(chunks)
        elif edit[0] == "scanlines":
            n = img.shape[0] * (img.shape[1] * 6 + 1)
            chunks[1] = (b"IDAT", zlib.compress((edit[1] * n)[:n]))
            blob = _png_file(chunks)
        else:
            blob = _damaged(blob, edit)
        path.write_bytes(blob)
        try:
            back = read_png16(path)
        except FofkitError:
            return
        assert back.ndim == 3 and back.shape[2] == 3
        if edit[0] == "ihdr":
            assert back.shape[:2] == tuple(fields[1::-1])

    @pytest.mark.parametrize("header, read", [
        (b"PF\n-2 3\n-1.0\n", read_pfm), (b"PF\n2 -3\n-1.0\n", read_pfm),
        (b"P5\n-2 3\n255\n", read_pgm), (b"P6\n2 -3\n255\n", read_ppm),
        (b"P5\n0 9223372036854775808\n255\n", read_pgm)])
    def test_size_out_of_range_rejected(self, tmp_path, header, read):
        path = tmp_path / "bad.img"
        path.write_bytes(header + b"\0" * 72)
        with pytest.raises(ImageFormatError):
            read(path)

    def test_png16_empty_image_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_png16(tmp_path / "e.png", np.zeros((0, 2, 3)))

    def test_png16_malformed_chunks_rejected(self, tmp_path):
        path = tmp_path / "n.png"
        write_png16(path, np.zeros((2, 2, 3)))
        chunks = _png_chunks(path.read_bytes())
        short_ihdr = [(b"IHDR", chunks[0][1][:2])] + chunks[1:]
        not_zlib = [chunks[0], (b"IDAT", b"not zlib")] + chunks[2:]
        for blob in (_png_file(short_ihdr), _png_file(not_zlib),
                     _png_file(chunks[:2])[:-4]):  # last chunk's CRC missing
            path.write_bytes(blob)
            with pytest.raises(ImageFormatError):
                read_png16(path)


class TestMetaFuzz:
    """A damaged .meta sidecar makes the field reader raise only FofkitError;
    an undamaged one reads back the frame it was written with."""

    FRAME = OrthoFrame(4, 3, (0.25, -0.5, 1e-3), 0.75)

    def _write(self, tmp_path):
        path = str(tmp_path / "f.oaht")
        data = np.arange(3 * 4 * 3, dtype=np.float32).reshape(3, 4, 3)
        _write_field(path, FourierField(data.astype(np.float64)), self.FRAME, 1)
        return path, data

    @_FUZZ
    @given(edit=st.one_of(_DAMAGE, st.tuples(
        st.just("value"), st.sampled_from(["width", "height", "center", "half_extent"]),
        st.one_of(_FIELD, st.lists(_FIELD, max_size=4).map(",".join)))))
    def test_damaged_meta(self, tmp_path, edit):
        path, data = self._write(tmp_path)
        field, frame = _read_field(path)
        assert frame == self.FRAME and np.array_equal(field.data, data)
        meta = pathlib.Path(path + ".meta")
        if edit[0] == "value":
            lines = meta.read_text(encoding="utf-8").splitlines()
            meta.write_text("\n".join(f"{edit[1]} = {edit[2]}" if line.startswith(edit[1] + " ")
                                      else line for line in lines), encoding="utf-8")
        else:
            meta.write_bytes(_damaged(meta.read_bytes(), edit))
        try:
            field, frame = _read_field(path)
        except FofkitError:
            return
        assert (frame.height, frame.width) == data.shape[:2]

    @pytest.mark.parametrize("line", ["center = 0.0,0.0", "center = 0,nan,0",
                                      "half_extent = inf", "half_extent = nan",
                                      "width = 5", "center = \udcff", "order = 2"])
    def test_bad_meta_is_config_error(self, tmp_path, line):
        path, _ = self._write(tmp_path)
        meta = pathlib.Path(path + ".meta")
        key = line.split(" ")[0]
        lines = [line if old.startswith(key + " ") else old
                 for old in meta.read_text(encoding="utf-8").splitlines()]
        meta.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(ConfigError):
            _read_field(path)


    def test_meta_without_order_is_config_error(self, tmp_path):
        path, _ = self._write(tmp_path)
        meta = pathlib.Path(path + ".meta")
        lines = meta.read_text(encoding="utf-8").splitlines()
        meta.write_text("\n".join(line for line in lines if not line.startswith("order ")),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="bad field metadata"):
            _read_field(path)


class TestTensorContainer:
    def test_roundtrip_zeros(self, tmp_path):
        path = tmp_path / "z.oaht"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        dims, back = read_tensor(path)
        assert dims == (2, 3)
        assert not back.any()
        # writing the same tensor twice is byte-identical
        path2 = tmp_path / "z2.oaht"
        write_tensor(path2, np.zeros((2, 3), dtype=np.float32))
        assert path.read_bytes() == path2.read_bytes()

    def test_field_roundtrip_f32_precision(self, tmp_path, rng):
        arr = rng.normal(size=(128, 128, 31))
        path = tmp_path / "f.oaht"
        write_tensor(path, arr)
        dims, back = read_tensor(path)
        assert dims == (128, 128, 31)
        assert np.array_equal(back, arr.astype(np.float32))

    def test_payload_corruption_rejected(self, tmp_path):
        path = tmp_path / "c.oaht"
        write_tensor(path, np.ones((4, 4), dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[8 + 16 + 5] ^= 0x01  # inside the payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CrcMismatchError):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.oaht"
        write_tensor(path, np.ones(3, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_tensor(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.oaht"
        write_tensor(path, np.ones(3, dtype=np.float32))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.oaht"
        write_tensor(path, np.ones((10, 10), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(TruncatedPayloadError):
            read_tensor(path)

    def test_dims_mismatch_on_write(self, tmp_path):
        with pytest.raises(ShapeError):
            write_tensor(tmp_path / "d.oaht", np.ones(6), dims=(2, 2))


class TestPfm:
    def test_roundtrip_exact(self, tmp_path, rng):
        img = rng.normal(size=(2, 2, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.pfm"
        write_pfm(path, img)
        assert np.array_equal(read_pfm(path), img)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.pfm"
        write_pfm(path, np.zeros((3, 5, 3)))
        assert path.read_bytes().startswith(b"PF\n5 3\n-1.0\n")

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ImageFormatError):
            read_pfm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.pfm"
        path.write_bytes(b"PF\n4 4\n-1.0\n" + b"\x00" * 10)
        with pytest.raises(ImageFormatError):
            read_pfm(path)


class TestPgmPpm:
    def test_pgm_roundtrip(self, tmp_path, rng):
        mask = rng.random((6, 9)) > 0.4
        path = tmp_path / "m.pgm"
        write_pgm(path, mask)
        assert np.array_equal(read_pgm(path), mask)

    def test_ppm_roundtrip_8bit(self, tmp_path):
        img = np.linspace(0, 1, 4 * 5 * 3).reshape(4, 5, 3)
        path = tmp_path / "i.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_pgm_malformed(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n3 3\n65535\n" + b"\x00" * 9)
        with pytest.raises(ImageFormatError):
            read_pgm(path)


def _png_filtered(raw, ftypes, bpp=6):
    """The IDAT scanlines of (H, stride) image bytes raw, row y filtered with
    PNG filter type ftypes[y] as the PNG specification defines the types:
    each byte x less its predictor from a (the byte bpp to the left), b (the
    byte above) and c (above-left), each 0 off the image, modulo 256."""
    x = raw.astype(np.int64)
    b = np.vstack([np.zeros_like(x[:1]), x[:-1]])
    a, c = (np.pad(v, ((0, 0), (bpp, 0)))[:, :-bpp] for v in (x, b))
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    # None, Sub, Up, Average and Paeth, by type number.
    predictor = np.stack([np.zeros_like(x), a, b, (a + b) // 2, paeth])
    filtered = (x - predictor[ftypes, np.arange(len(x))]) % 256
    return b"".join(bytes([int(t)]) + row.astype(np.uint8).tobytes()
                    for t, row in zip(ftypes, filtered))


class TestPng16:
    def test_quantization_bound(self, tmp_path, rng):
        normals = rng.normal(size=(6, 7, 3))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        path = tmp_path / "n.png"
        write_png16(path, normals)
        back = read_png16(path)
        assert np.max(np.abs(back - normals)) <= 2.0 / 65535

    def test_rejects_bad_signature(self, tmp_path):
        path = tmp_path / "bad.png"
        path.write_bytes(b"NOTAPNG0" + b"\x00" * 16)
        with pytest.raises(ImageFormatError):
            read_png16(path)

    def test_rejects_chunk_crc(self, tmp_path, rng):
        normals = np.zeros((3, 3, 3))
        path = tmp_path / "c.png"
        write_png16(path, normals)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # inside IEND/IDAT body or CRC
        path.write_bytes(bytes(blob))
        with pytest.raises(ImageFormatError):
            read_png16(path)

    @pytest.mark.parametrize("ftype", [0])
    def test_each_filter_type_reads_exactly(self, tmp_path, ftype):
        # Rows under filter 0, the one write_png16 writes, read back as the
        # exact quantized values.
        rng = np.random.default_rng(3)
        h, w = 15, 9
        raw = rng.integers(0, 256, (h, w * 6)).astype(np.uint8)
        path = tmp_path / "f.png"
        path.write_bytes(_png_file([
            (b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)),
            (b"IDAT", zlib.compress(_png_filtered(raw, np.full(h, ftype)))), (b"IEND", b"")]))
        values = raw.view(">u2").reshape(h, w, 3).astype(np.float64)
        assert np.array_equal(read_png16(path), values / 65535.0 * 2.0 - 1.0)

    @pytest.mark.parametrize("ftype", [1, 2, 3, 4, "mixed"])
    def test_other_filter_types_rejected(self, tmp_path, ftype):
        # A file with rows under another filter (Sub, Up, Average, Paeth),
        # or with the type mixed per row, raises ImageFormatError naming the
        # first row's filter that is not 0.
        h, w = 4, 3
        raw = np.random.default_rng(3).integers(0, 256, (h, w * 6)).astype(np.uint8)
        ftypes, named = ((np.array([0, 0, 1, 4]), "filter 1 in row 2") if ftype == "mixed"
                         else (np.full(h, ftype), f"filter {ftype} in row 0"))
        path = tmp_path / "f.png"
        path.write_bytes(_png_file([
            (b"IHDR", struct.pack(">IIBBBBB", w, h, 16, 2, 0, 0, 0)),
            (b"IDAT", zlib.compress(_png_filtered(raw, ftypes))), (b"IEND", b"")]))
        with pytest.raises(ImageFormatError, match=named):
            read_png16(path)
