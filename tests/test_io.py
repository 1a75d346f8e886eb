import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fofkit.errors import (BadMagicError, CrcMismatchError, FofkitError, ImageFormatError,
                           ShapeError, TruncatedPayloadError, UnsupportedVersionError)
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
        dims_edited = edit[0] == "dim"
        if edit[0] == "truncate":
            blob = blob[:edit[1] % len(blob)]
        elif edit[0] == "flip":
            pos = edit[1] % len(blob)
            blob = blob[:pos] + bytes([blob[pos] ^ edit[2]]) + blob[pos + 1:]
            dims_edited = 8 <= pos < 8 + 8 * arr.ndim
        elif edit[0] == "append":
            blob = blob + edit[1]
        else:
            blob = _header_edit(blob, *edit)
        path.write_bytes(blob)
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
