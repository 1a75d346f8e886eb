import io
import logging
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fofkit.errors import DomainError, FofkitError, MeshError, ObjParseError, ShapeError
from fofkit.fof import BasisConfig, intervals_to_coeffs
from fofkit.mesh import (BVH, TriMesh, _index_array, _line_blocks, _numbers, _ObjBlock,
                         check_watertight, drop_degenerate_faces,
                         encoding_window, field_volume, fit_to_frame, load_obj, mesh_to_fof,
                         normalize_mesh, ray_cast_all, ray_intervals, save_obj)
from fofkit.metrics import chamfer
from fofkit.raster import CoverageRecords, OrthoFrame, rasterize_coverage, ray_hits_at_point
from fofkit.shapes import make_cube, make_shape, make_sphere
from fofkit.surface import mesh_volume


def tetrahedron():
    return TriMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


class TestTriMesh:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["vertices", "normals"])
    def test_non_finite_values_rejected(self, field, bad):
        sphere = make_sphere(0.6, 1)
        values = {"vertices": sphere.vertices.copy(), "normals": sphere.normals.copy()}
        values[field][4, 2] = bad
        with pytest.raises(DomainError, match=f"mesh {field} contain non-finite values"):
            TriMesh(values["vertices"], sphere.faces, values["normals"])


class TestObjIO:
    def test_tetra_roundtrip(self, tmp_path):
        mesh = tetrahedron()
        path = tmp_path / "tet.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        assert np.array_equal(back.faces, mesh.faces)
        assert np.max(np.abs(back.vertices - mesh.vertices)) <= 1e-7

    def test_zero_index_is_error(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
        with pytest.raises(ObjParseError):
            load_obj(path)

    def test_sphere_roundtrip_chamfer_zero(self, tmp_path):
        mesh = make_sphere(0.6, 3)
        path = tmp_path / "sphere.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        # Vertex sets agree to printed precision: chamfer is numerically zero.
        assert chamfer(back.vertices, mesh.vertices) <= 1e-5
        assert np.array_equal(back.faces, mesh.faces)

    def test_normals_roundtrip(self, tmp_path):
        mesh = make_sphere(0.6, 1)
        path = tmp_path / "n.obj"
        save_obj(mesh, path)
        back = load_obj(path)
        assert back.normals is not None
        assert np.max(np.abs(back.normals - mesh.normals)) <= 1e-7

    def test_ignored_records_warn_not_fail(self, tmp_path, caplog):
        path = tmp_path / "mat.obj"
        path.write_text("mtllib foo.mtl\nusemtl bar\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        mesh = load_obj(path)
        assert mesh.n_faces == 1

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "broken.obj"
        path.write_text("v 0 0 0\nv oops 0 0\n")
        with pytest.raises(ObjParseError, match=":2:"):
            load_obj(path)

    def test_bad_normal_is_parse_error(self, tmp_path):
        path = tmp_path / "vn.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn x y z\nf 1//1 2//1 3//1\n")
        with pytest.raises(ObjParseError, match=":4:"):
            load_obj(path)

    def test_bad_normal_index_is_parse_error(self, tmp_path):
        path = tmp_path / "fn.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//a 2//b 3//c\n")
        with pytest.raises(ObjParseError, match=":5:"):
            load_obj(path)

    def test_missing_normal_is_parse_error(self, tmp_path):
        path = tmp_path / "fm.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//2 2//2 3//2\n")
        with pytest.raises(ObjParseError, match="missing normal"):
            load_obj(path)

    def test_mixed_faces_keep_normals_on_their_vertices(self, tmp_path):
        # A face without normal indices before one with them must not shift
        # the later face's normals onto other vertices.
        head = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 1 0 0\nvn 0 1 0\nvn 0 0 1\nf 1 2 3\n"
        path = tmp_path / "mixed.obj"
        path.write_text(head + "f 3//1 1//2 2//3\n")
        normals = load_obj(path).normals
        assert np.array_equal(normals, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        path.write_text(head + "f 3//1 1//2 2//4\n")
        with pytest.raises(ObjParseError, match="missing normal"):
            load_obj(path)


    @pytest.mark.parametrize("face", ["f -4 1 2", "f -10 1 2", "f 99999999999999999999 1 2",
                                      "f 1 2 -99999999999999999999"])
    def test_face_index_out_of_range_is_parse_error(self, tmp_path, face):
        # Negative indices that count back past the first vertex used to wrap
        # around (or raise IndexError), and indices past int64 OverflowError.
        path = tmp_path / "range.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + face + "\n")
        with pytest.raises(ObjParseError, match="missing vertex"):
            load_obj(path)

    def test_normal_consistency_is_allclose_previous_then_next(self, tmp_path):
        # |a - b| = 0.0100001 is within 1e-8 + 1e-5 * 1000.0100001 but not
        # within 1e-8 + 1e-5 * 1000: np.allclose(previous, next) accepts
        # the rising pair only, so the order of the corners decides.
        head = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 1000 0 0\nvn 1000.0100001 0 0\n"
        path = tmp_path / "n.obj"
        path.write_text(head + "f 1//1 2//1 3//1\nf 1//2 3//2 2//2\n")
        assert np.array_equal(load_obj(path).normals[:, 0], [1000.0100001] * 3)
        path.write_text(head + "f 1//2 2//2 3//2\nf 1//1 3//1 2//1\n")
        assert load_obj(path).normals is None

    def test_non_finite_normal_of_a_shared_vertex_rejected(self, tmp_path):
        # Vertex 2 takes `vn nan 0 1` in one corner and `vn 0 0 1` in two
        # others. np.isclose fails against the NaN, which must not turn the
        # error into normals=None.
        path = tmp_path / "nan_vn.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nvn 0 0 1\nvn nan 0 1\n"
                        "f 1//1 3//1 2//2\nf 1//1 2//1 4//1\nf 1//1 4//1 3//1\nf 2//1 3//1 4//1\n")
        with pytest.raises(DomainError, match="mesh normals contain non-finite values"):
            load_obj(path)

    def test_ignored_records_warning_lists_tags(self, tmp_path, caplog):
        path = tmp_path / "tags.obj"
        path.write_text("o a\n# note\nvt 0 0\n\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\ns 1\n")
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            load_obj(path)
        assert caplog.messages == [f"{path}: ignored OBJ records ['o', 's', 'vt']"]


def load_obj_by_line(path):
    """Reference OBJ reader: the line-by-line parser that load_obj replaced,
    kept as it was (the IndexError and OverflowError it can leak included),
    except that a vertex index before the first record is a missing vertex,
    as the README's OBJ rules say and as for normals. The original let such
    a face through when a repeated corner made it degenerate, so it was
    dropped, and otherwise failed in TriMesh."""
    vertices, normals, faces, face_normal_ids = [], [], [], []
    ignored = set()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "vertex needs 3 coordinates")
                try:
                    vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise ObjParseError(path, line_no, f"bad vertex: {exc}") from exc
            elif tag == "vn":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "normal needs 3 components")
                try:
                    normals.append([float(parts[1]), float(parts[2]), float(parts[3])])
                except ValueError as exc:
                    raise ObjParseError(path, line_no, f"bad normal: {exc}") from exc
            elif tag == "f":
                if len(parts) < 4:
                    raise ObjParseError(path, line_no, "face needs at least 3 vertices")
                idx, nidx = [], []
                for token in parts[1:]:
                    fields = token.split("/")
                    try:
                        vi = int(fields[0])
                    except ValueError as exc:
                        raise ObjParseError(path, line_no, f"bad face index {token!r}") from exc
                    if vi == 0:
                        raise ObjParseError(path, line_no, "OBJ face indices are 1-based")
                    idx.append(vi - 1 if vi > 0 else len(vertices) + vi)
                    if len(fields) >= 3 and fields[2]:
                        try:
                            ni = int(fields[2])
                        except ValueError as exc:
                            raise ObjParseError(path, line_no,
                                                f"bad normal index {token!r}") from exc
                        nidx.append(ni - 1 if ni > 0 else len(normals) + ni)
                for a in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[a], idx[a + 1]])
                    face_normal_ids.append([nidx[0], nidx[a], nidx[a + 1]]
                                           if len(nidx) == len(idx) else None)
            else:
                ignored.add(tag)
    if ignored:
        logging.getLogger("fofkit.mesh").warning("%s: ignored OBJ records %s", path,
                                                 sorted(ignored))
    verts = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    faces_arr = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if faces_arr.size and (faces_arr.min() < 0 or faces_arr.max() >= len(verts)):
        raise ObjParseError(path, 0, "face references a missing vertex")
    with_normals = [nf for nf in face_normal_ids if nf is not None]
    nids = np.asarray(with_normals, dtype=np.int64)
    if nids.size and (nids.min() < 0 or nids.max() >= len(normals)):
        raise ObjParseError(path, 0, "face references a missing normal")
    faces_arr = drop_degenerate_faces(verts, faces_arr)
    vnorm = None
    if normals and not with_normals and len(normals) == len(verts):
        vnorm = np.asarray(normals, dtype=np.float64)
    elif normals and with_normals:
        vnorm = np.zeros((len(verts), 3), dtype=np.float64)
        seen = np.zeros(len(verts), dtype=bool)
        consistent = True
        narr = np.asarray(normals, dtype=np.float64)
        for f, nf in zip(faces, face_normal_ids):
            if nf is None:
                continue
            for vi, ni in zip(f, nf):
                if seen[vi] and not np.allclose(vnorm[vi], narr[ni]):
                    consistent = False
                    break
                vnorm[vi] = narr[ni]
                seen[vi] = True
            if not consistent:
                break
        if not (consistent and seen.all()):
            vnorm = None
    return TriMesh(verts, faces_arr, vnorm)


def save_obj_by_line(mesh, path):
    """Reference OBJ writer: one f-string per record, as save_obj was."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        if mesh.normals is not None:
            for n in mesh.normals:
                fh.write(f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
        for f in mesh.faces:
            if mesh.normals is not None:
                fh.write(f"f {f[0]+1}//{f[0]+1} {f[1]+1}//{f[1]+1} {f[2]+1}//{f[2]+1}\n")
            else:
                fh.write(f"f {f[0]+1} {f[1]+1} {f[2]+1}\n")


def assert_same_mesh(a, b):
    """Vertices, faces and normals equal bit for bit (NaN payloads included)."""
    assert np.array_equal(a.vertices.view(np.int64), b.vertices.view(np.int64))
    assert np.array_equal(a.faces, b.faces)
    assert (a.normals is None) == (b.normals is None)
    if a.normals is not None:
        assert np.array_equal(a.normals.view(np.int64), b.normals.view(np.int64))


# Finite values only: a non-finite coordinate fails both readers at TriMesh
# (TestObjReaderBlocks' odd coordinates check that they fail alike).
_FLOAT_TEXT = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.4e}"),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["1E5", "+1.5", "-0", ".5", "1e-320", "1_0.5"]),
)
_FILLER = st.sampled_from(["# comment", "#", "", "   ", "o body", "g part", "s off",
                           "usemtl skin", "vt 0.5 0.5", "mtllib a.mtl", "l 1 2"])
_SEP = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def valid_obj_text(draw):
    """An OBJ that both readers accept: every index points at a record already
    read, written positive or negative, with a/b/c, a//c, a/b and bare tokens,
    n-gons, and faces with and without (or with only some) normal indices."""
    lines, n_v, n_vn = [], 0, 0
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["v", "v", "vn", "f", "f", "filler"]))
        sep = draw(_SEP)
        lead = draw(st.sampled_from(["", " ", "\t"]))
        if kind in ("v", "vn"):
            coords = draw(st.lists(_FLOAT_TEXT, min_size=3, max_size=5))
            lines.append(lead + sep.join([kind] + coords))
            n_v, n_vn = n_v + (kind == "v"), n_vn + (kind == "vn")
        elif kind == "f" and n_v >= 3:
            tokens = []
            normals = draw(st.sampled_from(["all", "none", "some"])) if n_vn else "none"
            corners = draw(st.lists(st.integers(0, n_v - 1), min_size=3, max_size=6,
                                    unique=True))
            for c, vi in enumerate(corners):
                token = str(vi + 1 if draw(st.booleans()) else vi - n_v)
                if normals == "all" or (normals == "some" and c % 2):
                    ni = draw(st.integers(0, n_vn - 1))
                    nt = str(ni + 1 if draw(st.booleans()) else ni - n_vn)
                    token += draw(st.sampled_from(["//", "/7/"])) + nt
                elif draw(st.booleans()):
                    token += draw(st.sampled_from(["/3", "/", "//", "/2/"]))
                tokens.append(token)
            lines.append(lead + sep.join(["f"] + tokens))
        else:
            lines.append(lead + draw(_FILLER))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def shared_normal_obj_text(draw):
    """Faces covering every vertex whose corners name normals: the vertex's
    own, a twin that differs by a relative 1e-12, 1e-6 or 1e-3 (np.allclose
    accepts the first two), or now and then another vertex's."""
    n = draw(st.integers(3, 7))
    lines = [f"v {i} {draw(st.integers(-3, 3))} {i * i % 5}" for i in range(n)]
    for scale in (0.0, draw(st.sampled_from([1e-12, 1e-6, 1e-3]))):
        for i in range(n):
            normal = [(i * 7 + c * 3) % 5 - 2.0 for c in range(3)]
            lines.append("vn " + " ".join(repr(x * (1 + scale)) for x in normal))
    polygons = [[0, a, a + 1] for a in range(1, n - 1)]
    polygons += draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=5,
                                       unique=True), max_size=4))
    for poly in polygons:
        tokens = []
        for vi in poly:
            ni = vi + n * draw(st.integers(0, 1))
            if draw(st.integers(0, 9)) == 0:
                ni = draw(st.integers(0, 2 * n - 1))
            v_text = str(vi + 1) if draw(st.booleans()) else str(vi - n)
            tokens.append(v_text + draw(st.sampled_from(["//", "/1/"])) + str(ni + 1))
        lines.append("f " + " ".join(tokens))
    return "\n".join(lines) + "\n"


# Random text: characters OBJ records are made of, records built from
# tokens either reader can trip on, and well-formed vertex and face records,
# so that some drawn files load a mesh with vertices.
_FACE_INDEX = st.sampled_from(["1", "2", "3", "-1", "-2", "-3"])
_RANDOM_OBJ_TEXT = st.lists(st.one_of(
    st.text(alphabet="vnf/#-+.0123456789eE \t\r\x0b\x85é", max_size=24),
    st.builds(" ".join, st.lists(st.sampled_from(
        ["v", "vn", "f", "1", "-1", "2/3/1", "1//1", "0", "x", "nan", "3//", "/1",
         "99999999999999999999", "-4"]), max_size=6)),
    st.builds("v {} {} {}".format, _FLOAT_TEXT, _FLOAT_TEXT, _FLOAT_TEXT),
    st.builds("f {} {} {}".format, _FACE_INDEX, _FACE_INDEX, _FACE_INDEX)),
    max_size=12).map("\n".join)


def assert_same_outcome(path):
    """load_obj loads what load_obj_by_line loads, bit for bit, or raises its
    ObjParseError or DomainError (a non-finite value) text; where the line
    parser leaks OverflowError (an index past int64), load_obj raises
    ObjParseError, and where it leaks anything else, a FofkitError. Returns
    the line parser's mesh, or None."""
    try:
        want = load_obj_by_line(path)
    except (ObjParseError, DomainError) as exc:
        want = type(exc), str(exc)
    except OverflowError:
        want = ObjParseError, f"{path}:0: face references a missing vertex"
    except Exception:  # the line parser's other leaks (IndexError, ...)
        want = FofkitError, None
    if isinstance(want, TriMesh):
        assert_same_mesh(load_obj(path), want)
        return want
    with pytest.raises(want[0]) as got:
        load_obj(path)
    assert want[1] in (None, str(got.value))
    return None


_OBJ_FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def drawn_obj(tmp_path, text):
    """A file holding the drawn text, UTF-8 encoded."""
    path = tmp_path / "drawn.obj"
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf/huge coordinates
class TestObjReaderAgainstLineParser:
    """Drawn files, read at the default block size, meet assert_same_outcome."""

    @settings(_OBJ_FUZZ, max_examples=300)
    @given(text=valid_obj_text())
    def test_valid_files_load_identically(self, tmp_path, text):
        assert assert_same_outcome(drawn_obj(tmp_path, text)) is not None

    @settings(_OBJ_FUZZ, max_examples=200)
    @given(text=shared_normal_obj_text())
    def test_per_vertex_normals_match(self, tmp_path, text):
        assert assert_same_outcome(drawn_obj(tmp_path, text)) is not None

    @settings(_OBJ_FUZZ, max_examples=300)
    @given(text=_RANDOM_OBJ_TEXT)
    def test_random_text_fails_typed_or_as_before(self, tmp_path, text):
        assert_same_outcome(drawn_obj(tmp_path, text))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf/huge coordinates
class TestObjReaderAcrossBlocks:
    """TestObjReaderAgainstLineParser's properties in blocks of 8 characters,
    where nearly every line is a block of its own: negative indices reach
    back into earlier blocks, and the first error may lie in any block."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr("fofkit.mesh._OBJ_BLOCK_CHARS", 8)

    @settings(_OBJ_FUZZ, max_examples=300)
    @given(text=valid_obj_text())
    def test_valid_files_load_identically(self, tmp_path, text):
        assert assert_same_outcome(drawn_obj(tmp_path, text)) is not None

    @settings(_OBJ_FUZZ, max_examples=200)
    @given(text=shared_normal_obj_text())
    def test_per_vertex_normals_match(self, tmp_path, text):
        assert assert_same_outcome(drawn_obj(tmp_path, text)) is not None

    @settings(_OBJ_FUZZ, max_examples=300)
    @given(text=_RANDOM_OBJ_TEXT)
    def test_random_text_fails_typed_or_as_before(self, tmp_path, text):
        assert_same_outcome(drawn_obj(tmp_path, text))


def raw_lines(data):
    """The lines text mode reads from the bytes data, their line ends kept."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="latin-1", newline="").readlines()


def pad_to(text, size):
    """text followed by one comment line, size characters in all."""
    assert size - len(text) >= 2
    return text + "#" + "x" * (size - len(text) - 2) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf coordinates
class TestObjReaderBlocks:
    def test_negative_indices_and_error_across_blocks(self, tmp_path, monkeypatch):
        # Four blocks of exactly `size` characters: the first sphere's
        # vertices; its faces, written with negative indices into block 1;
        # a shifted copy's vertices; its faces, as quads and triangles.
        sphere = make_sphere(0.6, 1)
        n = sphere.n_vertices
        verts = "".join("v %.9g %.9g %.9g\n" % tuple(v) for v in sphere.vertices)
        faces = "".join("f %d %d %d\n" % tuple(f - n) for f in sphere.faces)
        shifted = ["v %.9g %.9g %.9g\n" % tuple(v + 2.0) for v in sphere.vertices]
        later = "".join("f %d %d %d\n" % tuple(f + n + 1) for f in sphere.faces)
        later += "f %d %d %d %d\n" % (n + 1, n + 2, n + 3, n + 4)
        size = max(map(len, [verts, faces, "".join(shifted), later])) + 2
        blocks = [pad_to(verts, size), pad_to(faces, size), pad_to("".join(shifted), size),
                  pad_to(later, size)]
        # Each read of `size` bytes ends at a line end, so it is a block.
        monkeypatch.setattr("fofkit.mesh._OBJ_BLOCK_CHARS", size)
        path = tmp_path / "blocks.obj"
        path.write_text("".join(blocks))
        with open(path, "rb") as fh:  # load_obj reads these four blocks
            assert [block.decode() for block in _line_blocks(fh)] == blocks
        assert_same_outcome(path)
        got = load_obj(path)
        assert got.n_vertices == 2 * n and got.n_faces == 2 * sphere.n_faces + 2
        assert np.array_equal(got.faces[:sphere.n_faces], sphere.faces)

        # A bad coordinate in block 3, the 5th vertex there.
        shifted[4] = "v 1.5 0.25oops 2\n"
        blocks[2] = pad_to("".join(shifted), size)
        path.write_text("".join(blocks))
        line_no = blocks[0].count("\n") + blocks[1].count("\n") + 5
        assert_same_outcome(path)
        with pytest.raises(ObjParseError, match=f"^{path}:{line_no}: bad vertex: could not "):
            load_obj(path)

    @settings(_OBJ_FUZZ, max_examples=300)
    @given(pieces=st.lists(st.sampled_from([b"v", b"1", b" ", b"\r", b"\n", b"\r\n"]),
                           max_size=40),
           size=st.integers(1, 9))
    @example(pieces=[b"v", b"\r", b"\r\n", b"1"], size=3)  # a read ends inside "\r\r\n"
    def test_blocks_are_whole_lines(self, monkeypatch, pieces, size):
        raw = b"".join(pieces)
        monkeypatch.setattr("fofkit.mesh._OBJ_BLOCK_CHARS", size)
        blocks = list(_line_blocks(io.BytesIO(raw)))
        assert b"".join(blocks) == raw
        assert sum(map(raw_lines, blocks), []) == raw_lines(raw)  # no line or "\r\n" is split
        for block in blocks:
            assert len(block) <= size + 1 + sum(map(len, raw_lines(block)[:2]))

    def test_lone_cr_files_keep_their_block_size(self, tmp_path, monkeypatch):
        # Old Mac line ends: the blocks end at "\r" as they do at "\n".
        save_obj(make_sphere(0.6, 2), tmp_path / "lf.obj")
        raw = (tmp_path / "lf.obj").read_bytes()
        path = tmp_path / "cr.obj"
        path.write_bytes(raw.replace(b"\n", b"\r"))
        monkeypatch.setattr("fofkit.mesh._OBJ_BLOCK_CHARS", 512)
        with open(path, "rb") as fh:
            sizes = [len(block) for block in _line_blocks(fh)]
        assert len(sizes) > 10 and max(sizes) <= 512 + 2 * max(map(len, raw_lines(raw)))
        assert_same_mesh(assert_same_outcome(path), load_obj(tmp_path / "lf.obj"))

    # Python's float or int reads each of these among plain decimals that
    # numpy converts: an underscore, a non-ASCII digit, a NaN's sign, a
    # subnormal, an infinity, an index past int64 and a "+". "007" is plain,
    # leading zeros and all.
    ODD_COORDINATES = ["1_0.5", "١.٥", "-nan", "nan", "1e-320", "Infinity", "-inf", "1e999"]
    ODD_INDICES = ["99999999999999999999", "-99999999999999999999", "1_0", "٣", "+2", "007"]

    @pytest.mark.parametrize("token", ODD_COORDINATES)
    def test_odd_coordinate_alone(self, tmp_path, token):
        path = tmp_path / "odd.obj"
        path.write_text(f"v {token} 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 3 4\nf 2 3 4\n",
                        encoding="utf-8")
        assert_same_outcome(path)

    @pytest.mark.parametrize("token", ODD_INDICES)
    def test_odd_index_alone(self, tmp_path, token):
        path = tmp_path / "odd.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 {token} 3\nf 1 3 4\n",
                        encoding="utf-8")
        assert_same_outcome(path)

    @pytest.mark.parametrize("token", ODD_COORDINATES + ODD_INDICES)
    def test_odd_token_in_a_large_block(self, tmp_path, token):
        # One block of a 1280-face sphere with normals; the token replaces
        # one coordinate, or one face's vertex index.
        path = tmp_path / "sphere.obj"
        save_obj(make_sphere(0.6, 3), path)
        lines = path.read_text().splitlines(keepends=True)
        assert len("".join(lines)) < 1 << 18
        if token in self.ODD_COORDINATES:
            at = 300
            lines[at] = f"v 0.25 {token} -0.5\n"
        else:
            at = next(i for i, line in enumerate(lines) if line.startswith("f ")) + 500
            corners = lines[at].split()[1:]
            lines[at] = f"f {token}//{corners[0].split('/')[-1]} {corners[1]} {corners[2]}\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert_same_outcome(path)

    def test_well_formed_file_is_read_in_bulk(self, tmp_path, monkeypatch):
        # Python's float and int read odd tokens only.
        path = tmp_path / "sphere.obj"
        save_obj(make_sphere(0.6, 2), path)
        want = load_obj(path)
        lines = path.read_text().splitlines()
        lines[:20] = [line + " 1 0.5" for line in lines[:20]]  # extra values on v lines
        lines[20:40] = [line.replace(" ", "\t") for line in lines[20:40]]
        n = want.n_vertices
        lines += ["f %d//%d %d//%d %d//%d" % (a - n, a - n, b - n, b - n, c - n, c - n)
                  for a, b, c in want.faces[:10]]
        path.write_bytes(("# sphere\no s\r\n" + "\r\n".join(lines) + "\r\n").encode())

        def python_numbers(tokens, kind):
            raise AssertionError(f"{kind.__name__} of {tokens[:3]}... left the bulk path")

        monkeypatch.setattr("fofkit.mesh._numbers", python_numbers)
        got = load_obj(path)
        assert_same_mesh(TriMesh(got.vertices, got.faces[:-10], got.normals), want)
        assert np.array_equal(got.faces[-10:], want.faces[:10])


# Separators str.split() knows, "\n" aside, and characters a number may hold.
_SEPARATORS = " \t\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
_NUMBER_TEXT = "0123456789+-.eExXinfatyINFATY_\x00\x7f²½é١٣１"


def _with_point(m, k):
    """m / 10**k written with k digits after a point."""
    digits = str(abs(m)).zfill(k + 1)
    return "-" * (m < 0) + digits[:len(digits) - k] + "." + digits[len(digits) - k:]


class TestObjBlock:
    """The pieces load_obj builds on: its lines are text mode's lines, its
    tokens are str.split()'s, and its bulk conversions read a token only as
    float or int read it."""

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.text(alphabet=_SEPARATORS + "vf/#1é\u0663", max_size=12),
                          min_size=1, max_size=6))
    def test_tokens_are_str_split_tokens(self, parts):
        lines = [part + "\n" for part in parts[:-1]] + ([parts[-1]] if parts[-1] else [])
        block = _ObjBlock("".join(lines or ["\n"]).encode("utf-8"))
        tokens = [block.text[a:b] for a, b in zip(block.starts.tolist(), block.ends.tolist())]
        assert tokens == "".join(lines).split()
        assert block.counts.tolist() == [len(line.split()) for line in lines or ["\n"]]
        assert [tokens[i] for i in block.first[block.counts > 0]] == \
            [line.split()[0] for line in lines if line.split()]

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=40).map(lambda b: b.replace(b"\x00", b"\r")),
           ends=st.lists(st.sampled_from([b"\n", b"\r", b"\r\n", b" "]), max_size=6))
    @example(data=b"v 1\r\r\nf\xe2\x82", ends=[b"\r"])
    def test_lines_are_text_mode_lines(self, data, ends):
        # Raw bytes with every kind of line end and bytes that are not UTF-8.
        raw = data + b"".join(ends)
        lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="replace").readlines()
        block = _ObjBlock(raw or b"\n")
        assert block.counts.tolist() == [len(line.split()) for line in lines or ["\n"]]
        tokens = [block.text[a:b] for a, b in zip(block.starts.tolist(), block.ends.tolist())]
        assert tokens == "".join(lines).split()

    @settings(max_examples=500, deadline=None)
    @given(tokens=st.lists(st.one_of(
        st.text(alphabet=_NUMBER_TEXT, min_size=1, max_size=22),
        st.integers(-10**20, 10**20).map(str),
        st.floats(width=64).map(repr),
        st.floats(-1e3, 1e3).map(lambda x: f"{x:.9g}"),
        st.builds(_with_point, st.integers(-10**17, 10**17), st.integers(0, 17)),
        st.sampled_from(["-nan", "Infinity", "1e-320", "1e999", "1_0", "\u0663", "+7", "007",
                         "999999999999999999", "-999999999999999999", "9999999999999999999",
                         "9223372036854775807", "-9223372036854775808", "1.", ".5", "-.5",
                         ".", "-", "1.2.3", "0.300000000000000044", "123456789012345.6"])),
        min_size=1, max_size=9), kind=st.sampled_from([float, int]))
    @example(tokens=["9999999999999999999"], kind=int)  # past int64 by 19 digits
    @example(tokens=["999999999999999999", "-9223372036854775808", "-0", "+5"], kind=int)
    @example(tokens=["-nan", "1e-320", "Infinity", "1e999", "-0", "\u0661.\u0665"], kind=float)
    @example(tokens=["999999999999999.9", "99999999999999.99", "-0.0", "0.000000000000001"],
             kind=float)
    def test_numbers_read_as_python_does(self, tokens, kind):
        block = _ObjBlock(("x " + " ".join(tokens) + "\n").encode("utf-8"))
        lo, hi = block.starts[1:], block.ends[1:]
        want, want_bad = _numbers(tokens, kind)
        bulk, plain = block._decimals(lo, hi, kind)
        # The bulk conversion accepts only what Python accepts, equal bit for bit.
        accepted = [kind(t) for t, p in zip(tokens, plain.tolist()) if p]
        dtype = np.float64 if kind is float else np.int64
        assert np.array_equal(bulk[plain].view(np.int64),
                              np.array(accepted, dtype=dtype).view(np.int64))
        got, bad = block.numbers(lo, hi, kind)
        if want_bad:
            assert bad[0] == want_bad[0] and str(bad[1]) == str(want_bad[1])
            want = want[:bad[0]]
        else:
            assert bad is None
        want = np.asarray(want, dtype=np.float64) if kind is float else _index_array(want)
        assert np.array_equal(got[:len(want)].view(np.int64), want.view(np.int64))

@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf/huge coordinates
class TestObjWriter:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(verts=arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)),
                        elements=st.floats(width=64)),
           with_normals=st.booleans(), data=st.data())
    def test_bytes_match_line_writer(self, tmp_path, verts, with_normals, data):
        faces = data.draw(arrays(np.int64, st.tuples(st.integers(0, 9), st.just(3)),
                                 elements=st.integers(0, len(verts) - 1)))
        mesh = TriMesh(np.zeros_like(verts), faces)
        # TriMesh rejects non-finite values, but its fields stay writable.
        mesh.vertices, mesh.normals = verts, (verts[::-1] if with_normals else None)
        save_obj(mesh, tmp_path / "a.obj")
        save_obj_by_line(mesh, tmp_path / "b.obj")
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()

    def test_many_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr("fofkit.mesh._OBJ_WRITE_ROWS", 1000)
        mesh = make_sphere(0.6, 4)  # 2562 vertices, 5120 faces
        big = TriMesh(np.concatenate([mesh.vertices] * 2), mesh.faces, None)
        save_obj(big, tmp_path / "a.obj")
        save_obj_by_line(big, tmp_path / "b.obj")
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


def face_cross_by_np_cross(vertices, faces):
    """The form _face_cross replaced: np.cross of the gathered corners and
    np.linalg.norm of each row."""
    v = np.asarray(vertices, dtype=np.float64)[faces]
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    return n, np.linalg.norm(n, axis=1)


def assert_same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_face_kernels_match_np_cross(vertices, faces):
    mesh = TriMesh(np.zeros_like(vertices), faces)
    mesh.vertices = vertices  # TriMesh rejects non-finite values; its fields stay writable
    n, norm = face_cross_by_np_cross(mesh.vertices, mesh.faces)
    assert_same_bits(mesh.face_areas(), 0.5 * norm)
    ln = norm[:, None].copy()
    ln[ln == 0.0] = 1.0
    assert_same_bits(mesh.face_normals(), n / ln)
    index = np.arange(len(faces))[::-3]  # any subset, in any order
    assert_same_bits(mesh.face_normals(index), (n / ln)[index])
    f = mesh.faces
    distinct = (f[:, 0] != f[:, 1]) & (f[:, 1] != f[:, 2]) & (f[:, 0] != f[:, 2])
    assert np.array_equal(drop_degenerate_faces(mesh.vertices, f), f[distinct & (norm > 0.0)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf/huge coordinates
class TestFaceCross:
    """face_areas, face_normals and drop_degenerate_faces equal the np.cross
    and np.linalg.norm form bit for bit."""

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e150])
    def test_random_meshes(self, rng, scale):
        vertices = rng.normal(size=(300, 3)) * rng.uniform(0.01, 10.0, size=(300, 3)) * scale
        assert_face_kernels_match_np_cross(vertices, rng.integers(0, 300, size=(2000, 3)))

    def test_zero_area_and_repeated_index_faces(self, rng):
        vertices = rng.normal(size=(40, 3))
        vertices[30:] = vertices[29]  # coincident vertices
        vertices[20] = 2.0 * vertices[21] - vertices[22]  # collinear with 21 and 22
        faces = np.array([[0, 0, 1], [2, 3, 2], [4, 5, 5], [6, 6, 6], [29, 30, 31],
                          [20, 21, 22], [7, 8, 9]])
        assert_face_kernels_match_np_cross(vertices, faces)
        assert np.array_equal(drop_degenerate_faces(vertices, faces), [[7, 8, 9]])

    def test_infinite_and_huge_coordinates(self, rng):
        vertices = rng.normal(size=(60, 3))
        vertices[:10] *= 1e300  # products overflow to inf
        vertices[10:15, 1] = np.inf
        vertices[15:20, 2] = -np.inf
        faces = np.concatenate([rng.integers(0, 20, size=(200, 3)),
                                rng.integers(0, 60, size=(200, 3))])
        assert_face_kernels_match_np_cross(vertices, faces)

    def test_underflowing_norm_is_dropped(self):
        # The cross product is 1e-320, a subnormal, but its square underflows,
        # so the norm is 0 and the face has no area.
        vertices = np.array([[0.0, 0.0, 0.0], [1e-160, 0.0, 0.0], [0.0, 1e-160, 0.0],
                             [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        faces = np.array([[0, 1, 2], [0, 3, 4]])
        n, norm = face_cross_by_np_cross(vertices, faces)
        assert n[0, 2] > 0.0 and norm[0] == 0.0
        assert_face_kernels_match_np_cross(vertices, faces)
        assert np.array_equal(drop_degenerate_faces(vertices, faces), [[0, 3, 4]])


def bvh_by_node(tri_verts):
    """The per-node build that BVH's level-by-level build replaced: the slot
    order, and the box of every node keyed by its slot range."""
    lo, hi, centroids = tri_verts.min(axis=1), tri_verts.max(axis=1), tri_verts.mean(axis=1)
    order = np.arange(len(tri_verts))
    boxes = {}
    stack = [(0, len(tri_verts))]
    while stack:
        start, count = stack.pop()
        seg = order[start:start + count]
        boxes[start, count] = (lo[seg].min(axis=0), hi[seg].max(axis=0))
        if count == 1:
            continue
        axis = int(np.argmax(boxes[start, count][1] - boxes[start, count][0]))
        order[start:start + count] = seg[np.argsort(centroids[seg, axis], kind="stable")]
        stack += [(start + count // 2, count - count // 2), (start, count // 2)]
    return order, boxes


def node_ranges(bvh):
    """Each node's slot range (start, count), from its one-slot leaves."""
    n = len(bvh.node_left)
    first, end = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for k in reversed(range(n)):  # children are numbered after their parent
        if bvh.node_start[k] >= 0:
            first[k], end[k] = bvh.node_start[k], bvh.node_start[k] + 1
        else:
            first[k], end[k] = first[bvh.node_left[k]], end[bvh.node_left[k] + 1]
    return list(zip(first.tolist(), (end - first).tolist()))


def bvh_meshes():
    rng = np.random.default_rng(5)
    soup = rng.normal(size=(60, 3))
    return {"sphere": make_sphere(0.6, 3),
            # Coordinates on a 0.5 grid, so many centroids tie along an axis.
            "ties": TriMesh(np.round(soup * 2.0) / 2.0, rng.integers(0, 60, size=(300, 3))),
            "one": TriMesh(soup[:3], [[0, 1, 2]]),
            "leaf": TriMesh(soup, rng.integers(0, 60, size=(1, 3))),
            "leaf_plus_one": TriMesh(soup, rng.integers(0, 60, size=(2, 3))),
            "odd": TriMesh(soup, rng.integers(0, 60, size=(37, 3)))}


class TestBVH:
    @pytest.mark.parametrize("name", list(bvh_meshes()))
    def test_same_tree_as_per_node_build(self, name):
        mesh = bvh_meshes()[name]
        bvh = BVH(mesh.vertices, mesh.faces)
        order, boxes = bvh_by_node(mesh.vertices[mesh.faces])
        assert np.array_equal(bvh.order, order)
        ranges = node_ranges(bvh)
        assert sorted(ranges) == sorted(boxes)
        for k, key in enumerate(ranges):
            assert np.array_equal(bvh.node_lo[:, k], boxes[key][0])
            assert np.array_equal(bvh.node_hi[:, k], boxes[key][1])
        leaves = bvh.node_start >= 0
        # Every leaf holds exactly one triangle, and every slot is a leaf.
        assert np.array_equal(np.sort(bvh.node_start[leaves]), np.arange(len(mesh.faces)))
        # The children node_left and node_left + 1 of the inner nodes are
        # every node but the root, each once.
        children = bvh.node_left[~leaves][:, None] + [0, 1]
        assert np.array_equal(np.sort(children.ravel()), np.arange(1, len(leaves)))
        assert np.array_equal(bvh.slot_rows, mesh.vertices[mesh.faces][order].transpose(1, 2, 0))

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    @pytest.mark.parametrize("name", ["ties", "odd"])
    def test_slabs_hold_every_corner_exactly(self, name, scale):
        # Exact rational n.v, so the check does not share the build's rounding.
        mesh = bvh_meshes()[name]
        mesh.vertices[:5] = mesh.vertices[0]  # zero-area and collinear faces
        bvh = BVH(mesh.vertices * scale, mesh.faces)

        def holds(n, a, b, corners):
            proj = [sum(Fraction(x) * Fraction(y) for x, y in zip(n, v)) for v in corners]
            return Fraction(a) <= min(proj) and max(proj) <= Fraction(b)

        for k, (start, count) in enumerate(node_ranges(bvh)):
            corners = bvh.slot_rows[:, :, start:start + count].transpose(2, 0, 1).reshape(-1, 3)
            assert holds(bvh.node_n[:, k].tolist(), bvh.node_a[k], bvh.node_b[k],
                         corners.tolist())
            assert abs(np.linalg.norm(bvh.node_n[:, k]) - 1.0) <= 4 * 2.0 ** -53

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError):
            BVH(np.zeros((3, 3)), np.empty((0, 3), dtype=np.int64))


class TestWatertight:
    def test_closed_icosphere(self):
        ok, boundary = check_watertight(make_sphere(0.6, 2))
        assert ok and boundary == []

    def test_single_triangle(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        ok, boundary = check_watertight(mesh)
        assert not ok
        assert len(boundary) == 3

    def test_icosphere_missing_face(self):
        sphere = make_sphere(0.6, 1)
        mesh = TriMesh(sphere.vertices, sphere.faces[:-1])
        ok, boundary = check_watertight(mesh)
        assert not ok
        assert len(boundary) == 3

    def test_duplicated_face_not_watertight(self):
        mesh = tetrahedron()
        doubled = TriMesh(mesh.vertices, np.vstack([mesh.faces, mesh.faces[:1]]))
        assert not check_watertight(doubled)[0]


def watertight_by_counter(faces):
    """Definition check: every directed edge occurs exactly once and so does
    its reverse; the boundary is each undirected edge where that fails."""
    directed = Counter((int(f[i]), int(f[(i + 1) % 3])) for f in faces for i in range(3))
    bad = {tuple(sorted(e)) for e, count in directed.items()
           if count != 1 or directed[e[::-1]] != 1}
    return not bad, sorted(bad)


# Edits of a closed mesh: drop, duplicate or flip a face, flip every face,
# add a face with a self-loop edge (a, a), or add any face at all.
_MESH_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "dup", "flip"]), st.integers(0, 2**16)),
    st.tuples(st.just("flip_all")),
    st.tuples(st.just("loop"), st.integers(0, 11), st.integers(0, 11)),
    st.tuples(st.just("add"), st.integers(0, 11), st.integers(0, 11), st.integers(0, 11)),
), max_size=4)


class TestWatertightDefinition:
    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from(["tetrahedron", "icosahedron"]), edits=_MESH_EDITS)
    def test_matches_directed_edge_counts(self, base, edits):
        mesh = tetrahedron() if base == "tetrahedron" else make_sphere(0.6, 0)
        faces = [list(f) for f in mesh.faces]
        n = mesh.n_vertices
        for edit in edits:
            if edit[0] == "flip_all":
                faces = [f[::-1] for f in faces]
            elif edit[0] in ("loop", "add"):
                corners = edit[1:] if edit[0] == "add" else (edit[1], edit[1], edit[2])
                faces.append([c % n for c in corners])
            elif faces:
                i = edit[1] % len(faces)
                if edit[0] == "drop":
                    faces.pop(i)
                elif edit[0] == "dup":
                    faces.append(list(faces[i]))
                else:
                    faces[i] = faces[i][::-1]
        # reshape: with every face dropped, np.array([]) is (0,), not (0, 3).
        got = check_watertight(TriMesh(mesh.vertices,
                                       np.array(faces, dtype=np.int64).reshape(-1, 3)))
        assert got == watertight_by_counter(faces)

    def test_cases_of_both_kinds(self):
        closed = make_sphere(0.6, 0)
        for faces in (closed.faces, closed.faces[:, ::-1], np.array([[0, 0, 1]])):
            assert check_watertight(TriMesh(closed.vertices, faces)) == (True, [])
        for faces in (closed.faces[1:], np.vstack([closed.faces, closed.faces[:1, ::-1]]),
                      np.vstack([closed.faces[1:], closed.faces[:1, ::-1]])):
            got = check_watertight(TriMesh(closed.vertices, faces))
            assert not got[0] and got == watertight_by_counter(faces)


class TestRayIntervals:
    def test_miss_is_empty(self, sphere_mesh, frame128):
        assert len(ray_intervals(sphere_mesh, frame128, (0, 0))) == 0

    def test_cube_center_pixel(self):
        frame = OrthoFrame(128, 128)
        cube = make_cube(1.0)  # spans z in [-0.5, 0.5]
        iv = ray_intervals(cube, frame, (64, 64))
        assert len(iv) == 1
        assert iv.intervals[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert iv.intervals[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_sphere_chord_analytic(self, frame128):
        sphere = make_sphere(0.6, 5)  # fine enough to approximate the ball
        # pixel at planar offset rho ~= 0.3 from the axis
        col = 83  # x = -1 + 2*(83+0.5)/128 = 0.3046875
        row = 63  # y = 1 - 2*(63+0.5)/128 = 0.0078125
        x = -1 + 2 * (col + 0.5) / 128
        y = 1 - 2 * (row + 0.5) / 128
        rho2 = x * x + y * y
        half_chord = np.sqrt(0.36 - rho2)
        iv = ray_intervals(sphere, frame128, (row, col))
        assert len(iv) == 1
        assert iv.intervals[0, 0] == pytest.approx(-half_chord, abs=2e-3)
        assert iv.intervals[0, 1] == pytest.approx(half_chord, abs=2e-3)

    def test_requires_watertight(self, frame128):
        open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError):
            ray_intervals(open_mesh, frame128, (64, 64))

    def test_pixel_bounds(self, sphere_mesh, frame128):
        with pytest.raises(DomainError):
            ray_intervals(sphere_mesh, frame128, (128, 0))


class TestOrthoFrame:
    @pytest.mark.parametrize("kwargs", [
        {"center": (0.0, 0.0)}, {"center": (0.0, 0.0, 0.0, 0.0)}, {"center": (0.0, np.nan, 0.0)},
        {"center": (np.inf, 0.0, 0.0)}, {"center": "0,0,0"}, {"center": 0.0},
        {"half_extent": 0.0}, {"half_extent": -1.0}, {"half_extent": np.inf},
        {"half_extent": np.nan}])
    def test_rejects_bad_center_and_extent(self, kwargs):
        with pytest.raises(DomainError):
            OrthoFrame(8, 8, **kwargs)


class TestParity:
    def test_even_hit_counts(self, sphere_mesh, frame128):
        pix, z = ray_cast_all(sphere_mesh, frame128)
        counts = np.bincount(pix, minlength=128 * 128)
        assert np.all(counts % 2 == 0)

    def test_translation_equivariance(self, frame128):
        mesh = make_sphere(0.5, 3)
        delta = 0.123
        shifted = mesh.translated([0.0, 0.0, delta])
        for pixel in [(64, 64), (60, 70), (50, 50)]:
            iv_a = ray_intervals(mesh, frame128, pixel)
            iv_b = ray_intervals(shifted, frame128, pixel)
            assert iv_a.intervals.shape == iv_b.intervals.shape
            if len(iv_a):
                shift = delta / frame128.half_extent
                assert np.max(np.abs(iv_b.intervals - iv_a.intervals - shift)) <= 1e-9


class TestMeshToFof:
    def test_empty_scene(self, frame128):
        empty = TriMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
        field = mesh_to_fof(empty, frame128, BasisConfig(3))
        assert not field.data.any()

    def test_cube_separability(self, frame128):
        cube = make_cube(1.0)
        field = mesh_to_fof(cube, frame128, BasisConfig(15))
        expected = intervals_to_coeffs([(-0.5, 0.5)], BasisConfig(15))
        # interior pixel well away from the cube boundary
        assert np.array_equal(field.data[64, 64], expected)

    def test_matches_per_ray_path_exactly(self, sphere_mesh, sphere_field, frame128):
        cfg = BasisConfig(15)
        for pixel in [(64, 64), (40, 80), (64, 20), (10, 10)]:
            iv = ray_intervals(sphere_mesh, frame128, pixel)
            expected = intervals_to_coeffs(iv, cfg)
            assert np.array_equal(sphere_field.data[pixel[0], pixel[1]], expected)

    @pytest.mark.parametrize("shape, res", [("sphere", 32), ("torus", 24), ("cube", 2),
                                            ("cube", 6)])
    def test_every_pixel_matches_per_ray_path(self, sphere_mesh, torus_mesh, shape, res,
                                              caplog):
        # At 2 and 6 pixels the cube's corners and edges lie on pixel centers.
        mesh = {"sphere": sphere_mesh, "torus": torus_mesh, "cube": make_cube(1.0)}[shape]
        frame, cfg = OrthoFrame(res, res), BasisConfig(7)
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            field = mesh_to_fof(mesh, frame, cfg)
            for row in range(res):
                for col in range(res):
                    expected = intervals_to_coeffs(ray_intervals(mesh, frame, (row, col)), cfg)
                    assert np.array_equal(field.data[row, col], expected), (row, col)
        assert not caplog.records  # the tie rule alone keeps every count even

    def test_stacked_intervals_match_per_ray_path(self):
        # Three spheres on the z axis give pixels up to three intervals, so
        # each pixel's terms are added over several accumulation steps.
        ball = make_sphere(0.25, 2)
        parts = [ball.translated([0.0, 0.0, z]) for z in (-0.6, 0.0, 0.6)]
        n = ball.vertices.shape[0]
        mesh = TriMesh(np.concatenate([m.vertices for m in parts]),
                       np.concatenate([m.faces + i * n for i, m in enumerate(parts)]))
        frame, cfg = OrthoFrame(16, 16), BasisConfig(7)
        field = mesh_to_fof(mesh, frame, cfg)
        counts = []
        for row in range(16):
            for col in range(16):
                iv = ray_intervals(mesh, frame, (row, col))
                counts.append(len(iv.intervals))
                assert np.array_equal(field.data[row, col], intervals_to_coeffs(iv, cfg))
        assert max(counts) == 3

    @pytest.mark.parametrize("shape", ["sphere", "torus"])
    def test_z_mirror_negates_sin_channels(self, sphere_mesh, torus_mesh, shape):
        # Mirroring in z maps each interval [a, b] to [-b, -a]: DC and cos
        # terms are even in z and stay, sin terms are odd and change sign.
        mesh = {"sphere": sphere_mesh, "torus": torus_mesh}[shape]
        mirrored = TriMesh(mesh.vertices * [1.0, 1.0, -1.0], mesh.faces)
        frame, cfg = OrthoFrame(64, 64), BasisConfig(15)
        field = mesh_to_fof(mesh, frame, cfg).data
        flipped = mesh_to_fof(mirrored, frame, cfg).data
        sin = np.zeros(cfg.channels, dtype=bool)
        sin[2::2] = True  # channels are [1, cos(pi z), sin(pi z), cos(2 pi z), ...]
        assert field[..., sin].any()
        assert np.array_equal(flipped[..., ~sin].view(np.uint64),
                              field[..., ~sin].view(np.uint64))
        assert np.array_equal(flipped[..., sin], -field[..., sin])

    def test_sphere_volume_within_1pct(self, sphere_field, frame128):
        vol = field_volume(sphere_field, frame128)
        assert vol == pytest.approx(4 / 3 * np.pi * 0.6 ** 3, rel=0.01)

    def test_volume_matches_divergence_theorem(self, sphere_mesh, sphere_field, frame128):
        mesh_vol, _ = mesh_volume(sphere_mesh)
        assert field_volume(sphere_field, frame128) == pytest.approx(mesh_vol, rel=0.01)

    def test_rejects_open_mesh(self, frame128):
        open_mesh = TriMesh([[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0]], [[0, 1, 2]])
        with pytest.raises(MeshError):
            mesh_to_fof(open_mesh, frame128)


class TestNormalize:
    def test_normalize_to_margin(self):
        mesh = make_cube(4.0).translated([1.0, 2.0, 3.0])
        out, scale, offset = normalize_mesh(mesh, 0.9)
        lo, hi = out.bounds()
        assert np.max(np.abs(lo)) == pytest.approx(0.9)
        assert np.max(np.abs(hi)) == pytest.approx(0.9)

    def test_fit_to_frame_noop_when_inside(self, sphere_mesh, frame128):
        out = fit_to_frame(sphere_mesh, frame128)
        assert out is sphere_mesh

    def test_fit_to_frame_scales_when_outside(self, frame128):
        big = make_cube(4.0)
        out = fit_to_frame(big, frame128)
        lo, hi = out.bounds()
        assert np.max(np.abs([lo, hi])) <= 0.9 + 1e-12


class TestTieRule:
    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("diagonal", ["/", "\\", "mixed"])
    def test_grid_owns_each_point_once(self, flip, diagonal):
        # A 4x4-cell triangle grid whose vertices and edges lie on pixel
        # centers: every center inside it belongs to exactly one triangle.
        n = 5
        tris = []
        for r in range(n - 1):
            for c in range(n - 1):
                a, b, d, e = (c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)
                if diagonal == "/" or (diagonal == "mixed" and (r + c) % 2):
                    tris += [(a, b, d), (b, e, d)]
                else:
                    tris += [(a, b, e), (a, e, d)]
        tris = np.array(tris, dtype=np.float64) + 0.5
        if flip:
            tris = tris[:, ::-1]
        tri_z = np.zeros(tris.shape[:2])
        rec = rasterize_coverage(tris, 8, 8)
        counts = np.bincount(rec.pixel, minlength=64).reshape(8, 8)
        assert np.all(counts[1:n - 1, 1:n - 1] == 1)
        for row in range(1, n - 1):
            for col in range(1, n - 1):
                assert len(ray_hits_at_point(col + 0.5, row + 0.5, tris, tri_z)) == 1


class TestDegenerateRayPolicy:
    def test_corner_on_pixel_center_stays_even(self):
        # cube corners projecting exactly onto pixel centers: the coverage
        # tie rules keep every per-pixel hit count even with no recasts
        frame = OrthoFrame(2, 2)
        cube = make_cube(1.0)
        pix, z = ray_cast_all(cube, frame)
        counts = np.bincount(pix, minlength=4)
        assert np.all(counts % 2 == 0)

    def test_parity_repair_recasts_odd_pixels(self, monkeypatch, caplog):
        # drop one coverage record: its pixel's count turns odd, and the
        # repair recasts that pixel through the single-ray caster
        import fofkit.raster as raster_mod

        frame = OrthoFrame(16, 16)
        cube = make_cube(1.0)
        want_pix, want_z = ray_cast_all(cube, frame)
        real = raster_mod.rasterize_coverage

        def drop_first(tris, width, height):
            rec = real(tris, width, height)
            return CoverageRecords(rec.pixel[1:], rec.tri[1:], rec.bary[1:])

        monkeypatch.setattr(raster_mod, "rasterize_coverage", drop_first)
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            pix, z = ray_cast_all(cube, frame)
        assert np.array_equal(pix, want_pix) and np.array_equal(z, want_z)
        assert not caplog.records  # the unjittered recast is already even

    def test_jitter_retries_then_empty(self, monkeypatch, frame128, caplog):
        # force odd hit counts: the caster must recast with the fixed diagonal
        # jitter up to three times, then give the ray up as empty
        import fofkit.mesh as mesh_mod

        calls = []

        def always_odd(px, py, tris, tri_z):
            calls.append((px, py))
            return np.array([0.0])

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", always_odd)
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 0
        # The benchmark's tracer counts dropped rays by this message's prefix.
        assert [r.msg for r in caplog.records] == \
            ["pixel %s degenerate after %d recasts; treated as empty"]
        assert len(calls) == 4  # initial cast + 3 jittered recasts
        base = calls[0]
        for k, (px, py) in enumerate(calls):
            assert px == pytest.approx(base[0] + k * 1e-4)
            assert py == pytest.approx(base[1] + k * 1e-4)

    def test_jitter_recovers_even_count(self, monkeypatch, frame128, caplog):
        import fofkit.mesh as mesh_mod

        state = {"n": 0}
        real = mesh_mod.ray_hits_at_point

        def odd_once(px, py, tris, tri_z):
            state["n"] += 1
            if state["n"] == 1:
                return np.array([0.0])
            return real(px, py, tris, tri_z)

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", odd_once)
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 1  # second attempt hits the true cube interval
        # The benchmark's tracer counts recasts by this message's prefix.
        assert [r.msg for r in caplog.records] == ["pixel %s recast with jitter %d"]


class TestEncodingWindow:
    """mesh_to_fof on a window of the frame is the whole frame's field
    cropped to it, bit for bit, and encoding_window's window holds every
    pixel a mesh's encoding makes live."""

    @staticmethod
    def assert_window_is_the_crop(mesh, frame, cfg, window=None):
        """The field on window, encoding_window's by default, after checking
        it against the whole frame's field; off encoding_window's window
        that field must be all zero."""
        held = encoding_window((mesh,), frame)
        window = held if window is None else window
        full = mesh_to_fof(mesh, frame, cfg)
        field = mesh_to_fof(mesh, frame, cfg, window)
        assert field.window == window
        assert field.data.tobytes() == full.data[window].tobytes()
        off = np.ones((frame.height, frame.width), dtype=bool)
        off[held] = False
        assert not full.data[off].any()
        return field

    @pytest.mark.parametrize("shape", ["sphere", "capsule_figure"])
    def test_sweep_shapes(self, shape):
        frame, cfg = OrthoFrame(), BasisConfig(15)
        gt = fit_to_frame(make_shape(shape), frame)
        field = self.assert_window_is_the_crop(gt, frame, cfg)
        # The live box plus one cell: 78 x 78 and 96 x 60 of 128 x 128.
        assert field.data.shape[:2] == {"sphere": (78, 78), "capsule_figure": (96, 60)}[shape]
        live = np.any(field.data != 0.0, axis=2)
        assert not live[[0, -1]].any() and not live[:, [0, -1]].any()

    def test_window_clamped_at_the_frame_edges(self):
        frame = OrthoFrame(24, 20, (0.05, -0.02, 0.0))
        mesh = make_sphere(0.45, 2).translated((0.8, 0.75, 0.0))
        rows, cols = encoding_window((mesh,), frame)
        assert rows.start == 0 and cols.stop == frame.width
        field = self.assert_window_is_the_crop(mesh, frame, BasisConfig(5))
        assert np.any(field.data[0] != 0.0) and np.any(field.data[:, -1] != 0.0)

    def test_pixel_recast_on_the_window(self, monkeypatch):
        # Drop one coverage record of a pixel inside the window: its count
        # turns odd, and parity repair recasts it, for the window's field
        # as for the whole frame's.
        import fofkit.mesh as mesh_mod
        import fofkit.raster as raster_mod

        frame, cube = OrthoFrame(16, 16), make_cube(1.0)
        real_coverage, real_cast = raster_mod.rasterize_coverage, mesh_mod._cast_pixel
        recast = []

        def drop_first(tris, width, height):
            rec = real_coverage(tris, width, height)
            return CoverageRecords(rec.pixel[1:], rec.tri[1:], rec.bary[1:])

        def cast(tris, tri_z, frame, pixel):
            recast.append(pixel)
            return real_cast(tris, tri_z, frame, pixel)

        monkeypatch.setattr(raster_mod, "rasterize_coverage", drop_first)
        monkeypatch.setattr(mesh_mod, "_cast_pixel", cast)
        rows, cols = window = encoding_window((cube,), frame)
        self.assert_window_is_the_crop(cube, frame, BasisConfig(3), window)
        assert len(recast) == 2 and len(set(recast)) == 1  # once per encode
        (r, c), = set(recast)
        assert rows.start < r < rows.stop - 1 and cols.start < c < cols.stop - 1

    def test_any_window_is_the_crop(self, sphere_mesh):
        # A window that cuts through the body, and the whole frame.
        frame = OrthoFrame(32, 24)
        for window in [(slice(5, 12), slice(3, 30)), (slice(0, 24), slice(0, 32))]:
            self.assert_window_is_the_crop(sphere_mesh, frame, BasisConfig(3), window)

    def test_meshes_off_the_frame(self):
        frame = OrthoFrame(10, 8)
        far = make_sphere(0.3, 1).translated((5.0, 0.0, 0.0))
        assert encoding_window((far,), frame) == (slice(0, 2), slice(0, 2))
        assert encoding_window((), frame) == (slice(0, 2), slice(0, 2))
        assert not mesh_to_fof(far, frame, BasisConfig(2), (slice(0, 2), slice(0, 2))).data.any()

    @pytest.mark.parametrize("window, match", [
        ((slice(0, 9), slice(0, 4)), "does not match frame"),
        ((slice(0, 4), slice(2, 11)), "does not match frame"),
        ((slice(3, 3), slice(0, 4)), "window must be"),
        ((slice(-1, 3), slice(0, 4)), "window must be"),
        ((slice(0, 4, 2), slice(0, 4)), "window must be"),
        ((slice(0, 4),), "window must be"),
        ([slice(0, 4), slice(0, 4)], "window must be"),
        ((slice(0.0, 4), slice(0, 4)), "window must be")])
    def test_bad_window(self, window, match):
        with pytest.raises(ShapeError, match=match):
            mesh_to_fof(make_sphere(0.5, 1), OrthoFrame(10, 8), BasisConfig(2), window)
