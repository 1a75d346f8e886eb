import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fofkit.errors import DomainError, FofkitError, MeshError, ObjParseError
from fofkit.fof import BasisConfig, intervals_to_coeffs
from fofkit.mesh import (TriMesh, check_watertight, drop_degenerate_faces, field_volume,
                         fit_to_frame, load_obj, mesh_to_fof, mesh_volume_divergence,
                         normalize_mesh, ray_cast_all, ray_intervals, save_obj)
from fofkit.metrics import chamfer
from fofkit.raster import CoverageRecords, OrthoFrame, rasterize_coverage, ray_hits_at_point
from fofkit.shapes import make_cube, make_sphere


def tetrahedron():
    return TriMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


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

    def test_ignored_records_warning_lists_tags(self, tmp_path, caplog):
        path = tmp_path / "tags.obj"
        path.write_text("o a\n# note\nvt 0 0\n\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\ns 1\n")
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            load_obj(path)
        assert caplog.messages == [f"{path}: ignored OBJ records ['o', 's', 'vt']"]


def load_obj_by_line(path):
    """Reference OBJ reader: the line-by-line parser that load_obj replaced,
    kept as it was (the IndexError and OverflowError it can leak included)."""
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
    if faces_arr.size and faces_arr.max() >= len(verts):
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


_FLOAT_TEXT = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.4e}"),
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1E5", "+1.5", "-0", ".5",
                     "1e-320", "1_0.5"]),
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cross products of inf/huge coordinates
class TestObjReaderAgainstLineParser:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=valid_obj_text())
    def test_valid_files_load_identically(self, tmp_path, text):
        path = tmp_path / "gen.obj"
        path.write_bytes(text.encode("utf-8"))
        assert_same_mesh(load_obj(path), load_obj_by_line(path))

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=shared_normal_obj_text())
    def test_per_vertex_normals_match(self, tmp_path, text):
        path = tmp_path / "normals.obj"
        path.write_text(text)
        assert_same_mesh(load_obj(path), load_obj_by_line(path))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.lists(st.one_of(
        st.text(alphabet="vnf/#-+.0123456789eE \t\r\x0b\x85é", max_size=24),
        st.builds(" ".join, st.lists(st.sampled_from(
            ["v", "vn", "f", "1", "-1", "2/3/1", "1//1", "0", "x", "nan", "3//", "/1",
             "99999999999999999999", "-4"]), max_size=6))), max_size=12).map("\n".join))
    def test_random_text_fails_typed_or_as_before(self, tmp_path, text):
        path = tmp_path / "fuzz.obj"
        path.write_bytes(text.encode("utf-8"))
        try:
            got = load_obj(path)
        except FofkitError as exc:
            got = exc
        try:
            want = load_obj_by_line(path)
        except ObjParseError as exc:
            # A per-line error names the same line with the same message.
            assert isinstance(got, ObjParseError) and str(got) == str(exc)
            return
        except Exception:  # the old reader's leaks (IndexError, OverflowError, ...)
            return
        if isinstance(got, TriMesh):
            assert_same_mesh(got, want)


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
        normals = verts[::-1] if with_normals else None
        mesh = TriMesh(verts, faces, normals)
        save_obj(mesh, tmp_path / "a.obj")
        save_obj_by_line(mesh, tmp_path / "b.obj")
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()

    def test_many_blocks(self, tmp_path):
        mesh = make_sphere(0.6, 4)  # 2562 vertices, 5120 faces
        big = TriMesh(np.concatenate([mesh.vertices] * 2), mesh.faces, None)
        save_obj(big, tmp_path / "a.obj")
        save_obj_by_line(big, tmp_path / "b.obj")
        assert (tmp_path / "a.obj").read_bytes() == (tmp_path / "b.obj").read_bytes()


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
        got = check_watertight(TriMesh(mesh.vertices, np.array(faces, dtype=np.int64)))
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
        mesh_vol = mesh_volume_divergence(sphere_mesh)
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
        import fofkit.mesh as mesh_mod

        frame = OrthoFrame(16, 16)
        cube = make_cube(1.0)
        want_pix, want_z = ray_cast_all(cube, frame)
        real = mesh_mod.rasterize_coverage

        def drop_first(tris, width, height):
            rec = real(tris, width, height)
            return CoverageRecords(rec.pixel[1:], rec.tri[1:], rec.bary[1:])

        monkeypatch.setattr(mesh_mod, "rasterize_coverage", drop_first)
        with caplog.at_level(logging.WARNING, logger="fofkit.mesh"):
            pix, z = ray_cast_all(cube, frame)
        assert np.array_equal(pix, want_pix) and np.array_equal(z, want_z)
        assert not caplog.records  # the unjittered recast is already even

    def test_jitter_retries_then_empty(self, monkeypatch, frame128):
        # force odd hit counts: the caster must recast with the fixed diagonal
        # jitter up to three times, then give the ray up as empty
        import fofkit.mesh as mesh_mod

        calls = []

        def always_odd(px, py, tris, tri_z):
            calls.append((px, py))
            return np.array([0.0])

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", always_odd)
        iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 0
        assert len(calls) == 4  # initial cast + 3 jittered recasts
        base = calls[0]
        for k, (px, py) in enumerate(calls):
            assert px == pytest.approx(base[0] + k * 1e-4)
            assert py == pytest.approx(base[1] + k * 1e-4)

    def test_jitter_recovers_even_count(self, monkeypatch, frame128):
        import fofkit.mesh as mesh_mod

        state = {"n": 0}
        real = mesh_mod.ray_hits_at_point

        def odd_once(px, py, tris, tri_z):
            state["n"] += 1
            if state["n"] == 1:
                return np.array([0.0])
            return real(px, py, tris, tri_z)

        monkeypatch.setattr(mesh_mod, "ray_hits_at_point", odd_once)
        iv = ray_intervals(make_cube(1.0), frame128, (64, 64))
        assert len(iv) == 1  # second attempt hits the true cube interval
