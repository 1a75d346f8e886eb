import configparser
import hashlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fofkit
from fofkit.cli import build_parser, main
from fofkit.completion import degrade_prior
from fofkit.config import SETTINGS, HarnessConfig
from fofkit.errors import ConfigError, DomainError, OcclusionError
from fofkit.mesh import load_obj, save_obj
from fofkit.occlusion import synthesize_occlusion
from fofkit.shapes import SHAPE_MAKERS, make_shape
from fofkit.surface import mesh_volume
from fofkit.tensor_io import read_pfm, read_pgm, read_tensor

SPHERE_VOLUME = 4 / 3 * np.pi * 0.6 ** 3


def run(*argv):
    return main([str(a) for a in argv])


class TestShapes:
    def test_sphere_watertight_volume(self, tmp_path):
        out = tmp_path / "s.obj"
        assert run("shapes", "sphere", out, "--subdivisions", 4) == 0
        vol, orient = mesh_volume(load_obj(out))
        assert vol == pytest.approx(SPHERE_VOLUME, rel=0.005)
        assert orient == 1

    def test_cube_volume_exact(self, tmp_path):
        out = tmp_path / "c.obj"
        assert run("shapes", "cube", out, "--size", 0.8) == 0
        vol, _ = mesh_volume(load_obj(out))
        assert vol == pytest.approx(0.8 ** 3, abs=1e-12)

    def test_torus_radii_reach_the_maker(self, tmp_path):
        out = tmp_path / "t.obj"
        assert run("shapes", "torus", out, "--major-radius", 0.5, "--minor-radius", 0.1) == 0
        vol, _ = mesh_volume(load_obj(out))
        assert vol == pytest.approx(2 * np.pi ** 2 * 0.5 * 0.1 ** 2, rel=0.01)

    def test_capsule_figure_watertight(self, tmp_path):
        out = tmp_path / "f.obj"
        assert run("shapes", "capsule_figure", out, "--grid-res", 96) == 0
        from fofkit.mesh import check_watertight
        assert check_watertight(load_obj(out))[0]

    @pytest.mark.parametrize("argv", [
        ("capsule_figure", "--grid-res", 1), ("sphere", "--radius", "nan"),
        ("sphere", "--radius", 0), ("sphere", "--subdivisions", -1),
        ("cube", "--size", "inf"), ("cube", "--size", -1),
        ("torus", "--major-radius", "inf"), ("torus", "--minor-radius", "nan")])
    def test_bad_parameter_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "s.obj"
        assert run("shapes", argv[0], out, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "invalid shape" in err and "Traceback" not in err
        assert not out.exists()

    def test_empty_mesh_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "f.obj"
        assert run("shapes", "capsule_figure", out, "--grid-res", 2) == 3
        assert "no faces" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_defaults_are_the_makers(self):
        args = build_parser().parse_args(["shapes", "sphere", "s.obj"])
        for maker in SHAPE_MAKERS.values():
            for name, param in inspect.signature(maker).parameters.items():
                if hasattr(args, name):
                    assert getattr(args, name) == param.default
                    assert type(getattr(args, name)) is type(param.default)
        assert {"radius", "subdivisions", "major_radius", "minor_radius", "grid_res",
                "size"} <= set(vars(args))


class TestShapeMakers:
    @pytest.mark.parametrize("kind,params", [
        ("sphere", {"radius": np.nan}), ("sphere", {"radius": np.inf}),
        ("sphere", {"radius": -0.5}), ("sphere", {"subdivisions": -1}),
        ("sphere", {"subdivisions": 1.5}), ("cube", {"size": np.inf}),
        ("cube", {"size": np.nan}), ("cube", {"size": 0.0}),
        ("torus", {"major_radius": np.inf}), ("torus", {"minor_radius": np.nan}),
        ("torus", {"minor_radius": 0.0}), ("torus", {"major_segments": 2}),
        ("torus", {"minor_segments": 1}), ("torus", {"major_segments": 2.5}),
        ("capsule_figure", {"grid_res": 1}),
        ("capsule_figure", {"grid_res": 0}), ("capsule_figure", {"grid_res": 8.0})])
    def test_bad_parameter_is_domain_error(self, kind, params):
        with pytest.raises(DomainError):
            make_shape(kind, **params)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipe")
    assert run("shapes", "sphere", d / "gt.obj", "--subdivisions", 3) == 0
    assert run("encode", d / "gt.obj", d / "gt.oaht") == 0
    assert run("silhouette", d / "gt.obj", d / "body.pgm") == 0
    return d


class TestPipeline:

    def test_encode_writes_meta(self, workdir):
        dims, _ = read_tensor(workdir / "gt.oaht")
        assert dims == (128, 128, 31)
        meta = (workdir / "gt.oaht.meta").read_text()
        assert "half_extent" in meta and "order = 15" in meta

    def test_reconstruct(self, workdir):
        assert run("reconstruct", workdir / "gt.oaht", workdir / "rt.obj",
                   "--grid-res", 64) == 0
        mesh = load_obj(workdir / "rt.obj")
        assert mesh.n_faces > 1000

    def test_occlude_masks_partition(self, workdir):
        assert run("occlude", workdir / "gt.oaht", workdir / "body.pgm",
                   workdir / "occ.oaht", "--ratio", "0.4", "--seed", "7") == 0
        body = read_pgm(workdir / "body.pgm")
        v = read_pgm(str(workdir / "occ.oaht") + ".V.pgm")
        m = read_pgm(str(workdir / "occ.oaht") + ".M.pgm")
        assert not (v & m).any()
        assert np.array_equal(v | m, body)

    def test_blend_and_eval(self, workdir):
        assert run("occlude", workdir / "gt.oaht", workdir / "body.pgm",
                   workdir / "occ.oaht", "--ratio", "0.4", "--seed", "7") == 0
        assert run("blend", workdir / "occ.oaht", workdir / "gt.oaht",
                   str(workdir / "occ.oaht") + ".V.pgm",
                   str(workdir / "occ.oaht") + ".M.pgm",
                   workdir / "blend.oaht") == 0
        assert run("reconstruct", workdir / "blend.oaht", workdir / "blend.obj",
                   "--grid-res", 64) == 0
        assert run("eval", workdir / "blend.obj", workdir / "gt.obj",
                   workdir / "m.csv", "--samples", "2000") == 0
        lines = (workdir / "m.csv").read_text().splitlines()
        assert lines[0].startswith("cd,p2s,normal_err")
        assert float(lines[1].split(",")[0]) < 10.0

    def test_render_normals_outputs(self, workdir):
        assert run("render-normals", workdir / "gt.obj",
                   workdir / "f.pfm", workdir / "b.pfm",
                   "--out-mask", workdir / "fg.pgm") == 0
        front = read_pfm(workdir / "f.pfm")
        assert front.shape == (128, 128, 3)
        mask = read_pgm(workdir / "fg.pgm")
        assert mask.sum() > 100

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("reconstruct", tmp_path / "nope.oaht", tmp_path / "x.obj") == 3

    @pytest.mark.parametrize("line", ["center = 0.0,0.0", "half_extent = nan"])
    def test_bad_field_meta_is_config_error(self, workdir, tmp_path, capsys, line):
        field = tmp_path / "f.oaht"
        field.write_bytes((workdir / "gt.oaht").read_bytes())
        key = line.split(" ")[0]
        meta = [line if old.startswith(key + " ") else old
                for old in (workdir / "gt.oaht.meta").read_text().splitlines()]
        (tmp_path / "f.oaht.meta").write_text("\n".join(meta) + "\n")
        assert run("reconstruct", field, tmp_path / "r.obj", "--grid-res", 8) == 2
        err = capsys.readouterr().err
        assert "bad field metadata" in err and "Traceback" not in err

    def test_meta_frame_size_mismatch_is_config_error(self, workdir, tmp_path, capsys):
        field = tmp_path / "f.oaht"
        field.write_bytes((workdir / "gt.oaht").read_bytes())
        meta = (workdir / "gt.oaht.meta").read_text().replace("width = 128", "width = 64")
        (tmp_path / "f.oaht.meta").write_text(meta)
        assert run("reconstruct", field, tmp_path / "r.obj", "--grid-res", 8) == 2
        err = capsys.readouterr().err
        assert "bad field metadata" in err and "frame 128x64" in err

    def test_weights_section_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr("fofkit.sweep.prepare_context", None)  # no sweep may start
        cfg = tmp_path / "c.ini"
        cfg.write_text("[weights]\nlambda_occ = 2.0\n")
        assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        assert run("sweep", "--out", tmp_path / "o", "--set", "bogus.key=1") == 2

    @pytest.mark.parametrize("text", [
        b"width = 64\n",  # no section header
        b"[frame]\nwidth = 64\nwidth = 32\n",  # duplicate option
        b"[frame]\nwidth = 64\n[frame]\nheight = 64\n",  # duplicate section
        b"[frame]\n  width\n",  # indented continuation with no option before it
        b"[frame]\nwidth = %(x)s\n",  # interpolation of an unknown key
        b"[frame]\nwidth = 64\xff\xfe\n",  # not UTF-8
    ], ids=["no_section", "duplicate_option", "duplicate_section", "continuation",
            "interpolation", "undecodable"])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(text)
        capsys.readouterr()
        assert run("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["vn x y z\nf 1//1 2//1 3//1\n",
                                      "vn 0 0 1\nf 1//a 2//b 3//c\n"])
    def test_malformed_obj_normal_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n" + text)
        assert run("encode", path, tmp_path / "x.oaht") == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_vertex_is_data_error(self, tmp_path, capsys, caplog):
        # The NaN vertex fails the mesh itself, before the degenerate-face
        # filter would drop its faces and leave a mesh that is not watertight.
        path = tmp_path / "s.obj"
        assert run("shapes", "sphere", path) == 0
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = "v nan 0 0\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("encode", path, tmp_path / "x.oaht") == 3
        err = capsys.readouterr().err
        assert "mesh vertices contain non-finite values" in err
        assert "degenerate" not in err + caplog.text and "watertight" not in err

    def test_non_finite_shared_normal_is_data_error(self, tmp_path, capsys):
        # A closed tetrahedron whose vertex 2 takes a NaN normal in one of
        # its three corners.
        path = tmp_path / "t.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nvn 0 0 1\nvn nan 0 1\n"
                        "f 1//1 3//1 2//2\nf 1//1 2//1 4//1\nf 1//1 4//1 3//1\nf 2//1 3//1 4//1\n")
        assert run("encode", path, tmp_path / "x.oaht") == 3
        err = capsys.readouterr().err
        assert "mesh normals contain non-finite values" in err and "Traceback" not in err

    @pytest.mark.parametrize("override", [
        "occlude.kind=bogus", "occlude.policy=bogus", "sweep.shape=bogus",
        "sweep.ratios=0.2,0.96", "sweep.ratios=-0.1", "extract.grid_res=1",
        "encode.order=-1", "sweep.eval_samples=0", "frame.width=0"])
    def test_invalid_sweep_config_is_config_error(self, tmp_path, monkeypatch, override):
        def no_context(cfg):
            raise AssertionError("sweep started on an invalid config")

        monkeypatch.setattr("fofkit.sweep.prepare_context", no_context)
        out = tmp_path / "o"
        assert run("sweep", "--out", out, "--set", override) == 2
        assert not out.exists()

    @pytest.mark.parametrize("override", [f"{sec}.{key}=x" for sec, key, *_ in SETTINGS] + [
        "prior.strength=2", "prior.iterations=x", "occlude.sigma=abc", "extract.iso=nan",
        "sweep.jobs=x", "prior.strength=-0.1", "prior.iterations=-1",
        "occlude.feather_px=inf", "sweep.seeds=,"])
    def test_malformed_setting_is_config_error(self, tmp_path, monkeypatch, capsys,
                                               override):
        # "x" is malformed for every key: no number parses it and no name list
        # holds it. --jobs 1 must not hide a bad sweep.jobs.
        def no_context(cfg):
            raise AssertionError("sweep started on a malformed config")

        monkeypatch.setattr("fofkit.sweep.prepare_context", no_context)
        out = tmp_path / "o"
        assert run("sweep", "--out", out, "--set", override, "--jobs", 1) == 2
        assert not out.exists()
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("reconstruct", "{d}/gt.oaht", "{t}/r.obj", "--iso", "nan"),
        ("reconstruct", "{d}/gt.oaht", "{t}/r.obj", "--iso", "inf"),
        ("occlude", "{d}/gt.oaht", "{d}/body.pgm", "{t}/o.oaht", "--ratio", "nan"),
        ("occlude", "{d}/gt.oaht", "{d}/body.pgm", "{t}/o.oaht", "--ratio", "0.4",
         "--sigma", "-inf"),
        ("blend", "{d}/gt.oaht", "{d}/gt.oaht", "{d}/body.pgm", "{d}/body.pgm",
         "{t}/b.oaht", "--feather", "nan"),
        ("silhouette", "{d}/gt.obj", "{t}/s.pgm", "--half-extent", "inf")])
    def test_non_finite_float_flag_is_usage_error(self, workdir, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            run(*(f.format(d=workdir, t=tmp_path) for f in flags))
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("flags", [
        ("reconstruct", "{d}/gt.oaht", "{t}/r.obj", "--grid-res", "1"),
        ("encode", "{d}/gt.obj", "{t}/e.oaht", "--order", "-1"),
        ("eval", "{d}/gt.obj", "{d}/gt.obj", "{t}/m.csv", "--samples", "0"),
        ("occlude", "{d}/gt.oaht", "{d}/body.pgm", "{t}/o.oaht", "--ratio", "0.99")])
    def test_out_of_range_setting_flag_is_usage_error(self, workdir, tmp_path, capsys, flags):
        # The same range check as `sweep --set`, so the same exit code.
        with pytest.raises(SystemExit) as exc:
            run(*(f.format(d=workdir, t=tmp_path) for f in flags))
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())
        assert "must be" in capsys.readouterr().err


class TestSelftestCommand:
    def test_exit_zero(self):
        assert run("selftest") == 0


def test_python_m_fofkit_runs_the_cli():
    src = os.path.dirname(os.path.dirname(fofkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "fofkit", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fofkit")


def test_only_eval_loads_scipy_spatial(tmp_path):
    # Each README command runs in a process of its own, as a user runs it;
    # only eval builds a kd-tree, so only eval may load scipy.spatial.
    src = os.path.dirname(os.path.dirname(fofkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = ("import sys\n"
             "from fofkit.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('scipy.spatial' in sys.modules)\n"
             "sys.exit(code)\n")
    frame = ["--width", "32", "--height", "32"]
    d = str(tmp_path)
    steps = [
        ["shapes", "sphere", f"{d}/gt.obj", "--subdivisions", "2"],
        ["encode", f"{d}/gt.obj", f"{d}/gt.oaht", "--order", "7"] + frame,
        ["silhouette", f"{d}/gt.obj", f"{d}/body.pgm"] + frame,
        ["occlude", f"{d}/gt.oaht", f"{d}/body.pgm", f"{d}/occ.oaht", "--ratio", "0.4",
         "--seed", "7"],
        ["blend", f"{d}/occ.oaht", f"{d}/gt.oaht", f"{d}/occ.oaht.V.pgm", f"{d}/occ.oaht.M.pgm",
         f"{d}/done.oaht"],
        ["reconstruct", f"{d}/done.oaht", f"{d}/recon.obj", "--grid-res", "32"],
        ["render-normals", f"{d}/recon.obj", f"{d}/front.pfm", f"{d}/back.pfm"] + frame,
        ["eval", f"{d}/recon.obj", f"{d}/gt.obj", f"{d}/metrics.csv", "--samples", "500"] + frame,
    ]
    loaded = {}
    for argv in steps:
        done = subprocess.run([sys.executable, "-c", child] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (argv[0], done.stderr)
        loaded[argv[0]] = done.stdout.split()[-1]
    assert loaded == {step[0]: str(step[0] == "eval") for step in steps}


def test_verbose_sweep_logs_each_cell_from_its_worker(tmp_path):
    src = os.path.dirname(os.path.dirname(fofkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "fofkit", "-v", "sweep", "--out", str(tmp_path),
         "--set", "sweep.ratios=0.0,0.4", "--set", "sweep.seeds=1",
         "--set", "sweep.eval_samples=500", "--set", "extract.grid_res=32",
         "--set", "frame.width=32", "--set", "frame.height=32", "--jobs", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cells = sorted(line.split(": ", 1)[1] for line in done.stderr.splitlines()
                   if line.startswith("DEBUG fofkit.sweep: cell ratio="))
    assert [c.split(":")[0] for c in cells] == ["cell ratio=0.0 seed=1", "cell ratio=0.4 seed=1"]
    assert cells[0].endswith(": decoded 0 columns")


def sweep_under_limit(tmp_path, limit, *settings, timeout=120):
    """Run `fofkit sweep --jobs 1` on one cell of a 16 x 16 frame with
    settings, in a child process whose address space is limited to limit
    bytes, for at most timeout seconds. Returns the completed process, the
    child's peak RSS in KiB (None if it printed none), and the output
    directory."""
    src = os.path.dirname(os.path.dirname(fofkit.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "sweep"
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "from fofkit.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
             "sys.exit(code)\n")
    argv = ["sweep", "--out", str(out), "--jobs", "1", "--set", "frame.width=16",
            "--set", "frame.height=16", "--set", "sweep.ratios=0.4", "--set", "sweep.seeds=0"]
    for setting in settings:
        argv += ["--set", setting]
    done = subprocess.run([sys.executable, "-c", child] + argv, env=env, capture_output=True,
                          text=True, timeout=timeout)
    return done, int(done.stdout.split()[-1]) if done.stdout.strip() else None, out


def test_sweep_out_of_memory_is_one_line_and_exit_3(tmp_path):
    # Order 10**8 asks for a 381 GiB field, which a 2 GiB address-space
    # limit refuses at once; the run must print one line, exit 3 and leave
    # no output directory.
    done, _, out = sweep_under_limit(tmp_path, 2 << 30, "encode.order=100000000")
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("fofkit: out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    # A field larger than numpy can make: a SizeError, not a ValueError.
    "encode.order=1000000000000000000",
    # A 100 000 x 100 000 field is sized before the ray cast, so its
    # coverage records never grow.
    "frame.width=100000,frame.height=100000",
    # The draws' buffer is sized before the lanes' starts are stepped.
    "sweep.eval_samples=100000000000",
    "sweep.eval_samples=1000000000000000000000000000000",
], ids=["order", "frame", "samples", "samples_beyond_numpy"])
def test_oversized_sweep_fails_before_any_work(tmp_path, setting):
    # Each size is refused at once under a 2 GiB address-space limit: exit
    # 3 within seconds, one line, no output directory, and the child stays
    # far below the limit, so no work grew towards it first.
    done, peak_kib, out = sweep_under_limit(tmp_path, 2 << 30, *setting.split(","), timeout=30)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("fofkit: out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert not out.exists()
    assert peak_kib < 512 << 10


class TestSweepCommand:
    def test_tiny_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("sweep", "--out", out,
                   "--set", "sweep.ratios=0.0,0.5",
                   "--set", "sweep.seeds=0",
                   "--set", "sweep.eval_samples=2000",
                   "--set", "extract.grid_res=64",
                   "--set", "frame.width=64", "--set", "frame.height=64",
                   "--jobs", 1) == 0
        csv = (out / "curves.csv").read_text().splitlines()
        assert csv[0] == "ratio,seed,method,cd,p2s,normal_err"
        assert len(csv) == 1 + 2 * 2  # 2 ratios x 1 seed x 2 methods
        assert (out / "curves.svg").read_text().startswith("<svg")
        assert (out / "config.ini").read_text().startswith("[frame]")
        # ratio 0: both methods equal the unoccluded round trip
        rows = [line.split(",") for line in csv[1:]]
        zero_rows = [r for r in rows if float(r[0]) == 0.0]
        assert len(zero_rows) == 2
        assert abs(float(zero_rows[0][3]) - float(zero_rows[1][3])) <= 1e-9

    def test_rerun_byte_identical(self, tmp_path):
        args = ("--set", "sweep.ratios=0.4", "--set", "sweep.seeds=1",
                "--set", "sweep.eval_samples=1000",
                "--set", "extract.grid_res=48",
                "--set", "frame.width=48", "--set", "frame.height=48")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("sweep", "--out", a, *args, "--jobs", 1) == 0
        assert run("sweep", "--out", b, *args, "--jobs", 2) == 0
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()
        assert (a / "curves.svg").read_bytes() == (b / "curves.svg").read_bytes()

    def test_failed_cell_exits_3_after_writing(self, tmp_path, monkeypatch, capsys):
        # Every occluded cell fails to place its occluder; the ratio-0 cell,
        # whose occluder is empty, runs.
        def no_occluder(body, spec):
            if spec.ratio > 0.0:
                raise OcclusionError("no placement reaches the ratio")
            return synthesize_occlusion(body, spec)

        monkeypatch.setattr("fofkit.sweep.synthesize_occlusion", no_occluder)
        out = tmp_path / "o"
        assert run("sweep", "--out", out, "--set", "sweep.ratios=0.0,0.4",
                   "--set", "sweep.seeds=1", "--set", "sweep.eval_samples=500",
                   "--set", "extract.grid_res=48",
                   "--set", "frame.width=48", "--set", "frame.height=48", "--jobs", 1) == 3
        assert "1 of 2 sweep cells failed" in capsys.readouterr().err
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.0", "0.0", "0.4", "0.4"]
        assert all(r[3] == "nan" for r in rows[2:]) and rows[0][3] != "nan"
        assert (out / "curves.svg").exists() and (out / "config.ini").exists()


class TestConfig:
    def test_defaults_resolve(self):
        cfg = HarnessConfig.load()
        assert cfg.order == 15
        assert cfg.sweep_ratios == [0.2, 0.4, 0.6, 0.8]
        assert cfg.frame().width == 128

    def test_file_and_override(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[sweep]\nshape = torus\nratios = 0.3\n")
        cfg = HarnessConfig.load(path, overrides=["sweep.seeds=9"])
        assert cfg.sweep_shape == "torus"
        assert cfg.sweep_ratios == [0.3]
        assert cfg.sweep_seeds == [9]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[sweep]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            HarnessConfig.load(path)

    def test_default_resolved_text(self):
        assert HarnessConfig.load().resolved_text() == (
            "[frame]\nwidth = 128\nheight = 128\ncenter = 0,0,0\nhalf_extent = 1.0\n\n"
            "[encode]\norder = 15\n\n"
            "[extract]\ngrid_res = 128\niso = 0.5\n\n"
            "[prior]\niterations = 20\nstrength = 0.5\n\n"
            "[occlude]\nkind = rectangle\npolicy = zero\nsigma = 0.1\nfeather_px = 3.0\n\n"
            "[sweep]\nshape = sphere\nratios = 0.2,0.4,0.6,0.8\nseeds = 0,1,2,3,4\n"
            "eval_samples = 10000\neval_seed = 0\njobs = 0\n\n")

    def test_readme_lists_every_setting_with_its_default(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(block)
        listed = [(sec, key, parser[sec][key]) for sec in parser.sections() for key in parser[sec]]
        assert listed == [(sec, key, text) for sec, key, text, *_ in SETTINGS]

    def test_resolved_text_parses_back(self):
        cfg = HarnessConfig.load(overrides=["sweep.shape=capsule_figure"])
        text = cfg.resolved_text()
        assert "[sweep]" in text and "shape = capsule_figure" in text

    def test_env_seed_fallback(self, monkeypatch):
        from fofkit.config import default_seed
        monkeypatch.setenv("OAHUMAN_SEED", "1234")
        assert default_seed() == 1234
        monkeypatch.delenv("OAHUMAN_SEED")
        assert default_seed() == 0


class TestRenderPng16:
    def test_png16_outputs(self, workdir):
        from fofkit.tensor_io import read_png16
        assert run("render-normals", workdir / "gt.obj",
                   workdir / "pf.pfm", workdir / "pb.pfm", "--png16") == 0
        pfm = read_pfm(workdir / "pf.pfm")
        png = read_png16(str(workdir / "pf.pfm") + ".png")
        assert np.max(np.abs(png - pfm)) <= 2.0 / 65535


# sha256 of each file the README chain below writes, pinned before the OBJ
# reader and writer, and the sampler's uniforms, were vectorized further.
CHAIN_SHA256 = {
    "back.pfm": "5260ae2c70aa9c437de6235a3717f50b4599e4151d24b09ce9981dd4d42db7f7",
    "body.pgm": "a369bc2ed66717d237be307699f5ccd34c8505905ef7c879a7bf6ca67df80101",
    "done.oaht": "91f66bd58e55ddb0cc88e4d235fb4671fb806a2b8689b88ec5d63be62c9cb484",
    "done.oaht.meta": "de3a423bc2a441fc383cc74cc404f7293e5be5e8fcbfc3437c5f28f45eb09f9c",
    "front.pfm": "cb21e5b85ec9eaa52d36a0dfeb55566be6aa0cc880ca1ff5315e00ee660bc5e3",
    "gt.oaht": "4c680bcaf28f7ca757c1840fd496817dd92d7366f07e4410c6cf78aa0202fc82",
    "gt.oaht.meta": "de3a423bc2a441fc383cc74cc404f7293e5be5e8fcbfc3437c5f28f45eb09f9c",
    "gt.obj": "764f04830e71610f193149a83ee4767e29b5bedbac5922331b1d11a3bcc893f6",
    "metrics.csv": "5b5cdb9f8a9a60b8bc1eea0fe7fbfa166ed8d862782b125b3cc139247e5b5cca",
    "metrics.csv.txt": "cee43d701383adbad628e0cefe076db1bd5b324c5138e39ff84740da175caaa0",
    "occ.oaht": "fd8d54229b6d3bc9495bd018436b7b5fb2cc85b3db3924f165a58473d677e04f",
    "occ.oaht.M.pgm": "1ff0bfea842f032748ef604bd9d474247cd443cf6515553956fbaeb46d6a2902",
    "occ.oaht.V.pgm": "a73ba85485801a00411bc25e1f08b702a7a74e7e4636f9a0f04dd0b553c04b7b",
    "occ.oaht.meta": "de3a423bc2a441fc383cc74cc404f7293e5be5e8fcbfc3437c5f28f45eb09f9c",
    "prior.oaht": "5f68be76dab44841361a135a07e66917c009f6dfc49e1d52c84377269b3febb9",
    "prior.oaht.meta": "de3a423bc2a441fc383cc74cc404f7293e5be5e8fcbfc3437c5f28f45eb09f9c",
    "prior.obj": "1e85df4dfd73055ead1bf9388a32779e26ee95af8523cfdd0a28c678e01f0dd2",
    "recon.obj": "f72063278b72f0bc6ef56a9a88fcdbaacdde32dc243a16210a51df1b28ceed27",
}


def test_readme_chain_files_are_byte_identical(tmp_path):
    # The README walkthrough on a 64x64 frame, prior.obj made as the README's
    # Python example makes it; every file any step writes is pinned.
    d = tmp_path
    frame = ("--width", 64, "--height", 64)
    assert run("shapes", "sphere", d / "gt.obj", "--subdivisions", 3) == 0
    save_obj(degrade_prior(load_obj(d / "gt.obj"), 20, 0.5), d / "prior.obj")
    steps = [
        ("encode", d / "gt.obj", d / "gt.oaht", "--order", 15, *frame),
        ("silhouette", d / "gt.obj", d / "body.pgm", *frame),
        ("occlude", d / "gt.oaht", d / "body.pgm", d / "occ.oaht", "--ratio", 0.4,
         "--seed", 7),
        ("encode", d / "prior.obj", d / "prior.oaht", *frame),
        ("blend", d / "occ.oaht", d / "prior.oaht", d / "occ.oaht.V.pgm",
         d / "occ.oaht.M.pgm", d / "done.oaht"),
        ("reconstruct", d / "done.oaht", d / "recon.obj", "--grid-res", 64),
        ("render-normals", d / "recon.obj", d / "front.pfm", d / "back.pfm", *frame),
        ("eval", d / "recon.obj", d / "gt.obj", d / "metrics.csv", "--samples", 2000,
         "--seed", 3, *frame),
    ]
    for argv in steps:
        assert run(*argv) == 0, argv[0]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}
    assert got == CHAIN_SHA256
