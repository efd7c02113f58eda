"""Mesh/report emission and the command-line driver."""

import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dupin import export as ex
from dupin import cli
from dupin.cli import main

from conftest import read_obj, traced_peak


def read_json(path):
    """The JSON document in the file at path, read with the file closed after."""
    with open(path) as fh:
        return json.load(fh)


class TestMesh:
    def grid(self):
        u = np.linspace(0, 1, 5)
        v = np.linspace(0, 1, 4)
        U, V = np.meshgrid(u, v, indexing="ij")
        return np.stack([U, V, U * V], axis=-1)

    def test_grid_mesh_counts(self):
        mesh = ex.grid_mesh(self.grid())
        assert len(mesh.vertices) == 20
        assert len(mesh.faces) == 4 * 3

    def test_periodic_wrap(self):
        mesh = ex.grid_mesh(self.grid(), periodic_u=True)
        assert len(mesh.faces) == 5 * 3

    def test_flagged_vertices_excluded(self):
        flags = np.zeros((5, 4), dtype=bool)
        flags[2, 2] = True
        mesh = ex.grid_mesh(self.grid(), flags=flags)
        mesh.validate()
        assert len(mesh.faces) == 12 - 4

    def test_obj_round_trip(self, tmp_path):
        mesh = ex.grid_mesh(self.grid())
        path = str(tmp_path / "m.obj")
        ex.write_obj(mesh, path)
        verts, faces = read_obj(path)
        assert len(verts) == len(mesh.vertices)
        assert len(faces) == len(mesh.faces)
        assert np.max(np.abs(verts - mesh.vertices)) < 1e-12
        assert faces[0] == list(mesh.faces[0])

    def test_grid_mesh_faces(self):
        """Faces run i-major, (i, j), (i+1, j), (i+1, j+1), (i, j+1), wrapping
        where periodic, and drop every cell with a flagged corner."""
        nu, nv = 5, 4
        flags = np.zeros((nu, nv), dtype=bool)
        flags[1, 2] = True
        mesh = ex.grid_mesh(np.zeros((nu, nv, 3)), flags, periodic_v=True)
        want = [[i * nv + j, (i + 1) * nv + j, (i + 1) * nv + (j + 1) % nv, i * nv + (j + 1) % nv]
                for i in range(nu - 1) for j in range(nv)]
        want = [q for q in want if not flags.reshape(-1)[q].any()]
        assert mesh.faces.dtype == np.arange(1).dtype
        assert mesh.faces.tolist() == want

    @pytest.mark.parametrize("faces", [np.zeros((2, 4)), np.zeros((2, 3), dtype=int),
                                       np.zeros(4, dtype=int), np.zeros((1, 4), dtype=bool)],
                             ids=["float", "triangles", "flat", "bool"])
    def test_validate_rejects_bad_faces(self, tmp_path, faces):
        mesh = ex.Mesh(np.zeros((4, 3)), faces, np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match=r"faces must be an integer \(F, 4\) array") as exc:
            mesh.validate()
        assert "\n" not in str(exc.value)
        with pytest.raises(ValueError):
            ex.write_obj(mesh, str(tmp_path / "m.obj"))
        assert list(tmp_path.iterdir()) == []


def reference_obj(mesh):
    """OBJ bytes with every record formatted by `str %`: the bytes write_obj
    must reproduce."""
    n, nf = len(mesh.vertices), len(mesh.faces)
    return "".join([
        f"# vertices: {n} faces: {nf}\n",
        ("v %.12g %.12g %.12g\n" * n) % tuple(mesh.vertices.ravel().tolist()),
        ("f %d %d %d %d\n" * nf) % tuple((mesh.faces + 1).ravel().tolist()),
    ]).encode()


def written_obj(mesh, block=None):
    """write_obj's bytes, streamed in blocks of `block` records if given."""
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ex, "BLOCK", block)
        path = os.path.join(d, "m.obj")
        ex.write_obj(mesh, path)
        with open(path, "rb") as fh:
            return fh.read()


def random_grid_mesh(nu, nv, periodic_u=False, periodic_v=False, flag_share=0.0, pool=None):
    """Normal vertices scaled by powers of ten from 1e-8 to 1e7.  With `pool`,
    every coordinate is one of `pool` such values, so each block of records
    repeats its coordinates as sampled symmetric surfaces do."""
    rng = np.random.default_rng(nu * 1000 + nv)
    shape = (nu, nv, 3) if pool is None else pool
    pts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if pool is not None:
        pts = rng.choice(pts, (nu, nv, 3))
    return ex.grid_mesh(pts, rng.random((nu, nv)) < flag_share, periodic_u, periodic_v)


# (nu, nv, periodic_u, periodic_v, flag_share)
OBJ_CASES = {
    "no_faces": (4, 5, False, False, 1.0),
    **{f"n{nu * nv}_{nu}x{nv}": (nu, nv, False, False, 0.0) for nu, nv in [
        (3, 3), (2, 5), (9, 11), (10, 10), (27, 37), (25, 40), (99, 101), (100, 100)]},
    "periodic_u": (6, 5, True, False, 0.0),
    "periodic_v": (6, 5, False, True, 0.0),
    "periodic_uv": (12, 9, True, True, 0.0),
    "random_flags": (20, 30, True, False, 0.2),
}

SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 5e-324]


@st.composite
def obj_meshes(draw, pooled=False):
    """Grid meshes of any floats; with `pooled`, of at most 4 distinct ones."""
    nu, nv = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    if pooled:
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    pts = draw(hnp.arrays(np.float64, (nu, nv, 3), elements=values))
    flags = draw(hnp.arrays(np.bool_, (nu, nv)))
    return ex.grid_mesh(pts, flags, draw(st.booleans()), draw(st.booleans()))


class TestObjBytes:
    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share)
        assert len(mesh.faces) > 0 or case == "no_faces"
        assert written_obj(mesh) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes())
    def test_matches_reference_property(self, mesh):
        assert written_obj(mesh) == reference_obj(mesh)

    # Blocks of 7 records put block boundaries inside every case above.
    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference_small_blocks(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share)
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes())
    def test_matches_reference_property_small_blocks(self, mesh):
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @pytest.mark.parametrize("block", [7, ex.BLOCK])
    @pytest.mark.parametrize("shift", [-1, 0, 1, None], ids=["B-1", "B", "B+1", "2B+1"])
    def test_block_boundary_counts(self, block, shift):
        """n vertices and n faces with n at and around one and two blocks."""
        n = 2 * block + 1 if shift is None else block + shift
        rng = np.random.default_rng(n)
        mesh = ex.Mesh(rng.standard_normal((n, 3)), rng.integers(0, n, (n, 4)),
                       np.zeros(n, dtype=bool))
        assert written_obj(mesh, block) == reference_obj(mesh)


def shared_blocks(vertices, block):
    """The number of blocks `_vertex_records` formats distinct coordinates
    once for, counted by its calls to np.cumsum, which numbers the distinct
    bit patterns on that path only."""
    calls = []
    cumsum = np.cumsum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or cumsum(*a, **k))
        for s in range(0, len(vertices), block):
            ex._vertex_records(vertices[s:s + block])
    return len(calls)


class TestSharedCoordinates:
    """Blocks with repeated coordinates format each distinct bit pattern once
    and give the bytes of formatting every coordinate."""

    def test_pool_of_ten(self):
        mesh = random_grid_mesh(100, 100, True, True, pool=10)
        assert shared_blocks(mesh.vertices, ex.BLOCK) == 2
        assert written_obj(mesh) == reference_obj(mesh)

    @pytest.mark.parametrize("block", [7, ex.BLOCK])
    def test_signed_zeros(self, block):
        rng = np.random.default_rng(0)
        verts = rng.choice([0.0, -0.0], (3 * block, 3))
        mesh = ex.Mesh(verts, np.zeros((0, 4), dtype=int), np.zeros(len(verts), dtype=bool))
        assert shared_blocks(verts, block) == 3
        text = written_obj(mesh, block)
        assert b" 0" in text and b" -0" in text
        assert text == reference_obj(mesh)

    @pytest.mark.parametrize("extra, shared", [(0, 1), (1, 0)], ids=["half", "half+1"])
    def test_half_distinct(self, extra, shared):
        """8 vertices, 24 coordinates: 12 distinct values take the shared
        path, 13 the direct one."""
        rng = np.random.default_rng(extra)
        values = rng.standard_normal(12 + extra)
        coords = np.concatenate([values, values[:12 - extra]])
        verts = rng.permutation(coords).reshape(8, 3)
        assert len(np.unique(verts)) == 12 + extra
        mesh = ex.Mesh(verts, np.arange(8).reshape(2, 4), np.zeros(8, dtype=bool))
        assert shared_blocks(verts, 8) == shared
        assert written_obj(mesh, block=8) == reference_obj(mesh)

    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference_small_blocks(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share, pool=4)
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes(pooled=True))
    def test_matches_reference_property_small_blocks(self, mesh):
        assert written_obj(mesh, block=7) == reference_obj(mesh)


class TestExportMemory:
    """At 256 x 256 the export layer's working memory is about one block of
    records and one face array, not a multiple of the mesh text."""

    def test_write_obj_transient(self, tmp_path):
        mesh = random_grid_mesh(256, 256, True, True)
        peak, _ = traced_peak(ex.write_obj, mesh, str(tmp_path / "m.obj"))
        assert peak < 4e6

    def test_write_obj_transient_shared(self, tmp_path):
        mesh = random_grid_mesh(256, 256, True, True, pool=10)
        assert shared_blocks(mesh.vertices, ex.BLOCK) == 8
        peak, _ = traced_peak(ex.write_obj, mesh, str(tmp_path / "m.obj"))
        assert peak < 4e6

    def test_validate_transient(self):
        mesh = ex.grid_mesh(np.zeros((512, 512, 3)), None, True, True)
        peak, _ = traced_peak(mesh.validate)
        assert peak < 0.5e6

    def test_grid_mesh_transient(self):
        pts = np.zeros((256, 256, 3))
        flags = np.zeros((256, 256), dtype=bool)
        peak, mesh = traced_peak(ex.grid_mesh, pts, flags, True, True)
        assert len(mesh.faces) == 256 * 256
        assert peak <= 1.5 * mesh.faces.nbytes


class TestAtomicWrite:
    @staticmethod
    def fail_replace(src, dst):
        raise OSError("replace failed")

    @pytest.mark.parametrize("kind", ["obj", "report"])
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"previous\n")
        monkeypatch.setattr(os, "replace", self.fail_replace)
        with pytest.raises(OSError, match="replace failed"):
            if kind == "obj":
                ex.write_obj(random_grid_mesh(4, 4), str(path))
            else:
                ex.write_report(ex.make_report("op", {}, [], {}), str(path))
        assert path.read_bytes() == b"previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_block_keeps_previous_file(self, tmp_path, monkeypatch):
        """A record block that raises partway through the stream leaves the
        previous file as it was and no temp file."""
        class FailingBlocks(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice) and key.start:
                    raise RuntimeError("block failed")
                return super().__getitem__(key)

        monkeypatch.setattr(ex, "BLOCK", 7)
        mesh = random_grid_mesh(4, 4)
        mesh.vertices = mesh.vertices.view(FailingBlocks)
        path = tmp_path / "out.obj"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="block failed"):
            ex.write_obj(mesh, str(path))
        assert path.read_bytes() == b"previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_report_bytes(self, tmp_path):
        rep = ex.make_report("op", {"grid": [3, 4], "name": "caf\u00e9"},
                             [ex.check("a", 1e-12, 1e-10), ex.check("b", -0.0)], {"a": 1e-10})
        path = tmp_path / "r.json"
        ex.write_report(rep, str(path))
        want = json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()


class TestReports:
    def test_check_records_tolerance(self):
        c = ex.check("residual", 1e-12, 1e-10)
        assert c["pass"] and c["tolerance"] == 1e-10

    def test_report_pass_aggregation(self):
        rep = ex.make_report("op", {}, [ex.check("a", 0.0, 1.0), ex.check("b", 2.0, 1.0)], {})
        assert rep["passed"] is False


# |C| so large that h_C overflows on the grid (1e8) or loses its rank (1e300)
LARGE_C = (["orbit", "--C", "1e8"], ["orbit", "--C", "1e300"])


class TestCLI:
    def test_gen_cylinder(self, tmp_path):
        out = str(tmp_path / "cyl.obj")
        assert main(["gen", "cylinder", "--radius", "1", "--grid", "24x12", "--out", out]) == 0
        verts, faces = read_obj(out)
        assert len(verts) == 24 * 12
        rep = read_json(out[:-4] + ".report.json")
        assert rep["passed"]
        assert rep["parameters"]["surface"] == "cylinder"

    def test_gen_figure1(self, tmp_path):
        out = str(tmp_path / "fig1.obj")
        rc = main(["gen", "torus", "--alpha", "0.7853981634", "--project", "stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0
        rep = read_json(out[:-4] + ".report.json")
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["isoparametric"]["pass"] is False
        assert by_name["dupin"]["pass"] is True

    @pytest.mark.parametrize("alpha", ["0.1", "0.12"])
    def test_gen_thin_torus_stereo(self, tmp_path, alpha):
        # the image has a wide range of scales; the rank test is per point
        out = str(tmp_path / "thin.obj")
        rc = main(["gen", "torus", "--alpha", alpha, "--project", "stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0
        rep = read_json(out[:-4] + ".report.json")
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["dupin"]["pass"] is True

    def test_gen_figure2(self, tmp_path):
        out = str(tmp_path / "fig2.obj")
        rc = main(["gen", "hyperboloid", "--a", "0.5", "--project", "hyp_stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0

    def test_gen_bad_parameter_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "t.obj")
        rc = main(["gen", "torus", "--alpha", "2.0", "--project", "stereo", "--out", out])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["orbit", "--C", "nan"], ["orbit", "--C", "inf"], ["orbit", "--C=-inf"],
        ["orbit", "--C", "0", "--span", "0"], ["orbit", "--C", "0", "--span", "-1"],
        ["orbit", "--C", "0", "--span", "nan"], ["orbit", "--C", "0", "--span", "inf"],
        ["fig7", "--t", "nan"], ["fig7", "--t", "inf"], ["fig7", "--t=-inf"],
        ["fig7", "--t", "1000"], ["fig7", "--t=-1000"],
        ["orbit", "--C", "0", "--grid", "1x1"], ["orbit", "--C", "0", "--grid", "2x2"],
        ["fig7", "--t", "1", "--grid", "2x8"], ["gen", "cylinder", "--radius", "1", "--grid", "3x2"],
        ["orbit", "--C", "1", "--span", "1e10", "--grid", "5x5"],
        ["orbit", "--C", "1.6667", "--span", "1000", "--grid", "5x5"],
        ["fig7", "--t", "100"],
        ["gen", "cylinder", "--radius", "inf"], ["gen", "cylinder", "--radius", "nan"],
        *LARGE_C,
        ["fig7", "--t", "20"], ["fig7", "--t=-20"],
        ["fig7", "--t", "20", "--grid", "33x33"], ["fig7", "--t=-20", "--grid", "33x33"],
    ])
    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_orbit_fig7_bad_parameter_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.obj"
        # a --grid in argv comes later and overrides the default 8x8
        assert main(argv[:1] + ["--grid", "8x8"] + argv[1:] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv in LARGE_C:  # the message names the cause
            assert "|C|" in err and f"C = {float(argv[2]):g}" in err
        if argv[:5] == ["orbit", "--C", "1", "--span", "1e10"]:  # and both values
            assert "C = 1, span = 1e+10" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the chart maps
    def test_orbit_regimes(self, tmp_path):
        for argv, regime, chart_failures, null_cone, passed in [
            (["--C", "0"], "torus", 0, True, True),
            (["--C", "1"], "cylinder", 0, True, True),
            (["--C", "1.6667"], "hyperboloid", 0, True, True),
            # lower-sheet points: flagged, written at a finite placeholder, and
            # failing the report
            (["--C", "1.6667", "--span", "50", "--grid", "5x5"], "hyperboloid", 15, True, False),
            (["--C", "-1.6667", "--span", "50", "--grid", "5x5"], "hyperboloid", 15, True, False),
            # rounding noise: the measured null-cone residual fails its check
            (["--C", "0", "--span", "1e10", "--grid", "5x5"], "torus", 0, False, False),
        ]:
            out = str(tmp_path / "orb.obj")
            assert main(["orbit", "--grid", "12x12"] + argv + ["--out", out]) == 0
            with open(out[:-4] + ".report.json") as fh:
                rep = json.load(fh)
            assert rep["parameters"]["regime"] == regime
            checks = {c["name"]: c for c in rep["checks"]}
            assert checks["chart_failures"]["value"] == chart_failures
            assert checks["chart_failures"]["pass"] is (chart_failures == 0)
            assert (checks["null_cone"]["value"] < 1e-13) is null_cone
            assert checks["null_cone"]["pass"] is null_cone and rep["passed"] is passed
            verts, _ = read_obj(out)
            assert np.isfinite(verts).all()

    def test_fig7_singular_set(self, tmp_path):
        out = str(tmp_path / "f7.obj")
        assert main(["fig7", "--t", "1", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        assert rep["degenerate"] is False
        n_sing = len(rep["singular_grid_points"])
        assert 0 < n_sing < 33 * 33
        # flagged vertices excluded from faces
        verts, faces = read_obj(out)
        used = {i for f in faces for i in f}
        flagged = {i * 33 + j for i, j in rep["singular_grid_points"]}
        assert not used & flagged

    def test_fig7_degenerate(self, tmp_path):
        out = str(tmp_path / "f70.obj")
        assert main(["fig7", "--t", "0", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        assert rep["degenerate"] is True

    @pytest.mark.parametrize("t, degenerate", [("0", True), ("1", False)])
    def test_fig7_degenerate_check(self, tmp_path, t, degenerate):
        out = str(tmp_path / "f7d.obj")
        assert main(["fig7", "--t", t, "--grid", "17x17", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        check = {c["name"]: c for c in rep["checks"]}["degenerate"]
        assert rep["degenerate"] is degenerate
        assert check["pass"] is (not rep["degenerate"]) and rep["passed"] is check["pass"]
        assert check["value"] == rep["checks"][0]["value"] / 17 ** 2
        assert check["tolerance"] == 0.5

    def test_fig7_even_grid_singular_rows(self, tmp_path):
        # the pinched circles v = +-2 fall between the nodes of a 64x64 grid;
        # the rows nearest them (v = +-1.968) are flagged and no face uses them
        out = str(tmp_path / "f64.obj")
        assert main(["fig7", "--t", "1", "--grid", "64x64", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        points = rep["singular_grid_points"]
        assert rep["checks"][0]["value"] == 128.0 == len(points)
        assert sorted({j for _, j in points}) == [16, 47]
        _, faces = read_obj(out)
        used = {i for f in faces for i in f}
        assert not used & {i * 64 + j for i, j in points}
        assert len(used) == 64 * 62

    def test_fig7_grid_vertex_count(self, tmp_path):
        out = str(tmp_path / "f7g.obj")
        assert main(["fig7", "--t", "1", "--grid", "32x32", "--out", out]) == 0
        verts, _ = read_obj(out)
        assert len(verts) == 32 * 32

    def test_verify_exit_codes(self, tmp_path):
        assert main(["verify", "framecalc"]) == 0
        # an impossible closure tolerance forces a failing suite -> exit 1
        assert main(["verify", "moebius", "--tol-closure", "1e-18"]) == 1

    def test_example_dupin_applies_its_tolerance(self, tmp_path, monkeypatch):
        # a derivative above the recorded 1e-8 fails the check even when
        # legendre_dupin_test's own verdict is Dupin
        from dupin import liesphere as ls
        monkeypatch.setattr(ls, "legendre_dupin_test",
                            lambda lm: {"dupin": True, "max_derivative": 1e-6})
        out = str(tmp_path / "v.json")
        assert main(["verify", "liesphere", "--out", out]) == 1
        checks = {c["name"]: c for c in read_json(out)["checks"]}
        assert checks["example_dupin"]["tolerance"] == 1e-8
        assert checks["example_dupin"]["pass"] is False

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path / "envdir"))
        assert main(["gen", "cylinder", "--radius", "2", "--grid", "12x8",
                     "--out", "cyl.obj"]) == 0
        assert os.path.exists(tmp_path / "envdir" / "cyl.obj")

    def test_tol_flag_override(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "framecalc", "--tol-order", "1e-6", "--out", out]) == 0
        rep = read_json(out)
        assert rep["tolerances"]["order"] == 1e-6


class TestTolFlags:
    """Each command takes the --tol-* flags it applies, and each one changes
    a result."""

    @pytest.mark.parametrize("name", ["membership", "closure", "contact", "order"])
    def test_verify_flag_is_read(self, name):
        assert main(["verify", "all", f"--tol-{name}", "0"]) == 1

    def test_every_default_key_is_read(self):
        # defaults.cfg holds the grid sizes and the tolerances commands read, no more
        with resources.files("dupin").joinpath("defaults.cfg").open() as fh:
            keys = set(cli._parse_cfg(fh))
        read = {name for names in cli.COMMAND_TOLS.values() for name in names}
        assert keys == {"grid_nu", "grid_nv"} | read

    @pytest.mark.parametrize("argv", [
        ["gen", "cylinder", "--radius", "2", "--tol-rank", "1"],
        ["gen", "cylinder", "--radius", "2", "--tol-dupin", "1"],
        ["orbit", "--C", "0.5", "--tol-order", "1"],
        ["fig7", "--t", "1", "--tol-closure", "1"],
        ["verify", "framecalc", "--tol-rank", "1"],
        ["fig7", "--t", "1", "--tol-rank", "1"],
    ])
    def test_unread_flag_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.obj")])
        assert exc.value.code == 2

    def test_reports_record_only_applied_tolerances(self, tmp_path):
        out = str(tmp_path / "c.obj")
        assert main(["gen", "cylinder", "--radius", "2", "--grid", "12x8", "--out", out]) == 0
        assert read_json(out[:-4] + ".report.json")["tolerances"] == {}
        assert main(["fig7", "--t", "1", "--grid", "9x9", "--out", out]) == 0
        assert read_json(out[:-4] + ".report.json")["tolerances"] == {}
        assert main(["verify", "framecalc", "--out", out]) == 0
        assert sorted(read_json(out)["tolerances"]) == [
            "closure", "contact", "membership", "order"]


def assert_one_line_error(rc, capsys, *words):
    """rc is the exit code 2 of a rejected run, whose stderr is one error
    line containing each of words."""
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert all(w in err[0] for w in words), err


class TestBadTolerances:
    """A non-finite or negative tolerance, from a flag or a config file,
    exits 2 before any report is written; zero stays accepted
    (TestTolFlags.test_verify_flag_is_read)."""

    @pytest.mark.parametrize("name,value", [("membership", "nan"), ("order", "inf"),
                                            ("contact", "-1")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rejected(self, name, value, source, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "framecalc", "--out", str(out)]
        if source == "flag":
            argv += [f"--tol-{name}", value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{name} = {value}\n")
            monkeypatch.setenv("DUPIN_CONFIG", str(cfg))
        assert_one_line_error(main(argv), capsys, name)
        assert not out.exists()


class TestConfigErrors:
    """A config file that cannot be read or parsed exits 2 with one line."""

    def test_unparsable_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("membership = abc\n")
        rc = main(["--config", str(cfg), "verify", "framecalc"])
        assert_one_line_error(rc, capsys, "'membership'", "'abc'")

    def test_missing_config_flag_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "no_such.cfg"), "verify", "framecalc"])
        assert_one_line_error(rc, capsys, "no_such.cfg")

    def test_missing_config_env_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DUPIN_CONFIG", str(tmp_path / "no_such.cfg"))
        assert_one_line_error(main(["verify", "framecalc"]), capsys, "no_such.cfg")


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
        args = ["gen", "cylinder", "--radius", "1", "--grid", "16x8"]
        main(args + ["--out", a])
        main(args + ["--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert (
            Path(a[:-4] + ".report.json").read_bytes()
            == Path(b[:-4] + ".report.json").read_bytes()
        )

    def test_verify_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["verify", "moebius", "--out", a])
        main(["verify", "moebius", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()
