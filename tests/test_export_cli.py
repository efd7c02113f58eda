"""Mesh/report emission and the command-line driver."""

import json
import os

import numpy as np
import pytest

from dupin import export as ex
from dupin.cli import main


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
        verts, faces = ex.read_obj(path)
        assert len(verts) == len(mesh.vertices)
        assert len(faces) == len(mesh.faces)
        assert np.max(np.abs(verts - mesh.vertices)) < 1e-12
        assert faces[0] == list(mesh.faces[0])


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
        verts, faces = ex.read_obj(out)
        assert len(verts) == 24 * 12
        rep = json.loads(open(out[:-4] + ".report.json").read())
        assert rep["passed"]
        assert rep["parameters"]["surface"] == "cylinder"

    def test_gen_figure1(self, tmp_path):
        out = str(tmp_path / "fig1.obj")
        rc = main(["gen", "torus", "--alpha", "0.7853981634", "--project", "stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0
        rep = json.loads(open(out[:-4] + ".report.json").read())
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
        rep = json.loads(open(out[:-4] + ".report.json").read())
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
            verts, _ = ex.read_obj(out)
            assert np.isfinite(verts).all()

    def test_fig7_singular_set(self, tmp_path):
        out = str(tmp_path / "f7.obj")
        assert main(["fig7", "--t", "1", "--out", out]) == 0
        rep = json.loads(open(out[:-4] + ".report.json").read())
        assert rep["degenerate"] is False
        n_sing = len(rep["singular_grid_points"])
        assert 0 < n_sing < 33 * 33
        # flagged vertices excluded from faces
        verts, faces = ex.read_obj(out)
        used = {i for f in faces for i in f}
        flagged = {i * 33 + j for i, j in rep["singular_grid_points"]}
        assert not used & flagged

    def test_fig7_degenerate(self, tmp_path):
        out = str(tmp_path / "f70.obj")
        assert main(["fig7", "--t", "0", "--out", out]) == 0
        rep = json.loads(open(out[:-4] + ".report.json").read())
        assert rep["degenerate"] is True

    @pytest.mark.parametrize("t, degenerate", [("0", True), ("1", False)])
    def test_fig7_degenerate_check(self, tmp_path, t, degenerate):
        out = str(tmp_path / "f7d.obj")
        assert main(["fig7", "--t", t, "--grid", "17x17", "--out", out]) == 0
        rep = json.loads(open(out[:-4] + ".report.json").read())
        check = {c["name"]: c for c in rep["checks"]}["degenerate"]
        assert rep["degenerate"] is degenerate
        assert check["pass"] is (not rep["degenerate"]) and rep["passed"] is check["pass"]
        assert check["value"] == rep["checks"][0]["value"] / 17 ** 2
        assert check["tolerance"] == 0.5

    def test_fig7_grid_vertex_count(self, tmp_path):
        out = str(tmp_path / "f7g.obj")
        assert main(["fig7", "--t", "1", "--grid", "32x32", "--out", out]) == 0
        verts, _ = ex.read_obj(out)
        assert len(verts) == 32 * 32

    def test_verify_exit_codes(self, tmp_path):
        assert main(["verify", "framecalc"]) == 0
        # an impossible closure tolerance forces a failing suite -> exit 1
        assert main(["verify", "moebius", "--tol-closure", "1e-18"]) == 1

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path / "envdir"))
        assert main(["gen", "cylinder", "--radius", "2", "--grid", "12x8",
                     "--out", "cyl.obj"]) == 0
        assert os.path.exists(tmp_path / "envdir" / "cyl.obj")

    def test_tol_flag_override(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "framecalc", "--tol-rank", "1e-6", "--out", out]) == 0
        rep = json.loads(open(out).read())
        assert rep["tolerances"]["rank"] == 1e-6


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
        args = ["gen", "cylinder", "--radius", "1", "--grid", "16x8"]
        main(args + ["--out", a])
        main(args + ["--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()
        assert (
            open(a[:-4] + ".report.json", "rb").read()
            == open(b[:-4] + ".report.json", "rb").read()
        )

    def test_verify_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["verify", "moebius", "--out", a])
        main(["verify", "moebius", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()
