"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; tolerances are
pinned here and must not be loosened.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dupin import metrics as mt
from dupin import spaceforms as sf
from dupin import surfaces as srf
from dupin import moebius as mb
from dupin import liesphere as ls
from dupin import frames as fr
from dupin.cli import main
from dupin.surfaces import ParamDomain


def read_json(path):
    """The JSON document in the file at path, read with the file closed after."""
    with open(path) as fh:
        return json.load(fh)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_curvature_identities():
    ok = True
    for alpha in np.linspace(0.04, np.pi / 4, 20):
        s = srf.torus(alpha)
        d = srf.principal_curvatures(s, *s.domain.mesh())
        ok &= np.max(np.abs(d.a * d.c + 1.0)) < 1e-8
    for a in np.linspace(0.05, 0.95, 20):
        s = srf.hyperboloid(a)
        d = srf.principal_curvatures(s, *s.domain.mesh())
        ok &= np.max(np.abs(d.a * d.c - 1.0)) < 1e-8
    for R in (0.5, 1.0, 3.0):
        s = srf.cylinder(R)
        d = srf.principal_curvatures(s, *s.domain.mesh())
        ok &= np.max(np.abs(d.a * d.c)) < 1e-10
        ok &= np.max(np.abs(d.c - 1.0 / R)) < 1e-8
    _report(1, "curvature identities ac+1 / ac-1 / ac=0", bool(ok))


def test_02_torus_curvature_values():
    s = srf.torus(np.pi / 6)
    d = srf.principal_curvatures(s, *s.domain.mesh())
    ok = (
        np.max(np.abs(d.a + np.tan(np.pi / 6))) < 1e-6
        and np.max(np.abs(d.c - 1.0 / np.tan(np.pi / 6))) < 1e-6
    )
    _report(2, "torus(pi/6) curvatures (-tan, cot)", bool(ok))


def test_03_figure1_classification():
    t0 = time.perf_counter()
    s = srf.pushforward(srf.torus(np.pi / 4, ParamDomain(nu=128, nv=128)), "stereo")
    out = srf.classify(s)
    elapsed = time.perf_counter() - t0
    rep = out["report"]
    ok = (
        out["isoparametric"] is False
        and out["dupin"] is True
        and rep["dupin_tol"] == srf.DUPIN_TOL
        and max(rep["dupin_derivative_a"], rep["dupin_derivative_c"]) < rep["dupin_tol"]
        and elapsed < 30.0
    )
    _report(3, f"figure-1 surface classification ({elapsed:.1f}s)", bool(ok))


def test_04_sphere_model_round_trip():
    rng = np.random.default_rng(20240811)
    m = rng.normal(size=(1000, 4))
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    r = rng.uniform(1e-3, np.pi - 1e-3, size=1000)
    S = mb.sphere_to_vec(m, r)
    m2, r2 = mb.vec_to_sphere(S)
    ok = (
        np.max(np.abs(m2 - m)) < 1e-12
        and np.max(np.abs(r2 - r)) < 1e-12
        and np.max(np.abs(S[:, 4] - 1.0 / np.tan(r))) < 1e-12
    )
    _report(4, "1000-sphere round trip and cot r = s^4", bool(ok))


def test_05_moebius_invariant():
    cases = [
        (srf.torus(np.pi / 4), 0.0),
        (srf.torus(np.pi / 6), 0.5),
        (srf.cylinder(1.0), 1.0),
        (srf.hyperboloid(0.5), 5.0 / 3.0),
    ]
    ok = True
    for surface, target in cases:
        coeffs, res = mb.frame_order_check(mb.canonical_best_frame(surface))
        ok &= abs(coeffs.C - target) < 1e-6
        ok &= max(res["q1"], res["q2"], res["p2"]) < 1e-6
        ok &= res["p1_plus_p3_plus_1"] < 1e-6
    _report(5, "invariant C in {0, 1/2, 1, 5/3} with Dupin residuals", bool(ok))


def test_06_subalgebra_dimensions():
    ok = True
    for C in (0.0, 0.5, 1.0, 5.0 / 3.0):
        sub = mb.hc_basis(C)
        ok &= sub.dim == 2 and sub.closure_residual < 1e-10
    sub = ls.h_basis()
    ok &= sub.dim == 6 and sub.closure_residual < 1e-10
    _report(6, "subalgebra dimensions 2 and 6 with closure", bool(ok))


def test_07_cylinder_reconstruction():
    # exponentiating the Euclidean distribution at a = 1
    X1 = np.zeros((4, 4))
    X1[1, 0] = 1.0
    X1[3, 1], X1[1, 3] = 1.0, -1.0
    X2 = np.zeros((4, 4))
    X2[2, 0] = 1.0
    dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 48, 12, False, False)
    form = fr.constant_form(X1, X2, dom, "e3")
    ff, _ = fr.integrate_mc(form, np.eye(4))
    pts = ff.mats[..., 1:, 0]
    ok = np.max(np.abs(pts[..., 0] ** 2 + (pts[..., 2] - 1.0) ** 2 - 1.0)) < 1e-8
    # h_C orbit at C = 1: unit distance from the cylinder axis
    grid = np.linspace(-1.0, 1.0, 17)
    orb = mb.hc_orbit(1.0, grid, grid)
    pts = orb.chart_points[orb.valid]
    dist = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
    ok &= np.max(np.abs(dist - 1.0)) < 1e-8
    _report(7, "cylinder reconstruction: x^2+(z-1)^2=1 orbit and C=1 axis distance", bool(ok))


def test_08_example_legendre_immersion():
    lm = ls.example_lambda()
    res = lm.line_residuals()
    ok = ls.contact_residual(lm) < 1e-10
    ok &= max(res["quadric_S0"], res["quadric_S1"], res["orthogonality"]) < 1e-12
    ok &= ls.sigma_rank_report(lm)["max_second_singular_value"] < 1e-10
    ok &= ls.legendre_dupin_test(lm)["dupin"]
    _report(8, "homogeneous Legendre immersion battery", bool(ok))


def test_09_structure_equation_convergence():
    residuals = {}
    for n in (64, 128):
        s = srf.pushforward(srf.torus(np.pi / 4, ParamDomain(nu=n, nv=n)), "stereo")
        mc = fr.pullback_mc(srf.euclidean_best_frame(s))
        residuals[n] = fr.structure_residual(mc)
    ok = residuals[64] < 1e-3 and residuals[128] <= residuals[64] / 4.0
    _report(
        9,
        f"structure residual {residuals[64]:.2e} -> {residuals[128]:.2e} "
        f"(ratio {residuals[64] / residuals[128]:.1f}x)",
        bool(ok),
    )


def test_10_congruence():
    X1 = np.zeros((4, 4))
    X1[1, 0] = 1.0
    X1[3, 1], X1[1, 3] = 1.0, -1.0
    X2 = np.zeros((4, 4))
    X2[2, 0] = 1.0
    dom = ParamDomain((0, 2.0), (0, 1.0), 24, 12, False, False)
    form = fr.constant_form(X1, X2, dom, "e3")
    e1, _ = fr.integrate_mc(form, np.eye(4))
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    e2, _ = fr.integrate_mc(form, mt.e3_matrix([0.1, 0.2, -0.3], q))
    out = fr.congruence_test(e1, e2)
    ok = out["congruent"] and out["deviation"] < 1e-8
    _report(10, "congruence of two integrations", bool(ok))


def test_11_fig7_cli(tmp_path):
    out1 = str(tmp_path / "fig7.obj")
    rc1 = main(["fig7", "--t", "1", "--out", out1])
    rep1 = read_json(out1[:-4] + ".report.json")
    out0 = str(tmp_path / "fig7_0.obj")
    rc0 = main(["fig7", "--t", "0", "--out", out0])
    rep0 = read_json(out0[:-4] + ".report.json")
    n_sing = len(rep1["singular_grid_points"])
    ok = (
        rc1 == 0
        and rc0 == 0
        and not rep1["degenerate"]
        and 0 < n_sing < 33 * 33
        and rep0["degenerate"]
    )
    _report(11, f"fig7 CLI: {n_sing} singular points at t=1, degenerate at t=0", bool(ok))


def test_12_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    rc1 = main(["verify", "all", "--out", a])
    rc2 = main(["verify", "all", "--out", b])
    ok = rc1 == 0 and rc2 == 0 and Path(a).read_bytes() == Path(b).read_bytes()
    _report(12, "verify-all reports byte-identical", bool(ok))
