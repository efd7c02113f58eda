"""Deterministic verification suites behind the command line's verify command.

Every suite returns a report dict of named residual checks with their
tolerances; all randomness is seeded, so repeated runs are byte-identical."""

from __future__ import annotations

import numpy as np

from . import metrics as mt
from . import spaceforms as sf
from . import surfaces as srf
from . import moebius as mb
from . import liesphere as ls
from . import frames as fr
from .export import check, make_report

SUITES = ("spaceforms", "surfaces", "moebius", "liesphere", "framecalc", "all")


def _rng():
    return np.random.default_rng(1234321)


def suite_spaceforms(tols):
    rng = _rng()
    checks = []
    x = rng.normal(size=(1000, 4))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x = x[x[:, 0] > -0.99]
    checks.append(check("stereo_round_trip", float(np.max(np.abs(sf.stereo_inv(sf.stereo(x)) - x))), 1e-12))
    y = rng.normal(size=(1000, 3))
    y = 0.95 * y / np.linalg.norm(y, axis=-1, keepdims=True) * rng.random((1000, 1)) ** (1 / 3)
    xh = sf.hyp_stereo_inv(y)
    checks.append(check("hyp_round_trip", float(np.max(np.abs(sf.hyp_stereo(xh) - y))), 1e-12))
    q = sf.embed_moebius(xh, "hyperbolic")
    checks.append(check("null_cone", float(np.max(np.abs(mt.inner(q, q, mt.R41)))), 1e-12))
    A = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]
    G = sf.group_embed(A, "sphere")
    checks.append(check("so4_embed_membership", mt.group_residual(G, mt.MOEB), tols["membership"]))
    pts = x[:100]
    lifted = mt.projective_normalize(
        np.einsum("ij,...j->...i", G, sf.embed_moebius_delta(pts, "sphere"))
    )
    target = mt.projective_normalize(
        sf.embed_moebius_delta(np.einsum("ij,...j->...i", A, pts), "sphere")
    )
    checks.append(check("so4_equivariance", float(np.max(np.abs(lifted - target))), 1e-10))
    return make_report("verify", {"suite": "spaceforms"}, checks, tols)


def suite_surfaces(tols):
    checks = []
    worst = 0.0
    for alpha in np.linspace(0.04, np.pi / 4, 20):
        s = srf.torus(alpha)
        d = srf.principal_curvatures(s, *s.domain.mesh())
        worst = max(worst, float(np.max(np.abs(d.a * d.c + 1.0))))
    checks.append(check("torus_ac_plus_1", worst, 1e-8))
    worst = 0.0
    for a in np.linspace(0.05, 0.95, 20):
        s = srf.hyperboloid(a)
        d = srf.principal_curvatures(s, *s.domain.mesh())
        worst = max(worst, float(np.max(np.abs(d.a * d.c - 1.0))))
    checks.append(check("hyperboloid_ac_minus_1", worst, 1e-8))
    s = srf.cylinder(2.0)
    d = srf.principal_curvatures(s, *s.domain.mesh())
    checks.append(check("cylinder_ac", float(np.max(np.abs(d.a * d.c))), 1e-10))
    checks.append(check("cylinder_c_value", float(np.max(np.abs(d.c - 0.5))), 1e-8))
    fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
    out = srf.classify(fig1)
    measured = out["report"]
    checks.append(check("fig1_not_isoparametric", 0.0, passed=not out["isoparametric"]))
    checks.append(check("fig1_dupin",
                        max(measured["dupin_derivative_a"], measured["dupin_derivative_c"]),
                        measured["dupin_tol"], passed=out["dupin"]))
    return make_report("verify", {"suite": "surfaces"}, checks, tols)


def suite_moebius(tols):
    rng = _rng()
    checks = []
    m = rng.normal(size=(1000, 4))
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    r = rng.uniform(0.05, np.pi - 0.05, size=1000)
    S = mb.sphere_to_vec(m, r)
    m2, r2 = mb.vec_to_sphere(S)
    checks.append(check("sphere_round_trip",
                        float(max(np.max(np.abs(m2 - m)), np.max(np.abs(r2 - r)))), 1e-12))
    checks.append(check("orientation_reversal",
                        float(np.max(np.abs(S + mb.sphere_to_vec(-m, np.pi - r)))), 1e-12))
    for surface, target in [
        (srf.torus(np.pi / 4), 0.0),
        (srf.torus(np.pi / 6), 0.5),
        (srf.cylinder(1.0), 1.0),
        (srf.hyperboloid(0.5), 5.0 / 3.0),
    ]:
        coeffs, res = mb.frame_order_check(mb.canonical_best_frame(surface))
        name = surface.name + "_" + "_".join(f"{v:g}" for v in surface.params.values())
        checks.append(check(f"C_{name}", coeffs.C - target, tols["order"]))
        checks.append(check(f"dupin_residuals_{name}",
                            max(res["q1"], res["q2"], res["p2"]), tols["order"]))
    for C in (0.0, 0.5, 1.0, 5.0 / 3.0):
        sub = mb.hc_basis(C)
        checks.append(check(f"hc_dim_C_{C:g}", sub.dim - 2, 0.5))
        checks.append(check(f"hc_closure_C_{C:g}", sub.closure_residual, tols["closure"]))
    grid = np.linspace(-1.0, 1.0, 17)
    orb = mb.hc_orbit(1.0, grid, grid)
    pts = orb.chart_points[orb.valid]
    dist = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
    checks.append(check("hc_orbit_cylinder_axis", float(np.max(np.abs(dist - 1.0))), 1e-8))
    return make_report("verify", {"suite": "moebius"}, checks, tols)


def suite_liesphere(tols):
    checks = []
    lm = ls.example_lambda()
    res = lm.line_residuals()
    checks.append(check("example_quadric", max(res["quadric_S0"], res["quadric_S1"]), 1e-12))
    checks.append(check("example_orthogonality", res["orthogonality"], 1e-12))
    checks.append(check("example_contact", ls.contact_residual(lm), tols["contact"]))
    checks.append(check("example_sigma_rank",
                        ls.sigma_rank_report(lm)["max_second_singular_value"], 1e-10))
    checks.append(check("example_dupin", ls.legendre_dupin_test(lm)["max_derivative"], 1e-8))
    sub = ls.h_basis()
    checks.append(check("h_dim", sub.dim - 6, 0.5))
    checks.append(check("h_closure", sub.closure_residual, tols["closure"]))
    _, res = ls.best_lie_frame_check(ls.example_frame())
    checks.append(check("example_frame_orders",
                        max(res["order1"], res["order2"], res["order3"]), 1e-8))
    s = np.linspace(-3, 3, 25)
    lm_id, _ = ls.coset_orbit(np.eye(6), s, s)
    checks.append(check("identity_coset_sigma_rank",
                        ls.sigma_rank_report(lm_id)["max_second_singular_value"], 1e-10))
    out = ls.fig7_pipeline(1.0)
    checks.append(check("fig7_singular_nonempty", out["singular_count"] / out["grid_size"],
                        passed=0 < out["singular_count"] < out["grid_size"]))
    checks.append(check("fig7_projection_precision", out["projection_bound"],
                        ls.PROJECTION_TOL))
    return make_report("verify", {"suite": "liesphere"}, checks, tols)


def suite_framecalc(tols):
    checks = []
    fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
    mc = fr.pullback_mc(srf.euclidean_best_frame(fig1))
    checks.append(check("structure_residual_64", fr.structure_residual(mc), 1e-3))
    X1 = np.zeros((4, 4))
    X1[1, 0] = 1.0
    X1[3, 1], X1[1, 3] = 1.0, -1.0
    X2 = np.zeros((4, 4))
    X2[2, 0] = 1.0
    dom = srf.ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 48, 12, False, False)
    form = fr.constant_form(X1, X2, dom, "e3")
    e1, rep = fr.integrate_mc(form, np.eye(4))
    pts = e1.mats[..., 1:, 0]
    resid = pts[..., 0] ** 2 + (pts[..., 2] - 1.0) ** 2 - 1.0
    checks.append(check("cylinder_orbit_equation", float(np.max(np.abs(resid))), 1e-8))
    checks.append(check("path_independence", rep["path_independence"], 1e-10))
    base2 = mt.e3_matrix([0.3, -0.2, 0.9], np.eye(3))
    e2, _ = fr.integrate_mc(form, base2)
    out = fr.congruence_test(e1, e2)
    checks.append(check("congruence_deviation", out["deviation"], 1e-8,
                        passed=out["congruent"]))
    return make_report("verify", {"suite": "framecalc"}, checks, tols)


_SUITE_FNS = {
    "spaceforms": suite_spaceforms,
    "surfaces": suite_surfaces,
    "moebius": suite_moebius,
    "liesphere": suite_liesphere,
    "framecalc": suite_framecalc,
}


def run_suite(name, tols):
    if name == "all":
        reports = {k: fn(tols) for k, fn in _SUITE_FNS.items()}
        checks = [c for rep in reports.values() for c in rep["checks"]]
        agg = make_report("verify", {"suite": "all"}, checks, tols)
        agg["suites"] = {k: rep["passed"] for k, rep in reports.items()}
        return agg
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FNS[name](tols)
