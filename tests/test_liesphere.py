"""Lie sphere geometry: quadric lines, Legendre lifts, the homogeneous example,
order conditions, the Dupin distribution, boosts, and coset orbits."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import metrics as mt
from dupin import liesphere as ls
from dupin import moebius as mb
from dupin import spaceforms as sf
from dupin import surfaces as srf
from dupin.frames import (pullback_mc, FrameField, grid_differential, orbit_frame, pencil,
                          pencil_roots)
from dupin.surfaces import ParamDomain

RNG = np.random.default_rng(4242)


def eps(i):
    v = np.zeros(6)
    v[i] = 1.0
    return v


class TestLines:
    def test_valid_line(self):
        # oracle: <S0,S0> = 1 - 1 = 0, <S1,S1> = 0, <S0,S1> = 0 by bilinearity
        line = ls.make_line(eps(0) + eps(4), eps(1) + eps(5))
        r = line.residuals()
        assert max(r.values()) < 1e-14

    def test_dependent_rejected(self):
        v = eps(0) + eps(4)
        with pytest.raises(ls.DegenerateLineError):
            ls.make_line(v, v)

    def test_off_quadric_rejected(self):
        with pytest.raises(ls.DegenerateLineError):
            ls.make_line(eps(0), eps(1) + eps(5))

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ls.DegenerateLineError):
            ls.make_line(eps(0) + eps(4), eps(0) - eps(4))


class TestInclusions:
    def test_great_sphere(self):
        S = np.array([1.0, 0, 0, 0, 0])
        q = ls.include_sphere(S)
        assert np.allclose(q, eps(0) + eps(5))
        assert ls.quadric_residual(q) < 1e-14

    def test_point_inclusion_orthogonal_to_eps5(self):
        m, r = np.array([0.0, 1.0, 0, 0]), 0.9
        x = sf.stereo_inv(RNG.normal(size=(50, 3)))
        q = ls.include_point(sf.embed_moebius(x, "sphere"))
        assert np.max(np.abs(mt.inner(q, np.eye(6)[5], mt.R42))) < 1e-14
        assert ls.quadric_residual(q) < 1e-12
        S = mb.sphere_to_vec(m, r)
        qs = ls.include_sphere(S)
        assert abs(mt.inner(qs, np.eye(6)[5], mt.R42)) > 0.5

    def test_projection_recovers_point(self):
        x = sf.stereo_inv(np.array([0.2, -0.4, 0.7]))
        F = sf.embed_moebius(x, "sphere")
        e3 = srf.surface_normal(srf.torus(np.pi / 4), np.array(0.0), np.array(0.0))
        # any sphere through the point: use a tangent-style vector orthogonal to F
        S = mb.tangent_sphere(x, _unit_orthogonal(x), 1.1)
        q = ls.spherical_projection(ls.include_point(F), ls.include_sphere(S))
        assert np.allclose(mt.projective_normalize(q), mt.projective_normalize(F), atol=1e-10)


def _unit_orthogonal(x):
    v = np.array([0.3, 1.0, -0.2, 0.5])
    v = v - np.dot(v, x) * x
    return v / np.linalg.norm(v)


def _pad_mid(w):
    """Euclidean 3-vector into R^{4,1} slots (eps1, eps2, eps3)."""
    out = np.zeros(w.shape[:-1] + (5,))
    out[..., 1:4] = w
    return out


@functools.cache
def euclidean_lift(name):
    """Legendre lift, on a 96x96 grid with grid differentials, of a surface in
    R^3 with its first curvature sphere map: "figure1", the stereographic
    torus(pi/4) image (a Dupin cyclide), or "warped", a warped torus (not
    Dupin)."""
    dom = ParamDomain(nu=96, nv=96)
    s = (srf.pushforward(srf.torus(np.pi / 4, dom), "stereo") if name == "figure1"
         else srf.warped_torus(domain=dom))
    U, V = s.domain.mesh()
    y = s.position(U, V)
    n = srf.surface_normal(s, U, V)
    d = srf.principal_curvatures(s, U, V)
    Fhat = sf.embed_moebius(y, "euclidean")
    ninf = np.zeros(5)
    ninf[0], ninf[4] = -0.5, 0.5
    E3 = _pad_mid(n) + (2.0 * np.sum(y * n, axis=-1))[..., None] * ninf
    S = d.a[..., None] * Fhat + E3
    return ls.legendre_lift(Fhat, S, s.domain, tangency_tol=1e-4)


def trig_example_lambda(domain):
    """The homogeneous Legendre immersion written out: S0 = cos u eps0 +
    sin u eps3 + eps4, S1 = cos v eps1 + sin v eps2 + eps5, and their 1-forms."""
    U, V = domain.mesh()
    Z = np.zeros_like(U)
    S0 = np.stack([np.cos(U), Z, Z, np.sin(U), np.ones_like(U), Z], axis=-1)
    S1 = np.stack([Z, np.cos(V), np.sin(V), Z, Z, np.ones_like(V)], axis=-1)
    dS0 = np.stack([np.stack([-np.sin(U), Z, Z, np.cos(U), Z, Z], axis=-1),
                    np.zeros(U.shape + (6,))])
    dS1 = np.stack([np.zeros(U.shape + (6,)),
                    np.stack([Z, -np.sin(V), np.cos(V), Z, Z, Z], axis=-1)])
    return S0, S1, dS0, dS1


def trig_example_frame(domain):
    """The best Lie frame along it written out, with its u- and v-derivatives:
    columns [S0, S1, S1', S0', (-cos v eps1 - sin v eps2 + eps5)/2,
    (-cos u eps0 - sin u eps3 + eps4)/2], in the lambda basis."""
    U, V = domain.mesh()
    Z, O = np.zeros_like(U), np.ones_like(U)
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)

    def frame(*cols):
        return mt.P_LAMBDA.T @ np.stack([np.stack(c, axis=-1) for c in cols], axis=-1)

    T = frame((cu, Z, Z, su, O, Z), (Z, cv, sv, Z, Z, O), (Z, -sv, cv, Z, Z, Z),
              (-su, Z, Z, cu, Z, Z), (Z, -cv / 2, -sv / 2, Z, Z, O / 2),
              (-cu / 2, Z, Z, -su / 2, O / 2, Z))
    Tu = frame((-su, Z, Z, cu, Z, Z), (Z,) * 6, (Z,) * 6, (-cu, Z, Z, -su, Z, Z), (Z,) * 6,
               (su / 2, Z, Z, -cu / 2, Z, Z))
    Tv = frame((Z,) * 6, (Z, -sv, cv, Z, Z, Z), (Z, -cv, -sv, Z, Z, Z), (Z,) * 6,
               (Z, sv / 2, -cv / 2, Z, Z, Z), (Z,) * 6)
    return T, Tu, Tv


@pytest.mark.parametrize("domain", [ParamDomain(), ParamDomain((-1.0, 2.0), (0.3, 2.0), 17, 9,
                                                               False, False)])
def test_example_orbit_matches_trig_formulas(domain):
    ff = ls.example_frame(domain)
    for got, want in zip((ff.mats, *(ff.mats @ ff.omega)), trig_example_frame(domain)):
        assert np.max(np.abs(got - want)) <= 1e-14
    lm = ls.example_lambda(domain)
    for got, want in zip((lm.S0, lm.S1, lm.dS0, lm.dS1), trig_example_lambda(domain)):
        assert np.max(np.abs(got - want)) <= 1e-14


def test_example_base_frame_is_the_frame_at_the_origin():
    T0 = trig_example_frame(ParamDomain(nu=3, nv=3))[0][0, 0]
    assert np.max(np.abs(ls.example_base_frame() - T0)) <= 1e-15


class TestExampleImmersion:
    def setup_method(self):
        self.lm = ls.example_lambda()

    def test_quadric_and_orthogonality(self):
        r = self.lm.line_residuals()
        assert r["quadric_S0"] < 1e-12
        assert r["quadric_S1"] < 1e-12
        assert r["orthogonality"] < 1e-12

    def test_contact(self):
        assert ls.contact_residual(self.lm) < 1e-10

    def test_projection_is_great_circle(self):
        sig = ls.spherical_projection(self.lm.S0, self.lm.S1)
        x, _ = sf.moebius_chart(sig, "sphere")
        # f_+ of the circle cos u eps0 + sin u eps3
        assert np.max(np.abs(x[..., 1])) < 1e-12
        assert np.max(np.abs(x[..., 2])) < 1e-12
        assert np.max(np.abs(np.sum(x * x, axis=-1) - 1.0)) < 1e-12

    def test_projection_singular_everywhere(self):
        rep = ls.sigma_rank_report(self.lm)
        assert rep["max_second_singular_value"] < 1e-10

    def test_dupin(self):
        out = ls.legendre_dupin_test(self.lm)
        assert out["dupin"] is True
        assert out["max_derivative"] < 1e-10


def torus_lift(branch="a"):
    """Legendre lift of the torus(pi/4) in S^3 with the tangent sphere map of
    one principal curvature, on the default grid with grid differentials."""
    s = srf.torus(np.pi / 4)
    U, V = s.domain.mesh()
    x = s.position(U, V)
    _, _, e3 = s.frame(U, V)
    a, c = s.constant_curvatures
    kappa = a if branch == "a" else c
    S = mb.tangent_sphere(x, e3, np.arctan2(1.0, kappa))
    F = sf.embed_moebius(x, "sphere")
    return ls.legendre_lift(F, S, s.domain), s


class TestLegendreLift:
    def test_torus_lift_contact(self):
        lm, _ = torus_lift()
        assert ls.contact_residual(lm) < 1e-8
        assert max(lm.line_residuals().values()) < 1e-10

    def test_projection_recovers_surface(self):
        lm, s = torus_lift()
        sig = ls.spherical_projection(lm.S0, lm.S1)
        x, _ = sf.moebius_chart(sig, "sphere")
        U, V = s.domain.mesh()
        assert np.max(np.abs(x - s.position(U, V))) < 1e-10

    def test_torus_lift_dupin(self):
        lm, _ = torus_lift()
        out = ls.legendre_dupin_test(lm)
        assert out["dupin"] is True

    def test_cylinder_lift_through_f0(self):
        s = srf.cylinder(1.0)
        U, V = s.domain.mesh()
        y = s.position(U, V)
        e1, e2, nu = s.frame(U, V)
        Fhat = sf.embed_moebius(y, "euclidean")
        ninf = np.zeros(5)
        ninf[0], ninf[4] = -0.5, 0.5
        E3 = _pad_mid(nu) + (2.0 * np.sum(y * nu, axis=-1))[..., None] * ninf
        S = 1.0 * Fhat + E3  # curvature sphere for the circle direction (c = 1)
        yu, yv = s.jet(U, V)[1:3]
        dF = (
            _pad_mid(yu) + (2.0 * np.sum(y * yu, axis=-1))[..., None] * ninf,
            _pad_mid(yv) + (2.0 * np.sum(y * yv, axis=-1))[..., None] * ninf,
        )
        lm = ls.legendre_lift(Fhat, S, s.domain, dF=dF)
        assert ls.contact_residual(lm) < 1e-8

    def test_non_tangent_rejected(self):
        s = srf.torus(np.pi / 4)
        U, V = s.domain.mesh()
        x = s.position(U, V)
        e1, _, e3 = s.frame(U, V)
        bad = mb.tangent_sphere(x, (e3 + 0.4 * e1) / np.linalg.norm(e3 + 0.4 * e1, axis=-1, keepdims=True), 1.0)
        with pytest.raises(mt.GeometryError):
            ls.legendre_lift(sf.embed_moebius(x, "sphere"), bad, s.domain)

    def test_figure1_lift_dupin(self):
        # Euclidean lift of the stereographic torus image (a Dupin cyclide)
        out = ls.legendre_dupin_test(euclidean_lift("figure1"))
        assert out["dupin"] is True

    def test_warped_lift_not_dupin(self):
        out = ls.legendre_dupin_test(euclidean_lift("warped"))
        assert out["dupin"] is False

    def test_contact_negative_control(self):
        dom = ParamDomain()
        U, V = dom.mesh()
        Z = np.zeros_like(U)
        S0 = np.stack([np.cos(U), Z, Z, Z, np.ones_like(U), np.sin(U) * 0 + 0], axis=-1)
        S0[..., 2] = np.sin(U)  # null field, unconstrained against S1
        S1 = np.broadcast_to(eps(2) + eps(5), U.shape + (6,)).copy()
        lm = ls.LegendreMap(S0, S1, dom)
        assert ls.contact_residual(lm) > 0.1


class TestBestLieFrame:
    def test_example_frame_orders(self):
        ff = ls.example_frame()
        coeffs, res = ls.best_lie_frame_check(ff)
        assert res["order1"] < 1e-8
        assert res["order2"] < 1e-8
        assert res["order3"] < 1e-8
        assert res["contact"] < 1e-8
        assert np.max(np.abs(coeffs.p)) < 1e-8
        assert np.max(np.abs(coeffs.q)) < 1e-8
        assert res["exterior_1"] < 1e-8
        assert res["exterior_2"] < 1e-8

    def test_constant_frame_fails(self):
        dom = ParamDomain(nu=8, nv=8)
        T = ls.example_base_frame()
        mats = np.broadcast_to(T, (8, 8, 6, 6)).copy()
        with pytest.raises(ls.FrameOrderError):
            ls.best_lie_frame_check(FrameField("lie", mats, dom))

    def test_boost_translation_invariance(self):
        ff = ls.example_frame()
        A = ls.boost(0.8)
        mc1 = pullback_mc(ff)
        mc2 = pullback_mc(ff.left_translated(A))
        assert np.max(np.abs(mc1.omega[0] - mc2.omega[0])) < 1e-9
        assert np.max(np.abs(mc1.omega[1] - mc2.omega[1])) < 1e-9
        _, res1 = ls.best_lie_frame_check(ff)
        _, res2 = ls.best_lie_frame_check(ff.left_translated(A))
        for k in ("order1", "order2", "order3", "contact"):
            assert abs(res1[k] - res2[k]) < 1e-9

    def test_example_frame_in_one_coset(self):
        assert ls.coset_membership_residual(ls.example_frame()) < 1e-8

    def test_frame_outside_coset_fails(self):
        # negative control: a generator with a component outside h leaves the coset
        X, Y = ls.slice_generators()
        Z = mt.algebra_project(np.random.default_rng(5).normal(size=(6, 6)), mt.LIE)
        dom = ParamDomain(nu=8, nv=8)
        assert ls.coset_membership_residual(orbit_frame("lie", ls.example_base_frame(), X, Y, dom)) < 1e-8
        ff = orbit_frame("lie", ls.example_base_frame(), X + 0.1 * Z, Y, dom)
        assert ls.coset_membership_residual(ff) > 1e-3


class TestDistributionAndBoost:
    def test_h_basis(self):
        sub = ls.h_basis()
        assert sub.dim == 6
        assert sub.closure_residual < 1e-10
        for X in sub.elements:
            assert mt.algebra_residual(X, mt.LIE) < 1e-12
            for cons in ls.h_constraints():
                val = sum(co * X[e] for e, co in cons.items())
                assert abs(val) < 1e-12

    def test_slice_generators(self):
        X2, X3 = ls.slice_generators()
        expected2 = np.zeros((6, 6))
        expected2[2, 1] = expected2[4, 2] = 1.0
        expected3 = np.zeros((6, 6))
        expected3[3, 0] = expected3[5, 3] = 1.0
        assert np.allclose(X2, expected2, atol=1e-12)
        assert np.allclose(X3, expected3, atol=1e-12)

    def test_boost_identity(self):
        assert np.allclose(ls.boost(0.0), np.eye(6))

    def test_boost_lambda_diagonal(self):
        # oracle: conjugate the epsilon-basis cosh/sinh block into the lambda basis
        t = 0.7
        direct = ls.boost(t)
        conj = mt.change_basis(_boost_eps(t), 6, "epsilon", "lambda", kind="operator")
        assert np.max(np.abs(direct - conj)) < 1e-12
        assert mt.group_residual(direct, mt.LIE) < 1e-12

    def test_boost_group_property(self):
        B = ls.boost(1.3) @ ls.boost(-1.3)
        assert np.max(np.abs(B - np.eye(6))) < 1e-12


def _boost_eps(t):
    """ls.boost(t) in epsilon coordinates: cosh/sinh block on (eps0, eps5)."""
    B = np.eye(6)
    B[0, 0] = B[5, 5] = np.cosh(t)
    B[0, 5] = B[5, 0] = np.sinh(t)
    return B


def _pencil_complement(S0, S1):
    """Orthonormal pair spanning {v : <v,S0> = <v,S1> = 0} / span{S0,S1},
    where the induced form is positive definite (batched): a 2x6 SVD and a
    4x4 eigh per point."""
    G = mt.R42.gram
    A = np.stack([S0, S1], axis=-2) @ G                    # (..., 2, 6)
    _, _, vh = np.linalg.svd(A)
    N = vh[..., 2:, :]                                     # (..., 4, 6) basis of U
    gram = N @ G @ np.swapaxes(N, -1, -2)                  # rank-2 PSD
    w, vec = np.linalg.eigh(gram)
    top = vec[..., :, 2:]                                  # eigvecs of the 2 positive eigvals
    u = np.swapaxes(top, -1, -2) @ N
    norm = np.sqrt(np.maximum(w[..., 2:], 1e-300))
    return u / norm[..., None]                             # (..., 2, 6)


def _component(u_basis, w):
    """Components of w in the complement basis (pairing with ghat)."""
    return (u_basis @ mt.R42.gram @ w[..., None])[..., 0]


def complement_motions(lm):
    """The line motions dS0, dS1 as 1-forms (2, ..., 2) of their components in
    an orthonormal basis of the complement of the line, rebuilt at every grid
    point from the epsilon-coordinate representatives."""
    dS0 = grid_differential(lm.S0, lm.domain) if lm.dS0 is None else lm.dS0
    dS1 = grid_differential(lm.S1, lm.domain) if lm.dS1 is None else lm.dS1
    u_basis = _pencil_complement(lm.S0, lm.S1)
    return _component(u_basis, dS0), _component(u_basis, dS1)


def svd_path_svals(lm):
    """Reference for ls.line_motion_svals: the singular values of the 4x2
    matrix of the complement components of dS0 and dS1."""
    m = np.concatenate(complement_motions(lm), axis=-1)
    return np.linalg.svd(np.moveaxis(m, 0, -1), compute_uv=False)


def reference_fields(lm):
    """Reference for ls.curvature_sphere_fields: the roots (alpha : beta) of
    det(a + tau b) for the complement components a, b of the line motions,
    with the kernel of alpha a + beta b from its SVD."""
    a, b = complement_motions(lm)
    c = np.stack(pencil(a, b))
    lo, hi, _ = pencil_roots(*(c / np.max(np.abs(c))))
    out = []
    for t in (lo, hi):
        finite = np.isfinite(t)
        ab = np.stack([1.0 * finite, np.where(finite, t, 1.0)], axis=-1)
        ab /= np.linalg.norm(ab, axis=-1, keepdims=True)
        M = np.moveaxis(ab[..., 0:1] * a + ab[..., 1:2] * b, 0, -1)
        out.append((ab, np.linalg.svd(M)[2][..., -1, :]))
    return out


def fields_deviation(got, want):
    """Largest deviation between two pairs of root fields (alpha_beta,
    kernel), each field up to sign and the two roots as an unordered pair."""
    dist = lambda x, y: np.minimum(np.linalg.norm(x - y, axis=-1),
                                   np.linalg.norm(x + y, axis=-1))
    pair = lambda g, w: np.maximum(dist(g[0], w[0]), dist(g[1], w[1]))
    straight = np.maximum(pair(got[0], want[0]), pair(got[1], want[1]))
    crossed = np.maximum(pair(got[0], want[1]), pair(got[1], want[0]))
    return float(np.max(np.minimum(straight, crossed)))


def field_pairs(lm):
    return [(r["alpha_beta"], r["kernel"]) for r in ls.curvature_sphere_fields(lm)["roots"]]


class TestCurvatureSphereFields:
    """curvature_sphere_fields reads the pencil from Lie inner products with a
    reference pair of line motions; the complement basis rebuilt per point by
    SVD and eigh is the reference."""

    @pytest.mark.parametrize("make, tol", [
        (ls.example_lambda, 1e-12),
        (lambda: ls.coset_orbit(ls.boost(1.0), *2 * [np.linspace(-4.0, 4.0, 33)])[0], 1e-12),
        (lambda: torus_lift()[0], 1e-12),
        (lambda: euclidean_lift("figure1"), 1e-4),
        (lambda: euclidean_lift("warped"), 1e-4),
    ], ids=["example", "coset_boost1", "torus", "figure1_96", "warped_96"])
    def test_matches_complement_reference(self, make, tol):
        lm = make()
        assert fields_deviation(field_pairs(lm), reference_fields(lm)) <= tol

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.01, 0.5))
    def test_lie_invariance(self, seed, size):
        # the homogeneous example's line with the representative S0 + phi S1:
        # its curvature spheres S1 and S0 = (S0 + phi S1) - phi S1 sit at
        # tau = inf and tau = -phi.  A Lie sphere transformation g keeps
        # contact, maps the curvature spheres to g K with the same pencil
        # parameters and kernels, and keeps the map Dupin
        lm = ls.example_lambda(ParamDomain(nu=32, nv=32))
        U, V = lm.domain.mesh()
        phi = 0.5 * np.sin(U - 2 * V)
        dphi = 0.5 * np.cos(U - 2 * V) * np.array([1.0, -2.0])[:, None, None]
        lm = replace(lm, S0=lm.S0 + phi[..., None] * lm.S1,
                     dS0=lm.dS0 + phi[..., None] * lm.dS1 + dphi[..., None] * lm.S1)
        fields = field_pairs(lm)
        (ab, _), (ab_inf, _) = fields
        assert np.max(np.abs(ab[..., 1] + phi * ab[..., 0])) <= 1e-12  # (alpha : beta) = (1 : -phi)
        assert np.max(np.abs(ab_inf[..., 0])) <= 1e-12
        X = mt.algebra_project(np.random.default_rng(seed).normal(size=(6, 6)), mt.R42)
        g = mt.mat_exp(size * X / np.max(np.abs(X)))
        assert mt.group_residual(g, mt.R42) < 1e-12
        moved = ls.LegendreMap(*(S @ g.T for S in (lm.S0, lm.S1)), lm.domain,
                               *(dS @ g.T for dS in (lm.dS0, lm.dS1)))
        assert ls.contact_residual(moved) < 1e-8
        assert fields_deviation(field_pairs(moved), fields) <= 1e-10
        out = ls.legendre_dupin_test(moved)
        assert out["dupin"] and out["max_derivative"] < 1e-8


def revolution_residual(out):
    """Largest spread of z and of the distance from the z-axis along the
    s-circles of a fig7 projection, over each circle's regular points (at
    least 5)."""
    y = out["points"]
    ok = ~out["singular_mask"]
    rho = np.hypot(y[..., 0], y[..., 1])
    worst = 0.0
    for j in range(y.shape[1]):
        col = ok[:, j]
        if np.sum(col) >= 5:
            worst = max(worst, np.ptp(rho[col, j]), np.ptp(y[col, j, 2]))
    return worst


class TestCosetOrbit:
    def test_identity_coset_great_circle(self):
        s = np.linspace(-3, 3, 25)
        lm, ff = ls.coset_orbit(np.eye(6), s, s)
        assert ff.membership_residual() < 1e-10
        assert ls.contact_residual(lm) < 1e-8
        rep = ls.sigma_rank_report(lm)
        assert rep["max_second_singular_value"] < 1e-10

    def test_non_uniform_grid_rejected(self):
        s = np.linspace(-2, 2, 15)
        with pytest.raises(mt.GeometryError, match="uniformly spaced"):
            ls.coset_orbit(np.eye(6), s ** 3 / 4, s)

    @pytest.mark.filterwarnings("error")  # an overflow warning is not the one-line error
    @pytest.mark.parametrize("t,span,finite", [(709.0, 4.0, False), (0.0, 1e100, False),
                                                (709.7, 0.01, True)])
    def test_finite_or_rejected(self, t, span, finite):
        # near the overflow edge the orbit either comes back finite in all it
        # returns (T, omega and the line with its differentials) or is rejected
        # with a GeometryError and no numpy warning before it
        s = np.linspace(-span, span, 9)
        if not finite:
            with pytest.raises(mt.GeometryError, match="not finite"):
                ls.coset_orbit(ls.boost(t), s, s)
            return
        lm, ff = ls.coset_orbit(ls.boost(t), s, s)
        for F in (ff.mats, ff.omega, lm.S0, lm.S1, lm.dS0, lm.dS1):
            assert np.isfinite(F).all()

    def test_orbit_lines_valid(self):
        s = np.linspace(-2, 2, 15)
        lm, _ = ls.coset_orbit(ls.boost(1.0), s, s)
        r = lm.line_residuals()
        assert max(r.values()) < 1e-10

    def test_fig7_boosted_singular_set(self):
        out = ls.fig7_pipeline(1.0)
        assert not out["degenerate"]
        assert 0 < out["singular_count"] < out["grid_size"]

    def test_fig7_degenerate_at_zero(self):
        out = ls.fig7_pipeline(0.0)
        assert out["degenerate"]

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_fig7_degenerate_under_round_off(self, monkeypatch, n):
        # at t = 0 every point sphere is a curvature sphere: a0 = <S0, eps5>
        # is round-off.  Relative noise of 1e-16 in the representatives S0 and
        # S1, which the pencil determinant reads, must not change the verdict
        real = ls.coset_orbit
        rng = np.random.default_rng(7)
        noisy = lambda S: S + 1e-16 * np.abs(S).max(axis=-1, keepdims=True) * rng.standard_normal(S.shape)
        seen = []

        def perturbed(A, s_grid, t_grid):
            lm, ff = real(A, s_grid, t_grid)
            seen.append((lm, replace(lm, S0=noisy(lm.S0), S1=noisy(lm.S1))))
            return seen[-1][1], ff

        monkeypatch.setattr(ls, "coset_orbit", perturbed)
        grid = np.linspace(-4.0, 4.0, n)
        out = ls.fig7_pipeline(0.0, grid, grid)
        assert out["degenerate"] and out["singular_count"] == out["grid_size"]
        # the noise outweighs a0's own round-off, so the check is not vacuous
        (a0, *_), (b0, *_) = (ls._point_sphere(lm.S0, lm.S1) for lm in seen[0])
        assert np.max(np.abs(b0 - a0)) > np.max(np.abs(a0))

    def test_fig7_surface_of_revolution(self):
        # the regular part is a surface of revolution about the z-axis:
        # each s-circle has constant z and constant distance from the axis
        assert revolution_residual(ls.fig7_pipeline(1.0)) < 1e-8

    @pytest.mark.parametrize("A, n", [(np.eye(6), 25), (ls.boost(0.0), 33),
                                      (ls.boost(1.0), 33), (ls.boost(5.0), 33)],
                             ids=["identity", "t0", "t1", "t5"])
    def test_line_motion_matches_svd_path(self, A, n):
        s = np.linspace(-4.0, 4.0, n)
        lm, ff = ls.coset_orbit(A, s, s)
        ref = svd_path_svals(lm)
        got = ls.line_motion_svals(ff)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
        # the slice generators are dual to theta^2 and theta^3
        assert np.max(np.abs(got - 1.0)) < 1e-14


class TestFig7SingularSet:
    """fig7's singular set is where the point sphere is a curvature sphere:
    on the pinched circles v = +-2, found on any grid, not only at nodes."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(nu=st.integers(9, 129), nv=st.integers(9, 129), square=st.booleans(),
           t=st.floats(0.3, 5.0), sign=st.sampled_from([1.0, -1.0]))
    def test_pinched_circles_property(self, nu, nv, square, t, sign):
        nv = nu if square else nv
        v = np.linspace(-4.0, 4.0, nv)
        out = ls.fig7_pipeline(sign * t, np.linspace(-4.0, 4.0, nu), v)
        mask = out["singular_mask"]
        assert out["singular_count"] > 0 and not out["degenerate"]
        rows = mask.all(axis=0)
        assert np.array_equal(mask, np.broadcast_to(rows, mask.shape))  # whole rows only
        assert np.all(np.abs(np.abs(v[rows]) - 2.0) <= (1 + 1e-9) * 4.0 / (nv - 1))

    @pytest.mark.parametrize("n, rows", [(33, [8, 24]), (64, [16, 47]), (128, [32, 95])])
    def test_rows_nearest_the_circles(self, n, rows):
        grid = np.linspace(-4.0, 4.0, n)
        mask = ls.fig7_pipeline(1.0, grid, grid)["singular_mask"]
        assert np.flatnonzero(mask.all(axis=0)).tolist() == rows
        assert mask.sum() == 2 * n

    def test_pencil_determinant_is_minus_a0_a1(self):
        # the slice generators are dual to theta^2 and theta^3, so
        # f = -a0 a1 theta^2 ^ theta^3 = -a0 a1 on the boosted coset
        s = np.linspace(-4.0, 4.0, 17)
        lm, ff = ls.coset_orbit(ls.boost(1.0), s, s)
        a0, a1, _ = ls._point_sphere(lm.S0, lm.S1)
        f, bound = ls.pencil_determinant(lm, ff)
        assert np.max(np.abs(f + a0 * a1)) <= 1e-15 * np.max(np.abs(a0 * a1))
        assert np.all(bound <= 1e-13 * np.abs(a1))


class TestProjectionPrecision:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(t=st.floats(0.5, 15.0))
    def test_revolution_residual_within_bound(self, t):
        out = ls.fig7_pipeline(t)
        assert revolution_residual(out) <= 10 * out["projection_bound"]

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.5, -1.5])
    def test_margin_on_moderate_boosts(self, t):
        assert 1e6 * ls.fig7_pipeline(t)["projection_bound"] <= ls.PROJECTION_TOL

    @pytest.mark.parametrize("bound", [np.nan, np.inf, 1.01e-8])
    def test_guard_rejects(self, bound):
        with pytest.raises(mt.GeometryError, match=r"rounding bound .*tolerance 1e-08"):
            ls.check_projection_precision(bound)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_representatives(self):
        s = np.linspace(-1.0, 1.0, 5)
        lm, _ = ls.coset_orbit(np.eye(6), s, s)
        assert not np.isfinite(ls.projection_precision(1e200 * lm.S0, 1e200 * lm.S1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [20.0, -20.0, 50.0, 400.0])
    def test_large_boost_rejected(self, t):
        with pytest.raises(mt.GeometryError, match="rounding bound"):
            ls.fig7_pipeline(t)
