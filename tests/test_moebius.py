"""Moebius geometry: the oriented-sphere model, tangent/curvature spheres,
adapted frames and the invariant C, and the h_C orbit surfaces."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import metrics as mt
from dupin import moebius as mb
from dupin import spaceforms as sf
from dupin import surfaces as srf
from dupin.frames import grid_differential, pullback_mc, FrameField
from dupin.surfaces import ParamDomain

RNG = np.random.default_rng(123)


def _sphere_vec_residual(S):
    return float(np.max(np.abs(mt.inner(S, S, mt.R41) - 1.0)))


@dataclass
class _OrientedSphere:
    """Sphere in S^3 with center m (unit 4-vector) and signed radius r in (0, pi)."""

    m: np.ndarray
    r: float

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if abs(np.linalg.norm(self.m) - 1.0) > 1e-10:
            raise mt.GeometryError("sphere center must be a unit vector in R^4")
        if not (0.0 < self.r < np.pi):
            raise mt.GeometryError("signed radius must lie in (0, pi)")


def _first_order_frame_umbilic(x_grid, e3_grid, kappa, dx, domain):
    """First-order (not second-order normalizable) frame along a totally
    umbilic surface in S^3, for pencil-degeneracy tests: P_DELTA^T V
    M(kappa - 1, kappa + 1) for the sphere lift V of x, a Gram-Schmidt tangent
    frame from ``dx`` and the normal."""
    xu, xv = dx
    e1 = xu / np.linalg.norm(xu, axis=-1, keepdims=True)
    e2 = xv - np.sum(xv * e1, axis=-1, keepdims=True) * e1
    e2 = e2 / np.linalg.norm(e2, axis=-1, keepdims=True)
    V = mb._lifted_frame("sphere", x_grid, e1, e2, e3_grid)
    return FrameField("moebius", mt.P_DELTA.T @ (V @ mb._adapted_mix(kappa - 1, kappa + 1)), domain)


def _sphere_map_dupin_test(S_grid, domain, rank_tol=1e-8):
    """Reference Dupin criterion for a sphere map along an immersion: its plain
    differential dS (a 5x2 matrix per grid point) is singular everywhere.

    Returns the verdict with singular-value statistics; a map with dS = 0
    everywhere passes but is flagged degenerate.
    """
    S_grid = np.asarray(S_grid, dtype=float)
    J = np.moveaxis(grid_differential(S_grid, domain), 0, -1)  # (nu, nv, 5, 2)
    svals = np.linalg.svd(J, compute_uv=False)
    scale = max(float(np.max(svals)), 1.0)
    second = svals[..., 1]
    return {
        "dupin": bool(np.max(second) < rank_tol * scale),
        "degenerate": bool(np.max(svals) < rank_tol),
        "max_second_singular_value": float(np.max(second)),
    }


def random_spheres(n):
    m = RNG.normal(size=(n, 4))
    m /= np.linalg.norm(m, axis=-1, keepdims=True)
    r = RNG.uniform(0.05, np.pi - 0.05, size=n)
    return m, r


class TestSphereModel:
    def test_great_sphere(self):
        S = mb.sphere_to_vec(np.array([1.0, 0, 0, 0]), np.pi / 2)
        assert np.allclose(S, np.array([1.0, 0, 0, 0, 0]), atol=1e-14)

    def test_quarter_sphere(self):
        # oracle: direct evaluation (m + cos r eps4)/sin r at r = pi/4
        S = mb.sphere_to_vec(np.array([1.0, 0, 0, 0]), np.pi / 4)
        assert np.allclose(S, np.array([np.sqrt(2), 0, 0, 0, 1.0]), atol=1e-12)
        assert _sphere_vec_residual(S[None]) < 1e-12

    def test_round_trip_1000(self):
        m, r = random_spheres(1000)
        S = mb.sphere_to_vec(m, r)
        assert _sphere_vec_residual(S) < 1e-10
        m2, r2 = mb.vec_to_sphere(S)
        assert np.max(np.abs(m2 - m)) < 1e-12
        assert np.max(np.abs(r2 - r)) < 1e-12

    def test_cot_identity_by_construction(self):
        m, r = random_spheres(200)
        S = mb.sphere_to_vec(m, r)
        assert np.max(np.abs(S[:, 4] - 1.0 / np.tan(r))) < 1e-12

    def test_orientation_reversal(self):
        m, r = random_spheres(300)
        lhs = mb.sphere_to_vec(m, r)
        rhs = -mb.sphere_to_vec(-m, np.pi - r)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_validation(self):
        with pytest.raises(mt.GeometryError):
            _OrientedSphere(np.array([2.0, 0, 0, 0]), 1.0)
        with pytest.raises(mt.GeometryError):
            _OrientedSphere(np.array([1.0, 0, 0, 0]), np.pi)


class TestTangentSphere:
    def setup_method(self):
        self.s = srf.torus(np.pi / 4)
        U, V = self.s.domain.mesh()
        self.x = self.s.position(U, V)
        _, _, self.e3 = self.s.frame(U, V)

    def test_great_tangent_sphere(self):
        S = mb.tangent_sphere(self.x, self.e3, np.pi / 2)
        assert np.max(np.abs(S[..., :4] - self.e3)) < 1e-14
        assert np.max(np.abs(S[..., 4])) < 1e-14

    def test_incidence_and_norm(self):
        for r in (0.3, 1.2, 2.5):
            S = mb.tangent_sphere(self.x, self.e3, r)
            F = sf.embed_moebius(self.x, "sphere")
            assert np.max(np.abs(mt.inner(S, F, mt.R41))) < 1e-12
            assert _sphere_vec_residual(S) < 1e-12

    def test_curvature_sphere_is_singular(self):
        # cot r = a = -1 branch on torus(pi/4)
        r = np.arctan2(1.0, -1.0)
        S = mb.tangent_sphere(self.x, self.e3, r)
        out = _sphere_map_dupin_test(S, self.s.domain)
        assert out["dupin"] is True
        assert not out["degenerate"]

    def test_non_curvature_sphere_full_rank(self):
        S = mb.tangent_sphere(self.x, self.e3, np.pi / 2 + 0.3)
        out = _sphere_map_dupin_test(S, self.s.domain)
        assert out["dupin"] is False

    def test_constant_map_degenerate(self):
        S = np.broadcast_to(
            mb.sphere_to_vec(np.array([1.0, 0, 0, 0]), 1.0),
            self.x.shape[:-1] + (5,),
        ).copy()
        out = _sphere_map_dupin_test(S, self.s.domain)
        assert out["dupin"] is True
        assert out["degenerate"]


class TestCurvatureSphereParams:
    def test_torus_best_frame_roots(self):
        # second-order normalization puts the curvature spheres at r = +-1
        ff = mb.canonical_best_frame(srf.torus(np.pi / 4))
        mc = pullback_mc(ff)
        out = mb.curvature_sphere_params(mc, 5, 7)
        assert np.allclose(out["roots"], [-1.0, 1.0], atol=1e-10)

    def test_umbilic_double_root(self):
        rho = np.pi / 3
        dom = ParamDomain((-0.8, 0.8), (-0.8, 0.8), 16, 16, False, False)
        U, V = dom.mesh()

        def n(u, v):
            return np.stack(
                [np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v)], axis=-1
            )

        nn = n(U, V)
        x = np.concatenate([np.full(U.shape + (1,), np.cos(rho)), np.sin(rho) * nn], axis=-1)
        e3 = np.concatenate([np.full(U.shape + (1,), -np.sin(rho)), np.cos(rho) * nn], axis=-1)
        h = 1e-6
        dn_u = (n(U + h, V) - n(U - h, V)) / (2 * h)
        dn_v = (n(U, V + h) - n(U, V - h)) / (2 * h)
        pad = lambda w: np.concatenate([np.zeros(U.shape + (1,)), w], axis=-1)
        dx = (np.sin(rho) * pad(dn_u), np.sin(rho) * pad(dn_v))
        kappa = -1.0 / np.tan(rho)
        ff = _first_order_frame_umbilic(x, e3, kappa, dx, dom)
        assert ff.membership_residual() < 1e-8
        out = mb.curvature_sphere_params(pullback_mc(ff), 8, 8, double_root_tol=1e-6)
        assert out["double_root"] is True

    def test_cylinder_through_f0_roots(self):
        # first-order frame from the equivariant embedding of the E(3) frame;
        # oracle: euclidean curvatures {0, 1} divided by the lift scaling sqrt2
        s = srf.cylinder(1.0)
        e3frame = srf.euclidean_best_frame(s)
        nu, nv = e3frame.mats.shape[:2]
        mats = np.empty((nu, nv, 5, 5))
        for i in range(nu):
            for j in range(nv):
                mats[i, j] = sf.group_embed(e3frame.mats[i, j], "euclidean")
        ff = FrameField("moebius", mats, s.domain)
        mc = pullback_mc(ff)
        out = mb.curvature_sphere_params(mc, 4, 4)
        expected = sorted([0.0, 1.0 / np.sqrt(2.0)])
        assert np.allclose(out["roots"], expected, atol=1e-6)


class TestFrameOrderCheck:
    @pytest.mark.parametrize(
        "surface,C",
        [
            (lambda: srf.torus(np.pi / 4), 0.0),
            (lambda: srf.torus(np.pi / 6), 0.5),
            (lambda: srf.cylinder(1.0), 1.0),
            (lambda: srf.hyperboloid(0.5), 5.0 / 3.0),
        ],
    )
    def test_canonical_invariants(self, surface, C):
        ff = mb.canonical_best_frame(surface())
        coeffs, res = mb.frame_order_check(ff)
        assert abs(coeffs.C - C) < 1e-6
        assert res["C_spread"] < 1e-6
        assert max(res["q1"], res["q2"], res["p2"]) < 1e-6
        assert res["p1_plus_p3_plus_1"] < 1e-6
        assert res["dupin"]
        assert res["integrability_1"] < 1e-9
        assert res["integrability_2"] < 1e-9

    def test_torus_C_formula(self):
        for alpha in (0.3, 0.5, np.pi / 4):
            ff = mb.canonical_best_frame(srf.torus(alpha))
            coeffs, _ = mb.frame_order_check(ff)
            assert abs(coeffs.C - np.cos(2 * alpha)) < 1e-9

    @pytest.mark.parametrize("make,lo,hi,C_of", [
        (srf.torus, 0.1, np.pi / 4, lambda alpha: np.cos(2 * alpha)),
        (srf.cylinder, 0.5, 2.0, lambda R: 1.0),
        (srf.hyperboloid, 0.1, 0.9, lambda a: (1 + a * a) / (1 - a * a)),
    ], ids=["torus", "cylinder", "hyperboloid"])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(t=st.floats(0.0, 1.0))
    def test_lifted_frame_on_catalog(self, make, lo, hi, C_of, t):
        # one null-lift construction for all three space forms: C, the order
        # conditions, and the partials T omega of the carried structure-equation
        # form against the grid differential of the frame itself, where its
        # stencil is 4th order
        param = lo + t * (hi - lo)
        ff = mb.canonical_best_frame(make(param))
        coeffs, res = mb.frame_order_check(ff)
        assert abs(coeffs.C - C_of(param)) < 1e-9
        assert max(res["first_order"], res["second_order"], res["third_order"]) < 1e-9
        fd = grid_differential(ff.mats, ff.domain)[:, 2:-2, 2:-2]
        for exact, approx in zip(ff.mats @ ff.omega, fd):
            exact = exact[2:-2, 2:-2]
            assert np.max(np.abs(exact - approx)) < 1e-5 * np.max(np.abs(exact))

    @pytest.mark.parametrize("make", [srf.warped_torus, lambda: mb.orbit_surface(0.5)],
                             ids=["warped_torus", "orbit_surface"])
    def test_non_catalog_surface_rejected(self, make):
        with pytest.raises(mt.GeometryError, match="no canonical frame"):
            mb.canonical_best_frame(make())

    def test_embedded_so4_frame_fails_second_order(self):
        s = srf.torus(np.pi / 4)
        U, V = s.domain.mesh()
        x = s.position(U, V)
        e1, e2, e3 = s.frame(U, V)
        g = np.stack([x, e1, e2, e3], axis=-1)
        nu, nv = U.shape
        mats = np.empty((nu, nv, 5, 5))
        for i in range(nu):
            for j in range(nv):
                mats[i, j] = sf.group_embed(g[i, j], "sphere")
        ff = FrameField("moebius", mats, s.domain)
        with pytest.raises(mb.FrameOrderError, match="second order"):
            mb.frame_order_check(ff)

    @pytest.mark.parametrize("entry,order", [((3, 0), "first"), ((3, 1), "second"),
                                             ((0, 3), "third")])
    def test_nan_order_residual_rejected(self, entry, order, monkeypatch):
        # NaN > tol is False: a NaN residual must fail its order's gate
        ff = mb.canonical_best_frame(srf.torus(np.pi / 6))
        mc = pullback_mc(ff)
        omega = np.broadcast_to(mc.omega, (2,) + ff.mats.shape).copy()
        omega[(1, 4, 4) + entry] = np.nan
        monkeypatch.setattr(mb, "pullback_mc", lambda ff: replace(mc, omega=omega))
        with pytest.raises(mb.FrameOrderError, match=f"{order} order"):
            mb.frame_order_check(ff)

    def test_column_swap_fails_first_order(self):
        ff = mb.canonical_best_frame(srf.torus(np.pi / 4))
        swapped = ff.mats[..., :, [0, 3, 2, 1, 4]]
        ff2 = FrameField("moebius", swapped, ff.domain)
        with pytest.raises(mb.FrameOrderError, match="first order"):
            mb.frame_order_check(ff2)


def _hc_closed_form(C):
    """h_C's basis dual to (omega^1_0, omega^2_0), read off hc_constraints:
    X1 has omega^0_1 = C - 1/2, omega^3_1 = 1 and X2 has omega^0_2 = -(C + 1/2),
    omega^3_2 = -1, each with its so(4,1) partner entries (delta basis)."""
    X1, X2 = np.zeros((2, 5, 5))
    X1[1, 0] = X1[4, 1] = X1[3, 1] = 1.0
    X1[1, 3] = -1.0
    X1[0, 1] = X1[1, 4] = C - 0.5
    X2[2, 0] = X2[4, 2] = X2[2, 3] = 1.0
    X2[3, 2] = -1.0
    X2[0, 2] = X2[2, 4] = -(C + 0.5)
    return X1, X2


class TestHCBasis:
    @pytest.mark.parametrize("C", [0.0, 1.0, 1e3, 1e5, 1e8, -1e8])
    def test_closed_form_exact(self, C):
        for X, want in zip(mb.hc_basis(C).elements, _hc_closed_form(C)):
            assert np.array_equal(X, want)

    @settings(max_examples=60, deadline=None)
    @given(log_c=st.floats(-3.0, 6.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_dual_basis_property(self, log_c, sign):
        C = sign * 10.0 ** log_c
        sub = mb.hc_basis(C)
        scale = max(1.0, abs(C))
        pairing = np.array([[X[e] for e in ((1, 0), (2, 0))] for X in sub.elements])
        assert np.array_equal(pairing, np.eye(2))
        for X in sub.elements:
            assert mt.algebra_residual(X, mt.MOEB) == 0.0
            for con in mb.hc_constraints(C):
                assert abs(sum(co * X[e] for e, co in con.items())) <= 1e-15 * scale
        assert sub.closure_residual <= 1e-15 * scale ** 2

    @pytest.mark.filterwarnings("error")  # the overflow is an error, not a warning and nan
    def test_closure_overflow_rejected(self):
        assert mb.hc_basis(1e154).closure_residual == 0.0
        for C in (1e155, 1e300):
            with pytest.raises(mt.GeometryError, match="overflows"):
                mb.hc_basis(C)

    @pytest.mark.parametrize("C", [1e17, -1e300])
    def test_canonical_hyperboloid_rejects_huge_C(self, C):
        with pytest.raises(mt.GeometryError, match=r"\|C\|"):
            mb.canonical_surface_for_C(C)


class TestHCOrbits:
    def test_swap_conjugation_exact(self):
        W = mb.hc_swap_conjugation()
        assert mt.group_residual(W, mt.MOEB) < 1e-14
        for C in (0.3, 1.0, 2.0):
            Xp = mb.hc_basis(C).elements
            Xm = mb.hc_basis(-C).elements
            assert np.max(np.abs(W @ Xm[0] @ W - Xp[1])) < 1e-12
            assert np.max(np.abs(W @ Xm[1] @ W - Xp[0])) < 1e-12

    @pytest.mark.parametrize("C", [0.5, -0.7, 1.0, -1.0, 5.0 / 3.0, -2.5])
    def test_base_frame_is_owned_corner_frame(self, C):
        # read on a 3x3 grid, not the whole default grid, and not a view of it
        base = mb.canonical_base_frame(C)
        assert base.shape == (5, 5) and base.base is None
        want = mb.canonical_best_frame(mb.canonical_surface_for_C(C)).mats[0, 0]
        if C < 0:
            want = want @ mb.hc_swap_conjugation()
        assert np.max(np.abs(base - want)) <= 1e-15

    def test_cylinder_axis_distance(self):
        s = np.linspace(-1.0, 1.0, 17)
        orb = mb.hc_orbit(1.0, s, s)
        assert orb.regime == "cylinder"
        pts = orb.chart_points[orb.valid]
        d = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
        assert np.max(np.abs(d - 1.0)) < 1e-8

    def test_negative_C_same_surface(self):
        s = np.linspace(-1.0, 1.0, 17)
        orb = mb.hc_orbit(-1.0, s, s)
        pts = orb.chart_points[orb.valid]
        d = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)
        assert np.max(np.abs(d - 1.0)) < 1e-8

    @pytest.mark.parametrize("C", [0.0, 0.45, 1.0, -1.0, 1.6667, -1.6667, -2.5, 3.0])
    @pytest.mark.parametrize("nu, nv", [(9, 9), (16, 12), (33, 33), (64, 64)])
    def test_hc_orbit_matches_orbit_surface(self, C, nu, nv):
        # the two evaluators of the h_C orbit give the same points on the same grid
        dom = ParamDomain((-1.0, 1.0), (-1.0, 1.0), nu, nv, False, False)
        orb = mb.hc_orbit(C, *dom.grids())
        pos = mb.orbit_surface(C, dom).position(*dom.axes())
        assert orb.valid.all()
        assert np.max(np.abs(orb.chart_points - pos)) <= 1e-14 * np.max(np.abs(pos))

    def test_torus_regime_isoparametric(self):
        surf = mb.orbit_surface(0.0)
        d = srf.principal_curvatures(surf, *surf.domain.mesh())
        assert np.max(np.abs(d.a + 1.0)) < 1e-9
        assert np.max(np.abs(d.c - 1.0)) < 1e-9

    def test_hyperboloid_regime_product(self):
        surf = mb.orbit_surface(5.0 / 3.0)
        d = srf.principal_curvatures(surf, *surf.domain.mesh())
        assert np.max(np.abs(d.a * d.c - 1.0)) < 1e-9

    @pytest.mark.parametrize("C", [0.0, 0.5, -0.7, 1.0, -1.0, 5.0 / 3.0, 3.0, -2.5])
    def test_C_round_trip(self, C):
        # C -> h_C -> orbit surface -> principal curvatures -> |C| = |(a+c)/(c-a)|,
        # in every regime and for both signs
        surf = mb.orbit_surface(C)
        d = srf.principal_curvatures(surf, *surf.domain.mesh())
        a, c = np.median(d.a), np.median(d.c)
        assert abs(abs((a + c) / (c - a)) - abs(C)) <= 1e-9

    @pytest.mark.parametrize("C", [0.5, -0.7, 1.0, 5.0 / 3.0, -2.5])
    def test_orbit_surface_classified_at_analytic_tolerances(self, C):
        out = srf.classify(mb.orbit_surface(C, ParamDomain((-1.0, 1.0), (-1.0, 1.0),
                                                           8, 8, False, False)))
        assert out["report"]["iso_tol"] == 1e-6
        assert out["report"]["dupin_tol"] == srf.DUPIN_TOL == 1e-8
        assert out["isoparametric"] and out["dupin"]

    def test_points_stay_on_null_cone(self):
        s = np.linspace(-0.8, 0.8, 9)
        for C in (0.0, 0.5, 1.0, 5.0 / 3.0):
            orb = mb.hc_orbit(C, s, s)
            q = mt.change_basis(orb.points_delta, 5, "delta", "epsilon")
            assert np.max(np.abs(mt.inner(q, q, mt.R41))) < 1e-10

    def test_orbit_matches_integrated_distribution(self):
        # integrate the constant h_C-valued form from the same base frame and
        # compare projections pointwise with hc_orbit
        from dupin import frames as fr

        C = 1.0
        sub = mb.hc_basis(C)
        X1, X2 = sub.elements
        grid = np.linspace(-0.6, 0.6, 13)
        dom = ParamDomain((-0.6, 0.6), (-0.6, 0.6), 13, 13, False, False)
        form = fr.constant_form(X1, X2, dom, "moebius")
        corner = (
            mb.canonical_base_frame(C)
            @ mt.mat_exp(grid[0] * X1)
            @ mt.mat_exp(grid[0] * X2)
        )
        ff, rep = fr.integrate_mc(form, corner)
        orb = mb.hc_orbit(C, grid, grid)
        proj = mt.projective_normalize(ff.mats[..., :, 0])
        assert np.max(np.abs(proj - orb.points_delta)) < 1e-6
        assert rep["path_independence"] < 1e-10

    def test_unnormalized_frame_pencil_matches_curvatures(self):
        # embedded SO(4) frame is first order only; its pencil roots are the
        # principal curvatures scaled by the delta0-lift normalization sqrt2
        s = srf.torus(np.pi / 4)
        U, V = s.domain.mesh()
        x = s.position(U, V)
        e1, e2, e3 = s.frame(U, V)
        g = np.stack([x, e1, e2, e3], axis=-1)
        mats = np.empty(U.shape + (5, 5))
        for i in range(U.shape[0]):
            for j in range(U.shape[1]):
                mats[i, j] = sf.group_embed(g[i, j], "sphere")
        mc = pullback_mc(FrameField("moebius", mats, s.domain))
        out = mb.curvature_sphere_params(mc, 3, 5)
        a, c = s.constant_curvatures
        expected = sorted([np.sqrt(2) * a, np.sqrt(2) * c])
        assert np.allclose(out["roots"], expected, atol=1e-6)

    @pytest.mark.parametrize("C", [0.0, 0.5])
    def test_orbit_curvature_sphere_maps_dupin(self, C):
        surf = mb.orbit_surface(C, ParamDomain((-0.9, 0.9), (-0.9, 0.9), 24, 24, False, False))
        U, V = surf.domain.mesh()
        x = surf.position(U, V)
        n = srf.surface_normal(surf, U, V)
        d = srf.principal_curvatures(surf, U, V)
        for branch in (d.a, d.c):
            S = mb.tangent_sphere(x, n, np.arctan2(1.0, branch))
            out = _sphere_map_dupin_test(S, surf.domain, rank_tol=2e-3)
            assert out["dupin"], out
        generic = mb.tangent_sphere(x, n, np.arctan2(1.0, d.a + 0.7 * (d.c - d.a)))
        out = _sphere_map_dupin_test(generic, surf.domain, rank_tol=2e-3)
        assert not out["dupin"]
