"""Maurer-Cartan calculus: pull-backs, structure equations, congruence,
and integration of flat forms."""

import numpy as np
import pytest

from dupin import metrics as mt
from dupin import surfaces as srf
from dupin import frames as fr
from dupin.surfaces import ParamDomain

RNG = np.random.default_rng(99)


def so3_generator():
    X = np.zeros((3, 3))
    X[0, 1], X[1, 0] = -1.0, 1.0
    return X


def exp_field(X_u, X_v, domain, group):
    """Frame field exp(u X_u) exp(v X_v) over the domain (commuting case)."""
    u, v = domain.grids()
    Eu = np.stack([mt.mat_exp(uu * X_u) for uu in u])
    Ev = np.stack([mt.mat_exp(vv * X_v) for vv in v])
    mats = np.einsum("uij,vjk->uvik", Eu, Ev)
    return fr.FrameField(group, mats, domain)


def cylinder_distribution():
    """Generators of the Euclidean Dupin distribution at curvature a = 1:
    theta^3 = 0, omega^1_2 = 0, omega^3_1 = theta^1, omega^3_2 = 0."""
    X1 = np.zeros((4, 4))
    X1[1, 0] = 1.0        # theta^1 = 1
    X1[3, 1], X1[1, 3] = 1.0, -1.0
    X2 = np.zeros((4, 4))
    X2[2, 0] = 1.0        # theta^2 = 1
    return X1, X2


class TestGridGradient:
    def test_periodic_trig_fourth_order(self):
        errs = []
        for n in (32, 64):
            dom = ParamDomain(nu=n, nv=8)
            u = dom.grids()[0]
            f = np.sin(u)[:, None] * np.ones(8)
            df = fr.grid_gradient(f, dom.du, 0, True)
            errs.append(np.max(np.abs(df - np.cos(u)[:, None])))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 12.0  # ~16x for a 4th-order stencil

    def test_open_boundary(self):
        dom = ParamDomain((0, 1), (0, 1), 16, 16, False, False)
        u = dom.grids()[0]
        f = (u**2)[:, None] * np.ones(16)
        df = fr.grid_gradient(f, dom.du, 0, False)
        assert np.max(np.abs(df - 2 * u[:, None])) < 1e-10


class TestPullback:
    def test_constant_field_zero_form(self):
        dom = ParamDomain(nu=8, nv=8)
        mats = np.broadcast_to(np.eye(3), (8, 8, 3, 3)).copy()
        mc = fr.pullback_mc(fr.FrameField("so3", mats, dom))
        assert np.max(np.abs(mc.omega_u)) == 0.0
        assert np.max(np.abs(mc.omega_v)) == 0.0

    def test_exponential_field_recovers_generator(self):
        # oracle: e(u) = exp(uX) has omega_u identically X
        X = so3_generator()
        dom = ParamDomain(nu=64, nv=8)
        ff = exp_field(X, np.zeros((3, 3)), dom, "so3")
        mc = fr.pullback_mc(ff)
        assert np.max(np.abs(mc.omega_u - X)) < 1e-5
        assert np.max(np.abs(mc.omega_v)) < 1e-12

    def test_cylinder_best_frame_forms(self):
        mc = fr.pullback_mc(srf.euclidean_best_frame(srf.cylinder(1.0)))
        th3 = max(np.max(np.abs(mc.omega_u[..., 3, 0])), np.max(np.abs(mc.omega_v[..., 3, 0])))
        assert th3 < 1e-6
        # omega^3_2 = c theta^2 with c = 1
        r = mc.omega_v[..., 3, 2] - mc.omega_v[..., 2, 0]
        assert np.max(np.abs(r)) < 1e-4

    def test_orbit_frame_recovers_commuting_generators(self):
        # oracle: for [X, Y] = 0, M e^{uX} e^{vY} has omega = X du + Y dv exactly
        X, Y = np.zeros((2, 4, 4))
        X[1, 0], X[0, 1] = 1.0, -1.0
        Y[3, 2], Y[2, 3] = 1.0, -1.0
        M = mt.mat_exp(mt.algebra_project(RNG.normal(size=(4, 4)), mt.R4))
        dom = ParamDomain((-2.0, 3.0), (0.5, 4.0), 9, 7, False, False)
        mc = fr.pullback_mc(fr.orbit_frame("so4", M, X, Y, dom))
        assert np.max(np.abs(mc.omega - np.stack([X, Y])[:, None, None])) < 1e-12

    def test_membership_gate(self):
        dom = ParamDomain(nu=8, nv=8)
        mats = np.broadcast_to(np.eye(3) * 1.5, (8, 8, 3, 3)).copy()
        with pytest.raises(mt.MembershipError):
            fr.pullback_mc(fr.FrameField("so3", mats, dom))


class TestStructureResidual:
    def test_flat_pullback_small(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        mc = fr.pullback_mc(srf.euclidean_best_frame(fig1))
        assert fr.structure_residual(mc) < 1e-3

    def test_zero_form(self):
        dom = ParamDomain(nu=8, nv=8)
        mc = fr.constant_form(np.zeros((3, 3)), np.zeros((3, 3)), dom, "so3")
        assert fr.structure_residual(mc) == 0.0

    def test_non_flat_control(self):
        # omega_u = X, omega_v = Y constant with [X, Y] != 0 is not flat
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -1.0, 1.0
        dom = ParamDomain(nu=16, nv=16)
        mc = fr.constant_form(X, Y, dom, "so3")
        assert fr.structure_residual(mc) > 0.5


class TestCongruence:
    def test_left_translate_is_congruent(self):
        X = so3_generator()
        dom = ParamDomain(nu=24, nv=6)
        ff = exp_field(X, np.zeros((3, 3)), dom, "so3")
        g0 = mt.mat_exp(0.37 * so3_generator() + mt.algebra_project(RNG.normal(size=(3, 3)), mt.R3))
        out = fr.congruence_test(ff, ff.left_translated(g0))
        assert out["congruent"]
        assert np.max(np.abs(out["g"] - g0)) < 1e-10

    def test_reparametrized_not_congruent(self):
        dom = ParamDomain(nu=24, nv=6)
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -1.0, 1.0
        ff = exp_field(X, Y, dom, "so3")
        # u-dependent right multiplication breaks left-congruence
        u = dom.grids()[0]
        mats = ff.mats.copy()
        for i, uu in enumerate(u):
            mats[i] = mats[i] @ mt.mat_exp(0.3 * np.sin(uu) * Y)
        out = fr.congruence_test(ff, fr.FrameField("so3", mats, dom))
        assert not out["congruent"]

    def test_two_integrations_same_form(self):
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (0, 1.0), 48, 12, False, False)
        mc = fr.constant_form(X1, X2, dom, "e3")
        e1, _ = fr.integrate_mc(mc, np.eye(4))
        base2 = mt.e3_matrix([0.2, -0.4, 1.0], np.eye(3))
        e2, _ = fr.integrate_mc(mc, base2)
        out = fr.congruence_test(e1, e2)
        assert out["congruent"]
        assert out["deviation"] < 1e-8


class TestIntegrateMC:
    def test_constant_generator_exact(self):
        X = so3_generator()
        dom = ParamDomain((0, 2.0), (0, 1.0), 20, 6, False, False)
        mc = fr.constant_form(X, np.zeros((3, 3)), dom, "so3")
        ff, rep = fr.integrate_mc(mc, np.eye(3))
        u = dom.grids()[0]
        for i in (0, 7, 19):
            assert np.max(np.abs(ff.mats[i, 0] - mt.mat_exp(u[i] * X))) < 1e-12
        assert rep["path_independence"] < 1e-12

    def test_cylinder_distribution_orbit(self):
        # exponentiating the a = 1 distribution sweeps x^2 + (z-1)^2 = 1
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 64, 16, False, False)
        mc = fr.constant_form(X1, X2, dom, "e3")
        ff, _ = fr.integrate_mc(mc, np.eye(4))
        pts = ff.mats[..., 1:, 0]
        resid = pts[..., 0] ** 2 + (pts[..., 2] - 1.0) ** 2 - 1.0
        assert np.max(np.abs(resid)) < 1e-8

    def test_round_trip_up_to_translation(self):
        # constant-form field: integrate(pullback(e)) is congruent to e
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -0.4, 0.4
        dom = ParamDomain((0, 1.5), (0, 1.1), 24, 18, False, False)
        ff = exp_field(X, Y, dom, "so3")
        g0 = mt.mat_exp(mt.algebra_project(RNG.normal(size=(3, 3)), mt.R3))
        ff = ff.left_translated(g0)
        mc = fr.pullback_mc(ff)
        ff2, rep = fr.integrate_mc(mc, ff.mats[0, 0])
        out = fr.congruence_test(ff, ff2, tol=1e-4)
        assert out["congruent"]
        assert rep["reconstruction"] < 5e-3  # midpoint-integration h^2 budget

    def test_integrability_gate(self):
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -1.0, 1.0
        dom = ParamDomain(nu=16, nv=16)
        mc = fr.constant_form(X, Y, dom, "so3")
        with pytest.raises(fr.IntegrabilityError):
            fr.integrate_mc(mc, np.eye(3))

    def test_path_independence_shrinks_with_refinement(self):
        # non-commuting flat field: e(u, v) = exp(uX) exp(vY') with Y' = Ad-corrected
        X = so3_generator()
        Z = np.zeros((3, 3))
        Z[1, 2], Z[2, 1] = -1.0, 1.0
        devs = []
        for n in (12, 24, 48):
            dom = ParamDomain((0, 1.0), (0, 1.0), n, n, False, False)
            u, v = dom.grids()
            mats = np.einsum(
                "uij,vjk->uvik",
                np.stack([mt.mat_exp(uu * X) for uu in u]),
                np.stack([mt.mat_exp(vv * Z) for vv in v]),
            )
            mc = fr.pullback_mc(fr.FrameField("so3", mats, dom))
            _, rep = fr.integrate_mc(mc, np.eye(3))
            devs.append(rep["path_independence"])
        assert devs[1] < devs[0] / 1.5
        assert devs[2] < devs[1] / 1.5


class TestLeftInvariance:
    def test_pullback_left_invariant(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        ff = srf.euclidean_best_frame(fig1)
        g = mt.e3_matrix([1.0, -2.0, 0.5], mt.mat_exp(mt.algebra_project(RNG.normal(size=(3, 3)), mt.R3)))
        mc1 = fr.pullback_mc(ff)
        mc2 = fr.pullback_mc(ff.left_translated(g))
        assert np.max(np.abs(mc1.omega_u - mc2.omega_u)) < 1e-9
        assert np.max(np.abs(mc1.omega_v - mc2.omega_v)) < 1e-9

    def test_orbit_frame_omega(self):
        # the exact form of an orbit frame is the pulled-back one, and left
        # translation keeps it
        X, Y = mt.algebra_project(RNG.normal(size=(2, 6, 6)), mt.LIE)
        d = ParamDomain((-1.0, 1.0), (-1.0, 1.0), 6, 5, periodic_u=False, periodic_v=False)
        M = mt.mat_exp(mt.algebra_project(RNG.normal(size=(6, 6)), mt.LIE))
        ff = fr.orbit_frame("lie", M, X, Y, d)
        assert ff.omega.shape == (2, 1, 5, 6, 6)
        assert np.max(np.abs(fr.pullback_mc(ff).omega - ff.omega)) < 1e-12
        assert ff.left_translated(M).omega is ff.omega
