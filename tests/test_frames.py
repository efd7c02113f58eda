"""Maurer-Cartan calculus: pull-backs, structure equations, congruence,
and integration of flat forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import metrics as mt
from dupin import surfaces as srf
from dupin import frames as fr
from dupin import liesphere as ls
from dupin import moebius as mb
from dupin import spaceforms as sf
from dupin.surfaces import ParamDomain

from conftest import left_translated, traced_peak

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


def random_field(group, domain):
    """Frame field of independent random group elements exp(xi), xi a projected
    Gaussian matrix; its grid derivatives are rough but finite."""
    G = mt.GROUPS[group]
    xi = G.algebra_project(RNG.normal(size=(domain.nu, domain.nv, G.n, G.n)))
    return fr.FrameField(group, mt.mat_exp(xi), domain)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_periodic_matches_roll_stencil(self, n, axis, dtype):
        """The wrap-padded periodic stencil equals the np.roll formula bit for bit."""
        rng = np.random.default_rng(n)
        shape = (n, 6, 3) if axis == 0 else (7, n, 3)
        f = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            f += 1j * rng.standard_normal(shape)
        h = 0.3
        roll = lambda k: np.roll(f, k, axis=axis)
        want = (8.0 * (roll(-1) - roll(1)) - (roll(-2) - roll(2))) / (12.0 * h)
        got = fr.grid_gradient(f, h, axis, True)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestPullback:
    def test_constant_field_zero_form(self):
        dom = ParamDomain(nu=8, nv=8)
        mats = np.broadcast_to(np.eye(3), (8, 8, 3, 3)).copy()
        mc = fr.pullback_mc(fr.FrameField("so3", mats, dom))
        assert np.max(np.abs(mc.omega[0])) == 0.0
        assert np.max(np.abs(mc.omega[1])) == 0.0

    def test_exponential_field_recovers_generator(self):
        # oracle: e(u) = exp(uX) has omega_u identically X
        X = so3_generator()
        dom = ParamDomain(nu=64, nv=8)
        ff = exp_field(X, np.zeros((3, 3)), dom, "so3")
        mc = fr.pullback_mc(ff)
        assert np.max(np.abs(mc.omega[0] - X)) < 1e-5
        assert np.max(np.abs(mc.omega[1])) < 1e-12

    def test_cylinder_best_frame_forms(self):
        mc = fr.pullback_mc(srf.euclidean_best_frame(srf.cylinder(1.0)))
        th3 = max(np.max(np.abs(mc.omega[0][..., 3, 0])), np.max(np.abs(mc.omega[1][..., 3, 0])))
        assert th3 < 1e-6
        # omega^3_2 = c theta^2 with c = 1
        r = mc.omega[1][..., 3, 2] - mc.omega[1][..., 2, 0]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in range(4)])
    def test_membership_gate_non_finite_e3(self, entry, bad):
        # a NaN or inf in any one entry of one frame fails the E(3) gate
        dom = ParamDomain(nu=4, nv=3)
        ff = fr.FrameField("e3", np.broadcast_to(np.eye(4), (4, 3, 4, 4)).copy(), dom)
        fr._check_membership(ff)
        ff.mats[2, 1][entry] = bad
        with pytest.raises(mt.MembershipError, match="leaves the group"):
            fr._check_membership(ff)
        with pytest.raises(mt.MembershipError):
            sf.group_embed(ff.mats[2, 1], "euclidean")

    @pytest.mark.parametrize("group", sorted(mt.GROUPS))
    def test_matches_linear_solve(self, group):
        # oracle: the general LAPACK path e^{-1} de = solve(e, de), projected
        dom = ParamDomain((0.0, 1.0), (0.0, 2.0), 7, 6, False, False)
        ff = random_field(group, dom)
        G = ff.handle()
        raw = np.linalg.solve(ff.mats, fr.grid_differential(ff.mats, dom))
        ref = G.algebra_project(raw)
        mc = fr.pullback_mc(ff)
        assert np.max(np.abs(mc.omega - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(mc.projection_noise - np.max(np.abs(raw - ref))) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make", [
        lambda: mb.canonical_best_frame(srf.torus(np.pi / 5)),
        lambda: mb.canonical_best_frame(srf.cylinder(1.3)),
        lambda: mb.canonical_best_frame(srf.hyperboloid(0.4)),
        ls.example_frame,
    ], ids=["torus", "cylinder", "hyperboloid", "example_frame"])
    def test_carried_form_matches_grid_path(self, make):
        # oracle: the same mats without the carried form go down the grid
        # path, e^{-1} times 4th-order grid derivatives (error ~ h^4 / 30)
        ff = make()
        assert ff.omega is not None
        exact = fr.pullback_mc(ff)
        grid = fr.pullback_mc(fr.FrameField(ff.group, ff.mats, ff.domain))
        assert exact.omega.shape == grid.omega.shape
        err = np.abs(exact.omega - grid.omega)[:, 2:-2, 2:-2]
        assert np.max(err) < 1e-5 * np.max(np.abs(exact.omega))
        assert exact.projection_noise < 1e-14

    def test_membership_gate_with_carried_form(self):
        # a carried form does not excuse mats that leave the group
        ff = ls.example_frame(ParamDomain(nu=8, nv=8))
        with pytest.raises(mt.MembershipError):
            fr.pullback_mc(fr.FrameField("lie", 1.5 * ff.mats, ff.domain, ff.omega))


class TestCoframeSolve:
    def test_matches_linear_solve(self):
        # oracle: the batched 2x2 solve of [theta1 theta2] (x, y) = psi
        theta1, theta2, psi = RNG.normal(size=(3, 2, 9, 7))
        A = np.moveaxis(np.stack([theta1, theta2], axis=-1), 0, -2)
        ref = np.linalg.solve(A, np.moveaxis(psi, 0, -1)[..., None])[..., 0]
        x, y = fr.coframe_solve(theta1, theta2, psi)
        assert np.max(np.abs(x - ref[..., 0])) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(y - ref[..., 1])) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(x * theta1 + y * theta2 - psi)) < 1e-12 * np.max(np.abs(ref))

    def test_degenerate_coframe_raises(self):
        # theta1 ^ theta2 = 0 at one grid point: one GeometryError line, no inf/NaN
        theta1, theta2, psi = RNG.normal(size=(3, 2, 9, 7))
        theta2[:, 4, 3] = 2.0 * theta1[:, 4, 3]
        assert fr.wedge(theta1, theta2)[4, 3] == 0.0
        with pytest.raises(mt.GeometryError, match="at 1 points") as err:
            fr.coframe_solve(theta1, theta2, psi)
        assert "\n" not in str(err.value)
        theta1[:, 4, 3] = theta2[:, 4, 3] = 0.0  # a vanishing coframe: 0/0
        with pytest.raises(mt.GeometryError, match="at 1 points"):
            fr.coframe_solve(theta1, theta2, psi)

    def test_non_finite_coefficient_raises(self):
        theta1, theta2, psi = RNG.normal(size=(3, 2, 9, 7))
        psi[1, 0, 0] = np.nan
        psi[0, 8, 6] = np.inf
        with pytest.raises(mt.GeometryError, match="at 2 points"):
            fr.coframe_solve(theta1, theta2, psi)


class TestPencil:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.floats(-10.0, 10.0))
    def test_determinant_identity(self, seed, r):
        # oracle: det(P + r Q) of the 2x2 matrices (component, direction)
        P, Q = np.random.default_rng(seed).normal(size=(2, 2, 5, 4, 2))
        c0, c1, c2 = fr.pencil(P, Q)
        ref = np.linalg.det(np.moveaxis(P + r * Q, 0, -1))
        assert np.max(np.abs(c0 + c1 * r + c2 * r * r - ref)) <= 1e-12 * (1 + r * r)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(r1=st.floats(-5.0, 5.0), gap=st.floats(0.1, 5.0), lead=st.floats(0.1, 10.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_roots_match_np_roots(self, r1, gap, lead, sign):
        c = sign * lead * np.array([1.0, -(2 * r1 + gap), r1 * (r1 + gap)])  # c2, c1, c0
        c /= np.max(np.abs(c))
        lo, hi, disc = fr.pencil_roots(c[2], c[1], c[0])
        ref = np.sort(np.roots(c).real)
        assert disc > 0
        assert abs(lo - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
        assert abs(hi - ref[1]) <= 1e-12 * max(1.0, abs(ref[1]))

    def test_small_root_without_cancellation(self):
        # roots 1e-9 and 1: (-c1 - sqrt(disc)) / (2 c2) would lose 7 digits
        lo, hi, _ = fr.pencil_roots(1e-9, -(1.0 + 1e-9), 1.0)
        assert abs(lo - 1e-9) <= 1e-15 * 1e-9 and hi == 1.0

    def test_degree_one_pencil(self):
        lo, hi, _ = fr.pencil_roots(np.array([0.5, 0.3]), np.array([-1.0, 1e-11]),
                                    np.array([0.0, 1e-11]))
        assert lo.tolist() == [0.5, 0.0] and np.all(np.isinf(hi))

    def test_complex_roots_negative_discriminant(self):
        # 1 + r^2 has roots +-i
        lo, hi, disc = fr.pencil_roots(np.array(1.0), np.array(0.0), np.array(1.0))
        assert disc == -4.0
        assert np.isfinite(lo) and np.isfinite(hi)


class TestStructureResidual:
    def test_flat_pullback_small(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        mc = fr.pullback_mc(srf.euclidean_best_frame(fig1))
        assert fr.structure_residual(mc) < 1e-3

    def test_zero_form(self):
        dom = ParamDomain(nu=8, nv=8)
        mc = fr.constant_form(np.zeros((3, 3)), np.zeros((3, 3)), dom, "so3")
        assert fr.structure_residual(mc) == 0.0

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("periodic", [(False, False), (True, False), (False, True)])
    def test_tiny_open_axis_rejected(self, n, periodic):
        dom = ParamDomain((0, 1), (0, 1), n, n, *periodic)
        mc = fr.constant_form(so3_generator(), np.zeros((3, 3)), dom, "so3")
        for run in (fr.structure_residual, lambda mc: fr.integrate_mc(mc, np.eye(3))):
            with pytest.raises(mt.GeometryError, match="open axis needs at least 5 samples") \
                    as err:
                run(mc)
            assert "\n" not in str(err.value)

    def test_tiny_periodic_grid(self):
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -1.0, 1.0
        dom = ParamDomain(nu=3, nv=3)
        mc = fr.constant_form(X, Y, dom, "so3")
        assert fr.structure_residual(mc) == np.max(np.abs(mt.bracket(X, Y)))

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
        out = fr.congruence_test(ff, left_translated(ff, g0))
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

    @pytest.mark.parametrize("group", ["so3", "e3", "lie"])
    def test_g_matches_linear_inverse(self, group):
        # oracle: e_tilde e^{-1} with the LAPACK inverse
        dom = ParamDomain(nu=6, nv=5)
        ff = random_field(group, dom)
        other = random_field(group, dom)
        out = fr.congruence_test(ff, other)
        ref = other.mats @ np.linalg.inv(ff.mats)
        assert np.max(np.abs(out["g"] - ref.mean(axis=(0, 1)))) <= 1e-12 * np.max(np.abs(ref))
        assert abs(out["deviation"] - np.max(np.abs(ref - ref.mean(axis=(0, 1))))) \
            <= 1e-12 * np.max(np.abs(ref))
        assert not out["congruent"]

    @pytest.mark.parametrize("which", [0, 1])
    def test_membership_gate(self, which):
        dom = ParamDomain(nu=6, nv=5)
        fields = [random_field("so3", dom), random_field("so3", dom)]
        off = fields[which].mats.copy()
        off[2, 3] *= 1.0 + 1e-6  # a scaled rotation: residual about 2e-6
        fields[which] = fr.FrameField("so3", off, dom)
        with pytest.raises(mt.MembershipError, match="leaves the group"):
            fr.congruence_test(*fields)

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
    def test_nan_form_rejected(self):
        # NaN > tol is False: a NaN in the form must fail the integrability
        # gate, not come back as a finite frame with NaN residuals
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 8, 8, False, False)
        omega = np.broadcast_to(np.stack([X1, X2])[:, None, None], (2, 8, 8, 4, 4)).copy()
        omega[0, 4, 4, 1, 0] = np.nan
        with pytest.raises(fr.IntegrabilityError, match="nan"):
            fr.integrate_mc(fr.MCForm("e3", omega, dom), np.eye(4))

    def test_cylinder_integration_solves_nothing(self, monkeypatch):
        # the midpoint steps of the 128x128 cylinder form have 1-norms 2pi/127
        # and 2/127, under theta_16: Taylor polynomials only, no Pade solve
        calls = []
        pade = mt._pade
        monkeypatch.setattr(mt, "_pade", lambda A: calls.append(len(A)) or pade(A))
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 128, 128, False, False)
        e, _ = fr.integrate_mc(fr.constant_form(X1, X2, dom, "e3"), np.eye(4))
        assert calls == []
        assert mt.e3_residual(e.mats) < 1e-12

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
        ff = round_trip_field(RNG)
        mc = fr.pullback_mc(ff)
        ff2, rep = fr.integrate_mc(mc, ff.mats[0, 0])
        assert fr.congruence_test(ff, ff2)["deviation"] < 1e-4
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


def round_trip_field(rng):
    """exp(uX) exp(vY) on a 24 x 18 open so(3) grid, left-translated by a
    random rotation."""
    X = so3_generator()
    Y = np.zeros((3, 3))
    Y[1, 2], Y[2, 1] = -0.4, 0.4
    dom = ParamDomain((0, 1.5), (0, 1.1), 24, 18, False, False)
    g0 = mt.mat_exp(mt.algebra_project(rng.normal(size=(3, 3)), mt.R3))
    return left_translated(exp_field(X, Y, dom, "so3"), g0)


def materialised(mc):
    """The same form with every coefficient copied out to the full grid."""
    dom = mc.domain
    shape = (2, dom.nu, dom.nv) + mc.omega.shape[-2:]
    return fr.MCForm(mc.group, np.broadcast_to(mc.omega, shape).copy(), dom)


def assert_same_integral(mc, base):
    full = materialised(mc)
    assert mc.omega.shape != full.omega.shape
    assert fr.structure_residual(mc) == fr.structure_residual(full)
    # both scans, rows-first and the columns-first path-independence reference
    for e, e_full in zip(fr._integrate(mc, base), fr._integrate(full, base)):
        assert np.array_equal(e, e_full)
        assert e.flags.c_contiguous
    ff, rep = fr.integrate_mc(mc, base)
    ff_full, rep_full = fr.integrate_mc(full, base)
    assert np.array_equal(ff.mats, ff_full.mats)
    assert rep == rep_full


class TestBroadcastForms:
    """A form keeps length 1 along a grid axis it does not vary along; every
    result equals that of the same form copied out to the full grid."""

    def test_constant_form_shape(self):
        X1, X2 = cylinder_distribution()
        mc = fr.constant_form(X1, X2, ParamDomain(nu=9, nv=7), "e3")
        assert mc.omega.shape == (2, 1, 1, 4, 4)

    @pytest.mark.parametrize("periodic", [(False, False), (True, False), (True, True)])
    def test_constant_form(self, periodic):
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 40, 12, *periodic)
        assert_same_integral(fr.constant_form(X1, X2, dom, "e3"),
                             mt.e3_matrix([0.2, -0.4, 1.0], np.eye(3)))

    @pytest.mark.parametrize("periodic", [(False, False), (True, False)])
    def test_orbit_frame_form(self, periodic):
        # non-commuting generators, so omega_u = e^{-vY} X e^{vY} varies along v
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -0.7, 0.7
        dom = ParamDomain((0, 2 * np.pi), (0, 1.0), 24, 18, *periodic)
        ff = fr.orbit_frame("so3", np.eye(3), X, Y, dom)
        assert ff.omega.shape == (2, 1, 18, 3, 3)
        assert_same_integral(fr.MCForm("so3", ff.omega, dom), ff.mats[0, 0])

    def test_non_flat_structure_residual(self):
        X = so3_generator()
        Y = np.zeros((3, 3))
        Y[1, 2], Y[2, 1] = -1.0, 1.0
        for periodic in ((False, False), (True, True)):
            mc = fr.constant_form(X, Y, ParamDomain((0, 1), (0, 1), 16, 9, *periodic), "so3")
            assert fr.structure_residual(mc) == fr.structure_residual(materialised(mc)) > 0.5

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(nu=st.integers(5, 40), nv=st.integers(5, 40), periodic=st.tuples(st.booleans(),
           st.booleans()), angles=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_commuting_generators_property(self, nu, nv, periodic, angles, seed):
        # two rotations in the same pair of orthogonal planes of a random frame R commute
        def planes(a, b):
            Z = np.zeros((4, 4))
            Z[1, 0], Z[0, 1], Z[3, 2], Z[2, 3] = a, -a, b, -b
            return R @ Z @ R.T
        R = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
        X, Y = planes(*angles[:2]), planes(*angles[2:])
        dom = ParamDomain((0, 1.0), (0, 1.0), nu, nv, *periodic)
        assert_same_integral(fr.constant_form(X, Y, dom, "so4"), R)

    def test_one_matrix_per_exponential(self, monkeypatch):
        stacks = []
        real = fr.mat_exp
        monkeypatch.setattr(fr, "mat_exp", lambda X: stacks.append(np.shape(X)) or real(X))
        X1, X2 = cylinder_distribution()
        dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 64, 48, False, False)
        fr.integrate_mc(fr.constant_form(X1, X2, dom, "e3"), np.eye(4))
        assert stacks == [(1, 1, 4, 4)] * 2


class TestLeftInvariance:
    def test_pullback_left_invariant(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        ff = srf.euclidean_best_frame(fig1)
        g = mt.e3_matrix([1.0, -2.0, 0.5], mt.mat_exp(mt.algebra_project(RNG.normal(size=(3, 3)), mt.R3)))
        mc1 = fr.pullback_mc(ff)
        mc2 = fr.pullback_mc(left_translated(ff, g))
        assert np.max(np.abs(mc1.omega[0] - mc2.omega[0])) < 1e-9
        assert np.max(np.abs(mc1.omega[1] - mc2.omega[1])) < 1e-9

    def test_orbit_frame_omega(self):
        # the exact form of an orbit frame is the pulled-back one, and left
        # translation keeps it
        X, Y = mt.algebra_project(RNG.normal(size=(2, 6, 6)), mt.LIE)
        d = ParamDomain((-1.0, 1.0), (-1.0, 1.0), 6, 5, periodic_u=False, periodic_v=False)
        M = mt.mat_exp(mt.algebra_project(RNG.normal(size=(6, 6)), mt.LIE))
        ff = fr.orbit_frame("lie", M, X, Y, d)
        assert ff.omega.shape == (2, 1, 5, 6, 6)
        assert np.max(np.abs(fr.pullback_mc(ff).omega - ff.omega)) < 1e-12
        assert left_translated(ff, M).omega is ff.omega


@pytest.fixture(scope="module", params=[False, True], ids=["open", "periodic_u"])
def cylinder128(request):
    """The 128 x 128 e(3) cylinder form, a base frame, and its integral."""
    X1, X2 = cylinder_distribution()
    dom = ParamDomain((0, 2 * np.pi), (-1.0, 1.0), 128, 128, request.param, False)
    mc = fr.constant_form(X1, X2, dom, "e3")
    base = mt.e3_matrix([0.2, -0.4, 1.0], mt.mat_exp(0.7 * so3_generator()))
    return mc, base, fr.integrate_mc(mc, base)[0]


def reference_gradient(f, h, axis, periodic):
    """grid_gradient as whole-array expressions, the periodic stencil on a
    wrap-padded copy."""
    n = f.shape[axis]
    sl = lambda i: tuple(slice(None) if k != axis else i for k in range(f.ndim))
    central = lambda g: (8.0 * (g[sl(slice(3, -1))] - g[sl(slice(1, -3))])
                         - (g[sl(slice(4, None))] - g[sl(slice(None, -4))])) / (12.0 * h)
    if periodic:
        return central(np.concatenate([f[sl(slice(-2, None))], f, f[sl(slice(None, 2))]], axis=axis))
    out = np.empty_like(f)
    out[sl(slice(2, -2))] = central(f)
    out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * h)
    out[sl(1)] = (f[sl(2)] - f[sl(0)]) / (2 * h)
    out[sl(n - 2)] = (f[sl(n - 1)] - f[sl(n - 3)]) / (2 * h)
    out[sl(n - 1)] = (3 * f[sl(n - 1)] - 4 * f[sl(n - 2)] + f[sl(n - 3)]) / (2 * h)
    return out


def reference_pullback(ff):
    """(omega, projection noise) from the full form e^{-1} de on the grid."""
    dom, G = ff.domain, ff.handle()
    raw = G.inverse(ff.mats) @ np.stack([reference_gradient(ff.mats, dom.du, 0, dom.periodic_u),
                                         reference_gradient(ff.mats, dom.dv, 1, dom.periodic_v)])
    p = G.algebra_project(raw)
    return p, float(np.max(np.abs(raw - p)))


def reference_congruence(e, e_tilde):
    g = e_tilde.mats @ e.handle().inverse(e.mats)
    g_mean = np.mean(g, axis=(0, 1))
    return g_mean, float(np.max(np.abs(g - g_mean)))


class TestAgainstFullFormFormulas:
    """The axis-at-a-time and in-place computations equal the whole-array
    formulas bit for bit."""

    def assert_integrate_report(self, mc, base):
        ff, rep = fr.integrate_mc(mc, base)
        e_rows, e_cols = fr._integrate(mc, base)
        assert np.array_equal(ff.mats, e_rows)
        assert rep["path_independence"] == np.max(np.abs(e_rows - e_cols))
        assert rep["reconstruction"] == np.max(np.abs(fr.pullback_mc(ff).omega - mc.omega))

    def test_integrate_report_cylinder(self, cylinder128):
        mc, base, _ = cylinder128
        self.assert_integrate_report(mc, base)

    def test_integrate_report_round_trip(self):
        ff = round_trip_field(np.random.default_rng(3))
        self.assert_integrate_report(fr.pullback_mc(ff), ff.mats[0, 0])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_grid_gradient_cylinder(self, cylinder128, axis):
        _, _, ff = cylinder128
        dom = ff.domain
        h, periodic = ((dom.du, dom.periodic_u), (dom.dv, dom.periodic_v))[axis]
        assert np.array_equal(fr.grid_gradient(ff.mats, h, axis, periodic),
                              reference_gradient(ff.mats, h, axis, periodic))

    @pytest.mark.parametrize("n", [3, 4, 5, 9])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_grid_gradient_open(self, n, axis):
        # periodic axes: TestGridGradient.test_periodic_matches_roll_stencil
        f = np.random.default_rng(n).standard_normal((n, 7, 2) if axis == 0 else (6, n, 2))
        assert np.array_equal(fr.grid_gradient(f, 0.3, axis, False),
                              reference_gradient(f, 0.3, axis, False))

    def test_pullback_cylinder(self, cylinder128):
        _, _, ff = cylinder128
        mc = fr.pullback_mc(ff)
        omega, noise = reference_pullback(ff)
        assert np.array_equal(mc.omega, omega) and mc.projection_noise == noise

    @pytest.mark.parametrize("group", sorted(mt.GROUPS))
    def test_pullback_random(self, group):
        dom = ParamDomain((0.0, 1.0), (0.0, 2.0), 7, 6, True, False)
        ff = random_field(group, dom)
        mc = fr.pullback_mc(ff)
        omega, noise = reference_pullback(ff)
        assert np.array_equal(mc.omega, omega) and mc.projection_noise == noise

    def test_congruence_cylinder(self, cylinder128):
        mc, _, e = cylinder128
        e_id, _ = fr.integrate_mc(mc, np.eye(4))
        out = fr.congruence_test(e_id, e)
        g, dev = reference_congruence(e_id, e)
        assert np.array_equal(out["g"], g) and out["deviation"] == dev

    @pytest.mark.parametrize("group", ["so3", "e3", "lie"])
    def test_congruence_random(self, group):
        dom = ParamDomain(nu=6, nv=5)
        e, e_tilde = random_field(group, dom), random_field(group, dom)
        out = fr.congruence_test(e, e_tilde)
        g, dev = reference_congruence(e, e_tilde)
        assert np.array_equal(out["g"], g) and out["deviation"] == dev


# numpy's iteration buffers on strided views (8192 elements an operand) and
# Python objects: a fixed allowance that does not grow with the grid
SLACK = 2 ** 17


class TestFrameMemory:
    """At 128 x 128 the frame calculus holds a few arrays the size F of one
    E(3) frame field at once: one grid axis's derivative, product and
    projection, never the whole form's."""

    def test_integrate_mc(self, cylinder128):
        mc, base, ff = cylinder128
        peak, _ = traced_peak(fr.integrate_mc, mc, base)
        assert peak <= 5 * ff.mats.nbytes + SLACK

    def test_pullback_mc(self, cylinder128):
        _, _, ff = cylinder128
        peak, _ = traced_peak(fr.pullback_mc, ff)
        assert peak <= 5.5 * ff.mats.nbytes + SLACK

    def test_congruence_test(self, cylinder128):
        _, _, ff = cylinder128
        other = left_translated(ff, mt.e3_matrix([1.0, 2.0, 3.0], np.eye(3)))
        peak, _ = traced_peak(fr.congruence_test, ff, other)
        assert peak <= 2 * ff.mats.nbytes + SLACK

    def test_structure_residual(self, cylinder128):
        # the constant form's residual keeps length 1 along both grid axes
        mc, _, _ = cylinder128
        peak, _ = traced_peak(fr.structure_residual, mc)
        assert peak <= SLACK

    @pytest.mark.parametrize("axis", [0, 1])
    def test_grid_gradient(self, cylinder128, axis):
        _, _, ff = cylinder128
        dom = ff.domain
        h, periodic = ((dom.du, dom.periodic_u), (dom.dv, dom.periodic_v))[axis]
        peak, _ = traced_peak(fr.grid_gradient, ff.mats, h, axis, periodic)
        assert peak <= 2 * ff.mats.nbytes + SLACK
