"""Surface geometry: catalog identities, fundamental forms, classification,
adapted frames, and the Dupin PDE residuals."""

import numpy as np
import pytest

from dupin import spaceforms as sf
from dupin import surfaces as srf
from dupin.surfaces import ParamDomain


class TestCatalog:
    def test_torus_on_sphere(self):
        s = srf.torus(np.pi / 4)
        assert s.constraint_residual() < 1e-12

    def test_torus_parameter_range(self):
        with pytest.raises(srf.GeometryError):
            srf.torus(0.0)
        with pytest.raises(srf.GeometryError):
            srf.torus(1.2)

    def test_torus_curvature_values(self):
        for alpha in (np.pi / 4, np.pi / 6):
            s = srf.torus(alpha)
            d = srf.principal_curvatures(s, np.array([0.4]), np.array([2.2]))
            assert abs(d.a[0] + np.tan(alpha)) < 1e-12
            assert abs(d.c[0] - 1 / np.tan(alpha)) < 1e-12

    def test_hyperboloid_membership_and_curvatures(self):
        s = srf.hyperboloid(0.5)
        assert s.constraint_residual() < 1e-10
        d = srf.principal_curvatures(s, *s.domain.mesh())
        assert np.max(np.abs(d.a - 0.5)) < 1e-10
        assert np.max(np.abs(d.c - 2.0)) < 1e-10

    def test_hyperboloid_parameter_range(self):
        with pytest.raises(srf.GeometryError):
            srf.hyperboloid(1.0)

    def test_cylinder_curvatures(self):
        for R in (1.0, 2.5):
            s = srf.cylinder(R)
            d = srf.principal_curvatures(s, *s.domain.mesh())
            assert np.max(np.abs(d.a)) < 1e-12
            assert np.max(np.abs(d.c - 1.0 / R)) < 1e-12

    def test_cylinder_fundamental_forms(self):
        # oracle: closed-form differentiation gives I = diag(R^2, 1), II = diag(R, 0)
        R = 1.7
        s = srf.cylinder(R)
        I, II = srf.fundamental_forms(s, np.array([0.3]), np.array([0.9]))
        assert np.allclose(I[0], np.diag([R * R, 1.0]), atol=1e-12)
        assert np.allclose(II[0], np.diag([R, 0.0]), atol=1e-12)


class TestComputedNormal:
    @pytest.mark.parametrize("make", [lambda: srf.torus(np.pi / 6), lambda: srf.hyperboloid(0.5)])
    def test_matches_catalog_normal_in_both_parametrizations(self, make):
        # without an analytic normal the cofactor normal changes sign with the
        # parametrization; the orientation restores the catalog's (a + c > 0)
        cat = make()
        d = cat.domain
        U, V = d.mesh()
        swapped = ParamDomain(d.v_range, d.u_range, d.nv, d.nu, d.periodic_v, d.periodic_u)
        orientations = set()
        for pos, dom, args in [(cat.position, d, (U, V)),
                               (lambda u, v: cat.position(v, u), swapped, (V, U))]:
            s = srf.ParametricSurface(cat.form, pos, dom)
            n = srf.surface_normal(s, *args)
            assert np.max(np.abs(n - cat.normal(U, V))) < 1e-6
            orientations.add(s.orientation)
        assert orientations == {1.0, -1.0}


class TestCurvatureIdentities:
    def test_torus_product_minus_one(self):
        for alpha in np.linspace(0.04, np.pi / 4, 20):
            s = srf.torus(alpha)
            d = srf.principal_curvatures(s, *s.domain.mesh())
            assert np.max(np.abs(d.a * d.c + 1.0)) < 1e-8

    def test_hyperboloid_product_plus_one(self):
        for a in np.linspace(0.05, 0.95, 20):
            s = srf.hyperboloid(a)
            d = srf.principal_curvatures(s, *s.domain.mesh())
            assert np.max(np.abs(d.a * d.c - 1.0)) < 1e-8

    def test_cylinder_product_zero(self):
        for R in np.linspace(0.3, 4.0, 10):
            s = srf.cylinder(R)
            d = srf.principal_curvatures(s, *s.domain.mesh())
            assert np.max(np.abs(d.a * d.c)) < 1e-10
            assert np.max(np.abs(d.c - 1.0 / R)) < 1e-8

    def test_directions_I_orthogonal(self):
        s = srf.torus(np.pi / 6)
        U, V = s.domain.mesh()
        I, _ = srf.fundamental_forms(s, U, V)
        d = srf.principal_curvatures(s, U, V)
        cross = np.einsum("...i,...ij,...j->...", d.dir_a, I, d.dir_c)
        assert np.max(np.abs(cross)) < 1e-8


class TestUmbilic:
    def test_round_sphere_umbilic(self):
        s = srf.sphere_patch(1.0)
        I, II = srf.fundamental_forms(s, np.array([0.1]), np.array([0.2]))
        # total umbilicity: II proportional to I with the unit-curvature factor
        assert np.allclose(II, I, atol=1e-6)
        with pytest.warns(UserWarning):
            out = srf.classify(s)
        assert out["dupin"] is None

    def test_umbilic_blocks_frame(self):
        with pytest.raises(srf.UmbilicError):
            srf.euclidean_best_frame(srf.sphere_patch(2.0))


class TestPushforward:
    def test_identity(self):
        s = srf.cylinder(1.0)
        assert srf.pushforward(s, "identity") is s

    def test_stereo_image_classification(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        out = srf.classify(fig1)
        assert out["isoparametric"] is False
        assert out["dupin"] is True

    def test_hyp_stereo_image_classification(self):
        fig2 = srf.pushforward(srf.hyperboloid(0.5), "hyp_stereo")
        out = srf.classify(fig2)
        assert out["isoparametric"] is False
        assert out["dupin"] is True

    def test_chain_rule_against_finite_differences(self):
        for s, (u0, v0) in (
            (srf.pushforward(srf.torus(0.6), "stereo"), (0.7, 1.9)),
            (srf.pushforward(srf.hyperboloid(0.5), "hyp_stereo"), (0.7, 0.4)),
        ):
            u = np.array([u0])
            v = np.array([v0])
            p = s.position
            jet = s.jet(u, v)
            h = 1e-6
            assert np.array_equal(jet.x, p(u, v))
            fd_u = (p(u + h, v) - p(u - h, v)) / (2 * h)
            fd_v = (p(u, v + h) - p(u, v - h)) / (2 * h)
            assert np.max(np.abs(jet.xu - fd_u)) < 1e-8
            assert np.max(np.abs(jet.xv - fd_v)) < 1e-8
            fd_uu = (p(u + h, v) - 2 * p(u, v) + p(u - h, v)) / h**2
            fd_vv = (p(u, v + h) - 2 * p(u, v) + p(u, v - h)) / h**2
            fd_uv = (p(u + h, v + h) - p(u + h, v - h) - p(u - h, v + h)
                     + p(u - h, v - h)) / (4 * h * h)
            assert np.max(np.abs(jet.xuu - fd_uu)) < 1e-3
            assert np.max(np.abs(jet.xuv - fd_uv)) < 1e-3
            assert np.max(np.abs(jet.xvv - fd_vv)) < 1e-3

    @pytest.mark.filterwarnings("error")  # the check comes before any division
    def test_jet_through_the_pole_raises(self):
        # a great 2-sphere in S^3 through -eps0 at (u, v) = (pi, 0)
        stack = srf._stack
        pos = lambda u, v: stack(np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v), 0 * u)
        jet = lambda u, v: srf.Jet(
            pos(u, v),
            stack(-np.sin(u) * np.cos(v), np.cos(u) * np.cos(v), 0 * v, 0 * u),
            stack(-np.cos(u) * np.sin(v), -np.sin(u) * np.sin(v), np.cos(v), 0 * u),
            stack(-np.cos(u) * np.cos(v), -np.sin(u) * np.cos(v), 0 * v, 0 * u),
            stack(np.sin(u) * np.sin(v), -np.cos(u) * np.sin(v), 0 * v, 0 * u),
            stack(-np.cos(u) * np.cos(v), -np.sin(u) * np.cos(v), -np.sin(v), 0 * u),
        )
        s = srf.ParametricSurface("sphere", pos, ParamDomain(), name="great_sphere", jet=jet)
        image = srf.pushforward(s, "stereo")
        assert image.analytic
        u = np.array([0.3, np.pi, 2.0])
        v = np.array([0.1, 0.0, -0.4])
        with pytest.raises(sf.PoleError):
            image.jet(u, v)
        away = image.jet(u[[0, 2]], v[[0, 2]])
        assert all(np.all(np.isfinite(t)) for t in away)


class TestClassify:
    def test_torus_isoparametric_dupin(self):
        out = srf.classify(srf.torus(np.pi / 4))
        assert out["isoparametric"] is True
        assert out["dupin"] is True

    def test_warped_torus_not_dupin(self):
        out = srf.classify(srf.warped_torus())
        assert out["isoparametric"] is False
        assert out["dupin"] is False

    def test_reparametrization_invariance(self):
        base = srf.torus(np.pi / 5)
        shifted = srf.torus(np.pi / 5, base.domain.shifted(0.31, 0.77))
        out1 = srf.classify(base)
        out2 = srf.classify(shifted)
        assert out1["isoparametric"] == out2["isoparametric"]
        assert out1["dupin"] == out2["dupin"]

    def test_singular_point_error(self):
        # a degenerate "surface" collapsing one direction
        dom = ParamDomain(periodic_u=False, periodic_v=False, nu=8, nv=8)
        s = srf.ParametricSurface(
            "euclidean",
            lambda u, v: np.stack(np.broadcast_arrays(u, u, 0 * v), axis=-1),
            dom,
        )
        with pytest.raises(srf.SingularPointError):
            srf.fundamental_forms(s, *dom.mesh())


class TestBestFrameAndPDE:
    def test_cylinder_frame_structure(self):
        R = 1.0
        s = srf.cylinder(R)
        ff = srf.euclidean_best_frame(s)
        assert ff.membership_residual() < 1e-12
        # e1 along the ruling (curvature 0 <= 1/R), e2 along the circle
        e1 = ff.mats[3, 4, 1:, 1]
        assert abs(abs(e1[2]) - 1.0) < 1e-12

    def test_cylinder_pde_residuals(self):
        res = srf.dupin_pde_residual(srf.euclidean_best_frame(srf.cylinder(1.0)))
        assert res["eq_a"] < 1e-6
        assert res["eq_c"] < 1e-6
        assert res["eq_gauss"] < 1e-6
        assert res["theta3"] < 1e-6

    def test_figure1_pde_residuals(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4, ParamDomain(nu=96, nv=96)), "stereo")
        res = srf.dupin_pde_residual(srf.euclidean_best_frame(fig1))
        assert res["eq_a"] < 1e-3
        assert res["eq_c"] < 1e-3
        assert res["eq_gauss"] < 1e-3

    def test_warped_torus_pde_residual_large(self):
        res = srf.dupin_pde_residual(srf.euclidean_best_frame(srf.warped_torus()))
        assert max(res["eq_a"], res["eq_c"]) > 1e-2

    def test_figure1_frame_has_no_umbilics(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        ff = srf.euclidean_best_frame(fig1)  # raises on umbilics
        assert ff.mats.shape[:2] == (fig1.domain.nu, fig1.domain.nv)

    def test_frame_form_relations(self):
        # theta^3 = 0, omega^3_1 = a theta^1, omega^3_2 = c theta^2
        from dupin.frames import pullback_mc

        s = srf.pushforward(srf.torus(np.pi / 4, ParamDomain(nu=96, nv=96)), "stereo")
        mc = pullback_mc(srf.euclidean_best_frame(s))
        U, V = s.domain.mesh()
        d = srf.principal_curvatures(s, U, V)
        assert np.max(np.abs(mc.omega_u[..., 3, 0])) < 1e-3  # finite-difference budget
        assert np.max(np.abs(mc.omega_u[..., 3, 1] - d.a * mc.omega_u[..., 1, 0])) < 1e-4
        assert np.max(np.abs(mc.omega_v[..., 3, 2] - d.c * mc.omega_v[..., 2, 0])) < 1e-4
