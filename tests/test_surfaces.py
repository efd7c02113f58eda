"""Surface geometry: catalog identities, fundamental forms, classification,
adapted frames, and the Dupin PDE residuals."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dupin import export as ex
from dupin import metrics as mt
from dupin import spaceforms as sf
from dupin import surfaces as srf
from dupin.moebius import orbit_surface
from dupin.surfaces import ParamDomain

from conftest import fd_jet, traced_peak


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


    def test_constraint_residual_samples_nothing_in_R3(self):
        def position(u, v):
            raise AssertionError("R^3 has no constraint to sample")

        dom = ParamDomain()
        s = srf.ParametricSurface("euclidean", position, dom, jet=partial(fd_jet, position, dom))
        assert s.constraint_residual() == 0.0


class TestProductFrames:
    """Each catalog surface's analytic frame, normal and constant curvatures
    against its own jet, across parameters and at random points."""

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.05, np.pi / 4), R=st.floats(0.2, 5.0), a=st.floats(0.05, 0.95),
           u=st.floats(-4.0, 4.0), v=st.floats(-2.0, 2.0))
    def test_frame_matches_jet(self, alpha, R, a, u, v):
        u, v = np.array([u]), np.array([v])
        for s in (srf.torus(alpha), srf.cylinder(R), srf.hyperboloid(a)):
            g, jet, e = s.metric, s.jet(u, v), s.frame(u, v)
            gram = [[mt.inner(p, q, g)[0] for q in e] for p in e]
            assert np.max(np.abs(np.subtract(gram, np.eye(3)))) <= 1e-12
            if s.form != "euclidean":
                assert max(abs(mt.inner(ek, jet.x, g)[0]) for ek in e) <= 1e-12
            span = np.stack([jet.xu[0], jet.xv[0]], axis=-1)
            for ek in e[:2]:
                coef = np.linalg.lstsq(span, ek[0], rcond=None)[0]
                assert np.max(np.abs(span @ coef - ek[0])) <= 1e-12
            assert np.max(np.abs(e[2] - s.normal(u, v))) <= 1e-12
            d = srf.principal_curvatures(s, u, v)
            assert np.max(np.abs(np.subtract((d.a[0], d.c[0]), s.constant_curvatures))) <= 1e-12
            mapped = d.dir_a[..., :1] * jet.xu + d.dir_a[..., 1:] * jet.xv
            assert min(np.max(np.abs(mapped - e[0])), np.max(np.abs(mapped + e[0]))) <= 1e-12


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
            s = srf.ParametricSurface(cat.form, pos, dom, jet=partial(fd_jet, pos, dom))
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


def forms(E, F, G, L, M, N):
    """One point's I and II as (1, 2, 2) arrays."""
    return np.array([[[E, F], [F, G]]]), np.array([[[L, M], [M, N]]])


class TestCurvatureKernel:
    """The closed-form shape operator against numpy on random forms: I
    symmetric positive definite (entries of order 1, |F| < 0.8 sqrt(EG)),
    II symmetric."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(E=st.floats(0.5, 2.0), G=st.floats(0.5, 2.0), rho=st.floats(-0.8, 0.8),
           L=st.floats(-2.0, 2.0), M=st.floats(-2.0, 2.0), N=st.floats(-2.0, 2.0))
    def test_matches_eigen_decomposition(self, E, G, rho, L, M, N):
        I, II = forms(E, rho * np.sqrt(E * G), G, L, M, N)
        W = np.linalg.solve(I[0], II[0])
        eig = np.sort(np.linalg.eigvals(W).real)
        scale = np.max(np.abs(eig))
        # a double root is only determined to sqrt(roundoff): test distinct ones
        assume(eig[1] - eig[0] > 1e-3 * scale)
        d = srf._curvatures(I, II)
        assert abs(d.a[0] - eig[0]) <= 1e-12 * scale
        assert abs(d.c[0] - eig[1]) <= 1e-12 * scale
        for kappa, dvec in ((d.a, d.dir_a), (d.c, d.dir_c)):
            assert abs(dvec[0] @ I[0] @ dvec[0] - 1.0) < 1e-12
            residual = (II[0] - kappa[0] * I[0]) @ dvec[0]
            assert np.max(np.abs(residual)) < 1e-12 * (1.0 + abs(kappa[0]))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(E=st.integers(1, 64), G=st.integers(1, 64), F=st.integers(-8, 8),
           lam=st.integers(-16, 16))
    def test_umbilic_takes_du_fallback(self, E, G, F, lam):
        # II = lam I in small integers: every step is exact, both rows of
        # W - lam vanish, and either direction is (1, 0) / sqrt(I00)
        assume(E * G - F * F > 0)
        I, II = forms(E, F, G, lam * E, lam * F, lam * G)
        d = srf._curvatures(I, II)
        assert d.a[0] == d.c[0] == lam and d.umbilic[0]
        for dvec in (d.dir_a, d.dir_c):
            assert np.array_equal(dvec[0], [1.0 / np.sqrt(E), 0.0])


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
        # a great 2-sphere in S^3 through -eps0 at (u, v) = (pi, 0): the unit
        # sphere patch with a zero fourth coordinate
        patch = srf.sphere_patch(1.0)
        pad = lambda t: np.concatenate([t, 0 * t[..., :1]], axis=-1)
        pos = lambda u, v: pad(patch.position(u, v))
        jet = lambda u, v: srf.Jet(*map(pad, patch.jet(u, v)))
        s = srf.ParametricSurface("sphere", pos, ParamDomain(), name="great_sphere", jet=jet)
        image = srf.pushforward(s, "stereo")
        u = np.array([0.3, np.pi, 2.0])
        v = np.array([0.1, 0.0, -0.4])
        with pytest.raises(sf.PoleError):
            image.jet(u, v)
        away = image.jet(u[[0, 2]], v[[0, 2]])
        assert all(np.all(np.isfinite(t)) for t in away)


def flow_curvature_derivative(s, U, V, d0, which, arc_step=1e-3):
    """Derivative of principal curvature ``which`` along its own curvature
    line, by a central difference between two short RK4 flows of the
    direction field; ``d0`` is that field on the grid (U, V), the flows'
    first stage and their orientation reference."""
    field = "dir_" + which

    def direction(p, ref):
        d = getattr(srf.principal_curvatures(s, p[:, 0], p[:, 1]), field)
        sgn = np.sign(np.sum(d * ref, axis=-1))
        return d * np.where(sgn == 0, 1.0, sgn)[:, None]

    d0 = d0.reshape(-1, 2)

    def rk4(p, h):
        k2 = direction(p + 0.5 * h * d0, d0)
        k3 = direction(p + 0.5 * h * k2, d0)
        k4 = direction(p + h * k3, d0)
        return p + (h / 6.0) * (d0 + 2 * k2 + 2 * k3 + k4)

    pts = np.stack([U.ravel(), V.ravel()], axis=-1)
    fp, fm = (getattr(srf.principal_curvatures(s, q[:, 0], q[:, 1]), which)
              for q in (rk4(pts, arc_step), rk4(pts, -arc_step)))
    return ((fp - fm) / (2 * arc_step)).reshape(U.shape)


def assert_dupin_with_margin(s, margin=100.0):
    """classify calls s Dupin at its tolerance, with both measured
    derivatives at least ``margin`` times below it."""
    out = srf.classify(s)
    rep = out["report"]
    assert rep["dupin_tol"] == srf.DUPIN_TOL
    assert out["dupin"] is True
    assert max(rep["dupin_derivative_a"], rep["dupin_derivative_c"]) * margin <= rep["dupin_tol"]


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

    def test_pointwise_derivatives_match_curvature_line_flows(self):
        # reference: the derivative of each curvature along its own curvature
        # line by a central difference between two short RK4 flows of the
        # direction field, as classify measured it before exact 3-jets
        s = srf.warped_torus()
        U, V = s.domain.mesh()
        data = srf.principal_curvatures(s, U, V)
        for which in ("a", "c"):
            flow = flow_curvature_derivative(s, U, V, getattr(data, "dir_" + which), which)
            pointwise = getattr(data, "along_" + which)
            assert np.max(np.abs(flow)) > 1e-2  # not Dupin: the fields measure something
            assert np.max(np.abs(pointwise - flow)) < 1e-6, which

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(0.01, np.pi / 4))
    def test_torus_stereo_dupin_margin(self, alpha):
        assert_dupin_with_margin(srf.pushforward(srf.torus(alpha), "stereo"))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(0.05, 0.95))
    def test_hyperboloid_hyp_stereo_dupin_margin(self, a):
        assert_dupin_with_margin(srf.pushforward(srf.hyperboloid(a), "hyp_stereo"))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(C=st.floats(-5.0, 5.0))
    def test_orbit_surface_dupin_margin(self, C):
        assert_dupin_with_margin(orbit_surface(C))

    def test_singular_point_error(self):
        # a degenerate "surface" collapsing one direction
        dom = ParamDomain(periodic_u=False, periodic_v=False, nu=8, nv=8)
        position = lambda u, v: np.stack(np.broadcast_arrays(u, u, 0 * v), axis=-1)
        s = srf.ParametricSurface("euclidean", position, dom,
                                  jet=partial(fd_jet, position, dom))
        with pytest.raises(srf.SingularPointError):
            srf.fundamental_forms(s, *dom.mesh())


# nu = 21 rows, so slabs of 4 rows do not divide the grid; u = 0 on row 10
# and v = 0 on column 8 of the square [-1, 1]^2
SLAB_GRID = dict(nu=21, nv=17)
SQUARE = ParamDomain((-1.0, 1.0), (-1.0, 1.0), periodic_u=False, periodic_v=False, **SLAB_GRID)


def graph_surface(position, name):
    """A surface over SQUARE from coordinate functions of (u, v),
    differentiated by central differences."""
    stacked = lambda u, v: np.stack(np.broadcast_arrays(*position(u, v)), axis=-1)
    return srf.ParametricSurface("euclidean", stacked, SQUARE, name,
                                 jet=partial(fd_jet, stacked, SQUARE))


def slab_surfaces():
    torus = srf.torus(np.pi / 5, ParamDomain(**SLAB_GRID))
    hyperboloid = srf.hyperboloid(0.6, ParamDomain(v_range=(-1.5, 1.5), periodic_v=False,
                                                   **SLAB_GRID))
    return {
        "torus": torus,
        "cylinder": srf.cylinder(1.3, ParamDomain(v_range=(-2.0, 2.0), periodic_v=False,
                                                  **SLAB_GRID)),
        "hyperboloid": hyperboloid,
        "torus_stereo": srf.pushforward(torus, "stereo"),
        "hyperboloid_hyp_stereo": srf.pushforward(hyperboloid, "hyp_stereo"),
        "sphere_patch": srf.sphere_patch(1.0, SQUARE),
        "warped_torus": srf.warped_torus(domain=ParamDomain(**SLAB_GRID)),
        "orbit_surface": orbit_surface(2.0, SQUARE),
        # umbilic at the origin only
        "paraboloid": graph_surface(lambda u, v: (u, v, u * u + v * v), "paraboloid"),
    }


def classify_in_slabs(s, monkeypatch, block):
    """classify(s) with slabs of at most ``block`` grid points, and the texts
    of the warnings it raised."""
    with monkeypatch.context() as mp:
        mp.setattr(ex, "BLOCK", block)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = srf.classify(s)
    return out, [str(w.message) for w in caught if w.category is UserWarning]


# slab sizes in grid points from the row length nv: one row; half a row,
# which classify rounds up to one row; four rows, which do not divide nu
BLOCKS = {"one_row": lambda nv: nv, "half_row": lambda nv: nv // 2,
          "non_divisor": lambda nv: 4 * nv}


class TestClassifySlabs:
    """classify evaluates the grid in slabs of whole rows; its dict, verdicts
    and warnings do not depend on the slab size."""

    @pytest.mark.parametrize("name", sorted(slab_surfaces()))
    @pytest.mark.parametrize("block", sorted(BLOCKS))
    def test_slab_invariance(self, name, block, monkeypatch):
        s = slab_surfaces()[name]
        nu, nv = s.domain.nu, s.domain.nv
        whole, caught = classify_in_slabs(s, monkeypatch, nu * nv)
        out, caught_in_slabs = classify_in_slabs(s, monkeypatch, BLOCKS[block](nv))
        # repr tells -0.0 from 0.0 and matches NaN, where == would not
        assert (repr(out), caught_in_slabs) == (repr(whole), caught)

    def test_umbilic_paths(self, monkeypatch):
        s = slab_surfaces()["sphere_patch"]
        out, caught = classify_in_slabs(s, monkeypatch, 4 * s.domain.nv)
        assert out["dupin"] is None and out["report"]["umbilic_count"] == 21 * 17
        assert caught == ["surface is umbilic on the whole grid; Dupin undefined"]
        s = slab_surfaces()["paraboloid"]
        out, caught = classify_in_slabs(s, monkeypatch, 4 * s.domain.nv)
        assert out["umbilic_points"] == [[10, 8]] and out["dupin"] is False
        # one tolerance set for every surface, finite-difference jets included
        assert out["report"]["iso_tol"] == 1e-6
        assert out["report"]["dupin_tol"] == srf.DUPIN_TOL
        assert caught == ["umbilic points found; excluded from the Dupin test"]

    def test_singular_point_raises_at_its_slab(self, monkeypatch):
        # x_u = 0 on row 10 (u = 0), in the third slab of 4 rows
        s = graph_surface(lambda u, v: (u * u, v, v * v), "fold")
        starts, real = [], srf.principal_curvatures

        def recorded(s, u, v):
            starts.append(u[0, 0])
            return real(s, u, v)

        messages = []
        for rows in (s.domain.nu, 4):
            with monkeypatch.context() as mp:
                mp.setattr(srf, "principal_curvatures", recorded)
                mp.setattr(ex, "BLOCK", rows * s.domain.nv)
                with pytest.raises(srf.SingularPointError) as err:
                    srf.classify(s)
            messages.append(str(err.value))
        assert messages == ["first fundamental form is rank deficient"] * 2
        assert starts == s.domain.grids()[0][[0, 0, 4, 8]].tolist()

    def test_traced_peak_256(self):
        # one slab's 3-jet is J = 8192 points x 10 fields x 3 coordinates x 8
        # bytes; the whole 256 x 256 grid at once peaked at about 20 J
        s = srf.pushforward(srf.torus(0.5, ParamDomain(nu=256, nv=256)), "stereo")
        peak, _ = traced_peak(srf.classify, s)
        assert peak <= 3.5 * ex.BLOCK * 10 * 3 * 8


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
        assert np.max(np.abs(mc.omega[0][..., 3, 0])) < 1e-3  # finite-difference budget
        assert np.max(np.abs(mc.omega[0][..., 3, 1] - d.a * mc.omega[0][..., 1, 0])) < 1e-4
        assert np.max(np.abs(mc.omega[1][..., 3, 2] - d.c * mc.omega[1][..., 2, 0])) < 1e-4


def _propagate_sign_loop(field):
    """Reference: flip vector signs along row 0 then down each column, one
    grid point at a time, against the neighbour already fixed."""
    out = field.copy()
    for i in range(1, out.shape[0]):
        if np.sum(out[i, 0] * out[i - 1, 0]) < 0:
            out[i, 0] = -out[i, 0]
    for j in range(1, out.shape[1]):
        flip = np.sum(out[:, j] * out[:, j - 1], axis=-1) < 0
        out[:, j][flip] = -out[:, j][flip]
    return out


class TestPropagateSign:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 12), nv=st.integers(1, 12),
           dim=st.sampled_from([3, 6]))
    def test_matches_loop_on_random_unit_fields(self, seed, nu, nv, dim):
        f = np.random.default_rng(seed).normal(size=(nu, nv, dim))
        f /= np.linalg.norm(f, axis=-1, keepdims=True)
        assert np.array_equal(srf.propagate_sign(f), _propagate_sign_loop(f))

    def test_matches_loop_on_figure1_principal_directions(self):
        fig1 = srf.pushforward(srf.torus(np.pi / 4), "stereo")
        U, V = fig1.domain.mesh()
        data = srf.principal_curvatures(fig1, U, V)
        jet = fig1.jet(U, V)
        for d in (data.dir_a, data.dir_c):
            e = d[..., 0:1] * jet.xu + d[..., 1:2] * jet.xv
            e /= np.linalg.norm(e, axis=-1, keepdims=True)
            # as computed, and with random signs for the routine to undo
            flips = np.random.default_rng(7).choice([-1.0, 1.0], size=e.shape[:2])
            for f in (e, flips[..., None] * e):
                assert np.array_equal(srf.propagate_sign(f), _propagate_sign_loop(f))
