"""Space forms: chart maps, conformality, null lifts, equivariant embeddings."""

import numpy as np
import pytest

from dupin import metrics as mt
from dupin import spaceforms as sf

RNG = np.random.default_rng(7)


def random_sphere_points(n):
    x = RNG.normal(size=(n, 4))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def random_ball_points(n, rmax=0.95):
    y = RNG.normal(size=(n, 3))
    y = y / np.linalg.norm(y, axis=-1, keepdims=True)
    return y * (rmax * RNG.random((n, 1)) ** (1 / 3))


def random_hyperbolic_points(n):
    return sf.hyp_stereo_inv(random_ball_points(n))


FORMS = ["sphere", "euclidean", "hyperbolic"]


def random_points(form, n, rmax=0.95):
    """n random points of a space form; R^3 points lie in the ball of radius rmax."""
    if form == "sphere":
        return random_sphere_points(n)
    return random_ball_points(n, rmax) if form == "euclidean" else random_hyperbolic_points(n)


def _check_sphere_point(x, tol=1e-10):
    x = np.asarray(x, dtype=float)
    r = np.max(np.abs(np.sum(x * x, axis=-1) - 1.0))
    if r > tol:
        raise sf.DomainError(f"point not on S^3 (residual {r:.3e})")
    return x


def _check_hyperbolic_point(x, tol=1e-10):
    x = np.asarray(x, dtype=float)
    r = np.max(np.abs(mt.inner(x, x, mt.R31) + 1.0))
    if r > tol or np.min(x[..., 3]) < 1.0 - tol:
        raise sf.DomainError("point not on the upper hyperboloid sheet")
    return x


def random_so4():
    q, _ = np.linalg.qr(RNG.normal(size=(4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_so31():
    X = mt.algebra_project(RNG.normal(size=(4, 4)), mt.R31)
    return mt.mat_exp(X)


def random_e3():
    q, _ = np.linalg.qr(RNG.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return mt.e3_matrix(RNG.normal(size=3), q)


class TestStereo:
    def test_north_pole_to_origin(self):
        assert np.allclose(sf.stereo(np.array([1.0, 0, 0, 0])), np.zeros(3))

    def test_equator_fixed(self):
        # oracle: formula with denominator 1
        e1 = np.array([0.0, 1.0, 0, 0])
        assert np.allclose(sf.stereo(e1), np.array([1.0, 0, 0]))

    def test_origin_to_north_pole(self):
        assert np.allclose(sf.stereo_inv(np.zeros(3)), np.array([1.0, 0, 0, 0]))

    def test_round_trip_1000(self):
        x = random_sphere_points(1000)
        x = x[x[:, 0] > -0.99]
        assert np.max(np.abs(sf.stereo_inv(sf.stereo(x)) - x)) < 1e-12
        y = random_ball_points(1000, rmax=3.0)
        assert np.max(np.abs(sf.stereo(sf.stereo_inv(y)) - y)) < 1e-12

    def test_pole_error(self):
        with pytest.raises(sf.PoleError):
            sf.stereo(np.array([-1.0, 0, 0, 0]))

    def test_off_pole_matches_stereo(self):
        # pole points go to stereo(eps0), the origin; the rest are stereo's
        # values bit for bit; the input is left as it is
        x = random_sphere_points(200)
        x[::7] = [-1.0, 0.0, 0.0, 0.0]
        x[3] = [-1.0 + 1e-10, 1e-5, 0.0, 0.0]
        before = x.copy()
        y, pole = sf.stereo_off_pole(x)
        ref = x.copy()
        ref[np.abs(1.0 + x[:, 0]) < sf.POLE_TOL] = [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(pole, np.abs(1.0 + x[:, 0]) < sf.POLE_TOL) and pole[3]
        assert np.array_equal(y, sf.stereo(ref))
        assert np.array_equal(x, before)

    def test_inverse_lands_on_sphere(self):
        y = random_ball_points(200, rmax=5.0)
        _check_sphere_point(sf.stereo_inv(y))


class TestHypStereo:
    def test_origin_of_hyperboloid(self):
        e4 = np.array([0.0, 0, 0, 1.0])
        assert np.allclose(sf.hyp_stereo(e4), np.zeros(3))
        assert np.allclose(sf.hyp_stereo_inv(np.zeros(3)), e4)

    def test_half_angle_identity(self):
        # oracle: sinh(t)/(1+cosh(t)) = tanh(t/2)
        for tau in [0.3, 1.0, 2.5]:
            x = np.array([np.sinh(tau), 0, 0, np.cosh(tau)])
            y = sf.hyp_stereo(x)
            assert abs(y[0] - np.tanh(tau / 2)) < 1e-14

    def test_round_trip_1000(self):
        x = random_hyperbolic_points(1000)
        assert np.max(np.abs(sf.hyp_stereo_inv(sf.hyp_stereo(x)) - x)) < 1e-12

    def test_image_in_ball(self):
        y = sf.hyp_stereo(random_hyperbolic_points(500))
        assert np.max(np.sum(y * y, axis=-1)) < 1.0

    def test_domain_error(self):
        with pytest.raises(sf.DomainError):
            sf.hyp_stereo_inv(np.array([1.0, 0, 0]))

    def test_inverse_lands_on_sheet(self):
        _check_hyperbolic_point(sf.hyp_stereo_inv(random_ball_points(300)))


class TestPoincareFactor:
    def test_values(self):
        assert sf.poincare_factor(np.zeros(3)) == 2.0
        assert abs(sf.poincare_factor(np.array([0.5, 0, 0])) - 8.0 / 3.0) < 1e-14

    def test_domain(self):
        with pytest.raises(sf.DomainError):
            sf.poincare_factor(np.array([1.0, 0, 0]))


class TestConformality:
    def test_stereo_inv_jacobian_conformal(self):
        # numerical Jacobian via central differences, step 1e-6
        h = 1e-6
        for y in random_ball_points(20, rmax=2.0):
            J = np.zeros((4, 3))
            for k in range(3):
                dy = np.zeros(3)
                dy[k] = h
                J[:, k] = (sf.stereo_inv(y + dy) - sf.stereo_inv(y - dy)) / (2 * h)
            G = J.T @ J
            lam = np.trace(G) / 3.0
            assert np.max(np.abs(G - lam * np.eye(3))) < 1e-8

    def test_hyp_factor_matches_jacobian(self):
        # metric pullback of the flat metric has scale poincare_factor^2 ... no:
        # hyp_stereo_inv pulls the hyperbolic metric back to the Poincare metric;
        # check |d hyp_stereo_inv(v)|_{3,1} = poincare_factor |v| numerically.
        h = 1e-6
        for y in random_ball_points(10):
            v = RNG.normal(size=3)
            v /= np.linalg.norm(v)
            d = (sf.hyp_stereo_inv(y + h * v) - sf.hyp_stereo_inv(y - h * v)) / (2 * h)
            speed2 = mt.inner(d, d, mt.R31)
            assert abs(np.sqrt(speed2) - sf.poincare_factor(y)) < 1e-6


class TestEmbeddings:
    def test_fplus_origin(self):
        q = sf.embed_moebius(np.array([1.0, 0, 0, 0]), "sphere")
        d = mt.change_basis(q, 5, "epsilon", "delta")
        assert np.allclose(mt.projective_normalize(d),
                           mt.projective_normalize(np.array([1.0, 0, 0, 0, 0])), atol=1e-10)

    def test_f0_origin_matches_fplus(self):
        q = sf.embed_moebius(np.zeros(3), "euclidean")
        expected = sf.embed_moebius(sf.stereo_inv(np.zeros(3)), "sphere")
        assert np.allclose(mt.projective_normalize(q), mt.projective_normalize(expected),
                           atol=1e-10)

    def test_fminus_closed_form(self):
        # oracle: numeric composition f_0 o hyp_stereo agrees with [x + eps0]
        x = random_hyperbolic_points(100)
        composed = sf.embed_moebius(sf.hyp_stereo(x), "euclidean")
        direct = sf.embed_moebius(x, "hyperbolic")
        composed = mt.projective_normalize(composed)
        direct = mt.projective_normalize(direct)
        assert np.max(np.abs(composed - direct)) < 1e-12

    @pytest.mark.parametrize("form", FORMS)
    def test_null_cone(self, form):
        q = sf.embed_moebius(random_points(form, 300, rmax=4.0), form)
        assert np.max(np.abs(mt.inner(q, q, mt.R41))) < 1e-12
        # normalised by <F, xi> = -1
        assert np.max(np.abs(mt.inner(q, sf.SPACE_FORMS[form].xi, mt.R41) + 1.0)) < 1e-12

    @pytest.mark.parametrize("form", FORMS)
    def test_inverse_charts(self, form):
        x = random_points(form, 100)
        xx, ok = sf.moebius_chart(sf.embed_moebius(x, form), form)
        assert ok.all() and np.allclose(xx, x, atol=1e-12)

    @pytest.mark.parametrize("form,num,den", [
        ("sphere", slice(0, 4), lambda q: q[..., 4]),
        ("euclidean", slice(1, 4), lambda q: q[..., 0] + q[..., 4]),
        ("hyperbolic", slice(1, 5), lambda q: q[..., 0]),
    ])
    def test_chart_closed_forms(self, form, num, den):
        # oracle: S^3 q0..3/q4, R^3 q1..3/(q0+q4), H^3 q1..4/q0 on the upper
        # sheet, on random vectors of R^{4,1}; q0 = q4 = 0 zeroes every denominator
        q = np.random.default_rng(3).normal(size=(500, 5))
        q[:50, [0, 4]] = 0.0
        x, ok = sf.moebius_chart(q, form)
        d = den(q)
        want = np.abs(d) > 1e-12 * np.max(np.abs(q), axis=-1)
        if form == "hyperbolic":
            want[want] &= q[want, 4] / d[want] > 0
        assert not ok[:50].any() and np.array_equal(ok, want)
        assert np.array_equal(x[ok], q[ok][:, num] / d[ok][:, None])
        assert sf.quotient_chart(form)[0] == num

    @pytest.mark.parametrize("fn", [lambda f: sf.embed_moebius(np.zeros(3), f),
                                    lambda f: sf.moebius_chart(np.ones(5), f),
                                    sf.quotient_chart,
                                    lambda f: sf.group_embed(np.eye(4), f)])
    def test_unknown_form(self, fn):
        with pytest.raises(sf.DomainError):
            fn("moebius")


class TestGroupEmbed:
    def equivariance_residual(self, G, g, form, pts):
        lifted = sf.embed_moebius_delta(pts, form)
        moved = np.einsum("ij,...j->...i", G, lifted)
        if form == "sphere":
            target = np.einsum("ij,...j->...i", g, pts)
        elif form == "euclidean":
            target = g[1:, 0] + np.einsum("ij,...j->...i", g[1:, 1:], pts)
        else:
            target = np.einsum("ij,...j->...i", g, pts)
        expected = sf.embed_moebius_delta(target, form)
        moved = mt.projective_normalize(moved)
        expected = mt.projective_normalize(expected)
        return float(np.max(np.abs(moved - expected)))

    def test_identity(self):
        assert np.allclose(sf.group_embed(np.eye(4), "sphere"), np.eye(5))

    def test_so4_block_form(self):
        # equivariance with f_+(x) = [x + eps4] forces diag(A, 1) in eps basis
        A = random_so4()
        G = sf.group_embed(A, "sphere")
        G_eps = mt.change_basis(G, 5, "delta", "epsilon", kind="operator")
        assert np.allclose(G_eps[:4, :4], A, atol=1e-12)
        assert np.allclose(G_eps[4, :4], 0, atol=1e-12)
        assert abs(G_eps[4, 4] - 1) < 1e-12

    def test_translation_lower_triangular(self):
        g = mt.e3_matrix([0.4, -1.2, 2.0], np.eye(3))
        G = sf.group_embed(g, "euclidean")
        assert np.allclose(np.triu(G, 1)[:, :4], 0, atol=1e-14)
        assert mt.group_residual(G, mt.MOEB) < 1e-12

    def test_equivariance_100_points(self):
        cases = [
            ("sphere", random_so4(), random_sphere_points(100)),
            ("euclidean", random_e3(), random_ball_points(100, rmax=3.0)),
            ("hyperbolic", random_so31(), random_hyperbolic_points(100)),
        ]
        for form, g, pts in cases:
            G = sf.group_embed(g, form)
            assert mt.group_residual(G, mt.MOEB) < 1e-10
            assert self.equivariance_residual(G, g, form, pts) < 1e-10

    def test_bad_input_rejected(self):
        with pytest.raises(mt.MembershipError):
            sf.group_embed(np.eye(4) * 2.0, "sphere")

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("form", sorted(sf.SPACE_FORMS))
    def test_non_finite_input_rejected(self, form, bad):
        # NaN compares false, so a gate written as residual > tol would let it through
        g = np.eye(4)
        g[1, 2] = bad
        with pytest.raises(mt.MembershipError):
            sf.group_embed(g, form)
