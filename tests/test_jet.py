"""The single surface-jet contract: exact jets against central differences,
the finite-difference reference builder, and the number of points classify
and gen send through a surface's jet."""

import gc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import cli
from dupin import moebius as mb
from dupin import surfaces as srf
from dupin.surfaces import ParamDomain

from conftest import fd_jet

# analytic surface factory and parameter range, for every chart it is shown in
CATALOG = {
    "torus": (srf.torus, (0.15, np.pi / 4)),
    "hyperboloid": (srf.hyperboloid, (0.05, 0.95)),
    "cylinder": (srf.cylinder, (0.2, 5.0)),
    "sphere_patch": (srf.sphere_patch, (0.3, 3.0)),
    "warped_torus": (srf.warped_torus, (0.0, 0.3)),
}
CHARTS = [("torus", "identity"), ("torus", "stereo"), ("hyperboloid", "identity"),
          ("hyperboloid", "hyp_stereo"), ("cylinder", "identity"),
          ("sphere_patch", "identity"), ("warped_torus", "identity")]
# h_C orbits in each regime, with both signs of C
ORBIT_CS = [0.0, 0.5, -0.7, 1.0, -1.0, 5.0 / 3.0, -5.0 / 3.0, 3.0, -2.5]
THIRD = {"xuuu": (("xuu", "u"),), "xuuv": (("xuu", "v"), ("xuv", "u")),
         "xuvv": (("xuv", "v"), ("xvv", "u")), "xvvv": (("xvv", "v"),)}


def central_jet(p, u, v, h=1e-4):
    """Position and its first and second partials by central differences."""
    x = p(u, v)
    return (
        x,
        (p(u + h, v) - p(u - h, v)) / (2 * h),
        (p(u, v + h) - p(u, v - h)) / (2 * h),
        (p(u + h, v) - 2 * x + p(u - h, v)) / h**2,
        (p(u + h, v + h) - p(u + h, v - h) - p(u - h, v + h) + p(u - h, v - h)) / (4 * h * h),
        (p(u, v + h) - 2 * x + p(u, v - h)) / h**2,
    )


def assert_third_partials(s, u, v, h=1e-5):
    """Each third partial of the analytic jet equals the central difference of
    every analytic second partial it is a derivative of."""
    jet = s.jet(u, v)
    shifted = {"u": (s.jet(u + h, v), s.jet(u - h, v)), "v": (s.jet(u, v + h), s.jet(u, v - h))}
    for field, sources in THIRD.items():
        exact = getattr(jet, field)
        scale = 1.0 + np.max(np.abs(exact))
        for second, along in sources:
            plus, minus = shifted[along]
            approx = (getattr(plus, second) - getattr(minus, second)) / (2 * h)
            assert np.max(np.abs(exact - approx)) < 1e-7 * scale, (field, second, along)


def sample_point(s, fu, fv):
    (u0, u1), (v0, v1) = s.domain.u_range, s.domain.v_range
    return np.array([u0 + fu * (u1 - u0)]), np.array([v0 + fv * (v1 - v0)])


@pytest.mark.parametrize("name,chart", CHARTS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(param=st.floats(0.0, 1.0), fu=st.floats(0.0, 1.0), fv=st.floats(0.02, 0.98))
def test_analytic_jet_matches_central_differences(name, chart, param, fu, fv):
    make, (lo, hi) = CATALOG[name]
    s = srf.pushforward(make(lo + param * (hi - lo)), chart)
    u, v = sample_point(s, fu, fv)
    jet = s.jet(u, v)
    assert len(jet) == len(srf.Jet._fields) == 10
    assert np.array_equal(jet.x, s.position(u, v))
    for field, exact, approx in zip(srf.Jet._fields, jet, central_jet(s.position, u, v)):
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 1e-5 * scale, field


@pytest.mark.parametrize("name,chart", CHARTS)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(param=st.floats(0.0, 1.0), fu=st.floats(0.0, 1.0), fv=st.floats(0.02, 0.98))
def test_third_partials_match_differences_of_second(name, chart, param, fu, fv):
    make, (lo, hi) = CATALOG[name]
    s = srf.pushforward(make(lo + param * (hi - lo)), chart)
    assert_third_partials(s, *sample_point(s, fu, fv))


@pytest.mark.parametrize("C", ORBIT_CS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(fu=st.floats(0.02, 0.98), fv=st.floats(0.02, 0.98))
def test_orbit_third_partials_match_differences_of_second(C, fu, fv):
    s = mb.orbit_surface(C)
    assert_third_partials(s, *sample_point(s, fu, fv))


@pytest.mark.parametrize("C", [0.0, 0.5, -0.7, 1.0, -1.0, 5.0 / 3.0, 3.0, -2.5])
def test_orbit_jet_matches_finite_differences(C):
    # the exact Lie-algebra jet against the central-difference builder on
    # the same position
    s = mb.orbit_surface(C)
    U, V = s.domain.mesh()
    exact = s.jet(U, V)
    approx = fd_jet(s.position, s.domain, U, V)
    assert np.array_equal(exact.x, s.position(U, V))
    assert np.max(np.abs(exact.x - approx.x)) <= 1e-12
    assert np.max(np.abs(exact.xu - approx.xu)) <= 1e-6
    assert np.max(np.abs(exact.xv - approx.xv)) <= 1e-6


def test_jet_is_required():
    # one differentiation path: a surface given by its position alone is not
    # differentiated behind the caller's back
    with pytest.raises(TypeError):
        srf.ParametricSurface("euclidean", srf.warped_torus().position, ParamDomain())


class TestFiniteDifferenceJet:
    def surface(self):
        calls = []
        base = srf.warped_torus()

        def position(u, v):
            calls.append(np.broadcast(u, v).size)
            return base.position(u, v)

        return srf.ParametricSurface("euclidean", position, base.domain,
                                     jet=partial(fd_jet, position, base.domain)), calls

    def test_one_position_call_per_jet(self):
        s, calls = self.surface()
        s.jet(np.linspace(0, 1, 5), np.linspace(1, 2, 5))
        assert calls == [17 * 5]

    def test_same_stencil_as_separate_calls(self):
        # reference: every stencil point through its own position call
        s, _ = self.surface()
        p = s.position
        u, v = np.meshgrid(np.linspace(0.1, 6.0, 7), np.linspace(-1.0, 2.5, 5), indexing="ij")
        hu = 1e-5 * (s.domain.u_range[1] - s.domain.u_range[0])
        hv = 1e-5 * (s.domain.v_range[1] - s.domain.v_range[0])
        Hu, Hv = np.sqrt(hu), np.sqrt(hv)
        want = srf.Jet(
            p(u, v),
            (p(u + hu, v) - p(u - hu, v)) / (2 * hu),
            (p(u, v + hv) - p(u, v - hv)) / (2 * hv),
            (p(u + Hu, v) - 2 * p(u, v) + p(u - Hu, v)) / Hu**2,
            (p(u + Hu, v + Hv) - p(u + Hu, v - Hv) - p(u - Hu, v + Hv)
             + p(u - Hu, v - Hv)) / (4 * Hu * Hv),
            (p(u, v + Hv) - 2 * p(u, v) + p(u, v - Hv)) / Hv**2,
            (p(u + 2 * Hu, v) - 2 * p(u + Hu, v) + 2 * p(u - Hu, v) - p(u - 2 * Hu, v))
            / (2 * Hu**3),
            (p(u + Hu, v + Hv) - 2 * p(u, v + Hv) + p(u - Hu, v + Hv)
             - p(u + Hu, v - Hv) + 2 * p(u, v - Hv) - p(u - Hu, v - Hv)) / (2 * Hu**2 * Hv),
            (p(u + Hu, v + Hv) - 2 * p(u + Hu, v) + p(u + Hu, v - Hv)
             - p(u - Hu, v + Hv) + 2 * p(u - Hu, v) - p(u - Hu, v - Hv)) / (2 * Hu * Hv**2),
            (p(u, v + 2 * Hv) - 2 * p(u, v + Hv) + 2 * p(u, v - Hv) - p(u, v - 2 * Hv))
            / (2 * Hv**3),
        )
        for field, got, ref in zip(srf.Jet._fields, s.jet(u, v), want):
            assert np.array_equal(got, ref), field

    def test_surface_is_freed_without_the_cycle_collector(self):
        # a reference cycle would keep the surface, and the frames its
        # position closes over, alive until the cycle collector runs
        gc.disable()
        try:
            s = mb.orbit_surface(1.8, ParamDomain((-1.0, 1.0), (-1.0, 1.0), 4, 4, False, False))
            s.jet(np.array([0.1]), np.array([0.2]))
            ref = weakref.ref(s)
            del s
            assert ref() is None
        finally:
            gc.enable()


def count_jet_points(s):
    """Replace s.jet by a wrapper that records the points of every call."""
    counts = []
    inner = s.jet

    def counted(u, v):
        counts.append(np.broadcast(u, v).size)
        return inner(u, v)

    s.jet = counted
    return counts


GRID16 = ParamDomain(nu=16, nv=16)


CLASSIFY_SURFACES = pytest.mark.parametrize("make", [
    lambda: srf.pushforward(srf.torus(0.6, GRID16), "stereo"),
    lambda: srf.pushforward(
        srf.hyperboloid(0.5, ParamDomain(v_range=(-1.5, 1.5), nu=16, nv=16, periodic_v=False)),
        "hyp_stereo"),
    lambda: srf.warped_torus(domain=GRID16),
], ids=["torus_stereo", "hyperboloid_hyp_stereo", "warped_torus"])


@CLASSIFY_SURFACES
def test_classify_jet_points(make):
    s = make()
    counts = count_jet_points(s)
    srf.classify(s)
    assert sum(counts) <= 16 * 16 + 1


@CLASSIFY_SURFACES
def test_classify_direction_points(make, monkeypatch):
    # principal directions are computed on first access: both fields on the
    # grid, once each
    directions = []
    real = srf.CurvatureData._direction

    def counted(self, kappa):
        directions.append(np.size(kappa))
        return real(self, kappa)

    monkeypatch.setattr(srf.CurvatureData, "_direction", counted)
    srf.classify(make())
    assert sum(directions) <= 2 * 16 * 16


def test_gen_jet_points_are_classify_points(tmp_path, monkeypatch):
    seen = {}
    real_pushforward, real_classify = srf.pushforward, srf.classify

    def pushforward(s, mapping):
        out = real_pushforward(s, mapping)
        seen["counts"] = count_jet_points(out)
        return out

    def classify(s):
        before = sum(seen["counts"])
        result = real_classify(s)
        seen["classify"] = sum(seen["counts"]) - before
        return result

    monkeypatch.setattr(srf, "pushforward", pushforward)
    monkeypatch.setattr(srf, "classify", classify)
    rc = cli.main(["gen", "torus", "--alpha", "0.6", "--project", "stereo",
                   "--grid", "16x16", "--out", str(tmp_path / "t.obj")])
    assert rc == 0
    assert sum(seen["counts"]) == seen["classify"] <= 16 * 16 + 1
