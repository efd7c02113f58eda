"""The single surface-jet contract: analytic jets against central differences,
the finite-difference jet builder, and the number of points classify and gen
send through a surface's jet."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import cli
from dupin import moebius as mb
from dupin import surfaces as srf
from dupin.surfaces import ParamDomain

# catalog surface factory and parameter range, for every chart it is shown in
CATALOG = {
    "torus": (srf.torus, (0.15, np.pi / 4)),
    "hyperboloid": (srf.hyperboloid, (0.05, 0.95)),
    "cylinder": (srf.cylinder, (0.2, 5.0)),
}
CHARTS = [("torus", "identity"), ("torus", "stereo"), ("hyperboloid", "identity"),
          ("hyperboloid", "hyp_stereo"), ("cylinder", "identity")]


def central_jet(p, u, v, h=1e-4):
    x = p(u, v)
    return srf.Jet(
        x,
        (p(u + h, v) - p(u - h, v)) / (2 * h),
        (p(u, v + h) - p(u, v - h)) / (2 * h),
        (p(u + h, v) - 2 * x + p(u - h, v)) / h**2,
        (p(u + h, v + h) - p(u + h, v - h) - p(u - h, v + h) + p(u - h, v - h)) / (4 * h * h),
        (p(u, v + h) - 2 * x + p(u, v - h)) / h**2,
    )


@pytest.mark.parametrize("name,chart", CHARTS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(param=st.floats(0.0, 1.0), fu=st.floats(0.0, 1.0), fv=st.floats(0.02, 0.98))
def test_analytic_jet_matches_central_differences(name, chart, param, fu, fv):
    make, (lo, hi) = CATALOG[name]
    s = srf.pushforward(make(lo + param * (hi - lo)), chart)
    assert s.analytic
    (u0, u1), (v0, v1) = s.domain.u_range, s.domain.v_range
    u = np.array([u0 + fu * (u1 - u0)])
    v = np.array([v0 + fv * (v1 - v0)])
    jet = s.jet(u, v)
    assert np.array_equal(jet.x, s.position(u, v))
    for field, exact, approx in zip(srf.Jet._fields, jet, central_jet(s.position, u, v)):
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 1e-5 * scale, field


class TestFiniteDifferenceJet:
    def surface(self):
        calls = []
        base = srf.warped_torus()

        def position(u, v):
            calls.append(np.broadcast(u, v).size)
            return base.position(u, v)

        return srf.ParametricSurface("euclidean", position, base.domain), calls

    def test_one_position_call_per_jet(self):
        s, calls = self.surface()
        assert not s.analytic
        s.jet(np.linspace(0, 1, 5), np.linspace(1, 2, 5))
        assert calls == [13 * 5]

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
        )
        for field, got, ref in zip(srf.Jet._fields, s.jet(u, v), want):
            assert np.array_equal(got, ref), field

    def test_pushforward_keeps_finite_difference_flag(self):
        dom = ParamDomain((-1.0, 1.0), (-1.0, 1.0), 4, 4, False, False)
        orbit = mb.orbit_surface(0.5, dom)
        assert orbit.form == "sphere" and not orbit.analytic
        assert not srf.pushforward(orbit, "stereo").analytic


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


@pytest.mark.parametrize("make", [
    lambda: srf.pushforward(srf.torus(0.6, GRID16), "stereo"),
    lambda: srf.pushforward(
        srf.hyperboloid(0.5, ParamDomain(v_range=(-1.5, 1.5), nu=16, nv=16, periodic_v=False)),
        "hyp_stereo"),
    lambda: srf.warped_torus(domain=GRID16),
], ids=["torus_stereo", "hyperboloid_hyp_stereo", "warped_torus"])
def test_classify_jet_points(make):
    s = make()
    counts = count_jet_points(s)
    srf.classify(s)
    assert sum(counts) <= 17 * 16 * 16 + 1


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
    assert sum(seen["counts"]) == seen["classify"] <= 17 * 16 * 16 + 1
