"""The batched exponential path: each site that exponentiates a grid agrees
with the per-point formula it replaces, and passes whole stacks to
``metrics.mat_exp`` instead of one call per point."""

import re
from pathlib import Path

import numpy as np
import pytest

import dupin
from dupin import frames as fr
from dupin import liesphere as ls
from dupin import metrics as mt
from dupin import moebius as mb
from dupin import spaceforms as sf
from dupin.surfaces import ParamDomain

S_GRID = np.linspace(-1.0, 1.0, 7)
T_GRID = np.linspace(-0.8, 1.2, 5)
DELTA0 = np.eye(5)[0]


def one(X):
    """Per-matrix exponential, the reference the batched calls must match."""
    assert np.ndim(X) == 2
    return mt.mat_exp(X)


def flat_so4_form(nu=6, nv=5):
    """Pull-back of a non-commuting SO(4) frame field, so both integration
    orders are exercised on a form that varies over the grid."""
    rng = np.random.default_rng(11)
    Y1, Y2 = (mt.algebra_project(rng.normal(size=(4, 4)), mt.R4) for _ in range(2))
    dom = ParamDomain(u_range=(0.0, 1.0), v_range=(0.0, 1.3), nu=nu, nv=nv,
                      periodic_u=False, periodic_v=False)
    U, V = dom.mesh()
    mats = np.array([[one(u * Y1) @ one(np.sin(v) * u * Y2) for u, v in zip(ru, rv)]
                     for ru, rv in zip(U, V)])
    return fr.pullback_mc(fr.FrameField("so4", mats, dom)), mats[0, 0]


def integrate_per_point(mc, base, rows_first):
    """Exponential midpoint stepping, one exponential per grid step."""
    (wu, wv), du, dv = mc.omega, mc.domain.du, mc.domain.dv
    nu, nv = wu.shape[:2]
    e = np.zeros_like(wu)
    e[0, 0] = base
    if rows_first:
        for i in range(1, nu):
            e[i, 0] = e[i - 1, 0] @ one(du * (0.5 * (wu[i - 1, 0] + wu[i, 0])))
        for j in range(1, nv):
            for i in range(nu):
                mid = 0.5 * (wv[i, j - 1] + wv[i, j])
                e[i, j] = e[i, j - 1] @ one(dv * mid)
    else:
        for j in range(1, nv):
            e[0, j] = e[0, j - 1] @ one(dv * (0.5 * (wv[0, j - 1] + wv[0, j])))
        for i in range(1, nu):
            for j in range(nv):
                mid = 0.5 * (wu[i - 1, j] + wu[i, j])
                e[i, j] = e[i - 1, j] @ one(du * mid)
    return e


class TestAgainstPerPointFormula:
    def test_orbit_frame(self):
        # a non-commuting pair, so the order of the two exponentials matters
        # (coset_orbit below covers a commuting Lie pair)
        rng = np.random.default_rng(3)
        Z, X, Y = (mt.algebra_project(rng.normal(size=(4, 4)), mt.R4) for _ in range(3))
        M = one(Z)
        assert np.max(np.abs(mt.bracket(X, Y))) > 0.1
        dom = ParamDomain((-1.0, 1.0), (-0.8, 1.2), 7, 5, False, False)
        ff = fr.orbit_frame("so4", M, X, Y, dom)
        u, v = dom.grids()
        ref = {k: np.empty_like(ff.mats) for k in ("T", "Tu", "Tv")}
        for a, s in enumerate(u):
            for b, t in enumerate(v):
                Eu, Ev = M @ one(s * X), one(t * Y)
                ref["T"][a, b] = Eu @ Ev
                ref["Tu"][a, b] = Eu @ X @ Ev
                ref["Tv"][a, b] = Eu @ Ev @ Y
        for key, got in zip(("T", "Tu", "Tv"), (ff.mats, *(ff.mats @ ff.omega))):
            rel = np.max(np.abs(got - ref[key])) / np.max(np.abs(ref[key]))
            assert rel <= 1e-13, key

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_coset_orbit(self, t):
        A = ls.boost(t)
        _, ff = ls.coset_orbit(A, S_GRID, T_GRID)
        X2, X3 = ls.slice_generators()
        M = A @ ls.example_base_frame()
        ref = {k: np.empty_like(ff.mats) for k in ("T", "Tu", "Tv")}
        for a, s in enumerate(S_GRID):
            for b, tt in enumerate(T_GRID):
                E2, E3 = one(s * X2), one(tt * X3)
                ref["T"][a, b] = M @ E2 @ E3
                ref["Tu"][a, b] = M @ X2 @ E2 @ E3
                ref["Tv"][a, b] = M @ E2 @ X3 @ E3
        for key, got in zip(("T", "Tu", "Tv"), (ff.mats, *(ff.mats @ ff.omega))):
            rel = np.max(np.abs(got - ref[key])) / np.max(np.abs(ref[key]))
            assert rel <= 1e-13, key

    @pytest.mark.parametrize("C", [0.4, 1.0, 5 / 3, -0.4, -1.0, -2.5])
    def test_hc_orbit(self, C):
        orb = mb.hc_orbit(C, S_GRID, T_GRID)
        X1, X2 = mb.hc_basis(C).elements
        base = mb.canonical_base_frame(C)
        ref = np.array([[base @ one(s * X1) @ one(t * X2) @ DELTA0 for t in T_GRID]
                        for s in S_GRID])
        ref = mt.projective_normalize(ref)
        assert np.max(np.abs(orb.points_delta - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("rows_first", [True, False])
    def test_integrate_bitwise(self, rows_first):
        mc, base = flat_so4_form()
        got = fr._integrate(mc, base)[not rows_first]
        assert np.array_equal(got, integrate_per_point(mc, base, rows_first))

    @pytest.mark.parametrize("C", [0.4, 1.0, 5 / 3, -2.5])
    def test_orbit_surface_position_bitwise(self, C):
        surf = mb.orbit_surface(C)
        rng = np.random.default_rng(2)
        u, v = rng.uniform(-1.0, 1.0, size=(2, 3, 4))
        got = surf.position(u, v)
        ref = np.array([[surf.position(a, b)[0] for a, b in zip(ru, rv)]
                        for ru, rv in zip(u, v)])
        assert got.shape == u.shape + ref.shape[-1:]
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("C", [1.0, 5 / 3])
    def test_position_raises_when_one_point_leaves_chart(self, monkeypatch, C):
        real = sf.moebius_chart

        def one_invalid(q, form):
            x, ok = real(q, form)
            ok = np.array(ok, copy=True)
            ok.flat[-1] = False
            return x, ok

        monkeypatch.setattr(sf, "moebius_chart", one_invalid)
        u = np.linspace(-0.5, 0.5, 6)
        with pytest.raises(mt.GeometryError):
            mb.orbit_surface(C).position(u, u)
        with pytest.raises(mt.GeometryError):  # the jet reads the same chart
            mb.orbit_surface(C).jet(u, u)


@pytest.fixture
def exp_calls(monkeypatch):
    """Shapes of every mat_exp call, through both bindings of the name."""
    calls = []
    real = mt.mat_exp

    def counting(X):
        calls.append(np.shape(X))
        return real(X)

    monkeypatch.setattr(mt, "mat_exp", counting)
    monkeypatch.setattr(fr, "mat_exp", counting)
    return calls


class TestNoPerPointLoops:
    def test_coset_orbit_two_calls(self, exp_calls):
        ls.coset_orbit(ls.boost(1.0), S_GRID, T_GRID)
        assert len(exp_calls) == 2

    def test_example_frame_two_calls(self, exp_calls):
        ls.example_frame(ParamDomain(nu=8, nv=6))
        assert exp_calls == [(8, 6, 6), (6, 6, 6)]

    def test_hc_orbit_two_calls(self, exp_calls):
        mb.hc_orbit(-2.5, S_GRID, T_GRID)
        assert len(exp_calls) == 2

    def test_orbit_surface_position_two_calls(self, exp_calls):
        surf = mb.orbit_surface(5 / 3)
        exp_calls.clear()
        surf.position(*np.meshgrid(S_GRID, T_GRID, indexing="ij"))
        assert len(exp_calls) == 2

    def test_orbit_surface_jet_two_calls(self, exp_calls):
        surf = mb.orbit_surface(-2.5)
        exp_calls.clear()
        surf.jet(*np.meshgrid(S_GRID, T_GRID, indexing="ij"))
        assert exp_calls == [(7, 5, 5, 5)] * 2

    def test_integrate_mc_calls_per_sweep(self, exp_calls):
        nu, nv = 9, 7
        mc, base = flat_so4_form(nu, nv)
        exp_calls.clear()
        fr.integrate_mc(mc, base)
        assert exp_calls == [(nu - 1, nv, 4, 4), (nu, nv - 1, 4, 4)]

    def test_mat_exp_is_the_only_exponential(self):
        sources = {p.name: p.read_text() for p in Path(dupin.__file__).parent.glob("*.py")}
        assert [name for name, text in sources.items() if re.search(r"\bexpm\b", text)] == []
        exps = [(name, fn) for name, text in sources.items()
                for fn in re.findall(r"^def (\w*exp\w*)\(", text, re.M)]
        assert exps == [("metrics.py", "mat_exp")]
