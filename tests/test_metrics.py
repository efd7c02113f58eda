"""Indefinite linear algebra: inner products, basis changes, group/algebra
membership, exponentials, and constraint subalgebras."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dupin import metrics as mt
from dupin.moebius import hc_constraints
from dupin.liesphere import h_constraints

RNG = np.random.default_rng(20240811)


def eps(i, dim=6):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestInner:
    def test_basis_signature(self):
        assert mt.inner(eps(0), eps(0), mt.R42) == 1.0
        assert mt.inner(eps(5), eps(5), mt.R42) == -1.0

    def test_lambda_null_pairing(self):
        # oracle: expand (eps5+eps0)/sqrt2 . (eps5-eps0)/sqrt2 by bilinearity
        l0 = (eps(5) + eps(0)) / mt.SQRT2
        l5 = (eps(5) - eps(0)) / mt.SQRT2
        expected = 0.5 * (
            mt.inner(eps(5), eps(5), mt.R42) - mt.inner(eps(0), eps(0), mt.R42)
        )
        assert expected == -1.0
        assert abs(mt.inner(l0, l5, mt.R42) - expected) < 1e-14

    def test_bilinear_symmetric(self):
        for _ in range(50):
            u, v, w = RNG.normal(size=(3, 5))
            a, b = RNG.normal(size=2)
            lhs = mt.inner(a * u + b * v, w, mt.R41)
            rhs = a * mt.inner(u, w, mt.R41) + b * mt.inner(v, w, mt.R41)
            assert abs(lhs - rhs) < 1e-12
            assert abs(mt.inner(u, w, mt.R41) - mt.inner(w, u, mt.R41)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(mt.MembershipError):
            mt.inner(np.zeros(4), np.zeros(4), mt.R41)

    @pytest.mark.parametrize("metric", [mt.R3, mt.R4, mt.R31, mt.R41, mt.R42, mt.MOEB, mt.LIE],
                             ids=lambda m: m.name)
    def test_matches_gram(self, metric):
        rng = np.random.default_rng(7)
        n = metric.dim
        for su, sv in [((n,), (n,)), ((9, n), (9, n)), ((7, 1, n), (1, 5, n)), ((n,), (4, 3, n))]:
            u, v = rng.normal(size=su), rng.normal(size=sv)
            expected = (u[..., None, :] @ metric.gram @ v[..., :, None])[..., 0, 0]
            got = mt.inner(u, v, metric)
            assert got.shape == np.broadcast_shapes(su[:-1], sv[:-1])
            assert np.max(np.abs(got - expected)) < 1e-12


class TestChangeBasis:
    def test_delta0_definition(self):
        x = eps(0, 5) + eps(4, 5)
        d = mt.change_basis(x, 5, "epsilon", "delta")
        expected = mt.SQRT2 * eps(0, 5)
        assert np.allclose(d, expected, atol=1e-14)

    def test_identity(self):
        x = RNG.normal(size=5)
        assert np.allclose(mt.change_basis(x, 5, "epsilon", "epsilon"), x)

    def test_lambda0_definition(self):
        x = eps(5) + eps(0)
        l = mt.change_basis(x, 6, "epsilon", "lambda")
        assert np.allclose(l, mt.SQRT2 * eps(0), atol=1e-14)

    def test_round_trip_and_isometry(self):
        for dim, tags, metrics in [
            (5, ("epsilon", "delta"), (mt.R41, mt.R41_DELTA)),
            (6, ("epsilon", "lambda"), (mt.R42, mt.R42_LAMBDA)),
        ]:
            u = RNG.normal(size=(40, dim))
            v = RNG.normal(size=(40, dim))
            u2 = mt.change_basis(u, dim, tags[0], tags[1])
            v2 = mt.change_basis(v, dim, tags[0], tags[1])
            assert np.allclose(
                mt.change_basis(u2, dim, tags[1], tags[0]), u, atol=1e-12
            )
            assert np.allclose(
                mt.inner(u, v, metrics[0]), mt.inner(u2, v2, metrics[1]), atol=1e-12
            )

    def test_undefined_tag(self):
        with pytest.raises(mt.MembershipError):
            mt.change_basis(np.zeros(5), 5, "epsilon", "lambda")


class TestGroupAlgebraResiduals:
    def test_identity_in_group(self):
        assert mt.group_residual(np.eye(6), mt.LIE) == 0.0

    def test_lambda_boost_diagonal(self):
        # ghat couples slots 0,5 with -1, so e^t * e^{-t} = 1 keeps the form
        t = 0.7
        T = np.diag([np.exp(t), 1, 1, 1, 1, np.exp(-t)])
        assert mt.group_residual(T, mt.LIE) < 1e-12

    def test_scaling_breaks_membership(self):
        T = np.diag([2.0, 1, 1, 1, 1, 1])
        # entry (0,5) of T^T ghat T becomes -2, off by exactly 1
        assert abs(mt.group_residual(T, mt.LIE) - 1.0) < 1e-14

    def test_zero_and_skew(self):
        assert mt.algebra_residual(np.zeros((3, 3)), mt.R3) == 0.0
        S = np.array([[0, 1.0, 0], [-1, 0, 0], [0, 0, 0]])
        assert mt.algebra_residual(S, mt.R3) == 0.0

    def test_symmetric_residual_doubles(self):
        X = RNG.normal(size=(3, 3))
        X = X + X.T
        assert abs(mt.algebra_residual(X, mt.R3) - 2 * np.max(np.abs(X))) < 1e-12

    def test_group_inverse(self):
        for name, metric in [("so31", mt.R31), ("moebius", mt.MOEB), ("lie", mt.LIE)]:
            T = mt.mat_exp(mt.algebra_project(RNG.normal(size=(2, metric.dim, metric.dim)),
                                              metric))
            assert np.allclose(mt.GROUPS[name].inverse(T) @ T, np.eye(metric.dim), atol=1e-12)

    def test_projection_lands_in_algebra(self):
        for metric in [mt.R3, mt.R31, mt.MOEB, mt.LIE]:
            X = RNG.normal(size=(metric.dim, metric.dim))
            P = mt.algebra_project(X, metric)
            assert mt.algebra_residual(P, metric) < 1e-12
            # idempotent
            assert np.allclose(mt.algebra_project(P, metric), P, atol=1e-12)


class TestMatExp:
    def test_exp_zero(self):
        assert np.allclose(mt.mat_exp(np.zeros((4, 4))), np.eye(4))

    def test_so3_quarter_turn(self):
        X = np.zeros((3, 3))
        X[1, 0], X[0, 1] = 1.0, -1.0
        R = mt.mat_exp((np.pi / 2) * X)
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        assert np.allclose(R, expected, atol=1e-12)

    def test_boost_block_closed_form(self):
        # oracle: 2x2 series of [[0,1],[1,0]] sums to [[cosh, sinh],[sinh, cosh]]
        t = 1.3
        X = np.zeros((6, 6))
        X[0, 5] = X[5, 0] = 1.0
        assert mt.algebra_residual(X, mt.R42) < 1e-14
        E = mt.mat_exp(t * X)
        assert abs(E[0, 0] - np.cosh(t)) < 1e-12
        assert abs(E[0, 5] - np.sinh(t)) < 1e-12
        assert np.allclose(E[1:5, 1:5], np.eye(4), atol=1e-12)

    def test_exp_inverse_property(self):
        for metric in [mt.R3, mt.MOEB, mt.LIE]:
            for _ in range(20):
                X = mt.algebra_project(RNG.normal(size=(metric.dim, metric.dim)), metric)
                X *= 10.0 / max(np.linalg.norm(X), 10.0)
                E, Einv = mt.mat_exp(X), mt.mat_exp(-X)
                assert np.max(np.abs(E @ Einv - np.eye(metric.dim))) < 1e-10

    def test_exp_of_algebra_is_in_group(self):
        for metric in [mt.R31, mt.MOEB, mt.LIE]:
            for _ in range(20):
                X = mt.algebra_project(RNG.normal(size=(metric.dim, metric.dim)), metric)
                assert mt.group_residual(mt.mat_exp(X), metric) < 1e-10


def _generator_stacks():
    """(name, stack of shape (3, 5, n, n), group residual) for the generators the
    package exponentiates, plus random so(4) and e(3) elements."""
    from dupin.liesphere import slice_generators
    from dupin.moebius import hc_basis

    ts = np.linspace(-1.5, 1.5, 15).reshape(3, 5, 1, 1)
    gens = [(f"h_C({C})", X, lambda T: mt.group_residual(T, mt.MOEB))
            for C in (0.4, 1.0, 5 / 3, -0.4, -1.0, -2.5) for X in hc_basis(C).elements]
    gens += [("slice", X, lambda T: mt.group_residual(T, mt.LIE)) for X in slice_generators()]
    rng = np.random.default_rng(5)
    for _ in range(3):
        gens.append(("so4", mt.algebra_project(rng.normal(size=(4, 4)), mt.R4),
                     lambda T: mt.group_residual(T, mt.R4)))
        gens.append(("e3", mt.e3_algebra_project(rng.normal(size=(4, 4))), mt.e3_residual))
    return [(name, ts * X, residual) for name, X, residual in gens]


class TestBatchedMatExp:
    @pytest.mark.parametrize("name,stack,residual", _generator_stacks())
    def test_stack_equals_per_matrix_calls(self, name, stack, residual):
        E = mt.mat_exp(stack)
        assert E.shape == stack.shape
        ref = np.stack([mt.mat_exp(X) for X in stack.reshape((-1,) + stack.shape[-2:])])
        assert np.array_equal(E, ref.reshape(stack.shape)), name
        assert residual(E) <= 1e-12, name

    @pytest.mark.parametrize("shape", [(0, 5, 5), (2, 0, 4, 4), (1, 6, 6), (4, 4)])
    def test_leading_shape_kept(self, shape):
        assert mt.mat_exp(np.zeros(shape)).shape == shape


def _rel_err(E, ref):
    """Worst per-slice max-abs error relative to the slice's max-abs entry."""
    axes = (-2, -1)
    return float(np.max(np.max(np.abs(E - ref), axis=axes) / np.max(np.abs(ref), axis=axes)))


class TestPadeKernel:
    """The numpy Pade kernel against scipy's expm, imported here only."""

    @pytest.mark.parametrize("name,stack,residual", _generator_stacks())
    def test_generators_match_scipy(self, name, stack, residual):
        expm = pytest.importorskip("scipy.linalg").expm
        assert _rel_err(mt.mat_exp(stack), expm(stack)) <= 1e-13, name

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_random_stacks_match_scipy(self, n):
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(40 + n)
        X = rng.normal(size=(60, n, n))
        X *= (np.geomspace(1e-3, 50.0, 60) / np.abs(X).sum(axis=-2).max(axis=-1))[:, None, None]
        assert _rel_err(mt.mat_exp(X), expm(X)) <= 1e-11

    def test_order_switches_at_each_theta(self, monkeypatch):
        # A symmetric Y, so exp(X) = V exp(w) V^T is the reference; scipy's own
        # error reaches 5e-13 just above theta_13 on it.
        orders = list(mt._PADE_THETA)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(5, 4))
        Y = Y.T @ Y - np.eye(4)
        Y /= np.abs(Y).sum(axis=0).max()
        norms, expected = [], []
        for m, theta in mt._PADE_THETA.items():
            above = orders[orders.index(m) + 1] if m < 13 else 13
            norms += [theta * (1 - 1e-9), theta * (1 + 1e-9)]
            expected += [m, above]
        X = np.array(norms)[:, None, None] * Y
        seen = []
        real = mt._pade

        def spy(A, m):
            seen.append((m, len(A)))
            return real(A, m)

        monkeypatch.setattr(mt, "_pade", spy)
        for Xi, m in zip(X, expected):
            seen.clear()
            mt.mat_exp(Xi)
            assert [o for o, _ in seen] == [m]
        seen.clear()
        E = mt.mat_exp(X)
        assert sorted(seen) == sorted((m, expected.count(m)) for m in set(expected))
        w, V = np.linalg.eigh(X)
        assert _rel_err(E, (V * np.exp(w)[:, None, :]) @ np.swapaxes(V, -1, -2)) <= 1e-13

    def test_boost_closed_form_large_t(self):
        t = 20.0
        X = np.zeros((6, 6))
        X[0, 5] = X[5, 0] = 1.0
        E = mt.mat_exp(t * X)
        assert abs(E[0, 0] - np.cosh(t)) <= 1e-13 * np.cosh(t)
        assert abs(E[0, 5] - np.sinh(t)) <= 1e-13 * np.sinh(t)
        assert np.allclose(E[1:5, 1:5], np.eye(4), atol=1e-13 * np.cosh(t))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slice_is_nan_and_isolated(self, bad):
        _, stack, _ = _generator_stacks()[0]
        flat = stack.reshape((-1,) + stack.shape[-2:])
        mixed = flat.copy()
        mixed[4, 1, 2] = bad
        E = mt.mat_exp(mixed)
        assert np.isnan(E[4]).all()
        keep = np.arange(len(flat)) != 4
        assert np.array_equal(E[keep], mt.mat_exp(flat[keep]))

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_huge_finite_slice_terminates(self):
        E = mt.mat_exp(np.stack([np.eye(4), np.full((4, 4), 1e300)]))
        assert np.array_equal(E[0], mt.mat_exp(np.eye(4)))
        assert not np.isfinite(E[1]).any()

    def test_import_does_not_load_scipy(self):
        code = "import sys, dupin, dupin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(mt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestProjectivePoint:
    def test_scaling_invariance(self):
        v = RNG.normal(size=5)
        assert mt.ProjectivePoint(v) == mt.ProjectivePoint(-3.7 * v)

    def test_normalization_rule(self):
        p = mt.ProjectivePoint(np.array([0.5, -2.0, 1.0]))
        assert p.rep[1] == 1.0  # largest magnitude scaled to +1

    def test_zero_rejected(self):
        with pytest.raises(mt.MembershipError):
            mt.ProjectivePoint(np.zeros(4))


class TestSubalgebras:
    def test_unconstrained_so3(self):
        sub = mt.subalgebra_from_constraints([], mt.R3)
        assert sub.dim == 3
        assert sub.closure_residual < 1e-10

    def test_lie_distribution_dimension(self):
        sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE)
        assert sub.dim == 6
        assert sub.closure_residual < 1e-10
        for X in sub.elements:
            assert mt.algebra_residual(X, mt.LIE) < 1e-12

    @pytest.mark.parametrize("C", [0.0, 0.5, 1.0, 5.0 / 3.0])
    def test_moebius_dupin_distribution_dimension(self, C):
        sub = mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB)
        assert sub.dim == 2
        assert sub.closure_residual < 1e-10

    def test_inconsistent_constraints_empty(self):
        # force every independent so(3) entry to vanish
        cons = [{(0, 1): 1.0}, {(0, 2): 1.0}, {(1, 2): 1.0}]
        sub = mt.subalgebra_from_constraints(cons, mt.R3)
        assert sub.dim == 0

    def test_brackets_stay_in_span(self):
        sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE)
        for i in range(sub.dim):
            for j in range(sub.dim):
                B = mt.bracket(sub.elements[i], sub.elements[j])
                assert mt.span_projection_residual(B, sub) < 1e-10

    @pytest.mark.parametrize("C", [0.0, 0.5, 1.0, 5.0 / 3.0, -2.5])
    def test_duals_are_dual(self, C):
        sub = mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB)
        entries = [(1, 0), (2, 0)]
        duals = sub.duals(entries)
        pairing = np.array([[X[e] for e in entries] for X in duals])
        assert np.max(np.abs(pairing - np.eye(2))) < 1e-14
        for X in duals:
            assert mt.span_projection_residual(X, sub) < 1e-12

    def test_duals_need_one_element_per_entry(self):
        sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE)
        with pytest.raises(mt.GeometryError):
            sub.duals([(2, 0)])  # annihilated by every element of h

    def test_coordinates_round_trip(self):
        for metric in [mt.MOEB, mt.LIE]:
            X = mt.algebra_project(RNG.normal(size=(metric.dim, metric.dim)), metric)
            c = mt.algebra_coordinates(X, metric)
            assert np.allclose(mt.algebra_from_coordinates(c, metric), X, atol=1e-12)


class TestE3:
    def test_membership(self):
        A = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]])
        T = mt.e3_matrix([1.0, 2.0, 3.0], A)
        assert mt.e3_residual(T) < 1e-14
        T[1, 1] = 5.0
        assert mt.e3_residual(T) > 1e-2

    def test_algebra_projection(self):
        X = RNG.normal(size=(4, 4))
        P = mt.e3_algebra_project(X)
        assert mt.e3_algebra_residual(P) < 1e-14
