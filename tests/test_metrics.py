"""Indefinite linear algebra: inner products, basis changes, group/algebra
membership, exponentials, and constraint subalgebras."""

import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        assert sorted(mt.GROUPS) == ["e3", "lie", "moebius", "so3", "so31", "so4"]
        for G in mt.GROUPS.values():
            T = mt.mat_exp(G.algebra_project(RNG.normal(size=(2, G.n, G.n))))
            assert np.allclose(G.inverse(T) @ T, np.eye(G.n), atol=1e-12), G.name
            assert np.allclose(T @ G.inverse(T), np.eye(G.n), atol=1e-12), G.name
            assert np.allclose(G.inverse(T), np.linalg.inv(T), atol=1e-12), G.name
            assert G.inverse(T[0]).shape == (G.n, G.n)

    @pytest.mark.parametrize("name, metric", [("so3", mt.R3), ("so4", mt.R4), ("so31", mt.R31),
                                              ("moebius", mt.MOEB), ("lie", mt.LIE)])
    def test_group_inverse_is_the_matrix_product(self, name, metric):
        # oracle: the matrix product gram^{-1} T^T gram, bit for bit and with the
        # signs of zeros, on matrices with +0 and -0 entries
        rng = np.random.default_rng(metric.dim)
        T = rng.normal(size=(7, 5, metric.dim, metric.dim))
        T[rng.random(T.shape) < 0.3] = 0.0
        T[rng.random(T.shape) < 0.2] = -0.0
        ref = np.linalg.inv(metric.gram) @ np.swapaxes(T, -1, -2) @ metric.gram
        for got in (mt.group_inverse(T, metric), mt.GROUPS[name].inverse(T)):
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

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
    """The numpy Taylor and Pade kernel against scipy's expm, imported here only."""

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
        # error reaches 5e-13 just above theta_13 on it.  Just below theta_m a
        # slice takes T_m, just above it the next degree; above theta_16 it
        # takes r_13, applied to X / 2 once the norm passes theta_13.
        degrees = list(mt._TAYLOR_THETA)
        rng = np.random.default_rng(7)
        Y = rng.normal(size=(5, 4))
        Y = Y.T @ Y - np.eye(4)
        Y /= np.abs(Y).sum(axis=0).max()
        norms, expected = [], []
        thetas = [*mt._TAYLOR_THETA.items(), (13, mt._PADE_THETA_13)]
        for (m, theta), above in zip(thetas, degrees[1:] + [13, 13]):
            norms += [theta * (1 - 1e-9), theta * (1 + 1e-9)]
            expected += [(m, 1.0), (above, 1.0 if m != 13 else 0.5)]
        X = np.array(norms)[:, None, None] * Y
        seen = []
        taylor, pade = mt._taylor, mt._pade

        def spy(kind, A, m):
            seen.append((m, len(A), float(np.abs(A).sum(axis=-2).max())))
            return taylor(A, m) if kind == "taylor" else pade(A)

        monkeypatch.setattr(mt, "_taylor", lambda A, m: spy("taylor", A, m))
        monkeypatch.setattr(mt, "_pade", lambda A: spy("pade", A, 13))
        for Xi, norm, (m, scale) in zip(X, norms, expected):
            seen.clear()
            mt.mat_exp(Xi)
            assert [(o, k) for o, k, _ in seen] == [(m, 1)]
            assert seen[0][2] == pytest.approx(scale * norm, rel=1e-12)
        seen.clear()
        E = mt.mat_exp(X)
        runs = [m for m, _ in expected]
        assert sorted((o, k) for o, k, _ in seen) == sorted((m, runs.count(m)) for m in set(runs))
        w, V = np.linalg.eigh(X)
        assert _rel_err(E, (V * np.exp(w)[:, None, :]) @ np.swapaxes(V, -1, -2)) <= 1e-13

    @pytest.mark.parametrize("m", list(mt._TAYLOR_THETA))
    def test_taylor_theta_from_backward_error_series(self, m):
        # theta_m is the largest x with sum_k |c_k| x^(k-1) <= 2^-53, where
        # h_{m+1}(x) = log(e^-x T_m(x)) = sum_{k>m} c_k x^k; the series is
        # exact in rationals, truncated at degree 2m + 40
        deg = 2 * m + 40

        def mul(p, q):
            return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(deg + 1)]

        exp_neg = [Fraction((-1) ** k, factorial(k)) for k in range(deg + 1)]
        taylor = [Fraction(1, factorial(k)) if k <= m else Fraction(0) for k in range(deg + 1)]
        q = mul(exp_neg, taylor)  # e^-x T_m(x) = 1 + q(x), q = O(x^{m+1})
        q[0] -= 1
        assert not any(q[:m + 1])
        h, qj = [Fraction(0)] * (deg + 1), [Fraction(1)] + [Fraction(0)] * deg
        for j in range(1, deg // (m + 1) + 1):  # log(1 + q) = sum_j (-1)^(j+1) q^j / j
            qj = mul(qj, q)
            h = [c + Fraction((-1) ** (j + 1), j) * d for c, d in zip(h, qj)]
        terms = [(k, float(abs(c))) for k, c in enumerate(h) if c]
        lo, hi = 0.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sum(c * mid ** (k - 1) for k, c in terms) <= 2.0 ** -53:
                lo = mid
            else:
                hi = mid
        assert abs(lo - mt._TAYLOR_THETA[m]) <= 1e-10 * lo

    def test_small_norms_solve_nothing(self, monkeypatch):
        def no_pade(A):
            raise AssertionError("r_13 ran")

        monkeypatch.setattr(mt, "_pade", no_pade)
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6):
            X = rng.normal(size=(50, n, n))
            X *= (np.geomspace(1e-12, mt._TAYLOR_THETA[16] * (1 - 1e-12), 50)
                  / np.abs(X).sum(axis=-2).max(axis=-1))[:, None, None]
            assert np.isfinite(mt.mat_exp(X)).all()

    def test_large_norms_scale_and_square_r13(self):
        rng = np.random.default_rng(12)
        for norm in (mt._PADE_THETA_13 * (1 + 1e-9), 7.0, 50.0, 1e3):
            X = rng.normal(size=(6, 6))
            X *= norm / np.abs(X).sum(axis=0).max()
            s = int(np.ceil(np.log2(norm / mt._PADE_THETA_13)))
            E = mt._pade(np.ldexp(X, -s)[None])[0]
            for _ in range(s):
                E = E @ E
            assert np.array_equal(mt.mat_exp(X), E)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(group=st.sampled_from(["so3", "moebius", "lie", "e3"]), seed=st.integers(0, 2 ** 32 - 1),
           log_norm=st.floats(np.log(1e-8), np.log(50.0)))
    def test_exp_in_group_and_matches_scipy(self, group, seed, log_norm):
        # 1-norms log-uniform over every approximant and up to four squarings
        G = mt.GROUPS[group]
        X = G.algebra_project(np.random.default_rng(seed).normal(size=(G.n, G.n)))
        norm = np.exp(log_norm)
        X *= norm / np.abs(X).sum(axis=0).max()
        E = mt.mat_exp(X)
        assert G.membership_residual(E) <= 1e-12 * np.max(np.abs(E)) ** 2
        if norm <= 1.0:
            expm = pytest.importorskip("scipy.linalg").expm
            assert _rel_err(E, expm(X)) <= 1e-13

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
        # nor does the coset membership certificate, the last former scipy user
        code = ("import sys, dupin, dupin.cli; from dupin import liesphere as ls; "
                "ls.coset_membership_residual(ls.example_frame()); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(mt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


class _ProjectivePoint:
    """Reference projective point: the equivalence class of a nonzero vector,
    whose canonical representative scales the largest-magnitude coordinate to
    +1 (ties broken by lowest index), as mt.projective_normalize does."""

    def __init__(self, rep):
        rep = np.asarray(rep, dtype=float)
        m = np.max(np.abs(rep))
        if m == 0.0 or not np.isfinite(m):
            raise mt.MembershipError("projective point needs a nonzero finite representative")
        idx = int(np.argmax(np.abs(rep)))
        self.rep = rep / rep[idx]

    def __eq__(self, other):
        return self.rep.shape == other.rep.shape and bool(
            np.allclose(self.rep, other.rep, atol=1e-10))


class TestProjectivePoint:
    def test_scaling_invariance(self):
        v = RNG.normal(size=5)
        assert _ProjectivePoint(v) == _ProjectivePoint(-3.7 * v)

    def test_normalization_rule(self):
        p = _ProjectivePoint(np.array([0.5, -2.0, 1.0]))
        assert p.rep[1] == 1.0  # largest magnitude scaled to +1
        assert np.array_equal(mt.projective_normalize(np.array([0.5, -2.0, 1.0])), p.rep)

    def test_zero_rejected(self):
        with pytest.raises(mt.MembershipError):
            _ProjectivePoint(np.zeros(4))


SO3_ENTRIES = [(0, 1), (0, 2), (1, 2)]
HC_ENTRIES = [(1, 0), (2, 0)]
H_ENTRIES = [(2, 1), (3, 0), (0, 0), (1, 1), (0, 3), (1, 2)]


def _span_residual(X, sub):
    """Distance of an algebra element from the span of a SubalgebraBasis, by
    the dual read-off: X - sum_k X[e_k] X_k vanishes iff X is in the span."""
    return float(np.max(np.abs(X - sum(X[e] * Y for e, Y in zip(sub.entries, sub.elements)))))


class TestSubalgebras:
    def test_unconstrained_so3(self):
        sub = mt.subalgebra_from_constraints([], mt.R3, SO3_ENTRIES)
        assert sub.dim == 3
        assert sub.closure_residual < 1e-10

    def test_lie_distribution_dimension(self):
        sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE, H_ENTRIES)
        assert sub.dim == 6
        assert sub.closure_residual < 1e-10
        for X in sub.elements:
            assert mt.algebra_residual(X, mt.LIE) < 1e-12

    @pytest.mark.parametrize("C", [0.0, 0.5, 1.0, 5.0 / 3.0])
    def test_moebius_dupin_distribution_dimension(self, C):
        sub = mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB, HC_ENTRIES)
        assert sub.dim == 2
        assert sub.closure_residual < 1e-10

    def test_inconsistent_constraints_empty(self):
        # force every independent so(3) entry to vanish
        cons = [{(0, 1): 1.0}, {(0, 2): 1.0}, {(1, 2): 1.0}]
        sub = mt.subalgebra_from_constraints(cons, mt.R3, [])
        assert sub.dim == 0

    def test_brackets_stay_in_span(self):
        sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE, H_ENTRIES)
        for i in range(sub.dim):
            for j in range(sub.dim):
                B = mt.bracket(sub.elements[i], sub.elements[j])
                assert _span_residual(B, sub) < 1e-10

    @pytest.mark.parametrize("C", [0.0, 0.5, 1.0, 5.0 / 3.0, -2.5])
    def test_duals_are_dual(self, C):
        sub = mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB, HC_ENTRIES)
        pairing = np.array([[X[e] for e in HC_ENTRIES] for X in sub.elements])
        assert np.max(np.abs(pairing - np.eye(2))) < 1e-14
        for X in sub.elements:
            assert _span_residual(X, sub) < 1e-12

    def test_duals_need_one_element_per_entry(self):
        # omega^2_0 is annihilated by every element of h: with it in place of
        # theta^2 the system is square and singular, alone it is not square
        with pytest.raises(mt.GeometryError):
            mt.subalgebra_from_constraints(h_constraints(), mt.LIE, [(2, 0)])
        with pytest.raises(mt.GeometryError):
            mt.subalgebra_from_constraints(h_constraints(), mt.LIE, [(2, 0)] + H_ENTRIES[1:])

    def test_non_finite_constraints_rejected(self):
        with pytest.raises(mt.GeometryError):
            mt.subalgebra_from_constraints(hc_constraints(np.nan), mt.MOEB, HC_ENTRIES)


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
