"""Indefinite-signature linear algebra on the small quadratic spaces R^4, R^{3,1},
R^{4,1} and R^{4,2}.

Everything here is dense double precision on matrices of size at most 6x6.
Vectors are plain numpy arrays; the metric object supplies the Gram matrix,
the basis bookkeeping (epsilon / delta / lambda bases) and the pairing
structure needed to coordinatize the matrix algebras so(gram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import factorial, isqrt

import numpy as np

SQRT2 = float(np.sqrt(2.0))


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class MembershipError(GeometryError):
    pass


@dataclass(frozen=True)
class Metric:
    """A nondegenerate symmetric bilinear form in a fixed basis.

    ``dual_index[a]`` is the unique index b with gram[a, b] != 0; every gram
    used here pairs each basis vector with exactly one basis vector (itself
    for orthogonal bases, a partner for the null delta/lambda bases).
    ``eta[a]`` is that nonzero pairing value (+1 or -1).
    """

    name: str
    gram: np.ndarray
    dual_index: tuple = field(init=False)
    eta: tuple = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise MembershipError("gram must be square")
        if not np.allclose(g, g.T, atol=1e-14):
            raise MembershipError("gram must be symmetric")
        object.__setattr__(self, "gram", g)
        dual = []
        eta = []
        for a in range(g.shape[0]):
            nz = np.nonzero(np.abs(g[a]) > 1e-14)[0]
            if len(nz) != 1:
                raise MembershipError("gram rows must have a single pairing entry")
            dual.append(int(nz[0]))
            eta.append(float(g[a, nz[0]]))
        object.__setattr__(self, "dual_index", tuple(dual))
        object.__setattr__(self, "eta", tuple(eta))

    @property
    def dim(self):
        return self.gram.shape[0]


def _diag(*entries):
    return np.diag(np.asarray(entries, dtype=float))

# The six quadratic spaces of the toolkit. epsilon bases are the standard
# orthonormal ones; signature ++++-- on R^{4,2} with the two minus slots last.
R3 = Metric("R3", np.eye(3))
R4 = Metric("R4", np.eye(4))
R31 = Metric("R31", _diag(1, 1, 1, -1))
R41 = Metric("R41", _diag(1, 1, 1, 1, -1))
R42 = Metric("R42", _diag(1, 1, 1, 1, -1, -1))

# delta basis of R^{4,1}: delta0 = (eps4+eps0)/sqrt2, delta_i = eps_i,
# delta4 = (eps4-eps0)/sqrt2.  Columns of P_DELTA are the delta vectors in
# epsilon coordinates; P is orthogonal.
P_DELTA = np.array(
    [
        [1 / SQRT2, 0, 0, 0, -1 / SQRT2],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [1 / SQRT2, 0, 0, 0, 1 / SQRT2],
    ]
)

# lambda basis of R^{4,2}: lambda0 = (eps5+eps0)/sqrt2, lambda1 = (eps4+eps1)/sqrt2,
# lambda2 = eps2, lambda3 = eps3, lambda4 = (eps4-eps1)/sqrt2, lambda5 = (eps5-eps0)/sqrt2.
P_LAMBDA = np.array(
    [
        [1 / SQRT2, 0, 0, 0, 0, -1 / SQRT2],
        [0, 1 / SQRT2, 0, 0, -1 / SQRT2, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 1 / SQRT2, 0, 0, 1 / SQRT2, 0],
        [1 / SQRT2, 0, 0, 0, 0, 1 / SQRT2],
    ]
)

def _clean(g):
    g = np.where(np.abs(g) < 1e-12, 0.0, g)
    return np.where(np.abs(g - np.round(g)) < 1e-12, np.round(g), g)


R41_DELTA = Metric("R41_delta", _clean(P_DELTA.T @ R41.gram @ P_DELTA))
R42_LAMBDA = Metric("R42_lambda", _clean(P_LAMBDA.T @ R42.gram @ P_LAMBDA))

MOEB = R41_DELTA   # Moebius group metric (5x5, delta basis)
LIE = R42_LAMBDA   # Lie sphere group metric (6x6, lambda basis)

_BASIS_CHANGE = {
    (5, "epsilon", "delta"): np.linalg.inv(P_DELTA),
    (5, "delta", "epsilon"): P_DELTA,
    (6, "epsilon", "lambda"): np.linalg.inv(P_LAMBDA),
    (6, "lambda", "epsilon"): P_LAMBDA,
}


def inner(u, v, metric):
    """Bilinear form <u, v> = u^T gram v; broadcasts over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != metric.dim or v.shape[-1] != metric.dim:
        raise MembershipError(
            f"dimension mismatch: got {u.shape[-1]}/{v.shape[-1]}, metric {metric.dim}"
        )
    # a sum of whole-array terms eta_a u_{a*} v_a, one per coordinate: a
    # reduction over the short last axis would loop over it once per point
    terms = (e * u[..., b] * v[..., a]
             for a, (b, e) in enumerate(zip(metric.dual_index, metric.eta)))
    out = next(terms)
    for t in terms:
        out += t
    return out


def change_basis(x, dim, src, dst, kind="vector"):
    """Convert coordinates between the named bases of R^{4,1} / R^{4,2}.

    kind="vector": arrays of coordinate vectors, coordinate axis last.
    kind="frame":  matrices whose columns are vectors (left-multiplied).
    kind="operator": linear maps (conjugated).
    """
    x = np.asarray(x, dtype=float)
    if src == dst:
        return x.copy()
    key = (dim, src, dst)
    if key not in _BASIS_CHANGE:
        raise MembershipError(f"no basis change {src}->{dst} in dimension {dim}")
    B = _BASIS_CHANGE[key]
    if kind == "vector":
        return x @ B.T
    if kind == "frame":
        return B @ x
    if kind == "operator":
        return B @ x @ np.linalg.inv(B)
    raise MembershipError(f"unknown kind {kind!r}")


def group_residual(T, metric):
    """Max-abs entry of T^T gram T - gram; zero iff T preserves the form."""
    T = np.asarray(T, dtype=float)
    g = metric.gram
    r = np.swapaxes(T, -1, -2) @ g @ T - g
    return float(np.max(np.abs(r)))


def group_inverse(T, metric):
    """gram^{-1} T^T gram, the inverse of a form-preserving T, as one exact
    signed gather: entry (a, b) is eta_a eta_b T[b*, a*] with b* the partner
    dual_index[b].  Adding 0.0 turns -0 into +0, as the matrix product did."""
    d, eta = np.array(metric.dual_index), np.array(metric.eta)
    return eta[:, None] * eta * np.asarray(T, dtype=float)[..., d, d[:, None]] + 0.0


def algebra_residual(X, metric):
    """Max-abs entry of X^T gram + gram X; zero iff X is in so(gram)."""
    X = np.asarray(X, dtype=float)
    g = metric.gram
    r = np.swapaxes(X, -1, -2) @ g + g @ X
    return float(np.max(np.abs(r)))


def algebra_project(X, metric):
    """Projection of a matrix onto so(gram) along its g-symmetric complement,
    (X - gram^{-1} X^T gram) / 2."""
    return 0.5 * (np.asarray(X, dtype=float) - group_inverse(X, metric))


def bracket(X, Y):
    return X @ Y - Y @ X


# theta_m: the largest 1-norm at which T_m, the Taylor polynomial of exp of
# degree m, meets unit roundoff 2^-53 in backward error, from the series
# log(e^-x T_m(x)) (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011).
# Above theta_16 the diagonal Pade approximant r_13 takes over (Higham, SIAM
# J. Matrix Anal. Appl. 26(4), 2005, Table 2.3); _PADE_B[k] is the
# coefficient of A^k in its numerator, scaled so b_13 = 1.
_TAYLOR_THETA = {2: 2.580956802971767e-8, 4: 3.397168839976962e-4, 6: 9.065656407595102e-3,
                 9: 8.957760203223343e-2, 12: 2.996158913811580e-1, 16: 7.802874256626574e-1}
_PADE_THETA_13 = 5.371920351148152e0
_PADE_B = [factorial(26 - k) / (factorial(k) * factorial(13 - k)) for k in range(14)]


def _diagonal(B):
    """The diagonals of a stack (N, n, n), as a writable view."""
    return np.einsum("...ii->...i", B)


def _taylor(A, m):
    """T_m = sum_k A^k / k! on a stack (N, n, n) by Paterson-Stockmeyer: the
    powers A^2..A^s, then Horner's rule in A^s over blocks of s terms, for
    s + m/s - 2 whole-stack products and no solve."""
    s = isqrt(m - 1) + 1  # ceil(sqrt(m)), which divides each degree used
    P = [A]  # A, A^2, ..., A^s
    while len(P) < s:
        P.append(P[-1] @ A)
    H = P[s - 1] / factorial(m)
    for k in reversed(range(m // s)):
        if k < m // s - 1:
            H = P[s - 1] @ H
        for j in range(1, s):
            H += P[j - 1] / factorial(k * s + j)
        _diagonal(H)[...] += 1 / factorial(k * s)
    return H


def _pade(A):
    """r_13 = (V - U)^{-1} (V + U) on a stack (N, n, n), with U the odd and V
    the even part: six whole-stack products and one batched solve."""
    b = _PADE_B
    P = [A @ A]  # A^2, A^4, A^6
    P += [P[0] @ P[0]]
    P += [P[1] @ P[0]]
    U, V = np.zeros_like(A), np.zeros_like(A)
    for k, Pk in enumerate(P, start=1):  # the terms of degree 8 to 13 share the factor A^6
        U += Pk * b[2 * k + 7]
        V += Pk * b[2 * k + 6]
    U, V = P[2] @ U, P[2] @ V
    for k, Pk in enumerate(P, start=1):
        U += Pk * b[2 * k + 1]
        V += Pk * b[2 * k]
    _diagonal(U)[...] += b[1]
    _diagonal(V)[...] += b[0]
    U = A @ U
    return np.linalg.solve(V - U, V + U)


def mat_exp(X):
    """Matrix exponential of one matrix or of a stack of shape (..., n, n);
    leading shapes, including empty ones, are kept.  The only exponential in
    the package: callers pass whole stacks rather than looping over points.

    Each slice picks its approximant from its 1-norm: the Taylor polynomial
    T_m of lowest degree m in {2, 4, 6, 9, 12, 16} with norm <= theta_m, which
    costs 1 to 6 products and no solve; above theta_16 the Pade approximant
    r_13 with scaling and squaring (Higham 2005): r_13 on X / 2^s with
    s = max(0, ceil(log2(norm / theta_13))), squared back s times.  Because
    the choice is per slice, a slice's result does not depend on the rest of
    the stack.  A slice with a NaN or infinite entry comes out all NaN."""
    X = np.asarray(X, dtype=float)
    A = X.reshape((-1,) + X.shape[-2:])
    # the 1-norm from whole-array terms: a numpy reduction over a short
    # trailing axis would loop over it once per slice
    norm = reduce(np.maximum, reduce(np.add, np.moveaxis(np.abs(A), -2, 0)).T)
    degrees = list(_TAYLOR_THETA)
    # the index of the Taylor degree, len(degrees) for r_13, one more for NaN
    order = np.where(np.isfinite(norm), np.searchsorted(list(_TAYLOR_THETA.values()), norm),
                     len(degrees) + 1)
    s = np.zeros(len(A), dtype=int)
    big = (order == len(degrees)) & (norm > _PADE_THETA_13)
    if big.any():
        s[big] = np.ceil(np.log2(norm[big] / _PADE_THETA_13))
        A = np.ldexp(A, -s[:, None, None])
    E = np.full_like(A, np.nan)
    for i, count in enumerate(np.bincount(order)[:len(degrees) + 1]):
        if count:
            group = slice(None) if count == len(A) else order == i
            E[group] = _taylor(A[group], degrees[i]) if i < len(degrees) else _pade(A[group])
    for k in range(s.max(initial=0)):
        sq = s > k
        if sq.all():
            E = E @ E
        else:
            Q = E[sq]
            E[sq] = Q @ Q
    return E.reshape(X.shape)


def projective_normalize(reps):
    """Canonical projective scaling applied along the last axis (vectorized)."""
    reps = np.asarray(reps, dtype=float)
    idx = np.argmax(np.abs(reps), axis=-1)
    scale = np.take_along_axis(reps, idx[..., None], axis=-1)
    return reps / scale


# --- algebra coordinates -----------------------------------------------------

def algebra_entry_basis(metric):
    """Independent-entry basis of so(gram).

    Returns a list of ((a, b), matrix) pairs.  Entry (a, b) determines its
    partner entry (b*, a*) through X[b*, a*] = -(eta_a/eta_b) X[a, b]; entries
    that are their own partner are forced to zero and omitted.  This gives 3
    coordinates for so(3), 10 for the Moebius algebra, 15 for the Lie algebra.
    """
    n = metric.dim
    dual = metric.dual_index
    eta = metric.eta
    basis = []
    for a in range(n):
        for b in range(n):
            partner = (dual[b], dual[a])
            if partner == (a, b):
                continue  # forced zero entry
            if partner < (a, b):
                continue  # already covered by its partner
            M = np.zeros((n, n))
            M[a, b] = 1.0
            M[partner] = -eta[a] / eta[b]
            basis.append(((a, b), M))
    return basis


@dataclass
class SubalgebraBasis:
    """Basis of a subalgebra of so(gram) dual to Maurer-Cartan entries: the
    k-th element has entry ``entries[k]`` equal to 1 and the other listed
    entries 0, so a bracket [X_i, X_j] lies in the span iff it equals
    sum_k [X_i, X_j][entries[k]] X_k; ``closure_residual`` is the largest
    entry of their difference."""

    entries: list
    elements: list
    closure_residual: float

    @property
    def dim(self):
        return len(self.elements)


def subalgebra_from_constraints(constraints, metric, entries):
    """The basis of {X in so(gram): every constraint vanishes on X} dual to the
    Maurer-Cartan ``entries``; each constraint is a dict {(a, b): coeff}
    meaning sum coeff * omega^a_b = 0.  One solve in the coordinates of
    ``algebra_entry_basis``, so each element lies in so(gram) by construction,
    with a row per constraint and a unit row per entry.  Raises GeometryError
    unless that system is square and nonsingular with a finite solution, and
    when the closure residual overflows."""
    basis = np.stack([M for _, M in algebra_entry_basis(metric)])  # (ncoord, n, n)
    rows = [sum(c * basis[:, a, b] for (a, b), c in f.items()) for f in constraints]
    rows += [basis[:, a, b] for a, b in entries]
    rhs = np.eye(len(rows), len(entries), -len(constraints))  # 0 on constraints, I on entries
    try:
        # LinAlgError unless square and nonsingular
        coeff = np.linalg.solve(np.reshape(rows, (len(rows), len(basis))), rhs)
    except np.linalg.LinAlgError:
        coeff = None
    if coeff is None or not np.isfinite(coeff).all():
        raise GeometryError(f"{len(constraints)} constraints and the entries {list(entries)} "
                            f"do not single out a basis of so({metric.name})")
    E = np.tensordot(coeff.T, basis, axes=1)  # (len(entries), n, n)
    a, b = np.array(entries, dtype=int).reshape(-1, 2).T
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        B = E[:, None] @ E[None] - E[None] @ E[:, None]  # B[i, j] = [X_i, X_j]
        closure = np.max(np.abs(B - np.einsum("ijk,kab->ijab", B[..., a, b], E)), initial=0.0)
    if not np.isfinite(closure):
        raise GeometryError(f"the closure residual of the basis dual to {list(entries)} "
                            "overflows: its brackets exceed the floating-point range")
    return SubalgebraBasis(list(entries), list(E), float(closure))


# --- the Euclidean motion group (not metric-defined) -------------------------

def e3_matrix(translation, rotation):
    """E(3) element [[1, 0], [y, A]] acting as x -> y + A x."""
    T = np.eye(4)
    T[1:, 0] = np.asarray(translation, dtype=float)
    T[1:, 1:] = np.asarray(rotation, dtype=float)
    return T


def e3_inverse(T):
    """[[1, 0], [y, A]]^{-1} = [[1, 0], [-A^T y, A^T]] for a rotation A."""
    T = np.asarray(T, dtype=float)
    inv = np.zeros_like(T)
    inv[..., 0, 0] = 1.0
    inv[..., 1:, 1:] = np.swapaxes(T[..., 1:, 1:], -1, -2)
    inv[..., 1:, :1] = -inv[..., 1:, 1:] @ T[..., 1:, :1]
    return inv


def e3_residual(T):
    T = np.asarray(T, dtype=float)
    A = T[..., 1:, 1:]
    r1 = np.max(np.abs(np.swapaxes(A, -1, -2) @ A - np.eye(3)))
    top = np.zeros(4)
    top[0] = 1.0
    r2 = np.max(np.abs(T[..., 0, :] - top))
    return float(max(r1, r2))


def e3_algebra_residual(X):
    X = np.asarray(X, dtype=float)
    S = X[..., 1:, 1:]
    r1 = np.max(np.abs(S + np.swapaxes(S, -1, -2)))
    r2 = np.max(np.abs(X[..., 0, :]))
    return float(max(r1, r2))


def e3_algebra_project(X):
    X = np.asarray(X, dtype=float)
    Y = X.copy()
    Y[..., 0, :] = 0.0
    S = X[..., 1:, 1:]
    Y[..., 1:, 1:] = 0.5 * (S - np.swapaxes(S, -1, -2))
    return Y


class MatrixGroup:
    """Uniform handle over the matrix groups used by the frame calculus: the
    group's membership and algebra residuals, its inverse and its projection
    onto the algebra.  Metric groups take them from their Gram matrix."""

    def __init__(self, name, n, membership_residual, algebra_residual, algebra_project,
                 inverse):
        self.name, self.n = name, n
        self.membership_residual = membership_residual
        self.algebra_residual = algebra_residual
        self.algebra_project = algebra_project
        self.inverse = inverse

    @classmethod
    def of_metric(cls, name, metric):
        return cls(name, metric.dim, lambda T: group_residual(T, metric),
                   lambda X: algebra_residual(X, metric), lambda X: algebra_project(X, metric),
                   lambda T: group_inverse(T, metric))


GROUPS = {name: MatrixGroup.of_metric(name, metric) for name, metric in
          (("so3", R3), ("so4", R4), ("so31", R31), ("moebius", MOEB), ("lie", LIE))}
GROUPS["e3"] = MatrixGroup("e3", 4, e3_residual, e3_algebra_residual, e3_algebra_project,
                           e3_inverse)
