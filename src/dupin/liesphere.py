"""The Lie quadric in R^{4,2}, pencils of oriented spheres (lines), Lie frames,
the contact form, Legendre lifts, the explicit homogeneous Legendre immersion,
best-Lie-frame order conditions, the 6-dimensional subalgebra of the Dupin
distribution, boost cosets, and the singular surface-of-revolution pipeline.

Line representatives are kept in epsilon coordinates of R^{4,2}; Lie frames
are 6x6 matrices in the lambda basis (metric ghat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from . import spaceforms as sf
from .metrics import GeometryError, inner
from .frames import (FrameField, FrameOrderError, coframe_solve, exterior_d,
                     grid_differential, pullback_mc, wedge)
from .surfaces import ParamDomain, propagate_sign


class DegenerateLineError(GeometryError):
    pass


QUADRIC_TOL = 1e-10


def quadric_residual(v):
    return float(np.max(np.abs(inner(v, v, mt.R42))))


def include_sphere(S):
    """S^{3,1} -> Lie quadric: S -> S + eps5."""
    S = np.asarray(S, dtype=float)
    out = np.empty(S.shape[:-1] + (6,))
    out[..., :5] = S
    out[..., 5] = 1.0
    return out


def include_point(q):
    """Moebius space -> Lie quadric through R^{4,1} subset R^{4,2}."""
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape[:-1] + (6,))
    out[..., :5] = q
    return out


@dataclass
class PencilLine:
    """A line of the quadric: two orthogonal independent null representatives."""

    S0: np.ndarray
    S1: np.ndarray

    def residuals(self):
        """Quadric residuals of both representatives and their orthogonality."""
        return {
            "quadric_S0": quadric_residual(self.S0),
            "quadric_S1": quadric_residual(self.S1),
            "orthogonality": float(np.max(np.abs(inner(self.S0, self.S1, mt.R42)))),
        }


def make_line(S0, S1, tol=QUADRIC_TOL):
    S0 = np.asarray(S0, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    if quadric_residual(S0) > tol or quadric_residual(S1) > tol:
        raise DegenerateLineError("representative off the quadric")
    if np.max(np.abs(inner(S0, S1, mt.R42))) > tol:
        raise DegenerateLineError("representatives are not orthogonal")
    svals = np.linalg.svd(np.stack([S0, S1]), compute_uv=False)
    if svals[-1] < 1e-9 * svals[0]:
        raise DegenerateLineError("representatives are linearly dependent")
    return PencilLine(S0, S1)


def spherical_projection(S0, S1):
    """The unique point sphere on each line: the combination orthogonal to eps5,
    returned as an R^{4,1} representative.  Vectorized over grids."""
    S0 = np.asarray(S0, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    a0 = inner(S0, np.eye(6)[5], mt.R42)
    a1 = inner(S1, np.eye(6)[5], mt.R42)
    scale = np.maximum(np.abs(a0), np.abs(a1))
    if np.any(scale < 1e-12 * np.maximum(np.max(np.abs(S0), axis=-1), 1.0)):
        raise DegenerateLineError("line lies inside Moebius space (data error)")
    w = a1[..., None] * S0 - a0[..., None] * S1
    return w[..., :5]


# --- Legendre maps ------------------------------------------------------------------

@dataclass
class LegendreMap:
    """Grid of pencil lines over a parameter domain; optional analytic partials
    of the two representative fields."""

    S0: np.ndarray
    S1: np.ndarray
    domain: ParamDomain
    dS0: tuple | None = None
    dS1: tuple | None = None

    line_residuals = PencilLine.residuals


def _fixed_norm_coordinate(field):
    """Index of the coordinate functional with the largest minimum magnitude
    over the grid (a smooth normalization, unlike per-point argmax)."""
    mins = np.min(np.abs(field), axis=tuple(range(field.ndim - 1)))
    return int(np.argmax(mins))


def _smooth_normalize(field):
    k = _fixed_norm_coordinate(field)
    return field / field[..., k][..., None]


def contact_residual(lm):
    """Max over the grid of |<dS0, S1>| in both parameter directions, with the
    representatives rescaled by a fixed coordinate functional."""
    if lm.dS0 is not None:
        dS0u, dS0v = lm.dS0
        f = np.abs(lm.S0[..., _fixed_norm_coordinate(lm.S0)])
        g = np.abs(lm.S1[..., _fixed_norm_coordinate(lm.S1)])
        r_u = inner(dS0u, lm.S1, mt.R42) / (f * g)
        r_v = inner(dS0v, lm.S1, mt.R42) / (f * g)
        return float(max(np.max(np.abs(r_u)), np.max(np.abs(r_v))))
    S0 = _smooth_normalize(lm.S0)
    S1 = _smooth_normalize(lm.S1)
    d = lm.domain
    r_u, r_v = (inner(dS0, S1, mt.R42) for dS0 in grid_differential(S0, d))
    return float(max(np.max(np.abs(r_u)), np.max(np.abs(r_v))))


def legendre_lift(F, S, domain, dF=None, dS=None, tangency_tol=1e-6):
    """Legendre lift [F, S + eps5] of an immersion into Moebius space with a
    tangent sphere map S along it."""
    F = np.asarray(F, dtype=float)
    S = np.asarray(S, dtype=float)
    if np.max(np.abs(inner(F, S, mt.R41))) > tangency_tol:
        raise GeometryError("S is not a sphere through the points of F")
    dFt = dF if dF is not None else grid_differential(_smooth_normalize(F), domain)
    tang = max(float(np.max(np.abs(inner(dFi, S, mt.R41)))) for dFi in dFt)
    scale = float(np.median(np.abs(F).max(axis=-1)))
    if tang > tangency_tol * max(scale, 1.0):
        raise GeometryError(f"sphere map is not tangent (residual {tang:.3e})")
    S0 = include_point(F)
    S1 = include_sphere(S)
    dS0 = None if dF is None else (include_point(dF[0]), include_point(dF[1]))
    dS1 = None if dS is None else (include_point(dS[0]), include_point(dS[1]))
    return LegendreMap(S0, S1, domain, dS0, dS1)


def example_lambda(domain=None):
    """The homogeneous Legendre immersion [S0(u), S1(v)] with
    S0 = cos u eps0 + sin u eps3 + eps4 and S1 = cos v eps1 + sin v eps2 + eps5."""
    domain = domain or ParamDomain()
    U, V = domain.mesh()
    Z = np.zeros_like(U)
    S0 = np.stack([np.cos(U), Z, Z, np.sin(U), np.ones_like(U), Z], axis=-1)
    S1 = np.stack([Z, np.cos(V), np.sin(V), Z, Z, np.ones_like(V)], axis=-1)
    dS0 = (
        np.stack([-np.sin(U), Z, Z, np.cos(U), Z, Z], axis=-1),
        np.zeros(U.shape + (6,)),
    )
    dS1 = (
        np.zeros(U.shape + (6,)),
        np.stack([Z, -np.sin(V), np.cos(V), Z, Z, Z], axis=-1),
    )
    return LegendreMap(S0, S1, domain, dS0, dS1)


def example_frame(domain=None):
    """Best Lie frame field along example_lambda: columns
    [S0, S1, S1', S0', (-cos v eps1 - sin v eps2 + eps5)/2,
     (-cos u eps0 - sin u eps3 + eps4)/2], converted to the lambda basis."""
    domain = domain or ParamDomain()
    U, V = domain.mesh()
    Z = np.zeros_like(U)
    O = np.ones_like(U)
    cu, su, cv, sv = np.cos(U), np.sin(U), np.cos(V), np.sin(V)

    def col(*comps):
        return np.stack([np.broadcast_to(c, U.shape) for c in comps], axis=-1)

    cols = [
        col(cu, Z, Z, su, O, Z),
        col(Z, cv, sv, Z, Z, O),
        col(Z, -sv, cv, Z, Z, Z),
        col(-su, Z, Z, cu, Z, Z),
        col(Z, -cv / 2, -sv / 2, Z, Z, O / 2),
        col(-cu / 2, Z, Z, -su / 2, O / 2, Z),
    ]
    d_u = [
        col(-su, Z, Z, cu, Z, Z),
        col(Z, Z, Z, Z, Z, Z),
        col(Z, Z, Z, Z, Z, Z),
        col(-cu, Z, Z, -su, Z, Z),
        col(Z, Z, Z, Z, Z, Z),
        col(su / 2, Z, Z, -cu / 2, Z, Z),
    ]
    d_v = [
        col(Z, Z, Z, Z, Z, Z),
        col(Z, -sv, cv, Z, Z, Z),
        col(Z, -cv, -sv, Z, Z, Z),
        col(Z, Z, Z, Z, Z, Z),
        col(Z, sv / 2, -cv / 2, Z, Z, Z),
        col(Z, Z, Z, Z, Z, Z),
    ]
    P = mt.P_LAMBDA
    T = np.einsum("ij,...jk->...ik", P.T, np.stack(cols, axis=-1))
    Tu = np.einsum("ij,...jk->...ik", P.T, np.stack(d_u, axis=-1))
    Tv = np.einsum("ij,...jk->...ik", P.T, np.stack(d_v, axis=-1))
    return FrameField("lie", T, domain, Tu, Tv)


# --- spherical-projection rank test ---------------------------------------------------

def sigma_rank_report(lm, rank_tol=1e-10):
    """Singular values of the differential of sigma composed with the map;
    the second singular value vanishes where the projection is singular."""
    sig = spherical_projection(lm.S0, lm.S1)
    sig = _smooth_normalize(sig)
    d = lm.domain
    J = np.moveaxis(grid_differential(sig, d), 0, -1)
    svals = np.linalg.svd(J, compute_uv=False)
    return {
        "max_second_singular_value": float(np.max(svals[..., 1])),
        "singular_everywhere": bool(np.max(svals[..., 1]) < rank_tol),
        "svals": svals,
    }


# --- curvature spheres and the Dupin test ---------------------------------------------

def _pencil_complement(S0, S1):
    """Orthonormal pair spanning {v : <v,S0> = <v,S1> = 0} / span{S0,S1},
    where the induced form is positive definite (batched)."""
    G = mt.R42.gram
    A = np.stack([S0, S1], axis=-2) @ G                    # (..., 2, 6)
    _, _, vh = np.linalg.svd(A)
    N = vh[..., 2:, :]                                     # (..., 4, 6) basis of U
    gram = np.einsum("...ai,ij,...bj->...ab", N, G, N)     # rank-2 PSD
    w, vec = np.linalg.eigh(gram)
    top = vec[..., :, 2:]                                  # eigvecs of the 2 positive eigvals
    u = np.einsum("...ab,...ai->...bi", top, N)
    norm = np.sqrt(np.maximum(w[..., 2:], 1e-300))
    return u / norm[..., None]                             # (..., 2, 6)


def _component(u_basis, w):
    """Components of w in the complement basis (pairing with ghat)."""
    G = mt.R42.gram
    return np.einsum("...bi,ij,...j->...b", u_basis, G, w)


def curvature_sphere_fields(lm):
    """Per-point pencil parameters (alpha : beta) where alpha S0 + beta S1 has
    singular differential modulo the line, as two root fields with kernels."""
    d = lm.domain
    if lm.dS0 is not None:
        dS0u, dS0v = lm.dS0
        dS1u, dS1v = lm.dS1
    else:
        dS0u, dS0v = grid_differential(lm.S0, d)
        dS1u, dS1v = grid_differential(lm.S1, d)
    u_basis = _pencil_complement(lm.S0, lm.S1)
    a_u = _component(u_basis, dS0u)
    a_v = _component(u_basis, dS0v)
    b_u = _component(u_basis, dS1u)
    b_v = _component(u_basis, dS1v)

    def cross(p, q):
        return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]

    A2 = cross(a_u, a_v)
    B2 = cross(a_u, b_v) + cross(b_u, a_v)
    C2 = cross(b_u, b_v)
    scale = np.max(np.abs(np.stack([A2, B2, C2])))
    if scale < 1e-13:
        return {"degenerate": True, "roots": []}
    A2, B2, C2 = A2 / scale, B2 / scale, C2 / scale
    # det M(1, tau) = A2 + B2 tau + C2 tau^2; tau = beta/alpha
    roots = []
    eps = 1e-10
    quad = np.abs(C2) > eps
    disc = B2 * B2 - 4 * A2 * C2
    if np.any(quad & (disc < -1e-9)):
        return {"degenerate": False, "complex": True, "roots": []}
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(quad, (-B2 - sq) / (2 * C2), np.where(np.abs(B2) > eps, -A2 / B2, 0.0))
        t2 = np.where(quad, (-B2 + sq) / (2 * C2), np.inf)
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    for t in (lo, hi):
        finite = np.isfinite(t)
        alpha = np.where(finite, 1.0, 0.0)
        beta = np.where(finite, t, 1.0)
        norm = np.sqrt(alpha * alpha + beta * beta)
        roots.append(np.stack([alpha / norm, beta / norm], axis=-1))

    out = []
    for ab in roots:
        Mu = ab[..., 0:1] * a_u + ab[..., 1:2] * b_u      # (..., 2) column for du
        Mv = ab[..., 0:1] * a_v + ab[..., 1:2] * b_v
        M = np.stack([Mu, Mv], axis=-1)                   # (..., 2 comps, 2 cols)
        k_a = np.stack([M[..., 0, 1], -M[..., 0, 0]], axis=-1)
        k_b = np.stack([M[..., 1, 1], -M[..., 1, 0]], axis=-1)
        use_a = np.linalg.norm(k_a, axis=-1) >= np.linalg.norm(k_b, axis=-1)
        k = np.where(use_a[..., None], k_a, k_b)
        k = k / np.maximum(np.linalg.norm(k, axis=-1, keepdims=True), 1e-300)
        out.append({"alpha_beta": ab, "kernel": k})
    return {"degenerate": False, "roots": out}


def legendre_dupin_test(lm, deriv_tol=5e-3):
    """Dupin verdict: each curvature sphere field is projectively constant along
    its own kernel direction (finite-difference directional derivative)."""
    fields = curvature_sphere_fields(lm)
    if fields.get("degenerate"):
        return {"dupin": True, "degenerate": True, "fields": fields, "max_derivative": 0.0}
    if fields.get("complex"):
        return {"dupin": False, "degenerate": False, "fields": fields,
                "max_derivative": float("inf")}
    d = lm.domain
    worst = 0.0
    for root in fields["roots"]:
        ab = root["alpha_beta"]
        K = ab[..., 0:1] * lm.S0 + ab[..., 1:2] * lm.S1
        K = K / np.linalg.norm(K, axis=-1, keepdims=True)
        K = propagate_sign(K)
        Ku, Kv = grid_differential(K, d)
        k = root["kernel"]
        D = k[..., 0:1] * Ku + k[..., 1:2] * Kv
        D = D - np.sum(D * K, axis=-1, keepdims=True) * K
        worst = max(worst, float(np.max(np.linalg.norm(D, axis=-1))))
    return {
        "dupin": worst < deriv_tol,
        "degenerate": False,
        "max_derivative": worst,
        "fields": fields,
    }


# --- the Dupin distribution subalgebra, boosts, coset orbits ---------------------------

def h_constraints():
    """The nine Maurer-Cartan entry functionals annihilated by the Dupin
    distribution on the Lie sphere group (lambda-basis indices)."""
    entries = [(2, 0), (3, 1), (1, 0), (0, 1), (2, 3), (0, 2), (1, 3), (0, 4), (4, 0)]
    return [{e: 1.0} for e in entries]


def h_basis():
    """Basis of the 6-dimensional subalgebra annihilating h_constraints()."""
    sub = mt.subalgebra_from_constraints(h_constraints(), mt.LIE)
    if sub.dim != 6:
        raise GeometryError(f"Dupin distribution has dimension {sub.dim}, expected 6")
    return sub


def slice_generators():
    """The two h-basis elements dual to the coframe entries theta^2 = omega^2_1
    and theta^3 = omega^3_0 (the order-condition kernel directions have zero
    components there)."""
    return h_basis().duals([(2, 1), (3, 0)])


def boost(t):
    """The SO(4,2) boost mixing eps0 and eps5, expressed in the lambda basis:
    diag(e^t, 1, 1, 1, 1, e^{-t})."""
    return np.diag([np.exp(t), 1.0, 1.0, 1.0, 1.0, np.exp(-t)])


def boost_eps(t):
    """Same element in epsilon coordinates: cosh/sinh block on (eps0, eps5)."""
    B = np.eye(6)
    B[0, 0] = B[5, 5] = np.cosh(t)
    B[0, 5] = B[5, 0] = np.sinh(t)
    return B


def example_base_frame():
    """The example_frame value at (u, v) = (0, 0): the constant Lie frame whose
    right coset carries the homogeneous Legendre immersion."""
    dom = ParamDomain(nu=3, nv=3)
    ff = example_frame(dom)
    # mesh() starts at u = v = 0 for the default periodic domain
    return ff.mats[0, 0].copy()


def coset_orbit(A, s_grid, t_grid):
    """Legendre map of the coset A * (base frame) * exp(s X_theta2) exp(t X_theta3)
    through the line of the first two frame columns.

    The base frame right-translates the exponential slice so that A = identity
    reproduces the homogeneous example (spherical projection a great circle)
    and boosts produce the singular surfaces of revolution.
    """
    X2, X3 = slice_generators()
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    M = np.asarray(A, dtype=float) @ example_base_frame()
    E2 = mt.mat_exp(s_grid[:, None, None] * X2)
    E3 = mt.mat_exp(t_grid[:, None, None] * X3)
    T = (M @ E2)[:, None] @ E3[None]
    Tu = (M @ X2 @ E2)[:, None] @ E3[None]
    Tv = (M @ E2)[:, None] @ (X3 @ E3)[None]
    if not all(np.isfinite(F).all() for F in (T, Tu, Tv)):
        raise GeometryError("coset orbit is not finite on this grid; use a smaller boost")
    domain = ParamDomain(
        (float(s_grid[0]), float(s_grid[-1])),
        (float(t_grid[0]), float(t_grid[-1])),
        len(s_grid), len(t_grid), periodic_u=False, periodic_v=False,
    )
    ff = FrameField("lie", T, domain, Tu, Tv)
    P = mt.P_LAMBDA
    S0 = np.einsum("ij,...j->...i", P, T[..., :, 0])
    S1 = np.einsum("ij,...j->...i", P, T[..., :, 1])
    dS0 = (
        np.einsum("ij,...j->...i", P, Tu[..., :, 0]),
        np.einsum("ij,...j->...i", P, Tv[..., :, 0]),
    )
    dS1 = (
        np.einsum("ij,...j->...i", P, Tu[..., :, 1]),
        np.einsum("ij,...j->...i", P, Tv[..., :, 1]),
    )
    lm = LegendreMap(S0, S1, domain, dS0, dS1)
    _check_line_immersion(lm)
    return lm, ff


def _check_line_immersion(lm, tol=1e-8):
    """The two line motions, taken modulo the pencil plane, must be
    independent at every grid point."""
    u_basis = _pencil_complement(lm.S0, lm.S1)
    mu = np.concatenate(
        [_component(u_basis, lm.dS0[0]), _component(u_basis, lm.dS1[0])], axis=-1
    )
    mv = np.concatenate(
        [_component(u_basis, lm.dS0[1]), _component(u_basis, lm.dS1[1])], axis=-1
    )
    J = np.stack([mu, mv], axis=-1)  # (..., 4, 2)
    svals = np.linalg.svd(J, compute_uv=False)
    dependent = svals[..., 1] < tol * max(float(np.max(svals)), 1.0)
    if dependent.any():
        nu, nv = dependent.shape
        raise GeometryError(
            f"the line motions of the coset orbit are dependent at {dependent.sum()} of the "
            f"{nu}x{nv} grid points (a large boost leaves one below rounding); "
            "use a smaller boost"
        )


def fig7_pipeline(boost_t, s_grid=None, t_grid=None, rank_tol=1e-8):
    """Stereographic projection of the spherical projection of the boosted
    coset orbit; grid points with a rank-deficient first fundamental form are
    flagged singular."""
    if s_grid is None:
        s_grid = np.linspace(-4.0, 4.0, 33)
    if t_grid is None:
        t_grid = np.linspace(-4.0, 4.0, 33)
    with np.errstate(over="ignore", invalid="ignore"):  # coset_orbit rejects overflow
        lm, _ = coset_orbit(boost(boost_t), s_grid, t_grid)
    sig = spherical_projection(lm.S0, lm.S1)
    x = sf.moebius_to_sphere(sig)
    y, pole = sf.stereo_off_pole(x)
    yu, yv = grid_differential(y, lm.domain)
    E = np.sum(yu * yu, axis=-1)
    Fc = np.sum(yu * yv, axis=-1)
    Gc = np.sum(yv * yv, axis=-1)
    det = E * Gc - Fc * Fc
    scale = max(float(np.median(E) * np.median(Gc)), 1e-30)
    singular = (det < rank_tol * scale) | pole
    degenerate = bool(np.mean(singular) > 0.5)
    return {
        "points": y,
        "singular_mask": singular,
        "singular_count": int(np.sum(singular)),
        "grid_size": int(singular.size),
        "degenerate": degenerate,
        "boost_t": float(boost_t),
        "s_grid": s_grid,
        "t_grid": t_grid,
    }


# --- best Lie frame order conditions -----------------------------------------------

@dataclass
class LieCoefficients:
    p: np.ndarray
    q: np.ndarray
    t: np.ndarray
    u: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    d2: np.ndarray
    d3: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray


def best_lie_frame_check(ff, order_tol=1e-6, mc=None):
    """Residuals of the three best-frame order conditions along a Legendre map,
    plus the derived coefficient functions and their exterior-derivative
    compatibility residuals."""
    mc = mc or pullback_mc(ff)
    w = mc.omega

    def emax(a, b):
        return float(np.max(np.abs(w[..., a, b])))

    res = {
        "order1": max(emax(2, 0), emax(3, 1)),
        "order2": max(emax(1, 0), emax(0, 1), emax(2, 3)),
        "order3": max(emax(0, 2), emax(1, 3), emax(0, 4)),
        "contact": emax(4, 0),
    }
    th2, th3 = w[..., 2, 1], w[..., 3, 0]
    wedge23 = wedge(th2, th3)
    if np.min(np.abs(wedge23)) < 1e-12:
        res["coframe_degenerate"] = True
        raise FrameOrderError("theta^2 wedge theta^3 vanishes somewhere on the grid")
    if res["order1"] > order_tol:
        raise FrameOrderError(f"order-1 conditions fail (residual {res['order1']:.3e})")

    d = mc.domain
    p = exterior_d(th2, d) / wedge23
    q = exterior_d(th3, d) / wedge23
    qf, tf = coframe_solve(th2, th3, w[..., 0, 0])
    uf, mpf = coframe_solve(th2, th3, w[..., 1, 1])
    c2, c3 = coframe_solve(th2, th3, w[..., 0, 3])
    d2, d3 = coframe_solve(th2, th3, w[..., 1, 2])
    res["q_consistency"] = float(np.max(np.abs(qf - q)))
    res["p_consistency"] = float(np.max(np.abs(-mpf - p)))

    lhs1 = wedge(grid_differential(q, d), th2) + wedge(grid_differential(tf, d), th3)
    rhs1 = -(c2 + q * (p + tf)) * wedge23
    res["exterior_1"] = float(np.max(np.abs(lhs1 - rhs1)))
    lhs2 = wedge(grid_differential(uf, d), th2) - wedge(grid_differential(p, d), th3)
    rhs2 = (d3 + p * (q - uf)) * wedge23
    res["exterior_2"] = float(np.max(np.abs(lhs2 - rhs2)))
    coeffs = LieCoefficients(p, q, tf, uf, c2, c3, d2, d3, th2, th3)
    return coeffs, res


def coset_membership_residual(ff, sub=None):
    """Max distance of log(T(0,0)^{-1} T(u,v)) from the subalgebra span: a
    numerical certificate that the frame field stays in one right coset."""
    from scipy.linalg import logm  # the only scipy use; kept off the import path

    sub = sub or h_basis()
    base_inv = np.linalg.inv(ff.mats[0, 0])
    worst = 0.0
    nu, nv = ff.mats.shape[:2]
    for i in range(0, nu, max(nu // 6, 1)):
        for j in range(0, nv, max(nv // 6, 1)):
            W = base_inv @ ff.mats[i, j]
            L = logm(W)
            if np.max(np.abs(np.imag(L))) > 1e-8:
                continue  # outside the log chart; skip the sample
            worst = max(worst, mt.span_projection_residual(np.real(L), sub))
    return worst
