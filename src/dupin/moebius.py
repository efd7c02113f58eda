"""Oriented spheres in S^3 and their S^{3,1} model, tangent and curvature
sphere maps, the sphere-map Dupin test, adapted Moebius frames with order
verification, the conformal invariant C, and the 2-plane subalgebras h_C with
their orbit surfaces.

Moebius frames are 5x5 matrices in the delta basis; sphere vectors and null
lifts are handled in epsilon coordinates and converted where needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from . import spaceforms as sf
from .metrics import GeometryError, SQRT2, inner
from .frames import (FrameField, FrameOrderError, coframe_solve, grid_differential,
                     pullback_mc, wedge)
from .surfaces import ParamDomain, ParametricSurface, torus, cylinder, hyperboloid


# --- the oriented-sphere model -------------------------------------------------

@dataclass
class OrientedSphere:
    """Sphere in S^3 with center m (unit 4-vector) and signed radius r in (0, pi)."""

    m: np.ndarray
    r: float

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if abs(np.linalg.norm(self.m) - 1.0) > 1e-10:
            raise GeometryError("sphere center must be a unit vector in R^4")
        if not (0.0 < self.r < np.pi):
            raise GeometryError("signed radius must lie in (0, pi)")


def sphere_to_vec(m, r):
    """S_r(m) -> (m + cos r eps4)/sin r in S^{3,1}; vectorized over m rows."""
    m = np.asarray(m, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.empty(np.broadcast_shapes(m.shape[:-1], r.shape) + (5,))
    sr = np.sin(r)
    out[..., :4] = m / sr[..., None]
    out[..., 4] = np.cos(r) / sr
    return out


def vec_to_sphere(S):
    """Inverse identification: cot r = s^4, m = sin r * (s^0..s^3)."""
    S = np.asarray(S, dtype=float)
    r = np.arctan2(1.0, S[..., 4])  # arccot with range (0, pi)
    m = S[..., :4] * np.sin(r)[..., None]
    return m, r


def sphere_vec_residual(S):
    return float(np.max(np.abs(inner(S, S, mt.R41) - 1.0)))


def tangent_sphere(x, e3, r):
    """Tangent sphere vector cot(r) (x + eps4) + e3 along a surface in S^3."""
    x = np.asarray(x, dtype=float)
    e3 = np.asarray(e3, dtype=float)
    cot = 1.0 / np.tan(np.asarray(r, dtype=float))
    out = np.empty(np.broadcast_shapes(x.shape, e3.shape)[:-1] + (5,))
    out[..., :4] = cot[..., None] * x + e3
    out[..., 4] = cot
    return out


# --- sphere-map Dupin test -------------------------------------------------------

def sphere_map_dupin_test(S_grid, domain, rank_tol=1e-8):
    """Dupin criterion for a sphere map along an immersion: its plain
    differential dS (a 5x2 matrix per grid point) is singular everywhere.

    Returns the verdict with singular-value statistics; a map with dS = 0
    everywhere passes but is flagged degenerate.
    """
    S_grid = np.asarray(S_grid, dtype=float)
    J = np.moveaxis(grid_differential(S_grid, domain), 0, -1)  # (nu, nv, 5, 2)
    svals = np.linalg.svd(J, compute_uv=False)
    scale = max(float(np.max(svals)), 1.0)
    second = svals[..., 1]
    dupin = bool(np.max(second) < rank_tol * scale)
    degenerate = bool(np.max(svals) < rank_tol)
    return {
        "dupin": dupin,
        "degenerate": degenerate,
        "max_second_singular_value": float(np.max(second)),
        "min_singular_values": (float(np.min(svals[..., 0])), float(np.min(second))),
    }


# --- curvature sphere pencil -----------------------------------------------------

def curvature_sphere_params(mc, i, j, double_root_tol=1e-12):
    """Real roots r of (omega^1_3 + r omega^1_0) wedge (omega^2_3 + r omega^2_0)
    at grid point (i, j) of a first-order Moebius frame's pulled-back form."""
    w = mc.omega[:, i, j]
    w13, w23, w10, w20 = w[:, 1, 3], w[:, 2, 3], w[:, 1, 0], w[:, 2, 0]
    c2 = wedge(w10, w20)
    if abs(c2) < 1e-14:
        raise GeometryError("degenerate coframe: omega^1_0 wedge omega^2_0 = 0")
    c0 = wedge(w13, w23)
    c1 = wedge(w13, w20) + wedge(w10, w23)
    scale = max(abs(c0), abs(c1), abs(c2))
    if scale < 1e-14:
        return {"roots": [], "double_root": False, "totally_umbilic": True}
    disc = c1 * c1 - 4 * c2 * c0
    if abs(disc) <= double_root_tol * scale**2:
        root = -c1 / (2 * c2) if abs(c2) > 1e-14 else None
        return {
            "roots": [root, root] if root is not None else [],
            "double_root": True,
            "totally_umbilic": False,
        }
    if disc < 0:
        return {"roots": [], "double_root": False, "totally_umbilic": False,
                "complex_roots": True}
    sq = np.sqrt(disc)
    if abs(c2) > 1e-14:
        roots = sorted([(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)])
    else:
        roots = [-c0 / c1]
    return {"roots": roots, "double_root": False, "totally_umbilic": False}


# --- canonical adapted frames -----------------------------------------------------

def _moebius_frame_from_columns(cols, partial_u=None, partial_v=None, domain=None):
    """Assemble epsilon-coordinate column stacks into a delta-basis FrameField."""
    Y = np.stack(cols, axis=-1)  # (..., 5, 5) columns Y_0..Y_4
    P = mt.P_DELTA
    Y = np.einsum("ij,...jk->...ik", P.T, Y)
    pu = pv = None
    if partial_u is not None:
        pu = np.einsum("ij,...jk->...ik", P.T, np.stack(partial_u, axis=-1))
        pv = np.einsum("ij,...jk->...ik", P.T, np.stack(partial_v, axis=-1))
    return FrameField("moebius", Y, domain, pu, pv)


def _adapted_columns(F, dF, E1, dE1, E2, dE2, E3, dE3, G, dG, a, c):
    """Adapted Moebius frame from the null lift F, the embedded tangent frame
    E1 (direction of the smaller curvature a), E2, the tangent-plane sphere
    vector E3, and the complementary null vector G with <F, G> = -1.

    Columns: Y0 = sigma F, Y1 = E1, Y2 = E2, Y3 = -(m F + E3),
    Y4 = G/sigma + (m^2/(2 sigma)) F + (m/sigma) E3,
    with m = (a+c)/2 and sigma = (c-a)/2.  For constant a < c this frame
    passes the first, second, and third order conditions.
    """
    m = 0.5 * (a + c)
    sg = 0.5 * (c - a)
    if sg <= 0:
        raise GeometryError("adapted frame needs distinct curvatures a < c")
    cols = [sg * F, E1, E2, -(m * F + E3), G / sg + (m * m / (2 * sg)) * F + (m / sg) * E3]
    dcols_u = [sg * dF[0], dE1[0], dE2[0], -(m * dF[0] + dE3[0]),
               dG[0] / sg + (m * m / (2 * sg)) * dF[0] + (m / sg) * dE3[0]]
    dcols_v = [sg * dF[1], dE1[1], dE2[1], -(m * dF[1] + dE3[1]),
               dG[1] / sg + (m * m / (2 * sg)) * dF[1] + (m / sg) * dE3[1]]
    return cols, dcols_u, dcols_v


def _pad5(x, slot_range):
    out = np.zeros(x.shape[:-1] + (5,))
    out[..., slot_range] = x
    return out


def canonical_best_frame(surface):
    """Adapted Moebius frame field along a canonical isoparametric surface
    (torus / cylinder / hyperboloid), with analytic partials."""
    name = surface.name
    U, V = surface.domain.mesh()
    a, c = surface.constant_curvatures
    e1, e2, e3 = surface.frame(U, V)
    x, xu, xv = surface.jet(U, V)[:3]

    if name == "torus":
        sl = slice(0, 4)
        F = _pad5(x, sl); F[..., 4] = 1.0
        dF = (_pad5(xu, sl), _pad5(xv, sl))
        G = _pad5(-x, sl) / 2.0; G[..., 4] = 0.5
        dG = (_pad5(-xu, sl) / 2.0, _pad5(-xv, sl) / 2.0)
        alpha = surface.params["alpha"]
        de1_u = np.stack([-np.cos(U), -np.sin(U), 0 * U, 0 * U], axis=-1)
        de1_v = np.zeros_like(de1_u)
        de2_u = np.zeros_like(de1_u)
        de2_v = np.stack([0 * V, 0 * V, -np.cos(V), -np.sin(V)], axis=-1)
        sA, cA = np.sin(alpha), np.cos(alpha)
        de3_u = np.stack([-sA * np.sin(U), sA * np.cos(U), 0 * U, 0 * U], axis=-1)
        de3_v = np.stack([0 * V, 0 * V, cA * np.sin(V), -cA * np.cos(V)], axis=-1)
        E1, dE1 = _pad5(e1, sl), (_pad5(de1_u, sl), _pad5(de1_v, sl))
        E2, dE2 = _pad5(e2, sl), (_pad5(de2_u, sl), _pad5(de2_v, sl))
        E3, dE3 = _pad5(e3, sl), (_pad5(de3_u, sl), _pad5(de3_v, sl))
    elif name == "cylinder":
        y, yu, yv = x, xu, xv
        # conformal null basis: n0 = (eps0+eps4)/2, ninf = (eps4-eps0)/2
        n0 = np.zeros(5); n0[0] = n0[4] = 0.5
        ninf = np.zeros(5); ninf[0], ninf[4] = -0.5, 0.5
        y2 = np.sum(y * y, axis=-1)
        mid = slice(1, 4)
        F = _pad5(y, mid) + n0 + y2[..., None] * ninf
        dF = tuple(
            _pad5(t, mid) + (2.0 * np.sum(y * t, axis=-1))[..., None] * ninf
            for t in (yu, yv)
        )
        G = np.broadcast_to(2.0 * ninf, F.shape).copy()
        dG = (np.zeros_like(F), np.zeros_like(F))
        R = surface.params["radius"]
        de1 = (np.zeros_like(yu), np.zeros_like(yu))
        de2 = (np.stack([-np.cos(U), -np.sin(U), 0 * U], axis=-1), np.zeros_like(yu))
        de3 = (np.stack([np.sin(U), -np.cos(U), 0 * U], axis=-1), np.zeros_like(yu))

        def embed_dir(w, dw_u, dw_v):
            E = _pad5(w, mid) + (2.0 * np.sum(y * w, axis=-1))[..., None] * ninf
            dEu = _pad5(dw_u, mid) + (
                2.0 * (np.sum(yu * w, axis=-1) + np.sum(y * dw_u, axis=-1))
            )[..., None] * ninf
            dEv = _pad5(dw_v, mid) + (
                2.0 * (np.sum(yv * w, axis=-1) + np.sum(y * dw_v, axis=-1))
            )[..., None] * ninf
            return E, (dEu, dEv)

        E1, dE1 = embed_dir(e1, *de1)
        E2, dE2 = embed_dir(e2, *de2)
        E3, dE3 = embed_dir(e3, *de3)
    elif name == "hyperboloid":
        sl = slice(1, 5)
        F = _pad5(x, sl); F[..., 0] = 1.0
        dF = (_pad5(xu, sl), _pad5(xv, sl))
        G = _pad5(x, sl) / 2.0; G[..., 0] = -0.5
        dG = (_pad5(xu, sl) / 2.0, _pad5(xv, sl) / 2.0)
        aa = surface.params["a"]
        b = np.sqrt(1 - aa * aa)
        rho, sc = aa / b, 1.0 / b
        de1_u = np.zeros(U.shape + (4,))
        de1_v = np.stack([0 * V, 0 * V, np.sinh(V), np.cosh(V)], axis=-1)
        de2_u = np.stack([-np.cos(U), -np.sin(U), 0 * U, 0 * U], axis=-1)
        de2_v = np.zeros_like(de1_u)
        de3_u = np.stack([sc * np.sin(U), -sc * np.cos(U), 0 * U, 0 * U], axis=-1)
        de3_v = np.stack([0 * V, 0 * V, -rho * np.cosh(V), -rho * np.sinh(V)], axis=-1)
        E1, dE1 = _pad5(e1, sl), (_pad5(de1_u, sl), _pad5(de1_v, sl))
        E2, dE2 = _pad5(e2, sl), (_pad5(de2_u, sl), _pad5(de2_v, sl))
        E3, dE3 = _pad5(e3, sl), (_pad5(de3_u, sl), _pad5(de3_v, sl))
    else:
        raise GeometryError(f"no canonical frame construction for {name!r}")

    cols, dcu, dcv = _adapted_columns(F, dF, E1, dE1, E2, dE2, E3, dE3, G, dG, a, c)
    return _moebius_frame_from_columns(cols, dcu, dcv, surface.domain)


def first_order_frame_umbilic(x_grid, e3_grid, kappa, dx, de3, domain):
    """First-order (not second-order normalizable) frame along a totally
    umbilic surface in S^3, for pencil-degeneracy tests."""
    sl = slice(0, 4)
    F = _pad5(x_grid, sl); F[..., 4] = 1.0
    dF = (_pad5(dx[0], sl), _pad5(dx[1], sl))
    G = _pad5(-x_grid, sl) / 2.0; G[..., 4] = 0.5
    dG = (_pad5(-dx[0], sl) / 2.0, _pad5(-dx[1], sl) / 2.0)
    E3 = _pad5(e3_grid, sl)
    dE3 = (_pad5(de3[0], sl), _pad5(de3[1], sl))
    xu, xv = dx
    E1amb = xu / np.linalg.norm(xu, axis=-1, keepdims=True)
    # Gram-Schmidt for the second tangent direction
    proj = np.sum(xv * E1amb, axis=-1, keepdims=True)
    E2amb = xv - proj * E1amb
    E2amb = E2amb / np.linalg.norm(E2amb, axis=-1, keepdims=True)
    E1, E2 = _pad5(E1amb, sl), _pad5(E2amb, sl)
    m = kappa
    cols = [F, E1, E2, -(m * F + E3), G + (m * m / 2.0) * F + m * E3]
    Y = np.stack(cols, axis=-1)
    Y = np.einsum("ij,...jk->...ik", mt.P_DELTA.T, Y)
    return FrameField("moebius", Y, domain)


# --- order conditions and the conformal invariant ---------------------------------

@dataclass
class MoebiusCoefficients:
    q1: np.ndarray
    q2: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    C: float
    C_spread: float
    phi: tuple    # the 1-forms (omega^1_0, omega^2_0)


def frame_order_check(ff, order_tol=1e-6, mc=None):
    """Verify the first/second/third-order conditions of an adapted Moebius
    frame and extract the coefficient functions and the invariant C.

    Returns (MoebiusCoefficients, residual dict).  Raises FrameOrderError
    naming the first failed order.
    """
    mc = mc or pullback_mc(ff)
    w = mc.omega
    res = {}
    res["first_order"] = float(np.max(np.abs(w[..., 3, 0])))
    if res["first_order"] > order_tol:
        raise FrameOrderError(f"first order fails: |omega^3_0| = {res['first_order']:.3e}")
    w10, w20 = w[..., 1, 0], w[..., 2, 0]
    res["second_order"] = float(np.max(np.abs([w[..., 3, 1] - w10, w[..., 3, 2] + w20])))
    if res["second_order"] > order_tol:
        raise FrameOrderError(f"second order fails: residual {res['second_order']:.3e}")
    res["third_order"] = float(np.max(np.abs(w[..., 0, 3])))
    if res["third_order"] > order_tol:
        raise FrameOrderError(f"third order fails: |omega^0_3| = {res['third_order']:.3e}")

    q1, q2 = coframe_solve(w10, w20, w[..., 2, 1])
    p1, p2 = coframe_solve(w10, w20, w[..., 0, 1])
    p2n, p3 = coframe_solve(w10, w20, w[..., 0, 2])
    res["p2_consistency"] = float(np.max(np.abs(p2 + p2n)))
    w00_fit = -2.0 * (q2 * w10 - q1 * w20)
    res["w00_structure"] = float(np.max(np.abs(w[..., 0, 0] - w00_fit)))
    res["q1"] = float(np.max(np.abs(q1)))
    res["q2"] = float(np.max(np.abs(q2)))
    res["p2"] = float(np.max(np.abs(p2)))
    res["p1_plus_p3_plus_1"] = float(np.max(np.abs(p1 + p3 + 1.0)))
    C_field = 0.5 * (p1 - p3)
    C = float(np.mean(C_field))
    res["C_spread"] = float(np.ptp(C_field))
    res["dupin"] = bool(max(res["q1"], res["q2"], res["p2"]) < order_tol)
    res.update(_integrability_residuals(mc.domain, q1, q2, p1, p2, p3, w10, w20))
    coeffs = MoebiusCoefficients(q1, q2, p1, p2, p3, C, res["C_spread"], (w10, w20))
    return coeffs, res


def _integrability_residuals(dom, q1, q2, p1, p2, p3, w10, w20):
    """Finite-difference residuals of the two complex compatibility equations
    satisfied by the coefficients of a third-order frame.

    phi = omega^1_0 + i omega^2_0; the second equation's right side is taken
    against phi wedge conj(phi) (wedge of phi with itself vanishes identically).
    """
    phi = w10 + 1j * w20
    phib = np.conj(phi)
    ppb = wedge(phi, phib)

    f1 = q2 + 1j * q1
    df1 = grid_differential(f1, dom)
    lhs1 = wedge(df1, phi)
    rhs1 = -0.5 * (p1 + p3 + 1.0 + q1 * q1 + q2 * q2 + 1j * p2) * ppb
    r1 = float(np.max(np.abs(lhs1 - rhs1)))

    f2 = p1 + p3 - 2j * p2
    f3 = p1 - p3
    lhs2 = wedge(grid_differential(f2, dom), phi) + wedge(grid_differential(f3, dom), phib)
    rhs2 = (2.0 * p2 + 1j * (p1 + p3)) * (q1 + 1j * q2) * ppb
    r2 = float(np.max(np.abs(lhs2 - rhs2)))
    return {"integrability_1": r1, "integrability_2": r2}


# --- the h_C subalgebras and their orbits ------------------------------------------

def hc_constraints(C):
    """The eight relations cutting the 2-plane subalgebra h_C out of the
    Moebius algebra (delta-basis Maurer-Cartan entries)."""
    return [
        {(0, 0): 1.0},
        {(0, 1): 1.0, (1, 0): -(C - 0.5)},
        {(0, 2): 1.0, (2, 0): (C + 0.5)},
        {(0, 3): 1.0},
        {(2, 1): 1.0},
        {(3, 1): 1.0, (1, 0): -1.0},
        {(3, 2): 1.0, (2, 0): 1.0},
        {(3, 0): 1.0},
    ]


def hc_basis(C):
    """Basis {X1, X2} of h_C, canonicalized so X1 is dual to omega^1_0 and X2
    to omega^2_0."""
    sub = mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB)
    if sub.dim != 2:
        raise GeometryError(f"h_C solution space has dimension {sub.dim}, expected 2")
    sub.elements = sub.duals([(1, 0), (2, 0)])
    sub.coords = np.stack([mt.algebra_coordinates(X, mt.MOEB) for X in sub.elements])
    return sub


def hc_swap_conjugation():
    """The fixed Moebius element (signed middle-basis permutation) whose
    conjugation maps h_C onto h_{-C} by swapping the two coframe roles."""
    W = np.zeros((5, 5))
    W[0, 0] = W[4, 4] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    W[3, 3] = -1.0
    return W


@dataclass
class OrbitResult:
    C: float
    regime: str
    points_delta: np.ndarray      # projective representatives, delta basis
    chart_points: np.ndarray      # pulled back to the regime's space form
    valid: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    s_grid: np.ndarray
    t_grid: np.ndarray


def hc_regime(C):
    if abs(abs(C) - 1.0) < 1e-9:
        return "cylinder"
    return "torus" if abs(C) < 1.0 else "hyperboloid"


def canonical_surface_for_C(C, domain=None):
    """The canonical isoparametric surface whose adapted frame realizes the
    invariant C: torus(alpha) with cos 2 alpha = |C| for |C| < 1, the unit
    cylinder for |C| = 1, hyperboloid(a) with a = sqrt((|C|-1)/(|C|+1)) else."""
    A = abs(C)
    regime = hc_regime(C)
    if regime == "torus":
        return torus(np.arccos(A) / 2.0, domain)
    if regime == "cylinder":
        return cylinder(1.0, domain)
    return hyperboloid(np.sqrt((A - 1.0) / (A + 1.0)), domain)


def canonical_base_frame(C):
    """Constant Moebius frame anchoring the h_C orbit on the canonical surface.

    The identity coset h_C [delta0] is only Moebius-congruent to the canonical
    surface; right-translating the exponential slice by an adapted frame puts
    the orbit on the surface itself.  Negative C composes with the coframe
    swap (conjugating h_|C| onto h_C)."""
    surf = canonical_surface_for_C(C)
    ff = canonical_best_frame(surf)
    base = ff.mats[0, 0]
    if C < 0:
        base = base @ hc_swap_conjugation()
    return base


def hc_orbit(C, s_grid, t_grid):
    """Orbit surface base * exp(s X1) exp(t X2) [delta0] of the h_C subgroup,
    pulled back to the space form indicated by the regime of C; chart failures
    are flagged, not fatal, and placed at the chart's origin.  Raises
    GeometryError if the orbit overflows on the grid."""
    sub = hc_basis(C)
    X1, X2 = sub.elements
    base = canonical_base_frame(C)
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        exp_s = base @ mt.mat_exp(s_grid[:, None, None] * X1)
        # exp(t X2) delta0 is the first column, since delta0 is the first basis vector
        pts = np.einsum("sij,tj->sti", exp_s, mt.mat_exp(t_grid[:, None, None] * X2)[..., 0])
    if not np.isfinite(pts).all():
        raise GeometryError("h_C orbit is not finite on this grid; use a smaller span")
    pts = mt.projective_normalize(pts)
    regime = hc_regime(C)
    q_eps = mt.change_basis(pts, 5, "delta", "epsilon")
    if regime == "torus":
        chart = sf.moebius_to_sphere(q_eps)
        valid = np.ones(chart.shape[:-1], dtype=bool)
    elif regime == "cylinder":
        chart, valid = sf.moebius_to_euclidean(q_eps)
        chart[~valid] = 0.0
    else:
        chart, valid = sf.moebius_to_hyperbolic(q_eps)
        chart[~valid] = np.eye(4)[3]
    return OrbitResult(C, regime, pts, chart, valid, X1, X2, s_grid, t_grid)


def orbit_surface(C, domain=None):
    """The h_C orbit as a ParametricSurface in its regime's space form, with
    positions evaluable at arbitrary parameters (for the curvature pipeline)."""
    sub = hc_basis(C)
    X1, X2 = sub.elements
    base = canonical_base_frame(C)
    regime = hc_regime(C)
    delta0 = np.zeros(5)
    delta0[0] = 1.0
    domain = domain or ParamDomain(
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0),
        nu=32, nv=32, periodic_u=False, periodic_v=False,
    )
    form = {"torus": "sphere", "cylinder": "euclidean", "hyperboloid": "hyperbolic"}[regime]

    def position(u, v):
        u, v = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(v))
        E1, E2 = mt.mat_exp(u[..., None, None] * X1), mt.mat_exp(v[..., None, None] * X2)
        q = base @ E1 @ E2 @ delta0
        q_eps = mt.change_basis(q, 5, "delta", "epsilon")
        if form == "sphere":
            return sf.moebius_to_sphere(q_eps)
        chart = sf.moebius_to_euclidean if form == "euclidean" else sf.moebius_to_hyperbolic
        x, ok = chart(q_eps)
        if not np.all(ok):
            raise GeometryError(f"orbit point escapes the {form} chart")
        return x

    return ParametricSurface(form, position, domain,
                             name="hc_orbit", params={"C": C})
