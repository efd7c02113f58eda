"""Oriented spheres in S^3 and their S^{3,1} model, tangent and curvature
sphere maps, adapted Moebius frames with order verification, the conformal
invariant C, and the 2-plane subalgebras h_C with their orbit surfaces.

Moebius frames are 5x5 matrices in the delta basis; sphere vectors and null
lifts are handled in epsilon coordinates and converted where needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics as mt
from . import spaceforms as sf
from .metrics import GeometryError, inner
from .frames import (ORDER_TOL, FrameField, FrameOrderError, coframe_solve,
                     grid_differential, pencil, pencil_roots, pullback_mc, wedge)
from .surfaces import (Jet, ParamDomain, ParametricSurface, cylinder, hyperboloid,
                       quotient_jet, torus)


# --- the oriented-sphere model -------------------------------------------------

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


def tangent_sphere(x, e3, r):
    """Tangent sphere vector cot(r) (x + eps4) + e3 along a surface in S^3."""
    x = np.asarray(x, dtype=float)
    e3 = np.asarray(e3, dtype=float)
    cot = 1.0 / np.tan(np.asarray(r, dtype=float))
    out = np.empty(np.broadcast_shapes(x.shape, e3.shape)[:-1] + (5,))
    out[..., :4] = cot[..., None] * x + e3
    out[..., 4] = cot
    return out


# --- curvature sphere pencil -----------------------------------------------------

def curvature_sphere_params(mc, i, j, double_root_tol=1e-12):
    """Real roots r of (omega^1_3 + r omega^1_0) wedge (omega^2_3 + r omega^2_0)
    at grid point (i, j) of a first-order Moebius frame's pulled-back form
    (frames.pencil and pencil_roots, with the coefficients scaled to at most 1:
    where |c2| <= 1e-10 max |c_k| the upper root is inf)."""
    w = mc.omega[:, i, j]
    c0, c1, c2 = pencil(w[:, 1:3, 3], w[:, 1:3, 0])
    if abs(c2) < 1e-14:
        raise GeometryError("degenerate coframe: omega^1_0 wedge omega^2_0 = 0")
    scale = max(abs(c0), abs(c1), abs(c2))
    lo, hi, disc = pencil_roots(c0 / scale, c1 / scale, c2 / scale)
    if abs(disc) <= double_root_tol:
        root = float(0.5 * (lo + hi))
        return {"roots": [root, root], "double_root": True}
    if disc < 0:
        return {"roots": [], "double_root": False, "complex_roots": True}
    return {"roots": [float(lo), float(hi)], "double_root": False}


# --- canonical adapted frames -----------------------------------------------------

def _lifted_frame(form, x, e1, e2, e3):
    """V = [F E1 E2 E3 G] (..., 5, 5) in epsilon coordinates: the null lift F
    of x (``sf.embed_moebius``), E_k = dF_x(e_k) for the tangent frame and
    normal, and the null G = xi + <xi, xi>/2 F = xi - (K/2) F with <F, G> = -1,
    from the form's row of ``sf.SPACE_FORMS``."""
    row = sf.space_form(form)
    S = np.eye(5)[row.slots]
    E = [t @ S + 2.0 * np.sum(x * t, axis=-1)[..., None] * row.w for t in (e1, e2, e3)]
    F = sf.embed_moebius(x, form)
    return np.stack([F, *E, row.xi - 0.5 * row.K * F], axis=-1)


def _adapted_mix(a, c):
    """The constant M(a, c) taking V to the adapted columns Y = V M:
    Y0 = sigma F, Y1 = E1, Y2 = E2, Y3 = -(m F + E3),
    Y4 = G/sigma + (m^2/(2 sigma)) F + (m/sigma) E3, with m = (a+c)/2 and
    sigma = (c-a)/2.  For constant a < c this frame passes the first, second
    and third order conditions."""
    m, sg = 0.5 * (a + c), 0.5 * (c - a)
    if sg <= 0:
        raise GeometryError("adapted frame needs distinct curvatures a < c")
    M = np.eye(5)
    M[0, 0] = sg
    M[[0, 3], 3] = -m, -1.0
    M[[0, 3, 4], 4] = m * m / (2 * sg), m / sg, 1.0 / sg
    return M


def _lifted_connection(k, kappa, K):
    """A_k in dV = V (theta_1 A_1 + theta_2 A_2) for the lifted frame of a
    surface with constant principal curvatures.  Codazzi then gives
    omega^1_2 = 0, and with theta_k(d_j) = <x_j, e_k> the space-form structure
    equations de_k = theta_k (kappa_k e3 - K x), de3 = -sum kappa_k theta_k e_k
    lift to dF = sum theta_k E_k, dE_k = theta_k (kappa_k E3 + G - (K/2) F),
    dE3 = -sum kappa_k theta_k E_k and dG = -(K/2) dF."""
    A = np.zeros((5, 5))
    A[k, 0] = 1.0
    A[[0, 3, 4], k] = -0.5 * K, kappa, 1.0
    A[k, [3, 4]] = -kappa, -0.5 * K
    return A


def canonical_best_frame(surface):
    """Adapted Moebius frame field T = P_DELTA^T V M(a, c) along a catalog
    surface (torus in S^3, cylinder in R^3, hyperboloid in H^3) with constant
    principal curvatures a < c: V = [F E1 E2 E3 G] lifts the surface's
    principal frame by its space form's row of ``sf.SPACE_FORMS``.  Since
    dV = V (theta_1 A_1 + theta_2 A_2) (see ``_lifted_connection``), the
    field carries its exact form omega = sum_k theta_k M^{-1} A_k M."""
    if surface.frame is None or surface.constant_curvatures is None:
        raise GeometryError(f"no canonical frame for {surface.name!r}: it needs an "
                            "exact principal frame and constant curvatures")
    a, c = surface.constant_curvatures
    M = _adapted_mix(a, c)
    uv = surface.domain.axes()
    x, xu, xv = surface.jet(*uv)[:3]
    e = surface.frame(*uv)
    V = _lifted_frame(surface.form, x, *e)
    K = sf.space_form(surface.form).K
    B = np.stack([np.linalg.solve(M, _lifted_connection(k, kappa, K) @ M)
                  for k, kappa in ((1, a), (2, c))])
    theta = np.stack([[inner(xj, ek, surface.metric) for ek in e[:2]] for xj in (xu, xv)])
    omega = np.einsum("jk...,kab->j...ab", theta, B)
    return FrameField("moebius", mt.P_DELTA.T @ (V @ M), surface.domain, omega)


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


def frame_order_check(ff):
    """Verify the first/second/third-order conditions of an adapted Moebius
    frame and extract the coefficient functions and the invariant C.

    Returns (MoebiusCoefficients, residual dict).  Raises FrameOrderError
    naming the first failed order.
    """
    mc = pullback_mc(ff)
    w = mc.omega
    res = {}
    res["first_order"] = float(np.max(np.abs(w[..., 3, 0])))
    if not res["first_order"] <= ORDER_TOL:
        raise FrameOrderError(f"first order fails: |omega^3_0| = {res['first_order']:.3e}")
    w10, w20 = w[..., 1, 0], w[..., 2, 0]
    res["second_order"] = float(np.max(np.abs([w[..., 3, 1] - w10, w[..., 3, 2] + w20])))
    if not res["second_order"] <= ORDER_TOL:
        raise FrameOrderError(f"second order fails: residual {res['second_order']:.3e}")
    res["third_order"] = float(np.max(np.abs(w[..., 0, 3])))
    if not res["third_order"] <= ORDER_TOL:
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
    res["dupin"] = bool(max(res["q1"], res["q2"], res["p2"]) < ORDER_TOL)
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
    """Basis {X1, X2} of h_C dual to the coframe omega^1_0, omega^2_0."""
    return mt.subalgebra_from_constraints(hc_constraints(C), mt.MOEB, [(1, 0), (2, 0)])


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
    a = np.sqrt((A - 1.0) / (A + 1.0))
    if a == 1.0:
        raise GeometryError(f"C = {C:g}: the hyperboloid parameter sqrt((|C|-1)/(|C|+1)) "
                            "rounds to 1; use a smaller |C|")
    return hyperboloid(a, domain)


def canonical_base_frame(C):
    """Constant Moebius frame anchoring the h_C orbit on the canonical surface.

    The identity coset h_C [delta0] is only Moebius-congruent to the canonical
    surface; right-translating the exponential slice by an adapted frame puts
    the orbit on the surface itself.  Negative C composes with the coframe
    swap (conjugating h_|C| onto h_C)."""
    corner = replace(canonical_surface_for_C(C).domain, nu=3, nv=3)  # same [0, 0] point
    base = canonical_best_frame(canonical_surface_for_C(C, corner)).mats[0, 0]
    return base @ hc_swap_conjugation() if C < 0 else base.copy()


def hc_orbit(C, s_grid, t_grid):
    """Orbit surface base * exp(s X1) exp(t X2) [delta0] of the h_C subgroup,
    pulled back to the space form indicated by the regime of C; chart failures
    are flagged, not fatal, and placed at the chart's origin.  Raises
    GeometryError if the orbit overflows on the grid."""
    base = canonical_base_frame(C)  # first: it rejects a |C| too large for a hyperboloid
    X1, X2 = hc_basis(C).elements
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        exp_s = base @ mt.mat_exp(s_grid[:, None, None] * X1)
        # exp(t X2) delta0 is the first column, since delta0 is the first basis
        # vector; pts[s, t] = exp_s[s] @ that column
        pts = mt.mat_exp(t_grid[:, None, None] * X2)[..., 0] @ np.swapaxes(exp_s, -1, -2)
    if not np.isfinite(pts).all():
        span = max(np.max(np.abs(s_grid)), np.max(np.abs(t_grid)))
        raise GeometryError(f"C = {C:g}, span = {span:g}: the h_C orbit overflows; "
                            "use a smaller |C| or span")
    pts = mt.projective_normalize(pts)
    form = canonical_surface_for_C(C).form
    chart, valid = sf.moebius_chart(mt.change_basis(pts, 5, "delta", "epsilon"), form)
    chart[~valid] = 0.0 if form == "euclidean" else np.eye(4)[3]
    return OrbitResult(C, hc_regime(C), pts, chart, valid)


def orbit_surface(C, domain=None):
    """The h_C orbit q = base e^{u X1} e^{v X2} delta0 as a ParametricSurface
    in its regime's space form, with an exact jet from the Lie algebra: with
    A = base e^{u X1} and w_k = e^{v X2} X2^k delta0,
        q = A w0,  q_u = A X1 w0,  q_v = A w1,
        q_uu = A X1^2 w0,  q_uv = A X1 w1,  q_vv = A w2,
        q_uuu = A X1^3 w0,  q_uuv = A X1^2 w1,  q_uvv = A X1 w2,  q_vvv = A w3,
    one mat_exp per generator for the whole jet; the chart's quotient rule
    (``surfaces.quotient_jet``) carries it into the space form.  Position and
    jet raise GeometryError when a point escapes the chart."""
    # the frame in epsilon coordinates, so q comes out in them (change_basis is linear)
    base = mt.change_basis(canonical_base_frame(C), 5, "delta", "epsilon", kind="frame")
    X1, X2 = hc_basis(C).elements
    W0 = np.stack([np.linalg.matrix_power(X2, k)[:, 0] for k in range(4)],
                  axis=-1)  # X2^k delta0, k = 0..3
    domain = domain or ParamDomain(
        u_range=(-1.0, 1.0), v_range=(-1.0, 1.0),
        nu=32, nv=32, periodic_u=False, periodic_v=False,
    )
    form = canonical_surface_for_C(C).form
    num, den = sf.quotient_chart(form)

    def lift(u, v, partials):
        """q, and with ``partials`` its nine partials, in epsilon coordinates."""
        u, v = np.broadcast_arrays(np.atleast_1d(u), np.atleast_1d(v))
        A = base @ mt.mat_exp(u[..., None, None] * X1)
        W = mt.mat_exp(v[..., None, None] * X2) @ W0  # columns w0, w1, w2, w3
        q = (A @ W[..., :1])[..., 0]  # apart from the partials: jet.x == position bitwise
        if not partials:
            return q
        XW = X1 @ W[..., :3]                          # X1 w0, X1 w1, X1 w2
        XXW = X1 @ XW[..., :2]                        # X1^2 w0, X1^2 w1
        # A R has the columns q_u, q_v, q_uu, q_uv, q_vv, q_uuu, q_uuv, q_uvv, q_vvv
        R = np.concatenate([XW[..., :1], W[..., 1:2], XXW[..., :1], XW[..., 1:2], W[..., 2:3],
                            X1 @ XXW[..., :1], XXW[..., 1:], XW[..., 2:], W[..., 3:]], axis=-1)
        return Jet(q, *np.moveaxis(A @ R, -1, 0))

    def chart(q):
        x, ok = sf.moebius_chart(q, form)
        if not np.all(ok):
            raise GeometryError(f"orbit point escapes the {form} chart")
        return x

    def jet(u, v):
        q = lift(u, v, True)
        return quotient_jet(q, chart(q.x), num, den)

    return ParametricSurface(form, lambda u, v: chart(lift(u, v, False)), domain,
                             name="hc_orbit", params={"C": C}, jet=jet)
