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
from .frames import (ORDER_TOL, FrameOrderError, coframe_solve, exterior_d,
                     grid_differential, orbit_frame, pencil, pencil_roots,
                     pullback_mc, wedge)
from .surfaces import ParamDomain, propagate_sign


class DegenerateLineError(GeometryError):
    pass


QUADRIC_TOL = 1e-10
DUPIN_DERIVATIVE_TOL = 5e-3  # legendre_dupin_test: finite-difference derivative cut
DEGENERATE_FRACTION = 0.5  # fig7: above this singular share the projection is a curve
PROJECTION_TOL = 1e-8  # fig7: largest accepted relative rounding bound of the projection
PENCIL_ROUNDING = 16 * np.finfo(float).eps  # fig7: relative rounding of a0 and a1


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


def make_line(S0, S1):
    S0 = np.asarray(S0, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    if quadric_residual(S0) > QUADRIC_TOL or quadric_residual(S1) > QUADRIC_TOL:
        raise DegenerateLineError("representative off the quadric")
    if np.max(np.abs(inner(S0, S1, mt.R42))) > QUADRIC_TOL:
        raise DegenerateLineError("representatives are not orthogonal")
    svals = np.linalg.svd(np.stack([S0, S1]), compute_uv=False)
    if svals[-1] < 1e-9 * svals[0]:
        raise DegenerateLineError("representatives are linearly dependent")
    return PencilLine(S0, S1)


def _point_sphere(S0, S1):
    """(a0, a1, sigma) with a_i = <S_i, eps5> and sigma = a1 S0 - a0 S1, the
    combination orthogonal to eps5."""
    S0 = np.asarray(S0, dtype=float)
    S1 = np.asarray(S1, dtype=float)
    a0 = inner(S0, np.eye(6)[5], mt.R42)
    a1 = inner(S1, np.eye(6)[5], mt.R42)
    return a0, a1, a1[..., None] * S0 - a0[..., None] * S1


def spherical_projection(S0, S1):
    """The unique point sphere on each line: the combination orthogonal to eps5,
    returned as an R^{4,1} representative.  Vectorized over grids."""
    a0, a1, w = _point_sphere(S0, S1)
    scale = np.maximum(np.abs(a0), np.abs(a1))
    if np.any(scale < 1e-12 * np.maximum(np.max(np.abs(S0), axis=-1), 1.0)):
        raise DegenerateLineError("line lies inside Moebius space (data error)")
    return w[..., :5]


def projection_precision(S0, S1):
    """Relative rounding bound of spherical_projection over a grid: eps * kappa,
    maximised, with kappa = (|a1| |S0| + |a0| |S1|) / |sigma| the condition
    number of the cancellation in sigma = a1 S0 - a0 S1.  NaN or inf when the
    representatives overflow."""
    norm = lambda x: np.linalg.norm(x, axis=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a0, a1, w = _point_sphere(S0, S1)
        kappa = (np.abs(a1) * norm(S0) + np.abs(a0) * norm(S1)) / norm(w[..., :5])
        return float(np.finfo(float).eps * np.max(kappa))


def check_projection_precision(bound):
    """Reject a projection whose rounding bound exceeds PROJECTION_TOL; a NaN
    bound fails."""
    if not bound <= PROJECTION_TOL:
        raise GeometryError(
            f"the spherical projection has relative rounding bound {bound:.3e}, not within "
            f"the tolerance {PROJECTION_TOL:g}; use a smaller boost"
        )


# --- Legendre maps ------------------------------------------------------------------

@dataclass
class LegendreMap:
    """Grid of pencil lines over a parameter domain; optional exact
    differentials of the two representative fields, as 1-forms (2, ..., 6)."""

    S0: np.ndarray
    S1: np.ndarray
    domain: ParamDomain
    dS0: np.ndarray | None = None
    dS1: np.ndarray | None = None

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
    representatives rescaled by a fixed coordinate functional f.  An exact
    dS0 is divided by f: it differs from d(S0/f) by a multiple of S0, which
    pairs to zero with S1."""
    f = lm.S0[..., _fixed_norm_coordinate(lm.S0), None]
    dS0 = grid_differential(lm.S0 / f, lm.domain) if lm.dS0 is None else lm.dS0 / f
    return float(np.max(np.abs(inner(dS0, _smooth_normalize(lm.S1), mt.R42))))


def legendre_lift(F, S, domain, dF=None, dS=None, tangency_tol=1e-6):
    """Legendre lift [F, S + eps5] of an immersion into Moebius space with a
    tangent sphere map S along it; the optional exact differentials dF and
    dS are 1-forms, (2, ..., 5) arrays or (d/du, d/dv) pairs."""
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
    dS0 = None if dF is None else include_point(dF)
    dS1 = None if dS is None else include_point(dS)
    return LegendreMap(S0, S1, domain, dS0, dS1)


def frame_line(ff):
    """LegendreMap of the line spanned by the first two columns of a Lie frame
    field, in epsilon coordinates; their differentials are the first two
    columns of T omega, from the form the field carries."""
    eps = lambda F, k: F[..., :, k] @ mt.P_LAMBDA.T  # lambda -> epsilon
    dT = ff.mats @ ff.omega[..., :2]
    return LegendreMap(eps(ff.mats, 0), eps(ff.mats, 1), ff.domain, eps(dT, 0), eps(dT, 1))


def example_lambda(domain=None):
    """The homogeneous Legendre immersion [S0(u), S1(v)] with
    S0 = cos u eps0 + sin u eps3 + eps4 and S1 = cos v eps1 + sin v eps2 + eps5:
    the line of example_frame."""
    return frame_line(example_frame(domain))


def example_frame(domain=None):
    """Best Lie frame field along example_lambda: the orbit
    example_base_frame() e^{u X_u} e^{v X_v}, whose Maurer-Cartan form is the
    constant X_u du + X_v dv.  In epsilon coordinates its columns are
    [S0, S1, S1', S0', (-cos v eps1 - sin v eps2 + eps5)/2,
     (-cos u eps0 - sin u eps3 + eps4)/2]."""
    X_u, X_v = np.zeros((2, 6, 6))
    X_u[0, 3] = X_u[3, 5] = X_v[1, 2] = X_v[2, 4] = -0.5
    X_u[3, 0] = X_u[5, 3] = X_v[2, 1] = X_v[4, 2] = 1.0
    return orbit_frame("lie", example_base_frame(), X_u, X_v, domain or ParamDomain())


# --- spherical-projection rank test ---------------------------------------------------

def sigma_rank_report(lm):
    """Singular values of the differential of sigma composed with the map;
    the second singular value vanishes where the projection is singular
    ("singular_everywhere": below 1e-10 on the whole grid)."""
    sig = spherical_projection(lm.S0, lm.S1)
    sig = _smooth_normalize(sig)
    d = lm.domain
    J = np.moveaxis(grid_differential(sig, d), 0, -1)
    svals = np.linalg.svd(J, compute_uv=False)
    return {
        "max_second_singular_value": float(np.max(svals[..., 1])),
        "singular_everywhere": bool(np.max(svals[..., 1]) < 1e-10),
        "svals": svals,
    }


# --- curvature spheres and the Dupin test ---------------------------------------------

def curvature_sphere_fields(lm):
    """Per-point pencil parameters (alpha : beta) where alpha S0 + beta S1 has
    singular differential modulo the line, as two root fields with kernels.

    dS0 and dS1 are orthogonal to the line, and the Lie product is positive
    definite modulo it, so for a reference pair r of line motions independent
    modulo the line, det((dS0 + tau dS1)(d_i) mod the line) det(R) =
    det(<(dS0 + tau dS1)(d_i), r_j>) (Cauchy-Binet).  r is the one of dS0,
    dS1 and dS0 + dS1 (tau = 0, inf, 1) with the largest Gram determinant at
    each point: a nonzero quadratic in tau vanishes at two of them at most.
    Pairing with r keeps the kernel of the motion, which gives the kernels."""
    dS0 = grid_differential(lm.S0, lm.domain) if lm.dS0 is None else lm.dS0
    dS1 = grid_differential(lm.S1, lm.domain) if lm.dS1 is None else lm.dS1
    # the 1-form (2, ..., 2) of <x(d_i), r(d_j)>: direction i, component j
    gram = lambda x, r: np.moveaxis(inner(x[:, None], r[None], mt.R42), 1, -1)
    refs = (dS0, dS1, dS0 + dS1)
    dets = [wedge(g[..., 0], g[..., 1]) for g in map(gram, refs, refs)]
    ref = np.choose(np.argmax(dets, axis=0)[..., None], refs)
    a, b = gram(dS0, ref), gram(dS1, ref)
    coeffs = np.stack(pencil(a, b))
    scale = np.max(np.abs(coeffs))
    if scale < 1e-13:
        return {"degenerate": True, "roots": []}
    lo, hi, disc = pencil_roots(*(coeffs / scale))  # of det(a + tau b), tau = beta/alpha
    if np.any(np.isfinite(hi) & (disc < -1e-9)):  # hi is finite where the degree is 2
        return {"degenerate": False, "complex": True, "roots": []}
    out = []
    for t in (lo, hi):
        finite = np.isfinite(t)
        ab = np.stack([np.where(finite, 1.0, 0.0), np.where(finite, t, 1.0)], axis=-1)
        ab /= np.linalg.norm(ab, axis=-1, keepdims=True)
        M = np.moveaxis(ab[..., 0:1] * a + ab[..., 1:2] * b, 0, -1)  # (..., 2 comps, 2 cols)
        k_a = np.stack([M[..., 0, 1], -M[..., 0, 0]], axis=-1)
        k_b = np.stack([M[..., 1, 1], -M[..., 1, 0]], axis=-1)
        use_a = np.linalg.norm(k_a, axis=-1) >= np.linalg.norm(k_b, axis=-1)
        k = np.where(use_a[..., None], k_a, k_b)
        k = k / np.maximum(np.linalg.norm(k, axis=-1, keepdims=True), 1e-300)
        out.append({"alpha_beta": ab, "kernel": k})
    return {"degenerate": False, "roots": out}


def legendre_dupin_test(lm):
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
        "dupin": worst < DUPIN_DERIVATIVE_TOL,
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
    """Basis of the 6-dimensional subalgebra annihilating h_constraints(), dual
    to the coframe theta^2 = omega^2_1, theta^3 = omega^3_0 and to the isotropy
    entries omega^0_0, omega^1_1, omega^0_3, omega^1_2 that LieCoefficients
    reads."""
    return mt.subalgebra_from_constraints(h_constraints(), mt.LIE,
                                          [(2, 1), (3, 0), (0, 0), (1, 1), (0, 3), (1, 2)])


def slice_generators():
    """The two h-basis elements dual to the coframe entries theta^2 = omega^2_1
    and theta^3 = omega^3_0."""
    return h_basis().elements[:2]


def boost(t):
    """The SO(4,2) boost mixing eps0 and eps5, expressed in the lambda basis:
    diag(e^t, 1, 1, 1, 1, e^{-t}); infinite past |t| ~ 709.78, which
    coset_orbit rejects."""
    with np.errstate(over="ignore"):
        return np.diag([np.exp(t), 1.0, 1.0, 1.0, 1.0, np.exp(-t)])


def example_base_frame():
    """The example_frame value at (u, v) = (0, 0): the constant Lie frame whose
    right coset carries the homogeneous Legendre immersion."""
    e = np.eye(6)
    cols = [e[0] + e[4], e[1] + e[5], e[2], e[3], (e[5] - e[1]) / 2, (e[4] - e[0]) / 2]
    return mt.P_LAMBDA.T @ np.stack(cols, axis=-1)


def coset_orbit(A, s_grid, t_grid):
    """Legendre map of the coset A * (base frame) * exp(s X_theta2) exp(t X_theta3)
    through the line of the first two frame columns, on uniform grids.

    The base frame right-translates the exponential slice so that A = identity
    reproduces the homogeneous example (spherical projection a great circle)
    and boosts produce the singular surfaces of revolution.
    """
    domain = ParamDomain(
        (float(s_grid[0]), float(s_grid[-1])),
        (float(t_grid[0]), float(t_grid[-1])),
        len(s_grid), len(t_grid), periodic_u=False, periodic_v=False,
    )
    u, v = domain.grids()
    if not (np.allclose(u, s_grid) and np.allclose(v, t_grid)):
        raise GeometryError("coset orbit grids must be uniformly spaced")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
        M = np.asarray(A, dtype=float) @ example_base_frame()
        ff = orbit_frame("lie", M, *slice_generators(), domain)
        lm = frame_line(ff)
    if not all(np.isfinite(F).all() for F in (ff.mats, ff.omega, lm.S0, lm.S1, lm.dS0, lm.dS1)):
        raise GeometryError("coset orbit is not finite on this grid; use a smaller boost")
    _check_line_immersion(ff)
    return lm, ff


def line_motion_svals(ff):
    """Singular values of the line's motion modulo itself, broadcasting over
    the grid like ff.omega: along a Lie frame, dT0 and dT1 modulo [T0, T1] are
    omega^2_0 T2 + omega^3_0 T3 and omega^2_1 T2 + omega^3_1 T3, with T2, T3
    orthonormal, so these are the singular values of the 4x2 matrix of those
    omega entries."""
    w = ff.omega[..., 2:4, 0:2]                                   # (2, ..., 2, 2)
    J = np.moveaxis(w.reshape(w.shape[:-2] + (4,)), 0, -1)      # (..., 4, 2)
    return np.linalg.svd(J, compute_uv=False)


def _check_line_immersion(ff):
    """The two line motions, taken modulo the pencil plane, must be
    independent at every grid point: the second singular value at least 1e-8
    times the largest (or 1)."""
    svals = line_motion_svals(ff)
    dependent = np.broadcast_to(svals[..., 1] < 1e-8 * max(float(np.max(svals)), 1.0),
                                ff.mats.shape[:2])
    if dependent.any():
        nu, nv = dependent.shape
        raise GeometryError(
            f"the line motions of the coset orbit are dependent at {dependent.sum()} of the "
            f"{nu}x{nv} grid points"
        )


def pencil_determinant(lm, ff):
    """(f, bound) over the grid: f = det(a1 omega^{2..3}_0 - a0 omega^{2..3}_1)
    is the du^dv coefficient of the motion of sigma = a1 S0 - a0 S1 modulo the
    line, zero exactly where the point sphere sigma is a curvature sphere;
    bound is PENCIL_ROUNDING times the first-order change of f when each a_i
    moves by |S_i|, the scale of the rounding of a_i = <S_i, eps5>."""
    a0, a1, _ = _point_sphere(lm.S0, lm.S1)
    A, B = ff.omega[..., 2:4, 0], ff.omega[..., 2:4, 1]       # 1-forms (2, ..., 2)
    M = a1[..., None] * A - a0[..., None] * B
    (f, dA, _), (_, dB, _) = pencil(M, A), pencil(M, B)  # f, and its a1 and -a0 slopes
    norm = lambda S: np.linalg.norm(S, axis=-1)
    return f, PENCIL_ROUNDING * (norm(lm.S0) * np.abs(dB) + norm(lm.S1) * np.abs(dA))


def _sign_change_nodes(f):
    """Of each grid edge across which f changes sign strictly, the endpoint
    with the smaller |f| (the first on a tie)."""
    out = np.zeros(f.shape, dtype=bool)
    for g, o in ((f, out), (f.T, out.T)):
        cross = np.sign(g[:-1]) * np.sign(g[1:]) < 0
        nearer = np.abs(g[:-1]) <= np.abs(g[1:])
        o[:-1] |= cross & nearer
        o[1:] |= cross & ~nearer
    return out


def fig7_pipeline(boost_t, s_grid=None, t_grid=None):
    """Stereographic projection of the spherical projection sigma of the
    boosted coset orbit.  sigma fails to immerse exactly where it is a
    curvature sphere, the zeros of pencil_determinant's f: grid points where
    f is zero to rounding and the nearer endpoint of each grid edge across
    which f changes sign are flagged singular, as are the pole and points off
    the chart.  A boost whose projection has a relative rounding bound above
    PROJECTION_TOL is rejected (see projection_precision)."""
    if s_grid is None:
        s_grid = np.linspace(-4.0, 4.0, 33)
    if t_grid is None:
        t_grid = np.linspace(-4.0, 4.0, 33)
    lm, ff = coset_orbit(boost(boost_t), s_grid, t_grid)
    bound = projection_precision(lm.S0, lm.S1)
    check_projection_precision(bound)
    x, on_chart = sf.moebius_chart(spherical_projection(lm.S0, lm.S1), "sphere")
    y, pole = sf.stereo_off_pole(x)
    f, f_bound = pencil_determinant(lm, ff)
    singular = (np.abs(f) <= f_bound) | _sign_change_nodes(f) | pole | ~on_chart
    degenerate = bool(np.mean(singular) > DEGENERATE_FRACTION)
    return {
        "points": y,
        "singular_mask": singular,
        "singular_count": int(np.sum(singular)),
        "grid_size": int(singular.size),
        "degenerate": degenerate,
        "projection_bound": bound,
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


def best_lie_frame_check(ff):
    """Residuals of the three best-frame order conditions along a Legendre map,
    plus the derived coefficient functions and their exterior-derivative
    compatibility residuals."""
    mc = pullback_mc(ff)
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
    if res["order1"] > ORDER_TOL:
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


def coset_membership_residual(ff):
    """Largest value of the h_constraints() functionals on the frame's
    Maurer-Cartan form over the grid: omega lies in h everywhere iff the
    frame field stays in the one right coset T(0, 0) H (the domain is
    connected)."""
    w = pullback_mc(ff).omega
    return max(float(np.max(np.abs(sum(c * w[..., a, b] for (a, b), c in con.items()))))
               for con in h_constraints())
