"""Numerical Maurer-Cartan calculus on frame-field grids: pull-backs of
g^{-1} dg, structure-equation residuals, the congruence test, and integration
of flat algebra-valued forms by exponential midpoint stepping.

A 1-form f_u du + f_v dv on a grid is one array whose axis 0 holds (f_u, f_v);
grid_differential, exterior_d, wedge, coframe_solve and pencil all use that
layout.
FrameField.omega and MCForm.omega broadcast over the grid, (2, nu|1, nv|1, n, n),
with length 1 along an axis they do not vary along; pullback_mc's are full."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import metrics as mt
from .metrics import GeometryError, GROUPS, mat_exp
from .surfaces import ParamDomain


class IntegrabilityError(GeometryError):
    pass


class FrameOrderError(GeometryError):
    """An adapted frame field fails one of its order conditions."""


ORDER_TOL = 1e-6  # largest accepted order-condition residual of an adapted frame
INTEGRABILITY_TOL = 5e-2  # integrate_mc: largest accepted structure residual


def grid_gradient(f, h, axis, periodic):
    """Grid derivative along one axis; 4th-order central stencils inside
    (exactly so on periodic grids), 2nd-order one-sided at open boundaries;
    0 along an axis of length 1, which is a broadcast one.  The central
    stencil is computed in place in the result; a periodic axis reads its
    wrapped neighbours by index, with no padded copy."""
    f = np.asarray(f)
    if not np.iscomplexobj(f):
        f = f.astype(float, copy=False)
    n = f.shape[axis]
    if n == 1:
        return np.zeros_like(f)
    out = np.empty_like(f)
    g, d = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)

    def central(dst, next1, prev1, next2, prev2):
        # (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / 12h, in that order, into dst
        np.subtract(next1, prev1, out=dst)
        dst *= 8.0
        dst -= next2 - prev2
        dst /= 12.0 * h

    if n >= 5:
        central(d[2:-2], g[3:-1], g[1:-3], g[4:], g[:-4])
    for i in ((0, 1, n - 2, n - 1) if n >= 5 else range(n)):
        if periodic:
            central(d[i], g[(i + 1) % n], g[i - 1], g[(i + 2) % n], g[i - 2])
        elif i == 0:
            d[0] = (-3 * g[0] + 4 * g[1] - g[2]) / (2 * h)
        elif i == n - 1:
            d[i] = (3 * g[i] - 4 * g[i - 1] + g[i - 2]) / (2 * h)
        else:
            d[i] = (g[i + 1] - g[i - 1]) / (2 * h)
    return out


def grid_differential(f, domain):
    """The 1-form df of a grid field: (df/du, df/dv) stacked on a new axis 0
    (see grid_gradient)."""
    return np.stack([grid_gradient(f, domain.du, 0, domain.periodic_u),
                     grid_gradient(f, domain.dv, 1, domain.periodic_v)])


def exterior_d(form, domain):
    """du^dv coefficient of the exterior derivative of a grid 1-form:
    d_u f_v - d_v f_u."""
    return (grid_gradient(form[1], domain.du, 0, domain.periodic_u)
            - grid_gradient(form[0], domain.dv, 1, domain.periodic_v))


def wedge(f, g):
    """du^dv coefficient of the wedge of two 1-forms."""
    return f[0] * g[1] - f[1] * g[0]


def pencil(P, Q):
    """(c0, c1, c2) with det(P + r Q) = c0 + c1 r + c2 r^2 for two R^2-valued
    1-forms P, Q of layout (2, ..., 2): the du^dv coefficients of the wedge of
    the components of P + r Q."""
    return (wedge(P[..., 0], P[..., 1]),
            wedge(P[..., 0], Q[..., 1]) + wedge(Q[..., 0], P[..., 1]),
            wedge(Q[..., 0], Q[..., 1]))


def pencil_roots(c0, c1, c2):
    """(r_lo, r_hi, disc): the roots r_lo <= r_hi of c0 + c1 r + c2 r^2 and its
    discriminant c1^2 - 4 c0 c2, for coefficients scaled to at most 1.  Where
    |c2| <= 1e-10 the pencil has dropped to degree 1: r_lo = -c0/c1 (0 where c1
    is that small too) and r_hi = inf.  Otherwise the larger-magnitude root is
    q/c2 with q = -(c1 + sign(c1) sqrt(disc))/2, the other c0/q, with no
    cancellation; a negative disc is read as 0, so the caller tests disc."""
    quad = np.abs(c2) > 1e-10
    disc = c1 * c1 - 4 * c0 * c2
    q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(quad, q / c2, np.where(np.abs(c1) > 1e-10, -c0 / c1, 0.0))
        r2 = np.where(quad, np.where(q != 0, c0 / q, 0.0), np.inf)
    return np.minimum(r1, r2), np.maximum(r1, r2), disc


def coframe_solve(theta1, theta2, psi):
    """Coefficients (x, y) of the 1-form psi = x theta1 + y theta2, pointwise, by
    Cramer's rule in the exterior algebra: x = psi^theta2 / theta1^theta2, y =
    theta1^psi / theta1^theta2; GeometryError where either is not finite."""
    det = wedge(theta1, theta2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = wedge(psi, theta2) / det, wedge(theta1, psi) / det
    bad = int(np.sum(~(np.isfinite(x) & np.isfinite(y))))
    if bad:
        raise GeometryError(f"degenerate coframe: theta1^theta2 = 0 or inf/NaN at {bad} points")
    return x, y


@dataclass
class FrameField:
    """Grid of group elements over a parameter domain.

    ``omega`` optionally holds the exact Maurer-Cartan form T^{-1} dT as a
    1-form (2, nu|1, nv|1, n, n) that broadcasts over the grid, so the
    partials of the frame are T omega; when absent, pullback_mc takes grid
    derivatives.  omega is left-invariant, so left translation keeps it.
    """

    group: str
    mats: np.ndarray                      # (nu, nv, n, n)
    domain: ParamDomain
    omega: np.ndarray | None = None

    def handle(self):
        return GROUPS[self.group]

    def membership_residual(self):
        return self.handle().membership_residual(self.mats)

    def left_translated(self, g):
        return replace(self, mats=g @ self.mats)


def orbit_frame(group, M, X, Y, domain):
    """The frame field T = M e^{uX} e^{vY} on domain.grids(), one mat_exp per
    generator over that generator's own grid axis, with its Maurer-Cartan form
    omega_u = e^{-vY} X e^{vY}, omega_v = Y.  That form depends on v only, and
    not on M, so it is kept per v, shape (2, 1, nv, n, n)."""
    u, v = domain.grids()
    A = M @ mat_exp(u[:, None, None] * X)
    B = mat_exp(v[:, None, None] * Y)
    T = A[:, None] @ B
    omega_u = GROUPS[group].inverse(B) @ X @ B
    omega = np.stack([omega_u, np.broadcast_to(Y, omega_u.shape)])[:, None]
    return FrameField(group, T, domain, omega)


@dataclass
class MCForm:
    """Maurer-Cartan 1-form: ``omega`` (2, nu|1, nv|1, n, n) holds its du and dv
    coefficients, broadcast like FrameField.omega (pullback_mc fills the grid)."""

    group: str
    omega: np.ndarray
    domain: ParamDomain
    projection_noise: float = 0.0

    def algebra_residual(self):
        return GROUPS[self.group].algebra_residual(self.omega)


def _check_membership(ff):
    r = ff.membership_residual()
    if not r <= 1e-8:
        raise mt.MembershipError(f"frame field leaves the group (residual {r:.2e})")


def pullback_mc(ff):
    """omega = e^{-1} de on the grid: the field's own exact form, broadcast to
    the grid, when it carries one; otherwise e^{-1} times the grid derivatives
    (see grid_gradient), with no solve: e^{-1} is the group inverse,
    gram^{-1} e^T gram (omega^i_j = gram^{ik} <e_k, de_j>) or E(3)'s e3_inverse.

    The result is projected onto the algebra and the discarded mass is
    reported as projection noise.  The grid path works one grid axis at a
    time into the preallocated form (see _pullback_axis).
    """
    _check_membership(ff)
    G, shape = ff.handle(), (2,) + ff.mats.shape
    if ff.omega is not None:
        p, noise = _project(G, np.broadcast_to(ff.omega, shape).copy())
        return MCForm(ff.group, p, ff.domain, projection_noise=noise)
    omega, noise, inv = np.empty(shape), np.empty(2), G.inverse(ff.mats)
    for k in (0, 1):
        omega[k], noise[k] = _pullback_axis(ff, inv, k, omega[k])
    return MCForm(ff.group, omega, ff.domain, projection_noise=float(np.max(noise)))


def _project(G, raw):
    """raw's projection p onto G's algebra, and the max-abs entry of the part
    it discards, taken in place in raw."""
    p = G.algebra_project(raw)
    return p, _max_abs_diff(raw, p)


def _max_abs_diff(a, b):
    """max|a - b|, taken in place in a."""
    a -= b
    return float(np.max(np.abs(a, out=a)))


def _pullback_axis(ff, inv, k, raw):
    """_project of e^{-1} d_k e, the frame's grid derivative along axis k
    pulled back by inv = e^{-1}; raw, of the frame's shape, holds it, so the
    working set is one grid axis's arrays."""
    dom = ff.domain
    h, periodic = ((dom.du, dom.periodic_u), (dom.dv, dom.periodic_v))[k]
    return _project(ff.handle(), np.matmul(inv, grid_gradient(ff.mats, h, k, periodic), out=raw))


def structure_residual(mc):
    """Max-abs entry of d_u omega_v - d_v omega_u + [omega_u, omega_v], the
    coordinate form of the flatness equation, two samples in from each open
    boundary; GeometryError if an open axis has fewer than 5 samples."""
    dom = mc.domain
    axes = ((dom.nu, dom.periodic_u), (dom.nv, dom.periodic_v))
    if any(n < 5 and not periodic for n, periodic in axes):
        raise GeometryError(f"an open axis needs at least 5 samples, got {dom.nu}x{dom.nv}")
    resid = exterior_d(mc.omega, dom) + mt.bracket(*mc.omega)
    # an axis of length 1 is a broadcast one, whose value every sample shares
    iu, iv = (slice(2, -2) if length > 1 and not periodic else slice(None)
              for (_, periodic), length in zip(axes, resid.shape))
    return float(np.max(np.abs(resid[iu, iv])))


def congruence_test(e, e_tilde):
    """Two frame fields differ by one fixed group element iff g(m) =
    e_tilde(m) e(m)^{-1} is constant; returns (congruent, mean g, deviation),
    congruent when the deviation is below 1e-8.
    e^{-1} is the group inverse, so both fields must lie in the group."""
    if e.group != e_tilde.group or e.mats.shape != e_tilde.mats.shape:
        raise GeometryError("congruence test needs matching grids and groups")
    for ff in (e, e_tilde):
        _check_membership(ff)
    g = e_tilde.mats @ e.handle().inverse(e.mats)
    g_mean = np.mean(g, axis=(0, 1))
    dev = _max_abs_diff(g, g_mean)
    return {"congruent": dev < 1e-8, "g": g_mean, "deviation": dev}


def integrate_mc(mc, base):
    """Integrate a flat algebra-valued form into a frame field.

    Path-ordered exponential midpoint products starting from the base corner:
    exp(h * eta) at cell midpoints, rows-then-columns.  Group membership is
    preserved exactly.  The path-independence deviation from the
    columns-first scan is reported alongside, and the reconstruction
    max|pullback_mc(frame) - form|, one grid axis at a time.
    """
    sr = structure_residual(mc)
    if sr > INTEGRABILITY_TOL:
        raise IntegrabilityError(f"form is not flat enough (residual {sr:.3e})")
    e_rows, e_cols = _integrate(mc, base)
    dev = _max_abs_diff(e_cols, e_rows)  # the columns-first scan is scratch from here on
    ff = FrameField(mc.group, e_rows, mc.domain)
    _check_membership(ff)
    inv = ff.handle().inverse(e_rows)
    recon = [_max_abs_diff(_pullback_axis(ff, inv, k, e_cols)[0], mc.omega[k]) for k in (0, 1)]
    return ff, {
        "path_independence": dev,
        "structure_residual": sr,
        "reconstruction": float(np.max(recon)),
    }


def _integrate(mc, base):
    # Rows-first and columns-first scans from base over one grid of steps
    # exp(h * eta) per direction; a form of length 1 along an axis is its own
    # midpoint there, so each distinct midpoint is exponentiated once.  The
    # columns-first scan writes through swapped axes: e_cols is C-contiguous.
    dom, (wu, wv) = mc.domain, mc.omega
    if wu.shape[0] > 1:
        wu = 0.5 * (wu[:-1] + wu[1:])
    if wv.shape[1] > 1:
        wv = 0.5 * (wv[:, :-1] + wv[:, 1:])
    shape = (dom.nu, dom.nv) + wu.shape[2:]
    su = np.broadcast_to(mat_exp(dom.du * wu), (dom.nu - 1, dom.nv) + shape[2:])
    sv = np.broadcast_to(mat_exp(dom.dv * wv), (dom.nu, dom.nv - 1) + shape[2:])
    e_rows, e_cols = np.empty(shape), np.empty(shape)
    swap = lambda x: x.swapaxes(0, 1)
    for a, b, e in ((su, sv, e_rows), (swap(sv), swap(su), swap(e_cols))):
        e[0, 0] = base
        for i in range(1, e.shape[0]):
            e[i, 0] = e[i - 1, 0] @ a[i - 1, 0]
        for j in range(1, e.shape[1]):
            e[:, j] = e[:, j - 1] @ b[:, j - 1]
    return e_rows, e_cols


def constant_form(X_u, X_v, domain, group):
    """MCForm with constant coefficient matrices (for exact exponential
    orbits), omega of shape (2, 1, 1, n, n)."""
    return MCForm(group, np.stack([X_u, X_v])[:, None, None], domain)
