"""Numerical Maurer-Cartan calculus on frame-field grids: pull-backs of
g^{-1} dg, structure-equation residuals, the congruence test, and integration
of flat algebra-valued forms by exponential midpoint stepping.

A 1-form f_u du + f_v dv on a grid is one array whose axis 0 holds (f_u, f_v);
grid_differential, exterior_d, wedge and coframe_solve all use that layout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from .metrics import GeometryError, GROUPS, mat_exp
from .surfaces import ParamDomain


class IntegrabilityError(GeometryError):
    pass


class FrameOrderError(GeometryError):
    """An adapted frame field fails one of its order conditions."""


def grid_gradient(f, h, axis, periodic):
    """Grid derivative along one axis; 4th-order central stencils inside
    (exactly so on periodic grids), 2nd-order one-sided at open boundaries."""
    f = np.asarray(f)
    if not np.iscomplexobj(f):
        f = f.astype(float, copy=False)
    if periodic:
        fp1 = np.roll(f, -1, axis=axis)
        fm1 = np.roll(f, 1, axis=axis)
        fp2 = np.roll(f, -2, axis=axis)
        fm2 = np.roll(f, 2, axis=axis)
        return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
    out = np.empty_like(f)
    n = f.shape[axis]
    sl = lambda i: tuple(slice(None) if k != axis else i for k in range(f.ndim))
    if n >= 5:
        inner = slice(2, n - 2)
        out[sl(inner)] = (
            8.0 * (f[sl(slice(3, n - 1))] - f[sl(slice(1, n - 3))])
            - (f[sl(slice(4, n))] - f[sl(slice(0, n - 4))])
        ) / (12.0 * h)
        edge = [0, 1, n - 2, n - 1]
    else:
        edge = list(range(n))
    for i in edge:
        if i == 0:
            out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * h)
        elif i == n - 1:
            out[sl(n - 1)] = (3 * f[sl(n - 1)] - 4 * f[sl(n - 2)] + f[sl(n - 3)]) / (2 * h)
        else:
            out[sl(i)] = (f[sl(i + 1)] - f[sl(i - 1)]) / (2 * h)
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


def coframe_solve(theta1, theta2, psi):
    """Coefficients (x, y) of the 1-form psi = x theta1 + y theta2, pointwise."""
    A = np.moveaxis(np.stack([theta1, theta2], axis=-1), 0, -2)
    sol = np.linalg.solve(A, np.moveaxis(psi, 0, -1)[..., None])[..., 0]
    return sol[..., 0], sol[..., 1]


@dataclass
class FrameField:
    """Grid of group elements over a parameter domain.

    ``partial_u`` / ``partial_v`` optionally hold analytic derivative grids of
    the same shape; when absent, finite differences are used downstream.
    ``omega`` optionally holds the exact Maurer-Cartan form T^{-1} dT as a
    1-form (2, ..., n, n) that broadcasts over the grid; it is left-invariant,
    so left translation keeps it.
    """

    group: str
    mats: np.ndarray                      # (nu, nv, n, n)
    domain: ParamDomain
    partial_u: np.ndarray | None = None
    partial_v: np.ndarray | None = None
    omega: np.ndarray | None = None

    def handle(self):
        return GROUPS[self.group]

    def membership_residual(self):
        return self.handle().membership_residual(self.mats)

    def left_translated(self, g):
        return FrameField(
            self.group, g @ self.mats, self.domain,
            None if self.partial_u is None else g @ self.partial_u,
            None if self.partial_v is None else g @ self.partial_v,
            self.omega,
        )


def orbit_frame(group, M, X, Y, domain):
    """The frame field T = M e^{uX} e^{vY} on domain.grids(), with analytic
    partials T_u = (M e^{uX} X) e^{vY} and T_v = T Y; one mat_exp per
    generator, over that generator's own grid axis.  Its Maurer-Cartan form
    omega_u = e^{-vY} X e^{vY}, omega_v = Y depends on v only, and not on M,
    so it is kept per v, shape (2, 1, nv, n, n)."""
    u, v = domain.grids()
    A = M @ mat_exp(u[:, None, None] * X)
    B = mat_exp(v[:, None, None] * Y)
    T = A[:, None] @ B
    omega_u = GROUPS[group].inverse(B) @ X @ B
    omega = np.stack([omega_u, np.broadcast_to(Y, omega_u.shape)])[:, None]
    return FrameField(group, T, domain, (A @ X)[:, None] @ B, T @ Y, omega)


@dataclass
class MCForm:
    """Pulled-back Maurer-Cartan form: an algebra-valued 1-form on the grid,
    ``omega`` of shape (2, nu, nv, n, n) holding its du and dv coefficients."""

    group: str
    omega: np.ndarray
    domain: ParamDomain
    projection_noise: float = 0.0

    @property
    def omega_u(self):
        return self.omega[0]

    @property
    def omega_v(self):
        return self.omega[1]

    @property
    def du(self):
        return self.domain.du

    @property
    def dv(self):
        return self.domain.dv

    def algebra_residual(self):
        return GROUPS[self.group].algebra_residual(self.omega)


def pullback_mc(ff, membership_tol=1e-8):
    """omega = e^{-1} de on the grid.

    Analytic partials are used when the field carries them; otherwise grid
    derivatives (see grid_gradient).  The result is projected onto the algebra
    and the discarded mass is reported as projection noise.
    """
    if ff.membership_residual() > membership_tol:
        raise mt.MembershipError(
            f"frame field leaves the group (residual {ff.membership_residual():.2e})"
        )
    if ff.partial_u is not None and ff.partial_v is not None:
        de = (ff.partial_u, ff.partial_v)
    else:
        de = grid_differential(ff.mats, ff.domain)
    # one solve against [de_u | de_v] factors each frame once
    omega = np.stack(np.split(np.linalg.solve(ff.mats, np.concatenate(de, axis=-1)), 2, axis=-1))
    p = ff.handle().algebra_project(omega)
    omega -= p  # in place: the discarded mass is only needed for its maximum
    return MCForm(ff.group, p, ff.domain, projection_noise=float(np.max(np.abs(omega))))


def structure_residual(mc):
    """Max-abs entry of d_u omega_v - d_v omega_u + [omega_u, omega_v], the
    coordinate form of the flatness equation."""
    resid = exterior_d(mc.omega, mc.domain) + mt.bracket(*mc.omega)
    if not (mc.domain.periodic_u and mc.domain.periodic_v):
        iu = slice(None) if mc.domain.periodic_u else slice(2, -2)
        iv = slice(None) if mc.domain.periodic_v else slice(2, -2)
        resid = resid[iu, iv]
    return float(np.max(np.abs(resid)))


def congruence_test(e, e_tilde, tol=1e-8):
    """Two frame fields differ by one fixed group element iff g(m) =
    e_tilde(m) e(m)^{-1} is constant; returns (congruent, mean g, deviation)."""
    if e.group != e_tilde.group or e.mats.shape != e_tilde.mats.shape:
        raise GeometryError("congruence test needs matching grids and groups")
    g = e_tilde.mats @ np.linalg.inv(e.mats)
    g_mean = np.mean(g, axis=(0, 1))
    dev = float(np.max(np.abs(g - g_mean)))
    return {"congruent": dev < tol, "g": g_mean, "deviation": dev}


def integrate_mc(mc, base, integrability_tol=5e-2, order="rows"):
    """Integrate a flat algebra-valued form into a frame field.

    Path-ordered exponential midpoint products starting from the base corner:
    exp(h * eta) at cell midpoints, rows-then-columns (or the transpose order).
    Group membership is preserved exactly.  The path-independence deviation
    (rows-first vs columns-first) is reported alongside.
    """
    sr = structure_residual(mc)
    if sr > integrability_tol:
        raise IntegrabilityError(f"form is not flat enough (residual {sr:.3e})")
    e_rows = _integrate(mc, base, rows_first=True)
    e_cols = _integrate(mc, base, rows_first=False)
    dev = float(np.max(np.abs(e_rows - e_cols)))
    mats = e_rows if order == "rows" else e_cols
    ff = FrameField(mc.group, mats, mc.domain)
    back = pullback_mc(ff).omega
    back -= mc.omega
    recon = float(np.max(np.abs(back)))
    return ff, {
        "path_independence": dev,
        "structure_residual": sr,
        "reconstruction": recon,
    }


def _integrate(mc, base, rows_first):
    # Columns-first is rows-first with the roles of u and v exchanged.
    (a, b), da, db = mc.omega, mc.du, mc.dv
    if not rows_first:
        a, b, da, db = b.swapaxes(0, 1), a.swapaxes(0, 1), db, da
    step_a = mat_exp(da * (0.5 * (a[:-1, 0] + a[1:, 0])))
    step_b = mat_exp(db * (0.5 * (b[:, :-1] + b[:, 1:])))
    e = np.empty_like(a)
    e[0, 0] = base
    for i in range(1, e.shape[0]):
        e[i, 0] = e[i - 1, 0] @ step_a[i - 1]
    for j in range(1, e.shape[1]):
        e[:, j] = e[:, j - 1] @ step_b[:, j - 1]
    return e if rows_first else e.swapaxes(0, 1)


def constant_form(X_u, X_v, domain, group):
    """MCForm with constant coefficient matrices (for exact exponential orbits)."""
    shape = (domain.nu, domain.nv) + X_u.shape
    omega = np.stack([np.broadcast_to(X, shape) for X in (X_u, X_v)])
    return MCForm(group, omega, domain)
