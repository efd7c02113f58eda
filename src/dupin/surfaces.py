"""Parametric immersed surfaces in the three space forms: fundamental forms,
principal curvatures and directions, isoparametric/Dupin classification, the
canonical surface catalog, Euclidean adapted frames, and the Dupin PDE
residuals.

All evaluation maps are vectorized: position(u, v) broadcasts over arrays and
returns (..., dim).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import metrics as mt
from . import spaceforms as sf
from .metrics import GeometryError

RANK_TOL = 1e-8


class SingularPointError(GeometryError):
    pass


class UmbilicError(GeometryError):
    pass


@dataclass(frozen=True)
class ParamDomain:
    u_range: tuple = (0.0, 2.0 * np.pi)
    v_range: tuple = (0.0, 2.0 * np.pi)
    nu: int = 64
    nv: int = 64
    periodic_u: bool = True
    periodic_v: bool = True

    def __post_init__(self):
        if self.nu < 3 or self.nv < 3:
            raise GeometryError("grid resolutions must be at least 3")
        if self.u_range[1] <= self.u_range[0] or self.v_range[1] <= self.v_range[0]:
            raise GeometryError("degenerate parameter range")

    def grids(self):
        """1d sample grids; periodic directions omit the duplicated endpoint."""
        u = np.linspace(*self.u_range, self.nu, endpoint=not self.periodic_u)
        v = np.linspace(*self.v_range, self.nv, endpoint=not self.periodic_v)
        return u, v

    def mesh(self):
        u, v = self.grids()
        return np.meshgrid(u, v, indexing="ij")

    @property
    def du(self):
        span = self.u_range[1] - self.u_range[0]
        return span / self.nu if self.periodic_u else span / (self.nu - 1)

    @property
    def dv(self):
        span = self.v_range[1] - self.v_range[0]
        return span / self.nv if self.periodic_v else span / (self.nv - 1)

    def shifted(self, su, sv):
        return ParamDomain(
            (self.u_range[0] + su, self.u_range[1] + su),
            (self.v_range[0] + sv, self.v_range[1] + sv),
            self.nu, self.nv, self.periodic_u, self.periodic_v,
        )


_FORM_METRIC = {"euclidean": mt.R3, "sphere": mt.R4, "hyperbolic": mt.R31}
_FORM_DIM = {"euclidean": 3, "sphere": 4, "hyperbolic": 4}


class Jet(NamedTuple):
    """Position and its partials up to second order at (u, v), each (..., dim)."""
    x: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray


class ParametricSurface:
    """An immersion of a rectangular (possibly periodic) domain into a space form.

    ``position(u, v)`` and ``jet(u, v) -> Jet`` map (u, v) arrays to (..., dim)
    arrays.  Without an analytic ``jet`` the surface differentiates
    ``position`` by central differences (``analytic`` is then False).
    ``normal`` and ``frame`` optionally supply the analytic unit normal and
    oriented principal frames (e1, e2, e3) of the canonical catalog.
    """

    def __init__(self, form, position, domain, name="surface", params=None,
                 jet=None, normal=None, frame=None):
        self.form = form
        self.position = position
        self.domain = domain
        self.name = name
        self.params = dict(params or {})
        self.analytic = jet is not None
        self.jet = jet or self._finite_difference_jet
        self.normal = normal
        self.frame = frame

    @property
    def metric(self):
        return _FORM_METRIC[self.form]

    @cached_property
    def orientation(self):
        """Sign of the computed normals: -1 when the unoriented normal gives
        mean curvature a + c < 0 at the domain centre, else +1 (also when
        the centre cannot be evaluated)."""
        u0 = np.atleast_1d(0.5 * (self.domain.u_range[0] + self.domain.u_range[1]))
        v0 = np.atleast_1d(0.5 * (self.domain.v_range[0] + self.domain.v_range[1]))
        try:
            data = _curvatures(*_forms(self, self.jet(u0, v0),
                                       lambda jet: _unoriented_normal(self, jet)))
        except GeometryError:
            return 1.0
        mean = float(data.a[0] + data.c[0])
        return -1.0 if abs(mean) > 1e-9 and mean < 0 else 1.0

    def _finite_difference_jet(self, u, v):
        """Central differences of position: steps 1e-5 of the parameter span for
        first partials, their square roots for second partials; the whole
        stencil goes through one position call."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        hu = 1e-5 * (self.domain.u_range[1] - self.domain.u_range[0])
        hv = 1e-5 * (self.domain.v_range[1] - self.domain.v_range[0])
        Hu, Hv = np.sqrt(hu), np.sqrt(hv)
        U = np.stack([u, u + hu, u - hu, u, u, u + Hu, u - Hu, u, u,
                      u + Hu, u + Hu, u - Hu, u - Hu])
        V = np.stack([v, v, v, v + hv, v - hv, v, v, v + Hv, v - Hv,
                      v + Hv, v - Hv, v + Hv, v - Hv])
        p = self.position(U, V)
        return Jet(
            p[0],
            (p[1] - p[2]) / (2 * hu),
            (p[3] - p[4]) / (2 * hv),
            (p[5] - 2 * p[0] + p[6]) / Hu**2,
            (p[9] - p[10] - p[11] + p[12]) / (4 * Hu * Hv),
            (p[7] - 2 * p[0] + p[8]) / Hv**2,
        )

    def constraint_residual(self):
        """Max deviation of sampled positions from the form's constraint set."""
        U, V = self.domain.mesh()
        x = self.position(U, V)
        if self.form == "sphere":
            return float(np.max(np.abs(np.sum(x * x, axis=-1) - 1.0)))
        if self.form == "hyperbolic":
            return float(np.max(np.abs(mt.inner(x, x, mt.R31) + 1.0)))
        return 0.0


# --- normals ------------------------------------------------------------------

def _unoriented_normal(s, jet):
    """Unit normal of a jet: the cross product in R^3; in S^3 / H^3 the
    cofactor vector <,>-orthogonal to x, xu and xv."""
    if s.form == "euclidean":
        n = np.cross(jet.xu, jet.xv)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)
    n = _generalized_cross(s.metric, jet.x, jet.xu, jet.xv)
    return n / np.sqrt(np.abs(mt.inner(n, n, s.metric)))[..., None]


def surface_normal(s, u, v, jet=None):
    """Oriented unit normal; analytic when the surface carries one, else the
    unoriented normal of the jet (evaluated here unless given) times the
    surface's orientation."""
    if s.normal is not None:
        return s.normal(u, v)
    return _unoriented_normal(s, s.jet(u, v) if jet is None else jet) * s.orientation


def _generalized_cross(metric, a, b, c):
    """Vector <,>-orthogonal to a, b, c via cofactor expansion (smooth in inputs)."""
    M = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    out = np.empty(a.shape)
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        out[..., i] = (-1) ** i * np.linalg.det(M[..., :, cols])
    # raise the index so the result is <,>-orthogonal, not just dual
    return np.einsum("ij,...j->...i", np.linalg.inv(metric.gram), out)


# --- fundamental forms and curvature -------------------------------------------

def _forms(s, jet, normal):
    """First and second fundamental forms of a jet, the second against the
    unit normal normal(jet); raises at singular points, where
    det I <= RANK_TOL * I11 * I22 (a scale-free, per-point test)."""
    g = s.metric
    I = np.empty(jet.xu.shape[:-1] + (2, 2))
    I[..., 0, 0] = mt.inner(jet.xu, jet.xu, g)
    I[..., 0, 1] = I[..., 1, 0] = mt.inner(jet.xu, jet.xv, g)
    I[..., 1, 1] = mt.inner(jet.xv, jet.xv, g)
    det = I[..., 0, 0] * I[..., 1, 1] - I[..., 0, 1] ** 2
    if np.any(det <= RANK_TOL * I[..., 0, 0] * I[..., 1, 1]):
        raise SingularPointError("first fundamental form is rank deficient")
    n = normal(jet)
    II = np.empty_like(I)
    II[..., 0, 0] = mt.inner(jet.xuu, n, g)
    II[..., 0, 1] = II[..., 1, 0] = mt.inner(jet.xuv, n, g)
    II[..., 1, 1] = mt.inner(jet.xvv, n, g)
    return I, II


def fundamental_forms(s, u, v):
    """First and second fundamental forms at (u, v), the second against
    surface_normal; raises SingularPointError at singular points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _forms(s, s.jet(u, v), lambda jet: surface_normal(s, u, v, jet))


@dataclass
class CurvatureData:
    a: np.ndarray          # smaller principal curvature
    c: np.ndarray          # larger principal curvature
    dir_a: np.ndarray      # parameter-space direction (du, dv), I-unit
    dir_c: np.ndarray
    umbilic: np.ndarray    # boolean mask


def principal_curvatures(s, u, v, umbilic_tol=1e-9):
    """Principal curvatures (ordered a <= c) and I-orthonormal directions."""
    return _curvatures(*fundamental_forms(s, u, v), umbilic_tol)


def _curvatures(I, II, umbilic_tol=1e-9):
    detI = I[..., 0, 0] * I[..., 1, 1] - I[..., 0, 1] ** 2
    # shape operator W = I^{-1} II (2x2, closed form)
    Iinv = np.empty_like(I)
    Iinv[..., 0, 0] = I[..., 1, 1] / detI
    Iinv[..., 1, 1] = I[..., 0, 0] / detI
    Iinv[..., 0, 1] = Iinv[..., 1, 0] = -I[..., 0, 1] / detI
    W = Iinv @ II
    tr = W[..., 0, 0] + W[..., 1, 1]
    det = W[..., 0, 0] * W[..., 1, 1] - W[..., 0, 1] * W[..., 1, 0]
    disc = np.maximum(tr * tr - 4 * det, 0.0)
    root = np.sqrt(disc)
    a = 0.5 * (tr - root)
    c = 0.5 * (tr + root)
    umb = root < umbilic_tol * (1.0 + np.abs(tr))

    def eigdir(kappa):
        # nullvector of W - kappa I from the numerically larger row
        r0 = np.stack([W[..., 0, 0] - kappa, W[..., 0, 1]], axis=-1)
        r1 = np.stack([W[..., 1, 0], W[..., 1, 1] - kappa], axis=-1)
        use0 = (np.abs(r0[..., 0]) + np.abs(r0[..., 1])) >= (
            np.abs(r1[..., 0]) + np.abs(r1[..., 1])
        )
        row = np.where(use0[..., None], r0, r1)
        d = np.stack([row[..., 1], -row[..., 0]], axis=-1)
        # umbilic fallback: any direction; pick du
        degenerate = np.abs(d).sum(axis=-1) < 1e-14
        d = np.where(degenerate[..., None], np.array([1.0, 0.0]), d)
        q = np.einsum("...i,...ij,...j->...", d, I, d)
        return d / np.sqrt(q)[..., None]

    dir_a = eigdir(a)
    dir_c = eigdir(c)
    return CurvatureData(a, c, dir_a, dir_c, umb)


def ambient_direction(s, u, v, d):
    """Push a parameter-space direction to the ambient tangent vector."""
    jet = s.jet(u, v)
    return d[..., 0:1] * jet.xu + d[..., 1:2] * jet.xv


# --- canonical catalog ----------------------------------------------------------

def _stack(*coords):
    """Coordinate arrays broadcast together and stacked along a new last axis."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


def torus(alpha, domain=None):
    """Flat product torus S^1(cos a) x S^1(sin a) in S^3; curvatures
    (-tan a, cot a) with the catalog normal orientation."""
    if not (0.0 < alpha <= np.pi / 4 + 1e-9):
        raise GeometryError("torus parameter must lie in (0, pi/4]")
    alpha = min(alpha, np.pi / 4)
    r, s_ = np.cos(alpha), np.sin(alpha)
    domain = domain or ParamDomain()

    pos = lambda u, v: _stack(r * np.cos(u), r * np.sin(u), s_ * np.cos(v), s_ * np.sin(v))
    jet = lambda u, v: Jet(
        pos(u, v),
        _stack(-r * np.sin(u), r * np.cos(u), 0 * u, 0 * v),
        _stack(0 * u, 0 * u, -s_ * np.sin(v), s_ * np.cos(v)),
        _stack(-r * np.cos(u), -r * np.sin(u), 0 * u, 0 * v),
        _stack(0 * u, 0 * u, 0 * u, 0 * v),
        _stack(0 * u, 0 * u, -s_ * np.cos(v), -s_ * np.sin(v)),
    )
    normal = lambda u, v: _stack(
        s_ * np.cos(u), s_ * np.sin(u), -r * np.cos(v), -r * np.sin(v)
    )

    def frame(u, v):
        e1 = _stack(-np.sin(u), np.cos(u), 0 * u, 0 * v)
        e2 = _stack(0 * u, 0 * u, -np.sin(v), np.cos(v))
        return e1, e2, normal(u, v)

    surf = ParametricSurface(
        "sphere", pos, domain, name="torus", params={"alpha": alpha},
        jet=jet, normal=normal, frame=frame,
    )
    surf.constant_curvatures = (-np.tan(alpha), 1.0 / np.tan(alpha))
    return surf


def cylinder(radius, domain=None):
    """Circular cylinder of radius R in R^3 (ruling along eps3); curvatures
    (0, 1/R) with the inward normal."""
    if not (np.isfinite(radius) and radius > 0):
        raise GeometryError("cylinder radius must be finite and positive")
    R = float(radius)
    domain = domain or ParamDomain(
        v_range=(-2.0, 2.0), periodic_v=False
    )

    pos = lambda u, v: _stack(R * np.cos(u), R * np.sin(u), v)
    jet = lambda u, v: Jet(
        pos(u, v),
        _stack(-R * np.sin(u), R * np.cos(u), 0 * v),
        _stack(0 * u, 0 * u, np.ones_like(v)),
        _stack(-R * np.cos(u), -R * np.sin(u), 0 * v),
        _stack(0 * u, 0 * u, 0 * v),
        _stack(0 * u, 0 * u, 0 * v),
    )
    normal = lambda u, v: _stack(-np.cos(u), -np.sin(u), 0 * v)

    def frame(u, v):
        e1 = _stack(0 * u, 0 * u, np.ones_like(v))       # ruling: curvature 0
        e2 = _stack(-np.sin(u), np.cos(u), 0 * v)        # circle: curvature 1/R
        return e1, e2, normal(u, v)

    surf = ParametricSurface(
        "euclidean", pos, domain, name="cylinder", params={"radius": R},
        jet=jet, normal=normal, frame=frame,
    )
    surf.constant_curvatures = (0.0, 1.0 / R)
    return surf


def hyperboloid(a, domain=None):
    """Circular "hyperboloid" S^1(a/b) x H^1(1/b) in H^3, b = sqrt(1-a^2);
    constant curvatures (a, 1/a), product 1.

    The circle factor has radius a/b in span{eps1, eps2}; the hyperbola factor
    z^2 - w^2 = -1/b^2 lives in span{eps3, eps4} (the scale 1/b is forced by
    membership in H^3 together with the circle radius a/b)."""
    if not (0.0 < a < 1.0):
        raise GeometryError("hyperboloid parameter must lie in (0, 1)")
    b = np.sqrt(1.0 - a * a)
    rho, sc = a / b, 1.0 / b
    domain = domain or ParamDomain(v_range=(-1.5, 1.5), periodic_v=False)

    pos = lambda u, v: _stack(
        rho * np.cos(u), rho * np.sin(u), sc * np.sinh(v), sc * np.cosh(v)
    )
    jet = lambda u, v: Jet(
        pos(u, v),
        _stack(-rho * np.sin(u), rho * np.cos(u), 0 * v, 0 * v),
        _stack(0 * u, 0 * u, sc * np.cosh(v), sc * np.sinh(v)),
        _stack(-rho * np.cos(u), -rho * np.sin(u), 0 * v, 0 * v),
        _stack(0 * u, 0 * u, 0 * v, 0 * v),
        _stack(0 * u, 0 * u, sc * np.sinh(v), sc * np.cosh(v)),
    )
    # orientation with curvatures (a along the hyperbola, 1/a along the circle)
    normal = lambda u, v: _stack(
        -sc * np.cos(u), -sc * np.sin(u), -rho * np.sinh(v), -rho * np.cosh(v)
    )

    def frame(u, v):
        e1 = _stack(0 * u, 0 * u, np.cosh(v), np.sinh(v))   # curvature a
        e2 = _stack(-np.sin(u), np.cos(u), 0 * v, 0 * v)    # curvature 1/a
        return e1, e2, normal(u, v)

    surf = ParametricSurface(
        "hyperbolic", pos, domain, name="hyperboloid", params={"a": a},
        jet=jet, normal=normal, frame=frame,
    )
    surf.constant_curvatures = (a, 1.0 / a)
    return surf


def sphere_patch(radius=1.0, domain=None):
    """Round sphere patch in R^3 (totally umbilic test case)."""
    R = float(radius)
    domain = domain or ParamDomain(
        u_range=(-1.2, 1.2), v_range=(-1.2, 1.2),
        periodic_u=False, periodic_v=False,
    )

    pos = lambda u, v: _stack(
        R * np.cos(u) * np.cos(v), R * np.sin(u) * np.cos(v), R * np.sin(v)
    )
    return ParametricSurface("euclidean", pos, domain, name="sphere_patch",
                             params={"radius": R})


def warped_torus(warp=0.1, R=2.0, r=0.7, domain=None):
    """Torus of revolution with positions scaled radially by 1 + warp*sin(u):
    a non-Dupin negative control for the residual pipelines."""
    domain = domain or ParamDomain()

    def pos(u, v):
        base = _stack(
            (R + r * np.cos(v)) * np.cos(u),
            (R + r * np.cos(v)) * np.sin(u),
            r * np.sin(v),
        )
        f = np.asarray(1.0 + warp * np.sin(u))
        return f[..., None] * base

    return ParametricSurface("euclidean", pos, domain, name="warped_torus",
                             params={"warp": warp, "R": R, "r": r})


# --- pushforward through the chart maps -----------------------------------------

def pushforward(s, mapping, domain=None):
    """Compose a surface with stereo / hyp_stereo / identity into R^3.

    Both charts are phi = y/d, with y a slice of three coordinates and d one
    plus the fourth. An analytic source jet goes through the quotient rule
        phi_a  = (y_a - phi d_a) / d,
        phi_ab = (y_ab - phi d_ab - phi_a d_b - phi_b d_a) / d,
    with phi itself from the chart, so the pole check still applies; the
    image of any other surface differentiates its own position by central
    differences.
    """
    domain = domain or s.domain
    if mapping == "identity":
        return s
    if mapping == "stereo":
        if s.form != "sphere":
            raise GeometryError("stereo pushforward needs a spherical surface")
        phi, num, den = sf.stereo, slice(1, 4), 0
    elif mapping == "hyp_stereo":
        if s.form != "hyperbolic":
            raise GeometryError("hyp_stereo pushforward needs a hyperbolic surface")
        phi, num, den = sf.hyp_stereo, slice(0, 3), 3
    else:
        raise GeometryError(f"unknown pushforward map {mapping!r}")

    def jet(u, v):
        src = s.jet(u, v)
        x = phi(src.x)
        dd = lambda t: t[..., den, None]
        d = 1.0 + dd(src.x)
        xu, xv = ((t[..., num] - x * dd(t)) / d for t in (src.xu, src.xv))
        second = lambda t, pa, ta, pb, tb: (
            t[..., num] - x * dd(t) - pa * dd(tb) - pb * dd(ta)) / d
        return Jet(
            x, xu, xv,
            second(src.xuu, xu, src.xu, xu, src.xu),
            second(src.xuv, xu, src.xu, xv, src.xv),
            second(src.xvv, xv, src.xv, xv, src.xv),
        )

    return ParametricSurface(
        "euclidean", lambda u, v: phi(s.position(u, v)), domain,
        name=f"{s.name}_{mapping}", params=dict(s.params),
        jet=jet if s.analytic else None,
    )


# --- classification ---------------------------------------------------------------

def _flow_curvature_derivative(s, U, V, data, which, arc_step=1e-3):
    """Derivative of a principal curvature along its own curvature line,
    by a central difference between two short RK4 flows of the direction field.

    ``data`` is the CurvatureData on the grid (U, V): its direction field is
    the flows' first RK4 stage and their orientation reference."""
    shape = U.shape
    pts = np.stack([U.ravel(), V.ravel()], axis=-1)

    def direction(p, ref):
        data = principal_curvatures(s, p[:, 0], p[:, 1])
        d = data.dir_a if which == "a" else data.dir_c
        sgn = np.sign(np.sum(d * ref, axis=-1))
        sgn = np.where(sgn == 0, 1.0, sgn)
        return d * sgn[:, None]

    d0 = (data.dir_a if which == "a" else data.dir_c).reshape(-1, 2)

    def rk4(p, h):
        k1 = d0  # the direction field at the base points, aligned with itself
        k2 = direction(p + 0.5 * h * k1, d0)
        k3 = direction(p + 0.5 * h * k2, d0)
        k4 = direction(p + h * k3, d0)
        return p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    plus = rk4(pts, arc_step)
    minus = rk4(pts, -arc_step)
    kp = principal_curvatures(s, plus[:, 0], plus[:, 1])
    km = principal_curvatures(s, minus[:, 0], minus[:, 1])
    fp = kp.a if which == "a" else kp.c
    fm = km.a if which == "a" else km.c
    return ((fp - fm) / (2 * arc_step)).reshape(shape)


def classify(s, iso_tol=None, dupin_tol=None, arc_step=1e-3):
    """Isoparametric / Dupin verdicts over the surface's sample grid.

    isoparametric: each principal curvature has spread < iso_tol over the grid.
    dupin: the derivative of each principal curvature along its own curvature
    line stays below dupin_tol everywhere, with distinct curvatures; umbilic
    points make the Dupin verdict undefined there (excluded, reported).
    """
    analytic = s.analytic
    if iso_tol is None:
        iso_tol = 1e-6 if analytic else 1e-3
    if dupin_tol is None:
        dupin_tol = 1e-6 if analytic else 1e-3
    umbilic_tol = 1e-9 if analytic else 1e-5
    U, V = s.domain.mesh()
    data = principal_curvatures(s, U, V, umbilic_tol=umbilic_tol)
    umbilic_idx = np.argwhere(data.umbilic)
    report = {
        "surface": s.name,
        "params": dict(s.params),
        "grid": (s.domain.nu, s.domain.nv),
        "iso_tol": iso_tol,
        "dupin_tol": dupin_tol,
        "spread_a": float(np.ptp(data.a)),
        "spread_c": float(np.ptp(data.c)),
        "umbilic_count": int(len(umbilic_idx)),
    }
    isoparametric = report["spread_a"] < iso_tol and report["spread_c"] < iso_tol
    if data.umbilic.all():
        warnings.warn("surface is umbilic on the whole grid; Dupin undefined")
        report["dupin_derivative_a"] = report["dupin_derivative_c"] = float("nan")
        return {
            "isoparametric": isoparametric, "dupin": None,
            "umbilic_points": umbilic_idx.tolist(), "report": report,
        }
    if data.umbilic.any():
        warnings.warn("umbilic points found; excluded from the Dupin test")
    mask = ~data.umbilic
    da = _flow_curvature_derivative(s, U, V, data, "a", arc_step)
    dc = _flow_curvature_derivative(s, U, V, data, "c", arc_step)
    report["dupin_derivative_a"] = float(np.max(np.abs(da[mask])))
    report["dupin_derivative_c"] = float(np.max(np.abs(dc[mask])))
    dupin = (
        report["dupin_derivative_a"] < dupin_tol
        and report["dupin_derivative_c"] < dupin_tol
        and not data.umbilic.any()
    )
    return {
        "isoparametric": isoparametric,
        "dupin": bool(dupin),
        "umbilic_points": umbilic_idx.tolist(),
        "report": report,
    }


# --- Euclidean adapted frames and the Dupin PDE system ---------------------------

def euclidean_best_frame(s):
    """Adapted frame field (x, e) in E(3) with e1, e2 the principal directions
    ordered by curvature and e3 = e1 x e2; signs propagated from the base corner.
    """
    if s.form != "euclidean":
        raise GeometryError("adapted Euclidean frames need a surface in R^3")
    U, V = s.domain.mesh()
    data = principal_curvatures(s, U, V)
    if data.umbilic.any():
        bad = np.argwhere(data.umbilic).tolist()
        raise UmbilicError(f"umbilic grid points: {bad[:8]}{'...' if len(bad) > 8 else ''}")
    e1 = ambient_direction(s, U, V, data.dir_a)
    e2 = ambient_direction(s, U, V, data.dir_c)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = e2 / np.linalg.norm(e2, axis=-1, keepdims=True)
    e1 = propagate_sign(e1)
    e2 = propagate_sign(e2)
    e3 = np.cross(e1, e2)
    x = s.position(U, V)
    nu, nv = U.shape
    mats = np.zeros((nu, nv, 4, 4))
    mats[..., 0, 0] = 1.0
    mats[..., 1:, 0] = x
    mats[..., 1:, 1] = e1
    mats[..., 1:, 2] = e2
    mats[..., 1:, 3] = e3
    from .frames import FrameField  # local import to avoid a cycle

    return FrameField("e3", mats, s.domain)


def propagate_sign(field):
    """Flip vector signs along row 0 then down each column for continuity."""
    out = field.copy()
    for i in range(1, out.shape[0]):
        flip = np.sum(out[i, 0] * out[i - 1, 0]) < 0
        if flip:
            out[i, 0] = -out[i, 0]
    for j in range(1, out.shape[1]):
        flip = np.sum(out[:, j] * out[:, j - 1], axis=-1) < 0
        out[:, j][flip] = -out[:, j][flip]
    return out


def dupin_pde_residual(ff):
    """Residuals of the Dupin system for an adapted Euclidean frame field:

        da = p(a-c) theta^2,   dc = q(a-c) theta^1,
        p_2 - q_1 = ac + p^2 + q^2,

    with the first two taken as full 1-form residuals (their theta^1 resp.
    theta^2 components are the statements "each curvature is constant along
    its own curvature line"; the remaining components are Codazzi)."""
    from .frames import coframe_solve, grid_differential, pullback_mc

    mc = pullback_mc(ff)
    w = mc.omega
    th1, th2 = w[..., 1, 0], w[..., 2, 0]
    a, ra = coframe_solve(th1, th2, w[..., 3, 1])
    rc, c = coframe_solve(th1, th2, w[..., 3, 2])
    p, q = coframe_solve(th1, th2, w[..., 2, 1])
    (a1, a2), (c1, c2), (p1, p2), (q1, q2) = (
        coframe_solve(th1, th2, grid_differential(f, mc.domain)) for f in (a, c, p, q)
    )
    return {
        "eq_a": float(max(np.max(np.abs(a1)), np.max(np.abs(a2 - p * (a - c))))),
        "eq_c": float(max(np.max(np.abs(c2)), np.max(np.abs(c1 - q * (a - c))))),
        "eq_gauss": float(np.max(np.abs(p2 - q1 - (a * c + p * p + q * q)))),
        "theta3": float(np.max(np.abs(w[0, ..., 3, 0])) + np.max(np.abs(w[1, ..., 3, 0]))),
        "offdiag_a": float(np.max(np.abs(ra))),
        "offdiag_c": float(np.max(np.abs(rc))),
        "fields": {"a": a, "c": c, "p": p, "q": q},
    }
