"""Parametric immersed surfaces in the three space forms: fundamental forms,
principal curvatures and directions, isoparametric/Dupin classification, the
canonical surface catalog, Euclidean adapted frames, and the Dupin PDE
residuals.

All evaluation maps are vectorized: position(u, v) broadcasts over arrays and
returns (..., dim).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import export
from . import metrics as mt
from . import spaceforms as sf
from .metrics import GeometryError

RANK_TOL = 1e-8
# classify's tolerances: curvature spread, curvature derivative along its own
# line, and the umbilic cut root(tr^2 - 4 det) < UMBILIC_TOL (1 + |tr|)
ISO_TOL = 1e-6
DUPIN_TOL = 1e-8
UMBILIC_TOL = 1e-9


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

    def axes(self):
        """The sample grids as broadcasting axes u (nu, 1) and v (1, nv): the
        library evaluates on these, and every result broadcasts to the grid."""
        u, v = self.grids()
        return u[:, None], v[None, :]

    def mesh(self):
        """The full (nu, nv) coordinate arrays, for tests and demos."""
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


class Jet(NamedTuple):
    """Position and its partials up to third order at (u, v), each (..., dim)."""
    x: np.ndarray
    xu: np.ndarray
    xv: np.ndarray
    xuu: np.ndarray
    xuv: np.ndarray
    xvv: np.ndarray
    xuuu: np.ndarray
    xuuv: np.ndarray
    xuvv: np.ndarray
    xvvv: np.ndarray


# the multi-index of each Jet field, and its (u order, v order)
_FIELD_INDEX = [f[1:] for f in Jet._fields]
_ORDERS = [(k.count("u"), k.count("v")) for k in _FIELD_INDEX]


class ParametricSurface:
    """An immersion of a rectangular (possibly periodic) domain into a space form.

    ``position(u, v)`` and ``jet(u, v) -> Jet`` map (u, v) arrays to (..., dim)
    arrays; ``jet`` is the exact 3-jet, the surface's one differentiation
    path.  ``normal`` and ``frame`` optionally supply the exact unit normal
    and oriented principal frames (e1, e2, e3) of the canonical catalog, and
    ``constant_curvatures`` its principal curvatures (a, c), a < c.
    """

    constant_curvatures = None

    def __init__(self, form, position, domain, name="surface", params=None, *,
                 jet, normal=None, frame=None):
        self.form = form
        self.position = position
        self.domain = domain
        self.name = name
        self.params = dict(params or {})
        self.jet = jet
        self.normal = normal
        self.frame = frame

    @property
    def metric(self):
        return sf.space_form(self.form).metric

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

    def constraint_residual(self):
        """Max deviation of sampled positions from the form's constraint set
        <x, x> = 1/K; 0.0 in R^3 (K = 0), where there is none."""
        K = sf.space_form(self.form).K
        if K == 0:
            return 0.0
        x = self.position(*self.domain.axes())
        return float(np.max(np.abs(mt.inner(x, x, self.metric) - 1.0 / K)))


# --- normals ------------------------------------------------------------------

def _unoriented_normal(s, jet):
    """Unit normal of a jet, coordinate planes contiguous: the cross product
    in R^3; in S^3 / H^3 the cofactor vector <,>-orthogonal to x, xu and xv."""
    if s.form == "euclidean":  # plane by plane, bitwise np.cross over its norm
        (a0, a1, a2), (b0, b1, b2) = np.moveaxis(jet.xu, -1, 0), np.moveaxis(jet.xv, -1, 0)
        n = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
        n /= np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        return np.moveaxis(n, 0, -1)
    n = _generalized_cross(s.metric, jet.x, jet.xu, jet.xv)
    return n / np.sqrt(np.abs(mt.inner(n, n, s.metric)))[..., None]


def surface_normal(s, u, v, jet=None):
    """Oriented unit normal; exact when the surface carries one, else the
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

@np.errstate(over="ignore", invalid="ignore")  # a form that overflows raises below
def _forms(s, jet, normal):
    """First and second fundamental forms of a jet, the second against the
    unit normal normal(jet); raises where a form overflows, and at singular
    points, where det I <= RANK_TOL * I11 * I22 (a scale-free, per-point test)."""
    g = s.metric
    E, F, G = (mt.inner(p, q, g) for p, q in ((jet.xu, jet.xu), (jet.xu, jet.xv), (jet.xv, jet.xv)))
    _require_finite("first fundamental form", E, F, G)
    if np.any(E * G - F ** 2 <= RANK_TOL * E * G):
        raise SingularPointError("first fundamental form is rank deficient")
    n = normal(jet)
    L, M, N = (mt.inner(p, n, g) for p in (jet.xuu, jet.xuv, jet.xvv))
    _require_finite("second fundamental form", L, M, N)
    return _sym2(E, F, G), _sym2(L, M, N)


def _require_finite(what, *fields):
    """Raise GeometryError unless every field is finite: no test on inf or NaN holds."""
    if not all(np.isfinite(f).all() for f in fields):
        raise GeometryError(f"{what} is not finite: the surface overflows the "
                            "floating-point range")


def _sym2(e, f, g):
    """The symmetric (..., 2, 2) array [[e, f], [f, g]], each entry stored as
    one contiguous plane."""
    out = np.empty((2, 2) + np.shape(e))
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = e, f, f, g
    return np.moveaxis(out, (0, 1), (-2, -1))


def fundamental_forms(s, u, v, jet=None, normal=None):
    """First and second fundamental forms at (u, v), from the jet there and
    against the oriented unit normal, each evaluated here unless given;
    raises SingularPointError at singular points."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return _forms(s, s.jet(u, v) if jet is None else jet,
                  lambda jet: surface_normal(s, u, v, jet) if normal is None else normal)


@dataclass
class CurvatureData:
    """Principal curvatures a <= c of the shape operator W = I^{-1} II, in
    closed form from the six scalar fields of I and II (given as (..., 2, 2)
    arrays), and the umbilic mask.  On first access, as scalar fields: the
    I-unit parameter-space directions dir_a and dir_c, from one W; and the
    derivatives e_a(a), e_c(c) of each curvature along its own direction,
    from ten jet contractions with the metric, 3-jet and oriented unit normal
    the forms were taken from."""
    a: np.ndarray          # smaller principal curvature
    c: np.ndarray          # larger principal curvature
    umbilic: np.ndarray    # boolean mask
    I: np.ndarray
    II: np.ndarray
    metric: mt.Metric = None
    jet: Jet = None
    normal: np.ndarray = None

    dir_a = cached_property(lambda self: self._direction(self.a))
    dir_c = cached_property(lambda self: self._direction(self.c))
    along_a = cached_property(lambda self: self._along(self.a, self.dir_a))
    along_c = cached_property(lambda self: self._along(self.c, self.dir_c))

    @cached_property
    def _shape_operator(self):
        """E, F, G of I and the entries w00, w01, w10, w11 of W."""
        E, F, G, L, M, N, detI = _entries(self.I, self.II)
        return (E, F, G, (G * L - F * M) / detI, (G * M - F * N) / detI,
                (E * M - F * L) / detI, (E * N - F * M) / detI)

    def _direction(self, kappa):
        """Null vector (d0, d1) of W - kappa from its row of larger 1-norm,
        (1, 0) where both rows vanish (umbilics), scaled to unit length in I."""
        E, F, G, w00, w01, w10, w11 = self._shape_operator
        w00, w11 = w00 - kappa, w11 - kappa
        use0 = np.abs(w00) + np.abs(w01) >= np.abs(w10) + np.abs(w11)
        d0 = np.where(use0, w01, w11)
        d1 = np.where(use0, -w00, -w10)
        degenerate = np.abs(d0) + np.abs(d1) < 1e-14
        d0, d1 = np.where(degenerate, 1.0, d0), np.where(degenerate, 0.0, d1)
        norm = np.sqrt(E * d0 * d0 + 2.0 * F * d0 * d1 + G * d1 * d1)
        return np.moveaxis(np.stack([d0 / norm, d1 / norm]), 0, -1)

    @cached_property
    def _contractions(self):
        """The ten fields e_kappa(kappa) is a cubic in: P_K = <x_K, n> for
        K = uuu, uuv, uvv, vvv, and Q_K,l = <x_K, x_l> for K = uu, uv, vv."""
        j, g = self.jet, self.metric
        P = [mt.inner(x, self.normal, g) for x in (j.xuuu, j.xuuv, j.xuvv, j.xvvv)]
        return P, [[mt.inner(x, xl, g) for x in (j.xuu, j.xuv, j.xvv)] for xl in (j.xu, j.xv)]

    def _along(self, kappa, d):
        """e_kappa(kappa) = sum_k d^k d^T(d_k II - kappa d_k I)d, the first-order
        perturbation of the pencil II - kappa I, with d_k I_ij = <x_ik, x_j> +
        <x_i, x_jk> and d_k II_ij = <x_ijk, n> - sum_l W^l_k <x_ij, x_l>
        (n_k = -W x_k, as n is orthogonal to x in R^3, S^3 and H^3).  Contracted
        with W d = kappa d this is <x_ddd, n> - 3 kappa <x_dd, x_d>, with x_d,
        x_dd and x_ddd the first three derivatives of x along d = (d0, d1):
            <x_ddd, n> = d0^3 P_uuu + 3 d0^2 d1 P_uuv + 3 d0 d1^2 P_uvv + d1^3 P_vvv,
            <x_dd, x_d> = sum_l d_l (d0^2 Q_uu,l + 2 d0 d1 Q_uv,l + d1^2 Q_vv,l)."""
        (p_uuu, p_uuv, p_uvv, p_vvv), Q = self._contractions
        d0, d1 = d[..., 0], d[..., 1]
        d00, d01, d11 = d0 * d0, 2.0 * d0 * d1, d1 * d1
        ddd_n = d00 * (d0 * p_uuu + 3.0 * d1 * p_uuv) + d11 * (3.0 * d0 * p_uvv + d1 * p_vvv)
        dd_d = [d00 * q_uu + d01 * q_uv + d11 * q_vv for q_uu, q_uv, q_vv in Q]
        return ddd_n - 3.0 * kappa * (d0 * dd_d[0] + d1 * dd_d[1])


def principal_curvatures(s, u, v):
    """Principal curvatures (ordered a <= c), I-orthonormal directions and the
    derivatives of each curvature along its own direction."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    jet = s.jet(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):  # singular points raise below
        normal = surface_normal(s, u, v, jet)
    return _curvatures(*fundamental_forms(s, u, v, jet, normal), s.metric, jet, normal)


def _entries(I, II):
    """E, F, G of I, L, M, N of II and det I, as (...) fields."""
    E, F, G = I[..., 0, 0], I[..., 0, 1], I[..., 1, 1]
    return E, F, G, II[..., 0, 0], II[..., 0, 1], II[..., 1, 1], E * G - F * F


def _curvatures(I, II, *jet_context):
    """CurvatureData of the forms I and II; ``jet_context`` is the metric,
    jet and normal its curvature derivatives need."""
    E, F, G, L, M, N, detI = _entries(I, II)
    tr = (G * L - 2.0 * F * M + E * N) / detI
    det = (L * N - M * M) / detI
    # tr^2 - 4 det as (w00 - w11)^2 + 4 w01 w10 of W, exact at umbilics; the
    # root of larger magnitude from tr and root, the other from det over it,
    # so neither curvature subtracts nearly equal numbers
    skew = G * L - E * N
    root = np.sqrt(np.maximum(skew * skew + 4.0 * (G * M - F * N) * (E * M - F * L), 0.0)) / detI
    big = 0.5 * (tr + np.copysign(root, tr))
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0)
    a, c = np.minimum(big, small), np.maximum(big, small)
    umb = root < UMBILIC_TOL * (1.0 + np.abs(tr))
    return CurvatureData(a, c, umb, I, II, *jet_context)


# --- canonical catalog ----------------------------------------------------------

def _stack(*coords):
    """Coordinate arrays broadcast together and stacked along a new last axis."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


def _jet_planes(u, v, dim):
    """Zeros (10, dim, ...) over the broadcast shape of (u, v), plane [k, i] for
    coordinate i of Jet field k: Jet(*np.moveaxis(J, 1, -1)) has contiguous
    coordinate planes, so charts and inner products run over whole planes."""
    return np.zeros((10, dim) + np.broadcast(u, v).shape)


def _circle_derivatives(t):
    """The k-th derivatives (cos^(k) t, sin^(k) t), k = 0..3, from one cos and
    one sin evaluation."""
    c, s_ = np.cos(t), np.sin(t)
    return ((c, s_), (-s_, c), (-c, -s_), (s_, -c))


def _hyperbola_derivatives(t):
    """The k-th derivatives (sinh^(k) t, cosh^(k) t), k = 0..3."""
    sh, ch = np.sinh(t), np.cosh(t)
    return ((sh, ch), (ch, sh), (sh, ch), (ch, sh))


def _line_derivatives(t):
    """The k-th derivatives of the unit-speed line t, k = 0..3."""
    return ((t,), (np.ones_like(t),), (0.0,), (0.0,))


def _product(form, name, params, domain, profile_u, profile_v):
    """The product surface x(u, v) = (scale_u p(u), scale_v q(v)) of two
    unit-speed profile curves of constant curvature in disjoint coordinate
    slots.  Each profile is (derivative table, scale, normal coefficient,
    principal curvature); from them come the exact jet, the normal
    (normal_u p(u), normal_v q(v)), the principal frame (e1 the unit tangent
    of the profile of smaller curvature, e3 the normal) and the constant
    curvatures."""
    (tab_u, scale_u, nrm_u, kappa_u), (tab_v, scale_v, nrm_v, kappa_v) = profile_u, profile_v
    # the order-k derivatives of both profiles, times fu and fv, stacked
    scaled = lambda u, v, k, fu, fv: _stack(*(fu * c for c in tab_u(u)[k]),
                                            *(fv * c for c in tab_v(v)[k]))
    normal = lambda u, v: scaled(u, v, 0, nrm_u, nrm_v)

    def jet(u, v):
        tu, tv = tab_u(u), tab_v(v)
        m = len(tu[0])
        J = _jet_planes(u, v, m + len(tv[0]))
        for k, (i, j) in enumerate(_ORDERS):
            if j == 0:
                J[k, :m] = [scale_u * c for c in tu[i]]
            if i == 0:
                J[k, m:] = [scale_v * c for c in tv[j]]
        return Jet(*np.moveaxis(J, 1, -1))

    def frame(u, v):
        tu, tv = tab_u(u)[1], tab_v(v)[1]
        e_u, e_v = _stack(*tu, *(0 * v for _ in tv)), _stack(*(0 * u for _ in tu), *tv)
        return ((e_u, e_v) if kappa_u <= kappa_v else (e_v, e_u)) + (normal(u, v),)

    surf = ParametricSurface(form, lambda u, v: scaled(u, v, 0, scale_u, scale_v), domain,
                             name, params, jet=jet, normal=normal, frame=frame)
    surf.constant_curvatures = (min(kappa_u, kappa_v), max(kappa_u, kappa_v))
    return surf


def torus(alpha, domain=None):
    """Flat product torus S^1(cos a) x S^1(sin a) in S^3; curvatures
    (-tan a, cot a) with the catalog normal orientation."""
    if not (0.0 < alpha <= np.pi / 4 + 1e-9):
        raise GeometryError("torus parameter must lie in (0, pi/4]")
    alpha = min(alpha, np.pi / 4)
    r, s_ = np.cos(alpha), np.sin(alpha)
    return _product("sphere", "torus", {"alpha": alpha}, domain or ParamDomain(),
                    (_circle_derivatives, r, s_, -np.tan(alpha)),
                    (_circle_derivatives, s_, -r, 1.0 / np.tan(alpha)))


def cylinder(radius, domain=None):
    """Circular cylinder of radius R in R^3 (ruling along eps3); curvatures
    (0, 1/R) with the inward normal."""
    if not (np.isfinite(radius) and radius > 0):
        raise GeometryError("cylinder radius must be finite and positive")
    R = float(radius)
    return _product("euclidean", "cylinder", {"radius": R},
                    domain or ParamDomain(v_range=(-2.0, 2.0), periodic_v=False),
                    (_circle_derivatives, R, -1.0, 1.0 / R),
                    (_line_derivatives, 1.0, 0.0, 0.0))


def hyperboloid(a, domain=None):
    """Circular "hyperboloid" S^1(a/b) x H^1(1/b) in H^3, b = sqrt(1-a^2);
    constant curvatures (a, 1/a), product 1.

    The circle factor has radius a/b in span{eps1, eps2}; the hyperbola factor
    z^2 - w^2 = -1/b^2 lives in span{eps3, eps4} (the scale 1/b is forced by
    membership in H^3 together with the circle radius a/b)."""
    if not (0.0 < a < 1.0):
        raise GeometryError("hyperboloid parameter must lie in (0, 1)")
    b = np.sqrt(1.0 - a * a)
    return _product("hyperbolic", "hyperboloid", {"a": a},
                    domain or ParamDomain(v_range=(-1.5, 1.5), periodic_v=False),
                    (_circle_derivatives, a / b, -1.0 / b, 1.0 / a),
                    (_hyperbola_derivatives, 1.0 / b, -(a / b), a))


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

    def jet(u, v):
        # x = f b with f = 1 + warp sin u and b the torus of revolution, by
        # Leibniz in u: d_u^i d_v^j x = sum_m binom(i, m) f^(m) d_u^(i-m) d_v^j b
        cu, cv = _circle_derivatives(u), _circle_derivatives(v)
        f = [1.0 + warp * cu[0][1]] + [warp * cu[m][1] for m in (1, 2, 3)]
        rho = [R + r * cv[0][0]] + [r * cv[j][0] for j in (1, 2, 3)]

        def b(i, j):
            return (rho[j] * cu[i][0], rho[j] * cu[i][1], r * cv[j][1] if i == 0 else 0.0)

        J = _jet_planes(u, v, 3)
        for k, (i, j) in enumerate(_ORDERS):
            for m in range(i + 1):
                for axis, bm in enumerate(b(i - m, j)):
                    J[k, axis] += math.comb(i, m) * f[m] * bm
        return Jet(*np.moveaxis(J, 1, -1))

    return ParametricSurface("euclidean", pos, domain, name="warped_torus",
                             params={"warp": warp, "R": R, "r": r}, jet=jet)


# --- pushforward through the chart maps -----------------------------------------

def quotient_jet(src, x, num, den, shift=0.0):
    """Jet of a quotient chart phi = y/d through a source jet: y is the
    coordinate slice ``num`` and d = shift + the sum of the coordinates
    ``den``, affine in the source, so by Leibniz on y = phi d, for each
    multi-index K = u^i v^j, with binomial weights over the multisets below K,
        phi_K = (y_K - phi d_K - sum_{0 < a + b < i + j} C(i, a) C(j, b)
                 phi_(u^a v^b) d_(u^(i-a) v^(j-b))) / d,
    e.g. phi_uuv = (y_uuv - phi d_uuv - 2 phi_u d_uv - phi_v d_uu
                    - phi_uu d_v - 2 phi_uv d_u) / d.
    ``x`` is phi(src.x) from the chart itself, so the chart's own checks
    (poles, escapes) apply to the jet as to the position."""
    # coordinate planes first: each product below runs over whole planes
    src = {k: np.moveaxis(getattr(src, "x" + k), -1, 0) for k in _FIELD_INDEX}
    d = lambda t: sum((t[k] for k in den[1:]), t[den[0]])
    inv_d = 1.0 / (shift + d(src[""]))
    phi, dk = {"": np.moveaxis(x, -1, 0)}, {}
    for k, (i, j) in zip(_FIELD_INDEX[1:], _ORDERS[1:]):
        dk[k] = d(src[k])
        out = src[k][num] - phi[""] * dk[k]
        # (a, b) by ascending a + b, dropping (0, 0) and (i, j)
        for a, b in sorted(itertools.product(range(i, -1, -1), range(j + 1)), key=sum)[1:-1]:
            term = phi["u" * a + "v" * b] * dk["u" * (i - a) + "v" * (j - b)]
            weight = math.comb(i, a) * math.comb(j, b)
            out -= term if weight == 1 else weight * term
        out *= inv_d
        phi[k] = out
    return Jet(*(np.moveaxis(p, 0, -1) for p in phi.values()))


def pushforward(s, mapping):
    """Compose a surface with stereo / hyp_stereo / identity into R^3.

    Both charts are phi = y/d, with y a slice of three coordinates and d one
    plus the fourth; the source jet goes through ``quotient_jet``.
    """
    if mapping == "identity":
        return s
    if mapping == "stereo":
        if s.form != "sphere":
            raise GeometryError("stereo pushforward needs a spherical surface")
        phi, num, den = sf.stereo, slice(1, 4), (0,)
    elif mapping == "hyp_stereo":
        if s.form != "hyperbolic":
            raise GeometryError("hyp_stereo pushforward needs a hyperbolic surface")
        phi, num, den = sf.hyp_stereo, slice(0, 3), (3,)
    else:
        raise GeometryError(f"unknown pushforward map {mapping!r}")

    def jet(u, v):
        src = s.jet(u, v)
        return quotient_jet(src, phi(src.x), num, den, shift=1.0)

    return ParametricSurface(
        "euclidean", lambda u, v: phi(s.position(u, v)), s.domain,
        name=f"{s.name}_{mapping}", params=dict(s.params), jet=jet,
    )


# --- classification ---------------------------------------------------------------

def classify(s):
    """Isoparametric / Dupin verdicts over the surface's sample grid.

    isoparametric: each principal curvature has spread < ISO_TOL over the grid.
    dupin: the derivatives e_a(a), e_c(c) of each principal curvature along its
    own curvature line, exact from one 3-jet per vertex, stay below DUPIN_TOL
    everywhere, with distinct curvatures; umbilic points make the Dupin
    verdict undefined there (excluded, reported).  The report records both
    tolerances, as iso_tol and dupin_tol.  The grid is evaluated in slabs of
    whole rows of at most export.BLOCK points, on the axis grids, keeping
    only running reductions, so the working set does not grow with the grid.
    """
    u, v = s.domain.axes()
    nu, nv = s.domain.nu, s.domain.nv
    rows = max(1, export.BLOCK // nv)
    lo, hi, umbilic, along = zip(*(
        _classify_slab(s, u[r:r + rows], v, r) for r in range(0, nu, rows)))
    along = [m for m in along if m is not None]
    _require_finite("principal curvature data", lo, hi, *along)
    spread_a, spread_c = np.max(hi, axis=0) - np.min(lo, axis=0)
    umbilic_idx = np.concatenate(umbilic)
    report = {"surface": s.name, "params": dict(s.params), "grid": (nu, nv),
              "iso_tol": ISO_TOL, "dupin_tol": DUPIN_TOL, "spread_a": float(spread_a),
              "spread_c": float(spread_c), "umbilic_count": int(len(umbilic_idx))}
    isoparametric = report["spread_a"] < ISO_TOL and report["spread_c"] < ISO_TOL
    if not along:
        warnings.warn("surface is umbilic on the whole grid; Dupin undefined")
        dupin, along_a, along_c = None, float("nan"), float("nan")
    else:
        if len(umbilic_idx):
            warnings.warn("umbilic points found; excluded from the Dupin test")
        along_a, along_c = np.max(along, axis=0)
        dupin = bool(along_a < DUPIN_TOL and along_c < DUPIN_TOL and not len(umbilic_idx))
    report["dupin_derivative_a"], report["dupin_derivative_c"] = float(along_a), float(along_c)
    return {"isoparametric": isoparametric, "dupin": dupin,
            "umbilic_points": umbilic_idx.tolist(), "report": report}


@np.errstate(over="ignore", invalid="ignore")  # classify rejects what overflows
def _classify_slab(s, u, v, row):
    """classify's reductions over the grid rows from ``row`` on, sampled at
    u (rows, 1) and v (1, nv): (min a, min c), (max a, max c), the umbilics'
    grid indices, and (max|e_a(a)|, max|e_c(c)|) over the non-umbilic points,
    None where there are none.  The slab's CurvatureData is freed on return."""
    data = principal_curvatures(s, u, v)
    keep = ~data.umbilic
    along = ((np.max(np.abs(data.along_a[keep])), np.max(np.abs(data.along_c[keep])))
             if keep.any() else None)
    return ((np.min(data.a), np.min(data.c)), (np.max(data.a), np.max(data.c)),
            np.argwhere(data.umbilic) + (row, 0), along)


# --- Euclidean adapted frames and the Dupin PDE system ---------------------------

@np.errstate(over="ignore", invalid="ignore")  # a direction that overflows raises below
def euclidean_best_frame(s):
    """Adapted frame field (x, e) in E(3) with e1, e2 the principal directions
    ordered by curvature and e3 = e1 x e2; signs propagated from the base corner.
    Raises GeometryError where the curvatures or directions are not finite.
    """
    if s.form != "euclidean":
        raise GeometryError("adapted Euclidean frames need a surface in R^3")
    data = principal_curvatures(s, *s.domain.axes())
    if data.umbilic.any():
        bad = np.argwhere(data.umbilic).tolist()
        raise UmbilicError(f"umbilic grid points: {bad[:8]}{'...' if len(bad) > 8 else ''}")
    jet = data.jet
    e1, e2 = (d[..., 0:1] * jet.xu + d[..., 1:2] * jet.xv for d in (data.dir_a, data.dir_c))
    e1, e2 = (propagate_sign(e / np.linalg.norm(e, axis=-1, keepdims=True)) for e in (e1, e2))
    mats = np.zeros((s.domain.nu, s.domain.nv, 4, 4))
    mats[..., 0, 0] = 1.0
    mats[..., 1:, :] = np.stack(np.broadcast_arrays(jet.x, e1, e2, np.cross(e1, e2)), axis=-1)
    _require_finite("principal curvature data", mats)
    from .frames import FrameField  # local import to avoid a cycle

    return FrameField("e3", mats, s.domain)


def propagate_sign(field):
    """Flip vector signs along row 0 then down each column for continuity:
    each vector's sign is the cumulative product of the signs of its
    neighbour dot products back to the corner."""
    def step(a, b):
        return np.where(np.sum(a * b, axis=-1) < 0, -1.0, 1.0)

    sign = np.ones(field.shape[:2])
    sign[1:, 0] = step(field[1:, 0], field[:-1, 0])
    sign[:, 1:] = step(field[:, 1:], field[:, :-1])
    sign[:, 0] = np.cumprod(sign[:, 0])
    return field * np.cumprod(sign, axis=1)[..., None]


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
