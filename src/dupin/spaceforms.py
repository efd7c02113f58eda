"""The three space forms R^3, S^3, H^3, the conformal maps between them, and
their equivariant embeddings into Moebius space.

Coordinate conventions (arrays, vectorized over leading axes):
  euclidean points  (..., 3)  ~ (eps1, eps2, eps3)
  sphere points     (..., 4)  ~ (eps0, eps1, eps2, eps3),  sum x_i^2 = 1
  hyperbolic points (..., 4)  ~ (eps1, eps2, eps3, eps4),  <x,x> = -1, x4 >= 1
  Moebius vectors   (..., 5)  ~ (eps0..eps4) in the epsilon basis unless noted
"""

from __future__ import annotations

import numpy as np

from . import metrics as mt
from .metrics import GeometryError, inner, R31, R41, SQRT2

POLE_TOL = 1e-9


class PoleError(GeometryError):
    pass


class DomainError(GeometryError):
    pass


def check_sphere_point(x, tol=1e-10):
    x = np.asarray(x, dtype=float)
    r = np.max(np.abs(np.sum(x * x, axis=-1) - 1.0))
    if r > tol:
        raise DomainError(f"point not on S^3 (residual {r:.3e})")
    return x


def check_hyperbolic_point(x, tol=1e-10):
    x = np.asarray(x, dtype=float)
    r = np.max(np.abs(inner(x, x, R31) + 1.0))
    if r > tol or np.min(x[..., 3]) < 1.0 - tol:
        raise DomainError("point not on the upper hyperboloid sheet")
    return x


# --- stereographic projections -----------------------------------------------

def stereo(x):
    """S^3 minus the antipode of eps0 -> R^3: x -> (x1,x2,x3)/(1+x0)."""
    x = np.asarray(x, dtype=float)
    den = 1.0 + x[..., 0]
    if np.min(np.abs(den)) < POLE_TOL:
        raise PoleError("stereographic projection undefined near -eps0")
    return x[..., 1:] / den[..., None]


def stereo_off_pole(x):
    """stereo on every point but those within POLE_TOL of the pole, which go to
    the origin; returns (image, pole mask)."""
    x = np.asarray(x, dtype=float)
    pole = np.abs(1.0 + x[..., 0]) < POLE_TOL
    safe = x.copy()
    safe[pole] = np.eye(4)[0]
    return stereo(safe), pole


def stereo_inv(y):
    """R^3 -> S^3: y -> ((1-|y|^2) eps0 + 2y) / (1+|y|^2)."""
    y = np.asarray(y, dtype=float)
    y2 = np.sum(y * y, axis=-1)
    out = np.empty(y.shape[:-1] + (4,))
    out[..., 0] = (1.0 - y2) / (1.0 + y2)
    out[..., 1:] = 2.0 * y / (1.0 + y2)[..., None]
    return out


def hyp_stereo(x):
    """H^3 -> open unit ball: x -> (x1,x2,x3)/(1+x4)."""
    x = np.asarray(x, dtype=float)
    return x[..., :3] / (1.0 + x[..., 3])[..., None]


def hyp_stereo_inv(y):
    """Unit ball -> H^3: y -> (2y + (1+|y|^2) eps4) / (1-|y|^2)."""
    y = np.asarray(y, dtype=float)
    y2 = np.sum(y * y, axis=-1)
    if np.max(y2) >= 1.0:
        raise DomainError("hyperbolic chart requires |y| < 1")
    out = np.empty(y.shape[:-1] + (4,))
    out[..., :3] = 2.0 * y / (1.0 - y2)[..., None]
    out[..., 3] = (1.0 + y2) / (1.0 - y2)
    return out


def poincare_factor(y):
    """Conformal factor 2/(1-|y|^2) of the Poincare ball metric."""
    y = np.asarray(y, dtype=float)
    y2 = np.sum(y * y, axis=-1)
    if np.max(y2) >= 1.0:
        raise DomainError("Poincare factor requires |y| < 1")
    return 2.0 / (1.0 - y2)


# --- embeddings into Moebius space (epsilon-basis representatives) -----------

def embed_sphere(x):
    """f_+: S^3 point -> null lift x + eps4 in R^{4,1}."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (5,))
    out[..., :4] = x
    out[..., 4] = 1.0
    return out


def embed_euclidean(y):
    """f_0 = f_+ o stereo_inv, cleared of denominators:
    (1-|y|^2) eps0 + 2y + (1+|y|^2) eps4."""
    y = np.asarray(y, dtype=float)
    y2 = np.sum(y * y, axis=-1)
    out = np.empty(y.shape[:-1] + (5,))
    out[..., 0] = 1.0 - y2
    out[..., 1:4] = 2.0 * y
    out[..., 4] = 1.0 + y2
    return out


def embed_hyperbolic(x):
    """f_-: H^3 point -> x + eps0 (composition of the two chart maps)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (5,))
    out[..., 0] = 1.0
    out[..., 1:] = x
    return out


def embed_moebius(p, form):
    """Null lift of a space-form point; epsilon-basis representative."""
    if form == "sphere":
        return embed_sphere(p)
    if form == "euclidean":
        return embed_euclidean(p)
    if form == "hyperbolic":
        return embed_hyperbolic(p)
    raise DomainError(f"unknown space form {form!r}")


# --- inverse charts on Moebius space ------------------------------------------

def moebius_to_sphere(q):
    """Global chart f_+^{-1}: [q] -> q_{0:4}/q_4 (epsilon coordinates)."""
    q = np.asarray(q, dtype=float)
    return q[..., :4] / q[..., 4][..., None]


def moebius_to_euclidean(q):
    """Chart f_0^{-1}: y = (q1,q2,q3)/(q0+q4); returns (y, valid_mask)."""
    q = np.asarray(q, dtype=float)
    den = q[..., 0] + q[..., 4]
    scale = np.max(np.abs(q), axis=-1)
    valid = np.abs(den) > 1e-12 * scale
    safe = np.where(valid, den, 1.0)
    return q[..., 1:4] / safe[..., None], valid


def moebius_to_hyperbolic(q):
    """Chart f_-^{-1}: x = (q1..q4)/q0 on the upper sheet; (x, valid)."""
    q = np.asarray(q, dtype=float)
    den = q[..., 0]
    scale = np.max(np.abs(q), axis=-1)
    valid = np.abs(den) > 1e-12 * scale
    safe = np.where(valid, den, 1.0)
    x = q[..., 1:] / safe[..., None]
    valid = valid & (x[..., 3] > 0)
    return x, valid


# --- equivariant group embeddings into the Moebius group ---------------------

def _to_delta_frame(T_eps):
    return mt.change_basis(T_eps, 5, "epsilon", "delta", kind="operator")


def group_embed(g, form):
    """Monomorphism into the Moebius group (delta-basis matrix).

    form='sphere':     g in SO(4), acts on span{eps0..eps3}, fixes eps4.
    form='euclidean':  g = (y, A) as a 4x4 E(3) matrix.
    form='hyperbolic': g in SO(3,1) on span{eps1..eps4}, fixes eps0.
    """
    g = np.asarray(g, dtype=float)
    if form == "sphere":
        if mt.group_residual(g, mt.R4) > 1e-8:
            raise mt.MembershipError("not an O(4) matrix")
        T = np.eye(5)
        T[:4, :4] = g
        return _to_delta_frame(T)
    if form == "hyperbolic":
        if mt.group_residual(g, mt.R31) > 1e-8:
            raise mt.MembershipError("not an O(3,1) matrix")
        T = np.eye(5)
        T[1:, 1:] = g
        return _to_delta_frame(T)
    if form == "euclidean":
        if mt.e3_residual(g) > 1e-8:
            raise mt.MembershipError("not a Euclidean motion matrix")
        y = g[1:, 0]
        A = g[1:, 1:]
        T = np.eye(5)
        # translation block, forced by equivariance with the normalized delta basis
        T[1:4, 0] = SQRT2 * y
        T[4, 0] = float(y @ y)
        T[4, 1:4] = SQRT2 * y
        rot = np.eye(5)
        rot[1:4, 1:4] = A
        return T @ rot
    raise DomainError(f"unknown space form {form!r}")


def embed_moebius_delta(p, form):
    """Null lift in delta coordinates (matching group_embed frames)."""
    return mt.change_basis(embed_moebius(p, form), 5, "epsilon", "delta")
