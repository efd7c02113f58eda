"""The three space forms R^3, S^3, H^3, the conformal maps between them, and
their equivariant embeddings into Moebius space.

Coordinate conventions (arrays, vectorized over leading axes):
  euclidean points  (..., 3)  ~ (eps1, eps2, eps3)
  sphere points     (..., 4)  ~ (eps0, eps1, eps2, eps3),  sum x_i^2 = 1
  hyperbolic points (..., 4)  ~ (eps1, eps2, eps3, eps4),  <x,x> = -1, x4 >= 1
  Moebius vectors   (..., 5)  ~ (eps0..eps4) in the epsilon basis unless noted
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from . import metrics as mt
from .metrics import GeometryError, SQRT2

POLE_TOL = 1e-9


class PoleError(GeometryError):
    pass


class DomainError(GeometryError):
    pass


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
    the origin; returns (image, pole mask).  x is copied only if it has a pole."""
    x = np.asarray(x, dtype=float)
    pole = np.abs(1.0 + x[..., 0]) < POLE_TOL
    if pole.any():
        x = x.copy()
        x[pole] = np.eye(4)[0]
    return stereo(x), pole


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


# --- the space forms in Moebius space ----------------------------------------

class SpaceForm(NamedTuple):
    """How a space form of curvature K sits in Moebius space (epsilon
    coordinates).  A point x, with ambient metric ``metric``, lifts to the
    null vector F = pad(x) + o + |x|^2 w, x placed in ``slots`` and w = 0
    off R^3, normalised by <F, xi> = -1; so q[slots] / (-<q, xi>) is the
    form's quotient chart and ``group`` acts on the slots."""

    metric: mt.Metric
    slots: slice
    o: np.ndarray
    w: np.ndarray
    xi: np.ndarray
    K: float
    group: str


_E = np.eye(5)
_NINF = 0.5 * (_E[4] - _E[0])
SPACE_FORMS = {
    "sphere": SpaceForm(mt.R4, slice(0, 4), _E[4], np.zeros(5), _E[4], 1.0, "O(4)"),
    "euclidean": SpaceForm(mt.R3, slice(1, 4), 0.5 * (_E[0] + _E[4]), _NINF, 2.0 * _NINF, 0.0,
                           "E(3)"),
    "hyperbolic": SpaceForm(mt.R31, slice(1, 5), _E[0], np.zeros(5), -_E[0], -1.0, "O(3,1)"),
}


def space_form(form):
    """The ``SPACE_FORMS`` row of a form; DomainError for an unknown form."""
    if form not in SPACE_FORMS:
        raise DomainError(f"unknown space form {form!r}")
    return SPACE_FORMS[form]


def embed_moebius(p, form):
    """Null lift F = pad(p) + o + |p|^2 w of space-form points (f_+, f_0, f_-
    for S^3, R^3, H^3); epsilon-basis representative with <F, xi> = -1."""
    row = space_form(form)
    p = np.asarray(p, dtype=float)
    F = np.zeros(p.shape[:-1] + (5,))
    F[..., row.slots] = p
    return F + row.o + np.sum(p * p, axis=-1)[..., None] * row.w


def quotient_chart(form):
    """(numerator slots, denominator coordinates) of the form's chart
    q[slots] / (-<q, xi>): every xi in ``SPACE_FORMS`` makes -<q, xi> a plain
    sum of coordinates (q4, q0 + q4, q0)."""
    row = space_form(form)
    return row.slots, tuple(int(k) for k in np.flatnonzero(-mt.R41.gram @ row.xi))


def moebius_chart(q, form):
    """Inverse chart of the form on epsilon-coordinate points q:
    x = q[slots] / (-<q, xi>), valid where |<q, xi>| > 1e-12 max|q| and, on
    the two-sheeted hyperboloid (K < 0), on the upper sheet x4 > 0.
    Returns (x, valid)."""
    slots, den = quotient_chart(form)
    q = np.asarray(q, dtype=float)
    d = q[..., list(den)].sum(axis=-1)
    # max|q| as an elementwise reduce: np.max over a length-5 last axis is slow
    valid = np.abs(d) > 1e-12 * reduce(np.maximum, np.moveaxis(np.abs(q), -1, 0))
    x = q[..., slots] / np.where(valid, d, 1.0)[..., None]
    if SPACE_FORMS[form].K < 0:
        valid &= x[..., -1] > 0
    return x, valid


# --- equivariant group embeddings into the Moebius group ---------------------

def group_embed(g, form):
    """Monomorphism into the Moebius group (delta-basis matrix).

    form='sphere', 'hyperbolic': g in O(4) or O(3,1) acts on the form's slots
    (span{eps0..eps3} or span{eps1..eps4}) and fixes the rest.
    form='euclidean':  g = (y, A) as a 4x4 E(3) matrix.
    """
    row = space_form(form)
    g = np.asarray(g, dtype=float)
    if form == "euclidean":
        if not mt.e3_residual(g) <= 1e-8:
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
    if not mt.group_residual(g, row.metric) <= 1e-8:
        raise mt.MembershipError(f"not an {row.group} matrix")
    T = np.eye(5)
    T[row.slots, row.slots] = g
    return mt.change_basis(T, 5, "epsilon", "delta", kind="operator")


def embed_moebius_delta(p, form):
    """Null lift in delta coordinates (matching group_embed frames)."""
    return mt.change_basis(embed_moebius(p, form), 5, "epsilon", "delta")
