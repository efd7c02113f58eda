"""Mesh and report emission: OBJ meshes from parameter grids (singular vertices
excluded from faces), streamed in blocks of BLOCK records, JSON residual
reports, and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

REPORT_SCHEMA_VERSION = 1
BLOCK = 8192        # records per streamed OBJ part; grid points per classify slab


@dataclass
class Mesh:
    vertices: np.ndarray                 # (n, 3)
    faces: np.ndarray                    # (F, 4) quads of 0-based vertex indices
    flags: np.ndarray                    # per-vertex singular flags

    def validate(self):
        faces = np.asarray(self.faces)
        if faces.ndim != 2 or faces.shape[1] != 4 or faces.dtype.kind not in "iu":
            raise ValueError(f"faces must be an integer (F, 4) array, got {faces.dtype} {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(self.vertices)):
            raise ValueError("face index out of range")
        if any(self.flags[faces[s:s + BLOCK]].any() for s in range(0, len(faces), BLOCK)):
            raise ValueError("flagged vertex used by a face")


def grid_mesh(points, flags=None, periodic_u=False, periodic_v=False):
    """Quad mesh from an (nu, nv, 3) point grid; cells touching a flagged
    vertex are dropped; periodic directions wrap around.  Faces run i-major:
    cell (i, j) is (i, j), (i+1, j), (i+1, j+1), (i, j+1)."""
    points = np.asarray(points, dtype=float)
    nu, nv = points.shape[:2]
    if flags is None:
        flags = np.zeros((nu, nv), dtype=bool)
    verts = points.reshape(-1, 3)
    vflags = np.asarray(flags, dtype=bool).reshape(-1)
    i = np.arange(nu if periodic_u else nu - 1)
    j = np.arange(nv if periodic_v else nv - 1)
    i1, j1 = (i + 1) % nu, (j + 1) % nv
    faces = np.empty((len(i), len(j), 4), dtype=np.intp)
    for col, (a, b) in enumerate(((i, j), (i1, j), (i1, j1), (i, j1))):
        np.add((a * nv)[:, None], b, out=faces[:, :, col])
    faces = faces.reshape(-1, 4)
    drop = vflags[faces].any(axis=1)
    return Mesh(verts, faces[~drop] if drop.any() else faces, vflags)


def _atomic_write(path, parts):
    """Write bytes parts (any iterable) one at a time to a temp file, then
    rename it over path; nothing is left behind if a part fails."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _vertex_labels(n):
    """Each vertex's 1-based label as a space and right-aligned NUL-padded
    digits: an (n, w + 1) uint8 table, w the digit count of n, filled one
    block of labels at a time."""
    w = len(str(n))
    labels = np.zeros((n, w + 1), dtype=np.uint8)
    labels[:, 0] = ord(" ")
    for s in range(0, n, BLOCK):
        k = np.arange(s + 1, min(s + BLOCK, n) + 1)
        for col in range(w, 0, -1):
            labels[s:s + BLOCK, col] = np.where(k > 0, ord("0") + k % 10, 0)
            k //= 10
    return labels


_ROWS = 4096        # records per pass of the layout, 3 _ROWS keys per pass of _g12_texts

# Tables of the vectorised %.12g.  Each 4-digit group w in [0, 10^4) is one
# little-endian word of its ASCII digits, and once more with its trailing
# zeros as NULs: _c[j, d] is digit d as byte j, kept where it or a later digit
# is nonzero.  The scales are 10^k for k in [-300, 305], correctly rounded
# for k >= 0 and the rounded reciprocal of that below, and the decimal
# exponent of 2^(b - 1023) for each biased binary exponent b.
_c = (ord("0") + np.arange(10, dtype="<u4")) << (8 * np.arange(4, dtype="<u4"))[:, None]
_nz = np.arange(10) > 0
_DIGITS = (_c[0, :, None, None, None] | _c[1, :, None, None] | _c[2, :, None] | _c[3]).ravel()
_keep2 = _nz[:, None] | _nz
_keep1 = _nz[:, None, None] | _keep2
_STRIPPED = (_c[0, :, None, None, None] * (_nz[:, None, None, None] | _keep1)
             | _c[1, :, None, None] * _keep1 | _c[2, :, None] * _keep2 | _c[3] * _nz).ravel()
_POW10 = np.array([10 ** j for j in range(306)], dtype=np.float64)
_POW10 = np.concatenate([1 / _POW10[300:0:-1], _POW10])
_EXP2 = np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.intp)
del _c, _nz, _keep1, _keep2


def _exact_texts(values):
    """Python's %.12g of each value, NUL-padded to 19 bytes: the longest text,
    such as -1.23456789012e-300."""
    return np.array([b"%.12g" % v for v in values.tolist()], dtype="S19")


def _significands(coords):
    """(m, e, exact) with |x| = m 10^(e - 11) to 12 significant digits, m a
    float integer in [1e11, 1e12), for each coordinate marked exact; the
    others, zeros and coordinates for _exact_texts, get m = e = 0.

    Each |x| is scaled to y = |x| 10^(11-e), e its decimal exponent, by one
    product with _POW10: three roundings in all, so y is within 3.4e-4 of
    the exact value below 1e12 and m = rint(y) is the 12-digit significand
    unless y lies within 1e-3 of a half (every exact tie does).  Those,
    non-finite values and |x| < 1e-290 are not exact.  An m that rounds up
    to 10^12 carries into the exponent."""
    a = np.abs(coords)
    fast = (a >= 1e-290) & (a <= np.finfo(np.float64).max)
    a[~fast] = 1.0
    e = _EXP2[a.view(np.int64) >> 52]
    y = a * _POW10[311 - e]
    off = (y >= 1e12).astype(np.intp) - (y < 1e11)      # e was one too small or large
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        y[fix] = a[fix] * _POW10[311 - e[fix]]
    m = np.rint(y)
    exact = fast & (np.abs(y - np.floor(y) - 0.5) >= 1e-3) & (m >= 1e11) & (m <= 1e12)
    carry = m == 1e12
    e += carry
    m[carry] = 1e11
    m[~exact] = 0
    e[~exact] = 0
    return m, e, exact


def _digits(m):
    """The 12 ASCII digits of each float integer m < 1e12, leading zeros
    kept and trailing zeros as NULs: an (n, 12) uint8 array."""
    w1 = np.floor(m / 1e8)
    m = m - w1 * 1e8
    w2 = np.floor(m / 1e4)
    w3 = (m - w2 * 1e4).astype(np.intp)
    w1, w2 = w1.astype(np.intp), w2.astype(np.intp)
    digits = np.empty((len(m), 12), np.uint8)
    words = digits.view("<u4")
    words[:, 2] = _STRIPPED[w3]
    words[:, 1] = np.where(w3 != 0, _DIGITS[w2], _STRIPPED[w2])
    words[:, 0] = np.where((w3 != 0) | (w2 != 0), _DIGITS[w1], _STRIPPED[w1])
    return digits


def _g12_texts(keys, text):
    """Fill text, a (k, 20) uint8 table, with the ' %.12g' text of each of the
    k keys, byte for byte as Python's formatter writes it, in layout order;
    return each key's row.

    %g writes fixed notation for a decimal exponent -4 <= e < 12 of the
    rounded value (see _significands), else d.ddde+XX.  A row holds ' ',
    sign and body in 20 columns, with NULs where %g writes nothing; the
    bodies are built one layout at a time on the keys sorted by layout.
    Keys that are not exact take _exact_texts."""
    m, e, exact = _significands(keys)
    # layout 0: d.ddde+XX; layout e + 5: fixed notation (zeros print as fixed 0)
    layout = np.where((e < -4) | (e >= 12), 0, e + 5).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    bounds = np.searchsorted(layout[order], np.arange(18)).tolist()
    digits, e = _digits(m[order]), e[order]
    del m, layout
    text[:] = 0
    text[:, 0] = ord(" ")
    text[:, 1] = np.where(np.signbit(keys[order]), ord("-"), 0)
    for k in range(17):
        d, body = digits[bounds[k]:bounds[k + 1]], text[bounds[k]:bounds[k + 1], 2:]
        if not len(d):
            continue
        if k == 0:
            x = e[bounds[0]:bounds[1]]
            body[:, 0] = d[:, 0]
            body[:, 1] = np.where(d[:, 1] != 0, ord("."), 0)   # '.' before a digit
            body[:, 2:13] = d[:, 1:]
            body[:, 13] = ord("e")
            body[:, 14] = np.where(x < 0, ord("-"), ord("+"))
            x = np.abs(x)
            body[:, 15] = np.where(x >= 100, ord("0") + x // 100, 0)
            body[:, 16] = ord("0") + x // 10 % 10
            body[:, 17] = ord("0") + x % 10
        elif k >= 5:     # e + 1 integer digits, their zeros kept
            q = k - 4
            body[:, :q] = d[:, :q] | ord("0")
            if q < 12:
                body[:, q] = np.where(d[:, q] != 0, ord("."), 0)
                body[:, q + 1:13] = d[:, q:]
        else:            # 0., then -e - 1 zeros
            z = 5 - k
            body[:, 0] = ord("0")
            body[:, 1] = ord(".")
            body[:, 2:1 + z] = ord("0")
            body[:, 1 + z:13 + z] = d
    row = np.empty_like(order)
    row[order] = np.arange(len(keys))
    inexact = ~exact & (keys != 0)
    text[row[inexact], 1:] = _exact_texts(keys[inexact]).view(np.uint8).reshape(-1, 19)
    return row


def _records(tag, table, idx):
    """The records of tag followed by the rows of table at each row of idx,
    one record per row, NULs dropped, each ending in a newline."""
    records = np.empty((len(idx), idx.shape[1] * table.shape[1] + 2), np.uint8)
    records[:, 0] = ord(tag)
    records[:, 1:-1] = np.take(table, idx, axis=0).reshape(len(idx), -1)
    records[:, -1] = ord("\n")
    return records.tobytes().translate(None, b"\0")


def _vertex_records(block):
    """The 'v %.12g %.12g %.12g' records of a block of vertices.  %.12g
    depends only on a float's 64 bits, so each distinct bit pattern of the
    block (0.0 and -0.0 differ, as do NaN payloads) is a key, formatted once
    by _g12_texts, 3 _ROWS keys at a time.  Each coordinate's row of text is
    its key's row, found by composing the sort of the bit patterns with the
    keys' rows; the records are laid out _ROWS at a time."""
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.int64).ravel()
    order = np.argsort(bits)
    first = np.concatenate(([True], np.diff(bits[order]) != 0))  # a new bit pattern starts
    keys = bits[order[first]].view(np.float64)
    text = np.empty((len(keys), 20), np.uint8)
    row = np.empty(len(keys), np.intp)
    for s in range(0, len(keys), 3 * _ROWS):
        row[s:s + 3 * _ROWS] = s + _g12_texts(keys[s:s + 3 * _ROWS], text[s:s + 3 * _ROWS])
    at = np.empty((len(block), 3), np.intp)
    at.reshape(-1)[order] = row[np.cumsum(first) - 1]
    del order, first, row
    return b"".join(_records("v", text, at[s:s + _ROWS]) for s in range(0, len(at), _ROWS))


def _obj_records(vertices, faces):
    """The OBJ bytes of write_obj in parts of at most BLOCK records each:
    vertex records by `_vertex_records`, face records from the label table,
    so no part grows with the mesh."""
    n = len(vertices)
    yield b"# vertices: %d faces: %d\n" % (n, len(faces))
    for s in range(0, n, BLOCK):
        yield _vertex_records(vertices[s:s + BLOCK])
    labels = _vertex_labels(n)
    for s in range(0, len(faces), BLOCK):
        yield _records("f", labels, faces[s:s + BLOCK])


def write_obj(mesh, path):
    """ASCII OBJ: a '# vertices: n faces: F' line, then 'v %.12g %.12g %.12g'
    records and 1-based 'f %d %d %d %d' records; deterministic bytes, streamed
    to the file in blocks of records."""
    mesh.validate()
    _atomic_write(path, _obj_records(mesh.vertices, mesh.faces))


def make_report(operation, parameters, checks, tolerances):
    """Structured report: every numeric claim carries its tolerance."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "operation": operation,
        "parameters": parameters,
        "checks": checks,
        "tolerances": tolerances,
        "passed": all(c.get("pass", True) for c in checks),
    }


def check(name, value, tolerance=None, passed=None):
    c = {"name": name, "value": value}
    if tolerance is not None:
        c["tolerance"] = tolerance
        c["mode"] = "abs_below"
        c["pass"] = bool(abs(value) < tolerance) if passed is None else bool(passed)
    elif passed is not None:
        c["pass"] = bool(passed)
    return c


def write_report(report, path):
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _atomic_write(path, [text.encode()])
