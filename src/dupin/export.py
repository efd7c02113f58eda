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


def _vertex_records(block):
    """The 'v %.12g %.12g %.12g' records of a block of vertices.  `%.12g`
    depends only on a float's 64 bits, so when at most half of the block's
    coordinates are distinct bit patterns (0.0 and -0.0 differ), each distinct
    one is formatted once and the records are assembled from those texts."""
    coords = np.ascontiguousarray(block, dtype=np.float64).ravel()
    bits = coords.view(np.int64)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # a new bit pattern starts
    if 2 * np.count_nonzero(first) > len(bits):
        return (b"v %.12g %.12g %.12g\n" * len(block)) % tuple(coords.tolist())
    keys = ordered[first]
    inv = np.empty(len(bits), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    text = ((b"%.12g\n" * len(keys)) % tuple(keys.view(np.float64).tolist())).split(b"\n")
    return (b"v %b %b %b\n" * len(block)) % tuple(np.array(text, dtype=object)[inv].tolist())


def _obj_records(vertices, faces):
    """The OBJ bytes of write_obj in parts of at most BLOCK records each:
    vertex records by `_vertex_records`, face records gathered from the label
    table with the NULs dropped, so no part grows with the mesh."""
    n = len(vertices)
    yield b"# vertices: %d faces: %d\n" % (n, len(faces))
    for s in range(0, n, BLOCK):
        yield _vertex_records(vertices[s:s + BLOCK])
    labels = _vertex_labels(n)
    for s in range(0, len(faces), BLOCK):
        block = faces[s:s + BLOCK]
        text = np.empty((len(block), 4 * labels.shape[1] + 2), dtype=np.uint8)
        text[:, 0] = ord("f")
        text[:, 1:-1] = np.take(labels, block, axis=0).reshape(len(block), -1)
        text[:, -1] = ord("\n")
        yield text[text != 0].tobytes()


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
