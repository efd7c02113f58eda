"""Mesh and report emission: OBJ meshes from parameter grids (singular vertices
excluded from faces), JSON residual reports, atomic writes, and a minimal OBJ
reader for round-trip checks."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

REPORT_SCHEMA_VERSION = 1


@dataclass
class Mesh:
    vertices: np.ndarray                 # (n, 3)
    faces: np.ndarray                    # (F, 4) quads of 0-based vertex indices
    flags: np.ndarray                    # per-vertex singular flags

    def validate(self):
        faces = np.asarray(self.faces)
        if faces.ndim != 2 or faces.shape[1] != 4 or faces.dtype.kind not in "iu":
            raise ValueError(f"faces must be an integer (F, 4) array, got {faces.dtype} {faces.shape}")
        if np.any((faces < 0) | (faces >= len(self.vertices))):
            raise ValueError("face index out of range")
        if np.any(self.flags[faces]):
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
    i, j = np.meshgrid(np.arange(nu if periodic_u else nu - 1),
                       np.arange(nv if periodic_v else nv - 1), indexing="ij")
    i1, j1 = (i + 1) % nu, (j + 1) % nv
    corners = [(a * nv + b).ravel() for a, b in ((i, j), (i1, j), (i1, j1), (i, j1))]
    keep = ~(vflags[corners[0]] | vflags[corners[1]] | vflags[corners[2]] | vflags[corners[3]])
    return Mesh(verts, np.stack([c[keep] for c in corners], axis=1), vflags)


def _atomic_write(path, parts):
    """Write bytes parts one at a time to a temp file, then rename it over path."""
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


def _face_records(faces, n):
    """The 'f %d %d %d %d' lines of 1-based labels: each vertex's label is
    formatted once, as a space and right-aligned NUL-padded digits, gathered
    per face, and the NULs dropped."""
    w = len(str(n))
    labels = np.zeros((n, w + 1), dtype=np.uint8)
    labels[:, 0] = ord(" ")
    k = np.arange(1, n + 1)
    for col in range(w, 0, -1):
        labels[:, col] = np.where(k > 0, ord("0") + k % 10, 0)
        k //= 10
    text = np.empty((len(faces), 4 * (w + 1) + 2), dtype=np.uint8)
    text[:, 0] = ord("f")
    text[:, 1:-1] = np.take(labels, faces, axis=0).reshape(-1, 4 * (w + 1))
    text[:, -1] = ord("\n")
    return text[text != 0].tobytes()


def write_obj(mesh, path):
    """ASCII OBJ: a '# vertices: n faces: F' line, then 'v %.12g %.12g %.12g'
    records and 1-based 'f %d %d %d %d' records; deterministic bytes."""
    mesh.validate()
    n, nf = len(mesh.vertices), len(mesh.faces)
    _atomic_write(path, [
        b"# vertices: %d faces: %d\n" % (n, nf),
        (b"v %.12g %.12g %.12g\n" * n) % tuple(mesh.vertices.ravel().tolist()),
        _face_records(mesh.faces, n),
    ])


def read_obj(path):
    """Minimal reference OBJ parser: vertices and faces only."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(tok.split("/")[0]) - 1 for tok in parts[1:]])
    return np.array(verts), faces


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
