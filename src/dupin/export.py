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
        if np.any((self.faces < 0) | (self.faces >= len(self.vertices))):
            raise ValueError("face index out of range")
        if np.any(self.flags[self.faces]):
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
    quads = np.stack([i * nv + j, i1 * nv + j, i1 * nv + j1, i * nv + j1], axis=-1)
    quads = quads.reshape(-1, 4)
    return Mesh(verts, quads[~vflags[quads].any(axis=1)], vflags)


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_obj(mesh, path):
    """ASCII OBJ with 'v' and 'f' records; deterministic formatting."""
    mesh.validate()
    n, nf = len(mesh.vertices), len(mesh.faces)
    _atomic_write(path, "".join([
        f"# vertices: {n} faces: {nf}\n",
        ("v %.12g %.12g %.12g\n" * n) % tuple(mesh.vertices.ravel().tolist()),
        ("f %d %d %d %d\n" * nf) % tuple((mesh.faces + 1).ravel().tolist()),
    ]))


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


def check(name, value, tolerance=None, passed=None, mode="abs_below"):
    c = {"name": name, "value": value}
    if tolerance is not None:
        c["tolerance"] = tolerance
        c["mode"] = mode
        c["pass"] = bool(abs(value) < tolerance) if passed is None else bool(passed)
    elif passed is not None:
        c["pass"] = bool(passed)
    return c


def write_report(report, path):
    _atomic_write(path, json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
