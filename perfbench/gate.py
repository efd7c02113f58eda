"""Correctness gate behind the benchmark's failure count.

Checks the first iteration's outputs in full (OBJ syntax, finite vertices,
vertex and face counts, the exact grid face list, the paper's invariants,
and, for the default seed, the reference outputs); later iterations must
reproduce them byte for byte.  Does not import dupin: the outputs are read
with this module's own parser.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import os

import numpy as np

# Reference vertices are stored quantised to 2**-32 (error <= 1.2e-10) and
# differenced twice along each grid axis, which makes them compress well.
QUANTUM = 2.0 ** -32
VERTEX_ATOL = 1e-9


class ObjError(ValueError):
    pass


def parse_obj(path):
    """(vertices (n, 3), faces (m, 4) zero-based, header counts) of an OBJ."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# vertices:"):
        raise ObjError("missing '# vertices: N faces: M' header")
    head = lines[0].split()
    header = (int(head[2]), int(head[4]))
    verts, faces = [], []
    for line in lines[1:]:
        parts = line.split()
        if parts and parts[0] == "v" and len(parts) == 4:
            verts.append(parts[1:])
        elif parts and parts[0] == "f" and len(parts) == 5:
            faces.append(parts[1:])
        else:
            raise ObjError(f"unexpected OBJ line {line[:60]!r}")
    V = np.array(verts, dtype=float).reshape(-1, 3)
    F = np.array(faces, dtype=np.int64).reshape(-1, 4) - 1
    return V, F, header


def grid_faces(nu, nv, periodic, flagged):
    """The face list dupin's grid mesh must produce: one quad per grid cell,
    row-major, dropping cells that touch a flagged vertex."""
    imax = nu if periodic[0] else nu - 1
    jmax = nv if periodic[1] else nv - 1
    i, j = np.meshgrid(np.arange(imax), np.arange(jmax), indexing="ij")
    i1, j1 = (i + 1) % nu, (j + 1) % nv
    F = np.stack([i * nv + j, i1 * nv + j, i1 * nv + j1, i * nv + j1], axis=-1).reshape(-1, 4)
    flags = np.zeros(nu * nv, dtype=bool)
    flags[list(flagged)] = True
    return F[~flags[F].any(axis=1)]


def faces_digest(F):
    return hashlib.sha256(np.ascontiguousarray(F, dtype="<i8").tobytes()).hexdigest()


def encode_vertices(V, grid):
    q = np.rint(V / QUANTUM).astype(np.int64).reshape(tuple(grid) + (3,))
    for axis in (0, 0, 1, 1):
        q = np.diff(q, axis=axis, prepend=0)
    return q.astype("<i8").tobytes()


def decode_vertices(blob, grid):
    q = np.frombuffer(blob, dtype="<i8").reshape(tuple(grid) + (3,))
    for axis in (1, 1, 0, 0):
        q = np.cumsum(q, axis=axis)
    return q.reshape(-1, 3) * QUANTUM


def save_reference(path, entries):
    """entries: {op name: (vertices, faces, grid)}; writes PATH.json + PATH.xz."""
    index, payload = {}, []
    offset = 0
    for name, (V, F, grid) in sorted(entries.items()):
        blob = encode_vertices(V, grid)
        index[name] = {"grid": list(grid), "offset": offset, "length": len(blob),
                       "faces": int(len(F)), "faces_sha256": faces_digest(F)}
        payload.append(blob)
        offset += len(blob)
    with open(path + ".json", "w") as fh:
        json.dump({"quantum": QUANTUM, "meshes": index}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(path + ".xz", "wb") as fh:
        fh.write(lzma.compress(b"".join(payload), preset=9))


def load_reference(path):
    """{op name: (vertices, faces count, faces sha256)} or None when absent."""
    if not os.path.exists(path + ".json"):
        return None
    with open(path + ".json") as fh:
        index = json.load(fh)["meshes"]
    with open(path + ".xz", "rb") as fh:
        payload = lzma.decompress(fh.read())
    return {name: (decode_vertices(payload[e["offset"]:e["offset"] + e["length"]], e["grid"]),
                   e["faces"], e["faces_sha256"])
            for name, e in index.items()}


def _checks(report):
    return {c["name"]: c for c in report.get("checks", [])}


def check_mesh(op, first_dir, reference=None):
    """Failures of one mesh operation's first-iteration outputs."""
    fails = []
    try:
        V, F, header = parse_obj(os.path.join(first_dir, op["obj"]))
        with open(os.path.join(first_dir, op["report"])) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    nu, nv = op["grid"]
    if header != (len(V), len(F)):
        fails.append(f"header says {header}, file has {(len(V), len(F))}")
    if len(V) != nu * nv:
        fails.append(f"{len(V)} vertices, expected {nu * nv}")
    if not np.all(np.isfinite(V)):
        fails.append("non-finite vertices")
    mesh = report.get("mesh", {})
    if (mesh.get("vertices"), mesh.get("faces")) != (len(V), len(F)):
        fails.append(f"report mesh block {mesh} disagrees with the OBJ")
    if len(F) and (F.min() < 0 or F.max() >= len(V)):
        fails.append("face index out of range")
        return fails, report
    operation = op["argv"][0]
    if operation == "fig7":
        flagged = [i * nv + j for i, j in report.get("singular_grid_points", [])]
    elif operation == "orbit":
        # flags are not reported; every vertex no face uses must be one
        flagged = np.setdiff1d(np.arange(len(V)), F.ravel())
    else:
        flagged = []
    expected = grid_faces(nu, nv, op["periodic"], flagged)
    if expected.shape != F.shape or not np.array_equal(expected, F):
        fails.append(f"face list differs from the grid pattern ({len(F)} vs {len(expected)})")
    fails += _invariants(op, V, F, report)
    if reference is not None:
        ref = reference.get(op["name"])
        if ref is None:
            fails.append("no reference output for this operation")
        else:
            Vref, nfaces, fsha = ref
            if Vref.shape != V.shape:
                fails.append("vertex count differs from the reference")
            else:
                err = float(np.max(np.abs(V - Vref))) if len(V) else 0.0
                if not err <= VERTEX_ATOL:
                    fails.append(f"vertices differ from the reference by {err:.3e}")
            if nfaces != len(F) or fsha != faces_digest(F):
                fails.append("face list differs from the reference")
    return fails, report


def _invariants(op, V, F, report):
    fails = []
    checks = _checks(report)
    argv = op["argv"]
    if argv[0] == "gen" and "--project" in argv:
        if not checks.get("dupin", {}).get("pass"):
            fails.append("stereographic image fails the dupin check")
        if checks.get("isoparametric", {}).get("pass") is not False:
            fails.append("stereographic image is reported isoparametric")
    if argv[0] == "orbit" and report.get("parameters", {}).get("regime") == "cylinder":
        used = np.unique(F.ravel())
        if len(used) == 0:
            fails.append("cylinder orbit has no faces")
        else:
            dist = np.hypot(V[used, 0], V[used, 1])
            if not float(np.max(np.abs(dist - 1.0))) < 1e-8:
                fails.append("cylinder orbit leaves the unit-distance cylinder")
    if argv[0] == "fig7":
        count = checks.get("singular_count", {}).get("value")
        if float(argv[2]) == 0.0:
            if report.get("degenerate") is not True:
                fails.append("fig7 --t 0 is not degenerate")
        elif not (report.get("degenerate") is False and 0 < (count or 0) < len(V)):
            fails.append(f"fig7 singular count {count} not in (0, {len(V)})")
    return fails


def check_op(op, first_dir, status, reference=None):
    """Failures of one operation's first-iteration outputs; also returns the
    report's 'passed' field as observed (None when there is no report)."""
    if status != 0:
        return [f"exit status {str(status).strip()[-300:]}"], None
    if op["kind"] == "cli" and "obj" in op:
        fails, report = check_mesh(op, first_dir, reference)
        return fails, None if report is None else report.get("passed")
    if op["name"] == "verify_all":
        try:
            with open(os.path.join(first_dir, op["report"])) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"unreadable report: {exc}"], None
        return ([] if report.get("passed") is True else ["verify all did not pass"],
                report.get("passed"))
    try:
        with open(os.path.join(first_dir, op["name"] + ".json")) as fh:
            obs = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"missing observations: {exc}"], None
    fails = []
    if op["name"] == "integrate_mc":
        for key in ("cylinder_residual_identity", "cylinder_residual_base"):
            if not obs[key] < 1e-8:
                fails.append(f"{key} {obs[key]:.3e} not below 1e-8")
        if obs["congruent"] is not True:
            fails.append("congruence test failed")
    elif op["name"] == "orbit_classify":
        if not (obs["isoparametric"] is True and obs["dupin"] is True):
            fails.append("orbit is not classified isoparametric and Dupin")
    return fails, None
