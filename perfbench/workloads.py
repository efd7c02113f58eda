"""Seeded workload definitions for the dupin benchmark.

Every parameter of every operation is drawn from the ``--seed`` value; the
program under test only ever sees the generated command lines and arrays.
This module does not import dupin, so run.py can use it before the program
is known to exist; the library operations import it lazily.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("surface_mesh", "orbit_mesh", "frames_verify")

# The default seed is the one the reference outputs were captured with; the
# holdout seed is kept out of tuning and used to confirm a claimed gain.
DEFAULT_SEED = 0
HOLDOUT_SEED = 1

# Grid sizes: the full benchmark and the smoke mode used by the self-tests.
GRIDS = {
    False: {"gen": 128, "orbit": 256, "fig7": 129, "fig7_t0": None,
            "integrate": 128, "classify": 8},
    True: {"gen": 12, "orbit": 16, "fig7": 17, "fig7_t0": 9,
           "integrate": 12, "classify": 4},
}


def draw(workload, seed):
    """Parameters of one workload, a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "surface_mesh":
        # Below alpha ~ 0.125, gen torus --project stereo at 128x128 exits 2
        # ("first fundamental form is rank deficient"); see the README.
        return {
            "alpha": rng.uniform(0.15, math.pi / 4),
            "a": rng.uniform(0.2, 0.9),
            "radius": rng.uniform(0.5, 2.0),
        }
    if workload == "orbit_mesh":
        # One sign from the seed: either the cylinder C or both of the other
        # two regimes are negative, so the h_{-C} swap path always runs.
        sign = rng.choice((-1.0, 1.0))
        return {
            "C_torus": -sign * rng.uniform(0.0, 0.9),
            "C_cylinder": sign,
            "C_hyperboloid": -sign * rng.uniform(1.2, 3.0),
            "fig7_t": rng.uniform(0.5, 1.5),
        }
    if workload == "frames_verify":
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in q))
        w, x, y, z = (c / n for c in q)
        rotation = [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
        return {
            "translation": [rng.uniform(-1.0, 1.0) for _ in range(3)],
            "rotation": rotation,
            "C_hyperboloid": rng.uniform(1.2, 3.0),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _mesh_op(name, argv, grid, periodic=(False, False)):
    return {"name": name, "kind": "cli", "argv": argv + ["--out", f"{name}.obj"],
            "obj": f"{name}.obj", "report": f"{name}.report.json",
            "grid": list(grid), "periodic": list(periodic)}


def operations(workload, params, smoke=False):
    """The fixed operation list one iteration of a workload runs, in order."""
    g = GRIDS[smoke]
    if workload == "surface_mesh":
        n = g["gen"]
        grid = ["--grid", f"{n}x{n}"]
        return [
            _mesh_op("torus_stereo", ["gen", "torus", "--alpha", repr(params["alpha"]),
                                      "--project", "stereo"] + grid, (n, n), (True, True)),
            _mesh_op("hyperboloid_hyp_stereo", ["gen", "hyperboloid", "--a", repr(params["a"]),
                                                "--project", "hyp_stereo"] + grid,
                     (n, n), (True, False)),
            _mesh_op("cylinder", ["gen", "cylinder", "--radius", repr(params["radius"])] + grid,
                     (n, n), (True, False)),
        ]
    if workload == "orbit_mesh":
        n, m = g["orbit"], g["fig7"]
        ops = [
            _mesh_op(f"orbit_{regime}", ["orbit", "--C", repr(params[f"C_{regime}"]),
                                         "--grid", f"{n}x{n}"], (n, n))
            for regime in ("torus", "cylinder", "hyperboloid")
        ]
        ops.append(_mesh_op("fig7", ["fig7", "--t", repr(params["fig7_t"]),
                                     "--grid", f"{m}x{m}"], (m, m)))
        k = g["fig7_t0"]
        t0_grid = ["--grid", f"{k}x{k}"] if k else []
        ops.append(_mesh_op("fig7_t0", ["fig7", "--t", "0"] + t0_grid, (k or 33, k or 33)))
        return ops
    if workload == "frames_verify":
        return [
            {"name": "verify_all", "kind": "cli",
             "argv": ["verify", "all", "--out", "verify.json"], "report": "verify.json"},
            {"name": "integrate_mc", "kind": "lib", "grid": [g["integrate"]] * 2},
            {"name": "orbit_classify", "kind": "lib", "grid": [g["classify"]] * 2},
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- library operations (run inside the workload process) --------------------

def _cylinder_generators(np):
    """Constant e(3) form whose integral sweeps the unit cylinder
    x^2 + (z - 1)^2 = 1 around the y axis."""
    X1 = np.zeros((4, 4))
    X1[1, 0] = 1.0
    X1[3, 1], X1[1, 3] = 1.0, -1.0
    X2 = np.zeros((4, 4))
    X2[2, 0] = 1.0
    return X1, X2


def run_library_op(op, params):
    """Run one library operation and return what it computed."""
    import numpy as np
    from dupin import frames, metrics, moebius, surfaces

    if op["name"] == "integrate_mc":
        n = op["grid"][0]
        X1, X2 = _cylinder_generators(np)
        dom = surfaces.ParamDomain((0.0, 2.0 * np.pi), (-1.0, 1.0), n, n, False, False)
        form = frames.constant_form(X1, X2, dom, "e3")
        base = metrics.e3_matrix(params["translation"], params["rotation"])
        e_base, _ = frames.integrate_mc(form, base)
        e_id, _ = frames.integrate_mc(form, np.eye(4))
        return {"base": base, "e_base": e_base.mats, "e_id": e_id.mats,
                "congruence": frames.congruence_test(e_id, e_base)}
    if op["name"] == "orbit_classify":
        n = op["grid"][0]
        dom = surfaces.ParamDomain((-1.0, 1.0), (-1.0, 1.0), n, n, False, False)
        return surfaces.classify(moebius.orbit_surface(params["C_hyperboloid"], dom))
    raise ValueError(f"unknown library operation {op['name']!r}")


def observe_library_op(op, raw):
    """Digest and gate observations of a library operation's result.

    The digest covers everything the operation returned, so byte-identical
    results on every iteration can be checked; the observations are the
    invariants the correctness gate tests.  Runs outside the timed region."""
    if op["name"] == "integrate_mc":
        import numpy as np

        def cylinder_residual(pts):
            return float(np.max(np.abs(pts[..., 0] ** 2 + (pts[..., 2] - 1.0) ** 2 - 1.0)))

        base, cong = raw["base"], raw["congruence"]
        digest = hashlib.sha256(raw["e_base"].tobytes() + raw["e_id"].tobytes()
                                + cong["g"].tobytes()).hexdigest()
        # pull the base-frame integral back to the identity base: p = A^T (p' - y)
        p_base = (raw["e_base"][..., 1:, 0] - base[1:, 0]) @ base[1:, 1:]
        return digest, {
            "cylinder_residual_identity": cylinder_residual(raw["e_id"][..., 1:, 0]),
            "cylinder_residual_base": cylinder_residual(p_base),
            "congruent": bool(cong["congruent"]),
            "congruence_deviation": float(cong["deviation"]),
        }
    text = json.dumps(raw, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), {
        "isoparametric": bool(raw["isoparametric"]), "dupin": raw["dupin"],
        "report": raw["report"]}
