"""Command-line driver: mesh generation for the canonical surfaces and their
conformal projections, Dupin orbit surfaces, the singular surface of
revolution, and the verification suites.

Outputs are ASCII OBJ meshes plus JSON residual reports, written atomically;
identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import liesphere as ls
from . import moebius as mb
from . import surfaces as srf
from . import verify
from .export import check, grid_mesh, make_report, write_obj, write_report
from .metrics import MOEB, GeometryError, inner
from .spaceforms import hyp_stereo, stereo_off_pole


def load_config(path=None):
    """The packaged defaults, updated from the file named by --config or
    DUPIN_CONFIG, which must exist, else from ./dupin.cfg if there is one.
    That file may only set keys the defaults have."""
    with resources.files(__package__).joinpath("defaults.cfg").open() as fh:
        cfg = _parse_cfg(fh)
    path = path or os.environ.get("DUPIN_CONFIG")
    if not path and os.path.exists("dupin.cfg"):
        path = "dupin.cfg"
    if path:
        try:
            with open(path) as fh:
                user = _parse_cfg(fh)
        except OSError as exc:
            raise GeometryError(f"cannot read config {path!r}: {exc.strerror}") from exc
        unknown = [k for k in user if k not in cfg]
        if unknown:
            raise GeometryError(f"unknown config key {unknown[0]!r} in {path!r}; "
                                f"the keys are {', '.join(cfg)}")
        cfg.update(user)
    return cfg


def _parse_cfg(fh):
    """The key = value lines of an open config file; '#' starts a comment."""
    out = {}
    for n, line in enumerate(fh, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GeometryError(f"config {fh.name!r} line {n}: expected key = value, got {line!r}")
        k, v = (t.strip() for t in line.split("=", 1))
        try:
            out[k] = float(v) if "." in v or "e" in v.lower() else int(v)
        except ValueError as exc:
            raise GeometryError(f"config key {k!r} must be a number, got {v!r}") from exc
    return out


def parse_grid(spec, cfg):
    """(nu, nv) from a --grid spec such as 64x64, else from the config keys
    grid_nu and grid_nv; each resolution must be an integer of at least 3."""
    if spec is None:
        for key in ("grid_nu", "grid_nv"):
            if not (isinstance(cfg[key], int) and cfg[key] >= 3):
                raise GeometryError(f"config key {key!r} must be an integer of at least 3, "
                                    f"got {cfg[key]!r}")
        return cfg["grid_nu"], cfg["grid_nv"]
    try:
        nu, nv = (int(n) for n in spec.lower().split("x"))
    except ValueError as exc:
        raise GeometryError(f"grid must look like 64x64, got {spec!r}") from exc
    if min(nu, nv) < 3:
        raise GeometryError(f"grid must be at least 3x3, got {spec!r}")
    return nu, nv


def _out_path(path):
    outdir = os.environ.get("DUPIN_OUTDIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, os.path.basename(path))
    d = os.path.dirname(path)
    if d:
        os.makedirs(d, exist_ok=True)
    return path


def _report_path(obj_path):
    stem = obj_path[:-4] if obj_path.endswith(".obj") else obj_path
    return stem + ".report.json"


# The --tol-* flags (and config keys) each command reads; its report records them.
COMMAND_TOLS = {"gen": (), "orbit": (), "fig7": (),
                "verify": ("membership", "closure", "contact", "order")}


def tolerances(args, cfg):
    """The command's tolerances: each --tol-* flag given, else the config;
    each must be finite and non-negative."""
    tols = {}
    for name in COMMAND_TOLS[args.command]:
        val = getattr(args, f"tol_{name}")
        tols[name] = val = cfg[name] if val is None else val
        if not 0 <= val < np.inf:
            raise GeometryError(f"tolerance {name} must be finite and non-negative, got {val}")
    return tols


def cmd_gen(args, cfg):
    nu, nv = parse_grid(args.grid, cfg)
    tols = tolerances(args, cfg)
    make, value, flag = {"torus": (srf.torus, args.alpha, "--alpha (radians)"),
                         "hyperboloid": (srf.hyperboloid, args.a, "--a"),
                         "cylinder": (srf.cylinder, args.radius, "--radius")}[args.surface]
    if value is None:
        raise GeometryError(f"{args.surface} needs {flag}")
    s = make(value, replace(make(value).domain, nu=nu, nv=nv))

    if args.project != "none":
        s = srf.pushforward(s, args.project)
    if s.form == "sphere":
        raise GeometryError("spherical mesh needs --project stereo for 3d output")
    if s.form == "hyperbolic":
        raise GeometryError("hyperbolic mesh needs --project hyp_stereo for 3d output")
    cls = srf.classify(s)
    mesh = grid_mesh(
        s.position(*s.domain.axes()),
        periodic_u=s.domain.periodic_u,
        periodic_v=s.domain.periodic_v,
    )
    out = _out_path(args.out)
    write_obj(mesh, out)
    measured = cls["report"]
    checks = [
        check("constraint_residual", s.constraint_residual(), 1e-10),
        check("spread_a", measured["spread_a"]),
        check("spread_c", measured["spread_c"]),
        check("isoparametric", 0.0, passed=cls["isoparametric"]),
        check("dupin", max(measured["dupin_derivative_a"], measured["dupin_derivative_c"]),
              measured["dupin_tol"], passed=bool(cls["dupin"])),
    ]
    rep = make_report(
        "gen",
        {"surface": args.surface, "project": args.project, "grid": f"{nu}x{nv}",
         "alpha": args.alpha, "a": args.a, "radius": args.radius},
        checks, tols,
    )
    rep["mesh"] = {"vertices": len(mesh.vertices), "faces": len(mesh.faces)}
    write_report(rep, _report_path(out))
    print(f"wrote {out} ({len(mesh.vertices)} vertices, {len(mesh.faces)} faces)")
    return 0


def cmd_orbit(args, cfg):
    if not np.isfinite(args.C):
        raise GeometryError(f"--C must be finite, got {args.C}")
    if not 0.0 < args.span < np.inf:
        raise GeometryError(f"--span must be finite and positive, got {args.span}")
    nu, nv = parse_grid(args.grid, cfg)
    tols = tolerances(args, cfg)
    span = args.span
    s_grid = np.linspace(-span, span, nu)
    t_grid = np.linspace(-span, span, nv)
    orb = mb.hc_orbit(args.C, s_grid, t_grid)
    valid = orb.valid.copy()
    if orb.regime == "torus":
        pts3, pole = stereo_off_pole(orb.chart_points)
        valid &= ~pole
    elif orb.regime == "cylinder":
        pts3 = orb.chart_points
    else:
        pts3 = hyp_stereo(orb.chart_points)
    mesh = grid_mesh(pts3, flags=~valid)
    out = _out_path(args.out)
    write_obj(mesh, out)
    null_cone = np.max(np.abs(inner(orb.points_delta, orb.points_delta, MOEB)))
    checks = [
        check("chart_failures", float(np.sum(~orb.valid)), 1),
        check("null_cone", float(null_cone), 1e-10),
    ]
    rep = make_report(
        "orbit",
        {"C": args.C, "regime": orb.regime, "grid": f"{nu}x{nv}", "span": span},
        checks, tols,
    )
    rep["mesh"] = {"vertices": len(mesh.vertices), "faces": len(mesh.faces)}
    write_report(rep, _report_path(out))
    print(f"wrote {out} (regime: {orb.regime})")
    return 0


def cmd_fig7(args, cfg):
    if not np.isfinite(args.t):
        raise GeometryError(f"--t must be finite, got {args.t}")
    nu, nv = parse_grid(args.grid, cfg) if args.grid else (33, 33)
    tols = tolerances(args, cfg)
    s_grid = np.linspace(-4.0, 4.0, nu)
    t_grid = np.linspace(-4.0, 4.0, nv)
    out_data = ls.fig7_pipeline(args.t, s_grid, t_grid)
    mesh = grid_mesh(out_data["points"], flags=out_data["singular_mask"])
    out = _out_path(args.out)
    write_obj(mesh, out)
    singular = np.argwhere(out_data["singular_mask"]).tolist()
    checks = [
        check("singular_count", float(out_data["singular_count"])),
        check("degenerate", out_data["singular_count"] / out_data["grid_size"],
              ls.DEGENERATE_FRACTION, passed=not out_data["degenerate"]),
    ]
    rep = make_report(
        "fig7",
        {"t": args.t, "grid": f"{nu}x{nv}"},
        checks, tols,
    )
    rep["degenerate"] = out_data["degenerate"]
    rep["singular_grid_points"] = singular
    rep["mesh"] = {"vertices": len(mesh.vertices), "faces": len(mesh.faces)}
    write_report(rep, _report_path(out))
    if out_data["degenerate"]:
        print(f"wrote {out} (degenerate: projection is a curve, whole grid flagged)")
    else:
        print(f"wrote {out} ({out_data['singular_count']} singular grid points)")
    return 0


def cmd_verify(args, cfg):
    tols = tolerances(args, cfg)
    rep = verify.run_suite(args.suite, tols)
    out = _out_path(args.out) if args.out else None
    if out:
        write_report(rep, out)
    for c in rep["checks"]:
        status = "PASS" if c.get("pass", True) else "FAIL"
        tol = f" (tol {c['tolerance']:g})" if "tolerance" in c else ""
        print(f"{status} {c['name']}: {c['value']:.3e}{tol}")
    print(f"suite {args.suite}: {'PASS' if rep['passed'] else 'FAIL'}")
    return 0 if rep["passed"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="dupin-cli",
                                description="Dupin surface toolkit command line")
    p.add_argument("--config", help="config file (key = value)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_tols(sp, command):
        for name in COMMAND_TOLS[command]:
            sp.add_argument(f"--tol-{name}", type=float, dest=f"tol_{name}")

    g = sub.add_parser("gen", help="sample a canonical surface to an OBJ mesh")
    g.add_argument("surface", choices=["torus", "hyperboloid", "cylinder"])
    g.add_argument("--alpha", type=float, help="torus parameter in (0, pi/4], radians")
    g.add_argument("--a", type=float, help="hyperboloid parameter in (0, 1)")
    g.add_argument("--radius", type=float, help="cylinder radius")
    g.add_argument("--project", choices=["none", "stereo", "hyp_stereo"], default="none")
    g.add_argument("--grid", help="sampling resolution NxM")
    g.add_argument("--out", required=True)
    add_tols(g, "gen")
    g.set_defaults(fn=cmd_gen)

    o = sub.add_parser("orbit", help="Dupin orbit surface for an invariant C")
    o.add_argument("--C", type=float, required=True)
    o.add_argument("--grid", help="sampling resolution NxM")
    o.add_argument("--span", type=float, default=1.0, help="orbit parameter half-width")
    o.add_argument("--out", required=True)
    add_tols(o, "orbit")
    o.set_defaults(fn=cmd_orbit)

    f = sub.add_parser("fig7", help="boosted coset projection (surface of revolution)")
    f.add_argument("--t", type=float, required=True, help="boost parameter")
    f.add_argument("--grid", help="sampling resolution NxM (default 33x33)")
    f.add_argument("--out", required=True)
    add_tols(f, "fig7")
    f.set_defaults(fn=cmd_fig7)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(verify.SUITES))
    v.add_argument("--out", help="write the JSON report here")
    add_tols(v, "verify")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, load_config(args.config))
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
