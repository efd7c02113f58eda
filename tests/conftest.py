"""Helpers shared by the test modules."""

import tracemalloc
from dataclasses import replace

import numpy as np

from dupin import liesphere as ls
from dupin.frames import orbit_frame
from dupin.surfaces import (_ORDERS, Jet, ParamDomain, ParametricSurface,
                            _circle_derivatives, _jet_planes, _stack)


def traced_peak(fn, *args):
    """The peak of memory traced while fn(*args) runs, above what was traced
    before it, in bytes; and fn's result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def left_translated(ff, g):
    """The frame field g ff, carrying ff's form (omega is left-invariant)."""
    return replace(ff, mats=g @ ff.mats)


def shifted_domain(domain, su, sv):
    """domain with its u range moved by su and its v range by sv."""
    return replace(domain, u_range=(domain.u_range[0] + su, domain.u_range[1] + su),
                   v_range=(domain.v_range[0] + sv, domain.v_range[1] + sv))


def coset_frame(A, s_grid, t_grid):
    """The Lie frame field A M e^{s X_theta2} e^{t X_theta3} (M the base frame)
    whose first two columns are ls.coset_orbit's line, with its form; its
    frame_line carries the line's analytic dS0 and dS1."""
    domain = ParamDomain((float(s_grid[0]), float(s_grid[-1])),
                         (float(t_grid[0]), float(t_grid[-1])),
                         len(s_grid), len(t_grid), periodic_u=False, periodic_v=False)
    return orbit_frame("lie", np.asarray(A, dtype=float) @ ls.example_base_frame(),
                       *ls.slice_generators(), domain)


def sphere_patch(radius=1.0, domain=None):
    """Round sphere patch in R^3 (totally umbilic test case)."""
    R = float(radius)
    domain = domain or ParamDomain(
        u_range=(-1.2, 1.2), v_range=(-1.2, 1.2),
        periodic_u=False, periodic_v=False,
    )

    pos = lambda u, v: _stack(
        R * np.cos(u) * np.cos(v), R * np.sin(u) * np.cos(v), R * np.sin(v)
    )

    def jet(u, v):
        # d_u^i d_v^j of R (cos u cos v, sin u cos v, sin v)
        cu, cv = _circle_derivatives(u), _circle_derivatives(v)
        J = _jet_planes(u, v, 3)
        for k, (i, j) in enumerate(_ORDERS):
            J[k, 0], J[k, 1] = R * cu[i][0] * cv[j][0], R * cu[i][1] * cv[j][0]
            J[k, 2] = R * cv[j][1] if i == 0 else 0.0
        return Jet(*np.moveaxis(J, 1, -1))

    return ParametricSurface("euclidean", pos, domain, name="sphere_patch",
                             params={"radius": R}, jet=jet)


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


def fd_jet(position, domain, u, v):
    """Reference jet of position by central differences: steps h = 1e-5 of the
    parameter span for first partials, H = sqrt(h) for second and third
    partials; the whole 17-point stencil goes through one position call.
    A surface given by its position alone passes
    jet=functools.partial(fd_jet, position, domain)."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    hu = 1e-5 * (domain.u_range[1] - domain.u_range[0])
    hv = 1e-5 * (domain.v_range[1] - domain.v_range[0])
    Hu, Hv = np.sqrt(hu), np.sqrt(hv)
    U = np.stack([u, u + hu, u - hu, u, u, u + Hu, u - Hu, u, u,
                  u + Hu, u + Hu, u - Hu, u - Hu, u + 2 * Hu, u - 2 * Hu, u, u])
    V = np.stack([v, v, v, v + hv, v - hv, v, v, v + Hv, v - Hv,
                  v + Hv, v - Hv, v + Hv, v - Hv, v, v, v + 2 * Hv, v - 2 * Hv])
    p = position(U, V)
    return Jet(
        p[0],
        (p[1] - p[2]) / (2 * hu),
        (p[3] - p[4]) / (2 * hv),
        (p[5] - 2 * p[0] + p[6]) / Hu**2,
        (p[9] - p[10] - p[11] + p[12]) / (4 * Hu * Hv),
        (p[7] - 2 * p[0] + p[8]) / Hv**2,
        (p[13] - 2 * p[5] + 2 * p[6] - p[14]) / (2 * Hu**3),
        (p[9] - 2 * p[7] + p[11] - p[10] + 2 * p[8] - p[12]) / (2 * Hu**2 * Hv),
        (p[9] - 2 * p[5] + p[10] - p[11] + 2 * p[6] - p[12]) / (2 * Hu * Hv**2),
        (p[15] - 2 * p[7] + 2 * p[8] - p[16]) / (2 * Hv**3),
    )
