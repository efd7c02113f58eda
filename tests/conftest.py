"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np

from dupin.surfaces import Jet


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
