"""Helpers shared by the test modules."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np

from dupin import liesphere as ls
from dupin.frames import orbit_frame
from dupin.surfaces import (_FIELD_INDEX, _ORDERS, Jet, ParamDomain, ParametricSurface,
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


# --- earlier kernels, kept as references for the scalar-field ones ---------------

def ref_inner(u, v, metric):
    """metrics.inner in product form: the sum of eta_a u_{a*} v_a, each term
    multiplied by its sign eta_a = +-1."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    terms = (e * u[..., b] * v[..., a]
             for a, (b, e) in enumerate(zip(metric.dual_index, metric.eta)))
    out = next(terms)
    for t in terms:
        out += t
    return out


def ref_quotient_jet(src, x, num, den, shift=0.0):
    """surfaces.quotient_jet by a sum over position subsets: phi_K subtracts
    phi_S d_(K - S) over the nonempty proper subsets S of K's positions, so a
    product repeated in K's multiset is formed once per subset."""
    src = {k: np.moveaxis(getattr(src, "x" + k), -1, 0) for k in _FIELD_INDEX}

    def d(t):
        out = t[den[0]]
        for k in den[1:]:
            out = out + t[k]
        return out

    inv_d = 1.0 / (shift + d(src[""]))
    phi, dk = {"": np.moveaxis(x, -1, 0)}, {}
    for k in _FIELD_INDEX[1:]:
        dk[k] = d(src[k])
        out = src[k][num] - phi[""] * dk[k]
        for r in range(1, len(k)):
            for sub in itertools.combinations(range(len(k)), r):
                rest = [i for i in range(len(k)) if i not in sub]
                out -= phi["".join(k[i] for i in sub)] * dk["".join(k[i] for i in rest)]
        phi[k] = out * inv_d
    return Jet(*(np.moveaxis(p, 0, -1) for p in phi.values()))


def ref_normal(jet):
    """The Euclidean unit normal by np.cross over np.linalg.norm."""
    n = np.cross(jet.xu, jet.xv)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def ref_direction(I, II, kappa):
    """The principal direction of kappa with W = I^{-1} II formed anew for
    it: the null vector of the row of W - kappa of larger 1-norm, (1, 0) at
    umbilics, I-unit, as an (..., 2) array."""
    E, F, G = I[..., 0, 0], I[..., 0, 1], I[..., 1, 1]
    L, M, N = II[..., 0, 0], II[..., 0, 1], II[..., 1, 1]
    detI = E * G - F * F
    w00, w01 = (G * L - F * M) / detI - kappa, (G * M - F * N) / detI
    w10, w11 = (E * M - F * L) / detI, (E * N - F * M) / detI - kappa
    use0 = np.abs(w00) + np.abs(w01) >= np.abs(w10) + np.abs(w11)
    d0 = np.where(use0, w01, w11)
    d1 = np.where(use0, -w00, -w10)
    degenerate = np.abs(d0) + np.abs(d1) < 1e-14
    d0, d1 = np.where(degenerate, 1.0, d0), np.where(degenerate, 0.0, d1)
    norm = np.sqrt(E * d0 * d0 + 2.0 * F * d0 * d1 + G * d1 * d1)
    return np.stack([d0 / norm, d1 / norm], axis=-1)


def ref_along(metric, jet, normal, kappa, d):
    """e_kappa(kappa) = <x_ddd, n> - 3 kappa <x_dd, x_d> with the derivatives
    x_d, x_dd, x_ddd of x along d formed as (..., dim) vectors."""
    d0, d1 = d[..., 0:1], d[..., 1:2]
    x_d = d0 * jet.xu + d1 * jet.xv
    x_dd = d0 * (d0 * jet.xuu + 2.0 * d1 * jet.xuv) + d1 * d1 * jet.xvv
    x_ddd = (d0 * d0 * (d0 * jet.xuuu + 3.0 * d1 * jet.xuuv)
             + d1 * d1 * (3.0 * d0 * jet.xuvv + d1 * jet.xvvv))
    return ref_inner(x_ddd, normal, metric) - 3.0 * kappa * ref_inner(x_dd, x_d, metric)
