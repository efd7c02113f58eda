#!/usr/bin/env python3
"""Write the three reference meshes as OBJ files to demos/meshes/, or to
$DUPIN_OUTDIR when it is set (as the command line does).

  fig_torus.obj       stereographic image of the flat torus (alpha = pi/4)
  fig_hyperboloid.obj ball image of the circular hyperboloid (a = 1/2)
  fig_revolution.obj  boosted coset projection: a surface of revolution,
                      singular where the rotating circle meets the axis
"""
import os

import numpy as np

from dupin import liesphere as ls
from dupin import surfaces as srf
from dupin.export import grid_mesh, write_obj
from dupin.surfaces import ParamDomain

outdir = (os.environ.get("DUPIN_OUTDIR")
          or os.path.join(os.path.dirname(os.path.abspath(__file__)), "meshes"))
os.makedirs(outdir, exist_ok=True)

s = srf.pushforward(srf.torus(np.pi / 4, ParamDomain(nu=96, nv=96)), "stereo")
U, V = s.domain.mesh()
mesh = grid_mesh(s.position(U, V), periodic_u=True, periodic_v=True)
write_obj(mesh, os.path.join(outdir, "fig_torus.obj"))
print(f"fig_torus.obj: {len(mesh.vertices)} vertices")

s = srf.pushforward(
    srf.hyperboloid(0.5, ParamDomain(v_range=(-2.0, 2.0), nu=96, nv=64, periodic_v=False)),
    "hyp_stereo",
)
U, V = s.domain.mesh()
mesh = grid_mesh(s.position(U, V), periodic_u=True)
write_obj(mesh, os.path.join(outdir, "fig_hyperboloid.obj"))
print(f"fig_hyperboloid.obj: {len(mesh.vertices)} vertices")

out = ls.fig7_pipeline(1.0, np.linspace(-8, 8, 65), np.linspace(-8, 8, 65))
mesh = grid_mesh(out["points"], flags=out["singular_mask"])
write_obj(mesh, os.path.join(outdir, "fig_revolution.obj"))
print(f"fig_revolution.obj: {len(mesh.vertices)} vertices, "
      f"{out['singular_count']} singular points flagged")
