"""The narrative demos 01-04 run to completion as plain scripts.

They call the library the way a reader would (curvature_sphere_params,
dupin_pde_residual, the orbit and coset pipelines), so each one is run in a
subprocess against this checkout's package and must exit with status 0.
demo_05 is left out: it writes meshes into the source tree.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["demo_01_space_forms.py", "demo_02_canonical_surfaces.py",
         "demo_03_moebius_invariant.py", "demo_04_lie_sphere.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join([os.path.join(ROOT, "src")] + sys.path)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
