"""Golden outputs of every README command line at small grids.

Each case runs ``dupin-cli`` and compares its OBJ and JSON report with the
files in ``tests/golden/``: vertices at 1e-12, face lists exactly, reports
structurally (same keys, lists and non-float values; floats at 1e-12 absolute
plus 1e-9 relative).

The ``verify all`` report is compared the same way, which pins C, the order
residuals and every other value it records.

Re-capture the files (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

where each CASE is a key of ``CASES`` or ``verify_all``; with no arguments
every file is re-captured.
"""

import json
import os
import sys

import numpy as np
import pytest

from dupin.cli import main
from dupin.export import read_obj

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "gen_torus_stereo": ["gen", "torus", "--alpha", "0.7853981634", "--project", "stereo",
                         "--grid", "16x16"],
    "gen_hyperboloid_hyp_stereo": ["gen", "hyperboloid", "--a", "0.5", "--project",
                                   "hyp_stereo", "--grid", "16x12"],
    "gen_cylinder": ["gen", "cylinder", "--radius", "1", "--grid", "12x8"],
    "orbit_torus": ["orbit", "--C", "0", "--grid", "16x16"],
    "orbit_cylinder": ["orbit", "--C", "1", "--grid", "16x16"],
    "orbit_hyperboloid": ["orbit", "--C", "1.6667", "--grid", "16x16"],
    "orbit_hyperboloid_negative": ["orbit", "--C", "-1.6667", "--grid", "16x12"],
    "fig7_t1": ["fig7", "--t", "1", "--grid", "17x17"],
    "fig7_t0": ["fig7", "--t", "0", "--grid", "9x9"],
}


VERIFY_ALL = "verify_all.report.json"


def run_case(name, outdir, monkeypatch=None):
    env = {"DUPIN_OUTDIR": str(outdir)}
    if monkeypatch is not None:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
        monkeypatch.delenv("DUPIN_CONFIG", raising=False)
        monkeypatch.chdir(outdir)
    assert main(CASES[name] + ["--out", f"{name}.obj"]) == 0
    return os.path.join(outdir, f"{name}.obj"), os.path.join(outdir, f"{name}.report.json")


def assert_same_structure(got, want, path="report"):
    if isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_same_structure(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_structure(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, monkeypatch):
    obj, report = run_case(name, tmp_path, monkeypatch)
    verts, faces = read_obj(obj)
    want_verts, want_faces = read_obj(os.path.join(GOLDEN, f"{name}.obj"))
    assert verts.shape == want_verts.shape
    assert np.max(np.abs(verts - want_verts), initial=0.0) <= 1e-12
    assert faces == want_faces
    with open(report) as fh, open(os.path.join(GOLDEN, f"{name}.report.json")) as gh:
        assert_same_structure(json.load(fh), json.load(gh))


def test_verify_all_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("DUPIN_CONFIG", raising=False)
    monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "all", "--out", VERIFY_ALL]) == 0
    with open(tmp_path / VERIFY_ALL) as fh, open(os.path.join(GOLDEN, VERIFY_ALL)) as gh:
        assert_same_structure(json.load(fh), json.load(gh))


if __name__ == "__main__":
    names = sys.argv[1:] or [*CASES, "verify_all"]
    unknown = sorted(set(names) - {*CASES, "verify_all"})
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    os.environ.pop("DUPIN_CONFIG", None)
    os.makedirs(GOLDEN, exist_ok=True)
    os.environ["DUPIN_OUTDIR"] = GOLDEN
    os.chdir(GOLDEN)
    for case in names:
        if case == "verify_all":
            main(["verify", "all", "--out", VERIFY_ALL])
        else:
            run_case(case, GOLDEN)
    sys.exit(0)
