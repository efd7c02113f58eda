"""Golden outputs of every README command line at small grids.

Each case runs ``dupin-cli`` and compares its OBJ and JSON report with the
files in ``tests/golden/``: each vertex coordinate to one unit in the last of
the 12 significant digits ``%.12g`` prints, and at least 1e-12, face lists
exactly, reports structurally (same keys, lists and non-float values; floats
at 1e-12 absolute plus 1e-9 relative).

The ``verify all`` report is compared the same way, which pins C, the order
residuals and every other value it records.

Re-capture the files (only after a deliberate output change) with

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

where each CASE is a key of ``CASES`` or ``verify_all``; with no arguments
every case is run.  A file is rewritten only when the new output differs
from it beyond the tolerances above, and a rewritten report keeps every
check (and every other record of plain values) that still matches, so
round-off of another machine does not churn the golden files.
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from dupin.cli import main

from conftest import read_obj

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


def print_quantum(x):
    """One unit in the 12th significant digit of each entry of x, the last
    digit `%.12g` prints, and at least 1e-12: a coordinate that is 0 up to
    round-off, such as 2e-16 on the orbit cylinder's axis, has no digits."""
    exponents = np.array([int(f"{c:.11e}".split("e")[1]) for c in x.ravel()], dtype=float)
    return np.maximum(np.where(x == 0, 0.0, 10.0 ** (exponents.reshape(x.shape) - 11)), 1e-12)


def assert_same_obj(got, want):
    verts, faces = read_obj(got)
    want_verts, want_faces = read_obj(want)
    assert verts.shape == want_verts.shape
    # a last printed digit may round the other way; the 0.1% covers the binary
    # rounding of the two decimals, which is under 3e-4 of a unit
    assert np.all(np.abs(verts - want_verts) <= 1.001 * print_quantum(want_verts))
    assert faces == want_faces


def assert_same_report(got, want):
    with open(got) as fh, open(want) as gh:
        assert_same_structure(json.load(fh), json.load(gh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, monkeypatch):
    obj, report = run_case(name, tmp_path, monkeypatch)
    assert_same_obj(obj, os.path.join(GOLDEN, f"{name}.obj"))
    assert_same_report(report, os.path.join(GOLDEN, f"{name}.report.json"))


def test_verify_all_matches_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("DUPIN_CONFIG", raising=False)
    monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "all", "--out", VERIFY_ALL]) == 0
    assert_same_report(tmp_path / VERIFY_ALL, os.path.join(GOLDEN, VERIFY_ALL))


def matches(got, want):
    try:
        assert_same_structure(got, want)
    except AssertionError:
        return False
    return True


def by_name(items):
    """``{name: record}`` for a list of records with distinct ``name`` keys,
    such as a report's checks; None for any other list."""
    names = [x.get("name") if isinstance(x, dict) else None for x in items]
    if None in names or len(set(names)) != len(names):
        return None
    return dict(zip(names, items))


def keep_golden(got, want):
    """``got`` with each part that matches ``want`` replaced by ``want``'s.
    Records of plain values, such as one check, are kept or replaced whole.
    Lists of named records are matched by name, so a check added, removed or
    moved leaves the others as they were; other lists match by position."""
    if matches(got, want):
        return want
    nested = lambda items: any(isinstance(x, (dict, list)) for x in items)
    if isinstance(got, dict) and isinstance(want, dict) and sorted(got) == sorted(want) \
            and nested(got.values()):
        return {k: keep_golden(got[k], want[k]) for k in got}
    if isinstance(got, list) and isinstance(want, list) and nested(got):
        old = by_name(want) if by_name(got) is not None else None
        if old is not None:
            return [keep_golden(g, old[g["name"]]) if g["name"] in old else g for g in got]
        if len(got) == len(want):
            return [keep_golden(g, w) for g, w in zip(got, want)]
    return got


def capture_report(got, want):
    """Write the report ``got`` over the golden ``want`` as ``keep_golden``
    merges them; returns whether ``want`` changed."""
    with open(got) as fh:
        new = json.load(fh)
    old = None
    if os.path.exists(want):
        with open(want) as fh:
            old = json.load(fh)
        new = keep_golden(new, old)
    if new == old:
        return False
    with open(want, "w") as fh:
        fh.write(json.dumps(new, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return True


def capture_obj(got, want):
    """Copy the OBJ ``got`` over ``want`` unless it matches; returns whether
    ``want`` changed."""
    try:
        assert_same_obj(got, want)
    except (AssertionError, OSError):
        shutil.copyfile(got, want)
        return True
    return False


def capture(names, golden=GOLDEN):
    """Run each case in a scratch directory, which becomes the working and
    output directory, and write into ``golden`` only the files that are
    missing there or differ beyond the tolerances the tests apply; returns
    the names of the files written."""
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        os.environ.pop("DUPIN_CONFIG", None)
        os.environ["DUPIN_OUTDIR"] = tmp
        os.chdir(tmp)
        for case in names:
            if case == "verify_all":
                main(["verify", "all", "--out", VERIFY_ALL])
                outputs = [(VERIFY_ALL, capture_report)]
            else:
                run_case(case, tmp)
                outputs = [(f"{case}.obj", capture_obj),
                           (f"{case}.report.json", capture_report)]
            for fname, write in outputs:
                if write(os.path.join(tmp, fname), os.path.join(golden, fname)):
                    written.append(fname)
    return written


@pytest.mark.parametrize("perturb", [0.0, 1e-6])
def test_capture_rewrites_only_changed_files(perturb, tmp_path, monkeypatch):
    # a second capture of an unchanged case rewrites nothing; a report value
    # moved beyond the tolerance is rewritten, and only that file and check
    monkeypatch.delenv("DUPIN_CONFIG", raising=False)
    monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    golden = tmp_path / "golden"
    golden.mkdir()
    name = "gen_cylinder"
    for fname in (f"{name}.obj", f"{name}.report.json"):
        shutil.copyfile(os.path.join(GOLDEN, fname), golden / fname)
    report = golden / f"{name}.report.json"
    rep = json.loads(report.read_text())
    rep["checks"][0]["value"] += perturb
    report.write_text(json.dumps(rep, indent=2))
    before = {p.name: p.read_bytes() for p in golden.iterdir()}
    written = capture([name], str(golden))
    assert written == ([f"{name}.report.json"] if perturb else [])
    after = {p.name: p.read_bytes() for p in golden.iterdir()}
    assert after[f"{name}.obj"] == before[f"{name}.obj"]
    assert (after[report.name] == before[report.name]) == (not perturb)
    new = json.loads(after[report.name])
    assert new["checks"][0]["value"] == 0.0
    assert new["checks"][1:] == rep["checks"][1:]


@pytest.mark.parametrize("want, got, same", [
    ("1.23456789012", "1.23456789013", True),     # one unit of the 12th digit
    ("1.23456789012", "1.23456789014", False),    # two units
    ("9.99999999999", "10", True),
    ("123456.789012", "123456.789013", True),     # a unit of 1e-6
    ("0.0123456789012", "0.0123456789022", True),  # 1e-12, the floor
    ("0.0123456789012", "0.0123456789032", False),
    ("2.01192029e-16", "3.13258663e-17", True),   # 0 up to round-off
    ("0", "1e-12", True),
    ("0", "2e-12", False),
])
def test_obj_vertices_to_one_printed_unit(want, got, same, tmp_path):
    paths = []
    for name, x in (("want", want), ("got", got)):
        paths.append(tmp_path / f"{name}.obj")
        paths[-1].write_text(f"# vertices: 1 faces: 0\nv {x} 0 -1\n")
    try:
        assert_same_obj(paths[1], paths[0])
    except AssertionError:
        assert not same
    else:
        assert same


def test_keep_golden_keeps_matching_records():
    want = {"checks": [{"name": "a", "value": 1.0}, {"name": "b", "value": 2.0}],
            "passed": True}
    got = {"checks": [{"name": "a", "value": 1.0 + 1e-13},
                      {"name": "b", "value": 3.0, "tolerance": 1.0}],
           "passed": False}
    merged = keep_golden(got, want)
    assert merged["checks"][0] is want["checks"][0]  # within tolerance: kept
    assert merged["checks"][1] is got["checks"][1]   # a changed record: replaced whole
    assert merged["passed"] is False
    assert keep_golden(want, want) is want


def test_keep_golden_matches_checks_by_name():
    # a check inserted into verify all's report keeps every other check by
    # identity, even where the new run moved it by round-off
    with open(os.path.join(GOLDEN, VERIFY_ALL)) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps(want))
    for check in got["checks"]:
        if isinstance(check.get("value"), float):
            check["value"] *= 1.0 + 1e-14
    new = {"name": "inserted", "value": 0.5, "tolerance": 1.0, "passed": True}
    got["checks"].insert(len(got["checks"]) // 2, new)
    merged = keep_golden(got, want)
    assert len(merged["checks"]) == len(want["checks"]) + 1
    kept = [c for c in merged["checks"] if c is not new]
    assert len(kept) == len(want["checks"]) and new in merged["checks"]
    assert all(k is w for k, w in zip(kept, want["checks"]))
    # a check that really moved is replaced whole, and a removed one is gone
    got["checks"][0]["value"] += 1.0
    del got["checks"][-1]
    merged = keep_golden(got, want)
    old = {c["name"]: c for c in want["checks"]}
    assert merged["checks"][0] is got["checks"][0]
    assert all(c is old[c["name"]] for c in merged["checks"][1:] if c is not new)
    assert [c["name"] for c in merged["checks"]] == [c["name"] for c in got["checks"]]


if __name__ == "__main__":
    names = sys.argv[1:] or [*CASES, "verify_all"]
    unknown = sorted(set(names) - {*CASES, "verify_all"})
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    os.makedirs(GOLDEN, exist_ok=True)
    written = capture(names)
    print("rewrote " + (", ".join(written) if written else "nothing"))
    sys.exit(0)
