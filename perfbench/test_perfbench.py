"""Self-tests of the benchmark: smoke runs, the gate, the tracer, the codec.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, section):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    if trace == 0:
        assert "first_iter_s" in proc.stdout and "fail_ratio" in proc.stdout
    for name in workloads.WORKLOADS:
        for m in BENCH[section]:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """First-iteration outputs of a smoke surface_mesh run, with its record."""
    params = workloads.draw("surface_mesh", 5)
    ops = workloads.operations("surface_mesh", params, smoke=True)
    keep = tmp_path_factory.mktemp("first")
    with run.workload_run("surface_mesh", params, 0, 0, True, 0) as (_, child, first):
        for f in os.listdir(first):
            shutil.copy(os.path.join(first, f), keep)
    return ops, child["iterations"], keep


def _fail_ratio(ops, iterations, first_dir, reference):
    fails = [gate.check_op(op, str(first_dir), 0, reference)[0] for op in ops]
    attempted, failed = run.score(ops, iterations, fails)
    return failed / attempted, fails


def _edit_obj(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_gate_fails_a_perturbed_vertex_or_a_dropped_face(smoke_outputs, tmp_path):
    ops, iterations, first = smoke_outputs
    entries = {}
    for op in ops:
        V, F, _ = gate.parse_obj(first / op["obj"])
        entries[op["name"]] = (V, F, op["grid"])
    gate.save_reference(str(tmp_path / "ref"), entries)
    reference = gate.load_reference(str(tmp_path / "ref"))
    ratio, fails = _fail_ratio(ops, iterations, first, reference)
    assert ratio == 0.0, fails

    def perturb(lines):
        k = next(i for i, ln in enumerate(lines) if ln.startswith("v "))
        v = [float(x) for x in lines[k].split()[1:]]
        lines[k] = "v %.12g %.12g %.12g" % (v[0] + 1e-6, v[1], v[2])
        return lines

    def drop_face(lines):
        k = next(i for i, ln in enumerate(lines) if ln.startswith("f "))
        return lines[:k] + lines[k + 1:]

    for edit in (perturb, drop_face):
        copy = tmp_path / edit.__name__
        shutil.copytree(first, copy)
        _edit_obj(copy / ops[1]["obj"], edit)
        ratio, fails = _fail_ratio(ops, iterations, copy, reference)
        assert ratio > 0.0
        assert fails[1] and not fails[0] and not fails[2]


def test_reference_codec_is_within_the_quantum():
    u, v = np.meshgrid(np.linspace(0, 6, 20), np.linspace(-1, 1, 15), indexing="ij")
    V = np.stack([np.cos(u) * 3, np.sin(u) * v, 1e3 * v ** 3], axis=-1).reshape(-1, 3)
    back = gate.decode_vertices(gate.encode_vertices(V, (20, 15)), (20, 15))
    assert np.max(np.abs(back - V)) <= gate.QUANTUM / 2


def test_rescaling_takes_each_operation_at_the_reference_speed():
    ref = run.REFERENCE_S
    # the second iteration ran at half speed: twice the time, twice the kernel time
    records = [{"ops": [{"seconds": 1.0, "cal_s": ref}, {"seconds": 3.0, "cal_s": ref}]},
               {"ops": [{"seconds": 2.0, "cal_s": 2 * ref}, {"seconds": 6.0, "cal_s": 2 * ref}]},
               {"ops": [{"seconds": 1.0, "cal_s": ref}, {"seconds": 3.0, "cal_s": ref}]}]
    assert run.op_median_sum(records, rescale=True) == pytest.approx(4.0)
    assert run.op_median_sum(records[1:2]) == pytest.approx(8.0)


def test_tracer_self_time_and_namespace_rebinding(monkeypatch):
    inner = types.ModuleType("toypkg.inner")
    outer = types.ModuleType("toypkg.outer")
    for mod in (types.ModuleType("toypkg"), inner, outer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    exec("import time\ndef leaf(x):\n    time.sleep(0.02)\n    return x\n", inner.__dict__)
    exec("import time\nfrom toypkg.inner import leaf\n"
         "def top():\n    time.sleep(0.01)\n    return leaf(1) + leaf(2)\n", outer.__dict__)
    t = tracer.Tracer()
    assert t.install("toypkg") == 2
    t.current_iteration = 0
    assert outer.top() == 3
    spans = t.per_iteration()[0]
    assert spans["inner.leaf"][0] == 2 and spans["outer.top"][0] == 1
    assert spans["inner.leaf"][1] >= 0.04
    assert 0.01 <= spans["outer.top"][1] < 0.02


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "surface_mesh", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
