#!/usr/bin/env python3
"""dupin benchmark: seeded workloads, end-to-end metrics, traced per-layer
metrics and a correctness gate.

    python3 perfbench/run.py --workload surface_mesh --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a fresh interpreter as a single closed-loop client (one
operation at a time, BLAS on one thread), in a scratch
directory inside the checkout with no dupin.cfg, DUPIN_CONFIG unset and
DUPIN_OUTDIR pointing into it.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the untraced loop for half the time, then the traced loop,
and reports the per-layer metrics.  The last line of standard output is one
JSON object; a detailed result file goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402
from tracer import CHARTS  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import dupin, dupin.cli\n"
    "dupin.cli.load_config()\n"
    "print(time.perf_counter() - t)\n"
)
# Exact counts the workload design promises (traced run).
DESIGN_ZEROS = {
    "surface_mesh": "metrics.mat_exp.calls",
    "orbit_mesh": "surfaces.fundamental_forms.calls",
    "frames_verify": "export.write_obj.bytes",
}
NOTE = ("no system-wide profiling: only the benchmark's own processes are measured; "
        "the cores may be shared with other tenants, so timings drift")


class BenchError(RuntimeError):
    pass


def child_env(tmp):
    env = {k: v for k, v in os.environ.items() if k != "DUPIN_CONFIG"}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "DUPIN_OUTDIR": os.path.join(tmp, "out"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


@contextlib.contextmanager
def workload_run(workload, params, seconds, trace, smoke, setup_samples):
    """Measure set-up, run the workload process; yields (set-up samples as
    (seconds, calibration seconds) pairs, child result, directory holding
    the first iteration's outputs)."""
    nproc = len(os.sched_getaffinity(0))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        env = child_env(tmp)
        setup = []
        cal_before = calibrate() if setup_samples else None
        for _ in range(setup_samples):
            out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=tmp, env=env,
                                 capture_output=True, text=True, timeout=60)
            if out.returncode != 0:
                raise BenchError(f"set-up failed:\n{out.stderr[-2000:]}")
            cal_after = calibrate()
            setup.append((float(out.stdout.split()[-1]), (cal_before + cal_after) / 2))
            cal_before = cal_after
        spec = {"workload": workload, "params": params, "seconds": seconds, "trace": trace,
                "smoke": smoke, "src": str(ROOT / "src")}
        spec_path, result_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "result.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), spec_path, result_path],
                              cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"workload process failed:\n{proc.stderr[-3000:]}")
        with open(result_path) as fh:
            child = json.load(fh)
        child["nproc"] = nproc
        yield setup, child, os.path.join(tmp, "first")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def op_median_sum(records, rescale=False):
    """Typical iteration time: the sum over operations of each operation's
    median time, which one slow burst in one iteration does not move.  With
    ``rescale``, each operation's time is first rescaled to the speed at
    which the calibration kernel takes ``calibrate.REFERENCE_S``."""
    def secs(e):
        return e["seconds"] * REFERENCE_S / e["cal_s"] if rescale else e["seconds"]

    return sum(statistics.median(secs(r["ops"][k]) for r in records)
               for k in range(len(records[0]["ops"])))


def score(ops, iterations, gate_fails):
    """(attempted, failed): an operation fails when it exits wrongly, its
    outputs fail the gate, or they differ from the first iteration's bytes."""
    attempted = failed = 0
    first = iterations[0]["ops"]
    for rec in iterations:
        for k, entry in enumerate(rec["ops"]):
            attempted += 1
            failed += bool(entry["status"] != 0 or entry.get("digest") is None
                           or entry["digest"] != first[k].get("digest") or gate_fails[k])
    return attempted, failed


# --- per-layer metrics ---------------------------------------------------------

def _self(prefix):
    return lambda it: sum(v[1] for k, v in it.items() if k.startswith(prefix))


def _calls(name):
    return lambda it: it.get(name, (0, 0.0, 0.0))[0]


def _secs(name):
    return lambda it: it.get(name, (0, 0.0, 0.0))[1]


def _work(name):
    return lambda it: it.get(name, (0, 0.0, 0.0))[2]


def _charts(index):
    return lambda it: sum(it.get(n, (0, 0.0, 0.0))[index] for n in CHARTS)


def _points_per_vertex(it):
    classified = _work("surfaces.classify")(it)
    return _work("surfaces.fundamental_forms")(it) / classified if classified else 0.0


LAYERS = [
    ("metrics.mat_exp.calls", "count", _calls("metrics.mat_exp")),
    ("metrics.mat_exp.matrices", "count", _work("metrics.mat_exp")),
    ("metrics.mat_exp.self_s", "s", _secs("metrics.mat_exp")),
    ("metrics.projective_normalize.self_s", "s", _secs("metrics.projective_normalize")),
    ("spaceforms.charts.self_s", "s", _charts(1)),
    ("spaceforms.charts.points", "count", _charts(2)),
    ("surfaces.fundamental_forms.calls", "count", _calls("surfaces.fundamental_forms")),
    ("surfaces.fundamental_forms.points", "count", _work("surfaces.fundamental_forms")),
    ("surfaces.fundamental_forms.self_s", "s", _secs("surfaces.fundamental_forms")),
    ("surfaces.fundamental_forms.points_per_vertex", "ratio", _points_per_vertex),
    ("surfaces.principal_curvatures.self_s", "s", _secs("surfaces.principal_curvatures")),
    ("surfaces.classify.self_s", "s", _secs("surfaces.classify")),
    ("surfaces.euclidean_best_frame.self_s", "s", _secs("surfaces.euclidean_best_frame")),
    ("frames.integrate_mc.self_s", "s", _secs("frames.integrate_mc")),
    ("frames.pullback_mc.calls", "count", _calls("frames.pullback_mc")),
    ("frames.pullback_mc.self_s", "s", _secs("frames.pullback_mc")),
    ("frames.grid_gradient.calls", "count", _calls("frames.grid_gradient")),
    ("frames.grid_gradient.self_s", "s", _secs("frames.grid_gradient")),
    ("frames.structure_residual.self_s", "s", _secs("frames.structure_residual")),
    ("moebius.hc_orbit.self_s", "s", _secs("moebius.hc_orbit")),
    ("moebius.canonical_best_frame.self_s", "s", _secs("moebius.canonical_best_frame")),
    ("moebius.frame_order_check.self_s", "s", _secs("moebius.frame_order_check")),
    ("moebius.hc_basis.calls", "count", _calls("moebius.hc_basis")),
    ("liesphere.coset_orbit.self_s", "s", _secs("liesphere.coset_orbit")),
    ("liesphere.coset_orbit.points", "count", _work("liesphere.coset_orbit")),
    ("liesphere.fig7_pipeline.self_s", "s", _secs("liesphere.fig7_pipeline")),
    ("liesphere.legendre_dupin_test.self_s", "s", _secs("liesphere.legendre_dupin_test")),
    ("liesphere.best_lie_frame_check.self_s", "s", _secs("liesphere.best_lie_frame_check")),
    ("export.grid_mesh.self_s", "s", _secs("export.grid_mesh")),
    ("export.grid_mesh.faces", "count", _work("export.grid_mesh")),
    ("export.write_obj.self_s", "s", _secs("export.write_obj")),
    ("export.write_obj.bytes", "bytes", _work("export.write_obj")),
    ("export.write_report.self_s", "s", _secs("export.write_report")),
    ("export.write_report.bytes", "bytes", _work("export.write_report")),
    # the verify and cli layers: every function of the module, not only its entry point
    ("verify.run_suite.self_s", "s", _self("verify.")),
    ("cli.main.self_s", "s", _self("cli.")),
]


# --- one workload ---------------------------------------------------------------

def provenance(child):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                 text=True, timeout=30, env=git_env)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    lines = sum(p.read_text().count("\n") for p in sorted((ROOT / "src" / "dupin").glob("*.py")))
    return {
        "nproc": child["nproc"],
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"],
        "scipy": child["versions"]["scipy"],
        "blas": child["versions"]["blas"],
        "blas_threads": child["blas_threads"],
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_dupin_lines": lines,
        "note": NOTE,
    }


def measure(workload, seed, seconds, trace, smoke):
    params = workloads.draw(workload, seed)
    ops = workloads.operations(workload, params, smoke)
    reference = None
    if seed == workloads.DEFAULT_SEED and not smoke:
        reference = gate.load_reference(str(HERE / "reference" / f"seed{seed}"))
    setup_samples = 0 if trace else SETUP_SAMPLES
    with workload_run(workload, params, seconds, trace, smoke, setup_samples) as (setup, child, first):
        checked = [gate.check_op(op, first, child["iterations"][0]["ops"][k]["status"], reference)
                   for k, op in enumerate(ops)]
    iterations = child["iterations"]
    gate_fails = [fails for fails, _ in checked]
    attempted, failed = score(ops, iterations, gate_fails)
    warm = [r for r in iterations if r["phase"] == "warm"]
    out = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "seconds": seconds, "params": params,
        "operations": [op.get("argv", op["name"]) for op in ops],
        "client": "closed loop, 1 client, 1 operation at a time",
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "gate_failures": {op["name"]: f for op, f in zip(ops, gate_fails) if f},
        "reports_passed": {op["name"]: p for op, (_, p) in zip(ops, checked) if p is not None},
        "reference_compared": reference is not None,
        "iterations": [{"phase": r["phase"], "wall_s": r["wall_s"],
                        "ops_s": {e["name"]: e["seconds"] for e in r["ops"]},
                        "ops_cal_s": {e["name"]: e["cal_s"] for e in r["ops"]}}
                       for r in iterations],
        "provenance": provenance(child),
    }
    metrics = {}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(secs * REFERENCE_S / cal for secs, cal in setup), "s"),
            "wall_ref_s": (op_median_sum(warm, rescale=True), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        # Printed and recorded, but not among the bounded metrics of
        # BENCHMARK.json: wall_s drifts with the speed of the shared cores,
        # and first_iter_s is one sample per run.
        out["wall_s"] = op_median_sum(warm)
        out["first_iter_s"] = iterations[0]["wall_s"]
        out["samples"] = {"setup_s": [secs for secs, _ in setup],
                          "setup_cal_s": [cal for _, cal in setup],
                          "wall_s": [r["wall_s"] for r in warm]}
    else:
        spans = child["spans"]
        traced = [r for r in iterations if r["phase"] == "traced"]
        per_it = [spans.get(str(i), {}) for i, r in enumerate(iterations)
                  if r["phase"] == "traced"]
        for name, unit, fn in LAYERS:
            metrics[name] = (statistics.median(fn(it) for it in per_it), unit)
        metrics["trace.overhead_s"] = (op_median_sum(traced, rescale=True)
                                       - op_median_sum(warm, rescale=True), "s")
        zero_name = DESIGN_ZEROS[workload]
        zero_fn = next(fn for name, _, fn in LAYERS if name == zero_name)
        out["design_check"] = {zero_name: [zero_fn(it) for it in per_it]}
        out["design_ok"] = all(zero_fn(it) == 0 for it in per_it)
        out["counts_repeat"] = all(
            len({fn(it) for it in per_it}) == 1 for _, unit, fn in LAYERS if unit != "s")
        out["span_count"] = child["span_count"]
        out["samples"] = {"wall_s": [r["wall_s"] for r in warm],
                          "traced_wall_s": [r["wall_s"] for r in traced]}
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["correct"] = failed == 0 and out.get("design_ok", True)
    return out


def print_summary(res, path):
    p = res["provenance"]
    print(f"{res['workload']}: seed {res['seed']}, trace {res['trace']}, params "
          f"{json.dumps(res['params'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:46s} {m['value']:.6g} {m['unit']}")
    n = len(res["samples"]["wall_s"])
    if "first_iter_s" in res:
        print(f"  {'wall_s':46s} {res['wall_s']:.6g} s (as measured, not bounded)")
        print(f"  {'first_iter_s':46s} {res['first_iter_s']:.6g} s (one sample, not bounded)")
    print(f"  {'fail_ratio':46s} {res['fail_ratio']:.6g} ratio "
          f"({res['failed']}/{res['attempted']} operations; {n} warm iterations)")
    for op, fails in res["gate_failures"].items():
        print(f"  FAIL {op}: {'; '.join(fails)}")
    if "design_ok" in res:
        print(f"  design check {res['design_check']}: {'ok' if res['design_ok'] else 'VIOLATED'}")
    print(f"  reports passed: {json.dumps(res['reports_passed'])}")
    print(f"  {p['nproc']} cores ({p['cpu_model']}), python {p['python']}, numpy {p['numpy']}, "
          f"scipy {p['scipy']}, {p['blas']} with {p['blas_threads']} threads, commit "
          f"{p['git_commit']} (dirty: {p['git_dirty']}), src/dupin {p['src_dupin_lines']} lines")
    print(f"  note: {p['note']}")
    print(f"  result file: {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny grids, for the self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dupin" / "__init__.py").is_file():
        print(f"error: no dupin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace, args.smoke)
            path = outdir / f"{name}.trace{args.trace}{'.smoke' if args.smoke else ''}.json"
            path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
            print_summary(res, path)
            results.append(res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + k: v
               for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
