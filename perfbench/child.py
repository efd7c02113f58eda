"""The workload process: runs one workload's operation list in a closed loop.

Started by run.py in a fresh interpreter, in a scratch working directory, as
``python3 child.py SPEC.json RESULT.json``.  One operation runs at a time, on
the calling thread.  Iteration times cover the operations only; digests,
copies of the first iteration's outputs and the gate's observations are taken
between operations, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import workloads
from calibrate import calibrate


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_op(op, params, cli):
    """Run one operation; returns (exit code or error text, seconds, raw)."""
    raw = None
    t0 = time.perf_counter()
    try:
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(list(op["argv"]))
        else:
            raw = workloads.run_library_op(op, params)
            status = 0
    except SystemExit as exc:
        status = exc.code
    except Exception:  # the loop must go on; the gate counts the failure
        status = traceback.format_exc(limit=4)
    return status, time.perf_counter() - t0, raw


def run_iteration(ops, params, cli, outdir, keep_dir):
    """Run the operation list once.  Each operation sits between two runs of
    the calibration kernel; their mean is the operation's ``cal_s``."""
    record = {"wall_s": 0.0, "ops": []}
    cal_before = calibrate()
    for op in ops:
        status, secs, raw = run_op(op, params, cli)
        cal_after = calibrate()
        record["wall_s"] += secs
        entry = {"name": op["name"], "status": status, "seconds": secs,
                 "cal_s": (cal_before + cal_after) / 2}
        cal_before = cal_after
        if op["kind"] == "cli":
            files = [os.path.join(outdir, op[k]) for k in ("obj", "report") if k in op]
            present = [p for p in files if os.path.exists(p)]
            entry["digest"] = _digest(present) if len(present) == len(files) else None
            if keep_dir:
                for p in present:
                    shutil.copy(p, keep_dir)
        elif raw is not None:
            entry["digest"], obs = workloads.observe_library_op(op, raw)
            if keep_dir:
                with open(os.path.join(keep_dir, op["name"] + ".json"), "w") as fh:
                    json.dump(obs, fh, sort_keys=True)
        record["ops"].append(entry)
    return record


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb():
    """Peak resident memory of this process.  VmHWM belongs to the address
    space exec created; ru_maxrss would also carry the parent's peak over
    from the fork."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import dupin
    import dupin.cli as cli

    if not os.path.abspath(dupin.__file__).startswith(os.path.abspath(spec["src"])):
        raise SystemExit(f"dupin imported from {dupin.__file__}, not from {spec['src']}")

    params, seconds = spec["params"], spec["seconds"]
    ops = workloads.operations(spec["workload"], params, spec["smoke"])
    outdir = os.environ["DUPIN_OUTDIR"]
    keep_dir = os.path.abspath("first")
    os.makedirs(keep_dir, exist_ok=True)

    iterations = []
    tracer = None
    start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - start

    first = run_iteration(ops, params, cli, outdir, keep_dir)
    first["phase"] = "first"
    iterations.append(first)
    # Untraced warm iterations fill the run (half of it when tracing), then
    # traced ones fill the rest.  Medians need at least three samples of the
    # reported kind, so that one slow burst cannot move them.
    untraced_until = seconds / 2 if spec["trace"] else seconds
    min_warm = 2 if spec["trace"] else 3
    while elapsed() < untraced_until or len(iterations) <= min_warm:
        rec = run_iteration(ops, params, cli, outdir, None)
        rec["phase"] = "warm"
        iterations.append(rec)
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        n_traced = 0
        while elapsed() < seconds or n_traced < 3:
            tracer.current_iteration = len(iterations)
            rec = run_iteration(ops, params, cli, outdir, None)
            rec["phase"] = "traced"
            iterations.append(rec)
            n_traced += 1

    result = {
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
        "versions": versions(),
    }
    if tracer is not None:
        result["spans"] = {str(k): v for k, v in tracer.per_iteration().items()}
        result["span_count"] = len(tracer.start)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
