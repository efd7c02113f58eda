#!/usr/bin/env python3
"""Capture the reference meshes the gate compares the default seed against.

    python3 perfbench/capture_reference.py

Runs every mesh-writing workload once at the default seed, checks its
outputs with the gate (without a reference), and writes
perfbench/reference/seed<N>.json (face counts and digests) and .xz (vertices).
Re-capture only when a change to the program is meant to move the outputs.
"""

from __future__ import annotations

import os
import sys

import gate
import run
import workloads


def main():
    seed = workloads.DEFAULT_SEED
    entries = {}
    for name in workloads.WORKLOADS:
        params = workloads.draw(name, seed)
        ops = workloads.operations(name, params)
        if not any("obj" in op for op in ops):
            continue
        with run.workload_run(name, params, 0, 0, False, 0) as (_, child, first):
            for k, op in enumerate(ops):
                if "obj" not in op:
                    continue
                status = child["iterations"][0]["ops"][k]["status"]
                fails, _ = gate.check_op(op, first, status)
                if fails:
                    sys.exit(f"{name}/{op['name']}: {'; '.join(fails)}")
                V, F, _ = gate.parse_obj(os.path.join(first, op["obj"]))
                entries[op["name"]] = (V, F, op["grid"])
    out = run.HERE / "reference" / f"seed{seed}"
    out.parent.mkdir(exist_ok=True)
    gate.save_reference(str(out), entries)
    print(f"wrote {out}.json and {out}.xz ({len(entries)} meshes)")


if __name__ == "__main__":
    main()
