"""Helpers shared by the test modules."""

import tracemalloc

import numpy as np


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
