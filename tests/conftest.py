"""Helpers shared by the test modules."""

import tracemalloc


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
