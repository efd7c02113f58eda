"""Outside-in span tracer for the dupin package.

``Tracer.install()`` replaces every public function of every loaded dupin
module, in every dupin module namespace that binds it, by a wrapper that
records a span: name, start, end, parent span, iteration and a work count.
Rebinding each namespace matters because modules import names directly
(``frames`` does ``from .metrics import mat_exp``, ``cli`` imports
``grid_mesh`` and ``write_obj``); a module's calls to its own functions go
through its globals and are caught the same way.

Spans are kept in flat in-memory arrays while the workload runs and are only
reduced to per-layer totals at the end.  A span's self time is its duration
minus the durations of its direct child spans (calls are strictly nested,
since the workload process is single-threaded).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np


def _leading(x, trailing):
    shape = np.shape(x)
    return int(np.prod(shape[:len(shape) - trailing])) if len(shape) >= trailing else 0


def _file_bytes(args):
    path = args[1]
    return os.path.getsize(path) if os.path.exists(path) else 0


CHARTS = ("spaceforms.stereo", "spaceforms.stereo_inv", "spaceforms.hyp_stereo",
          "spaceforms.hyp_stereo_inv", "spaceforms.moebius_to_sphere",
          "spaceforms.moebius_to_euclidean", "spaceforms.moebius_to_hyperbolic",
          "spaceforms.embed_moebius")

# Work counted per span, from the call's arguments and result.
WORK = {
    "metrics.mat_exp": lambda a, r: _leading(a[0], 2),
    "surfaces.fundamental_forms": lambda a, r: int(np.broadcast(a[1], a[2]).size),
    "surfaces.classify": lambda a, r: a[0].domain.nu * a[0].domain.nv,
    "liesphere.coset_orbit": lambda a, r: len(a[1]) * len(a[2]),
    "export.grid_mesh": lambda a, r: len(r.faces),
    "export.write_obj": lambda a, r: _file_bytes(a),
    "export.write_report": lambda a, r: _file_bytes(a),
    **{name: (lambda a, r: _leading(a[0], 1)) for name in CHARTS},
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self.work = array("d")
        self._stack = []
        self.current_iteration = -1

    def _wrap(self, fn):
        name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        work = WORK.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.iteration.append(self.current_iteration)
            self.end.append(0.0)
            self.work.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                self.work[idx] = work(args, result)
            return result

        return traced

    def install(self, package="dupin"):
        """Wrap every public function of the loaded package modules."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def per_iteration(self):
        """{iteration: {span name: (calls, self seconds, work)}} from the spans."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        it = np.frombuffer(self.iteration, dtype=np.int32)
        work = np.frombuffer(self.work)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        out = {}
        for i in np.unique(it):
            sel = it == i
            calls = np.bincount(nid[sel], minlength=len(self.names))
            secs = np.bincount(nid[sel], weights=self_s[sel], minlength=len(self.names))
            wk = np.bincount(nid[sel], weights=work[sel], minlength=len(self.names))
            out[int(i)] = {name: (int(calls[k]), float(secs[k]), float(wk[k]))
                           for k, name in enumerate(self.names) if calls[k]}
        return out
