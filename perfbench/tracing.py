"""Per-layer tracing of one levikit run, from outside the package.

``Tracer.install`` rebinds every traced function in every ``levikit`` module
namespace that holds it (``classify`` imports ``deterministic_map`` by name,
for example), and gives each ``levikit`` module a copy of ``numpy`` whose
``linalg`` functions are traced, since levikit reaches them as
``np.linalg.*``.  Each call records one span (function, id, parent id,
start, end) in a per-thread buffer; spans stay in memory and are aggregated
into calls and self time when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Spans opened on a worker thread have as parent the span open
on the main thread, which is ``sampling.deterministic_map``; their intervals
overlap, so the covered part is the union of the children's intervals.
Self times of spans on worker threads add up per layer, so with a thread
pool the layers together can hold more time than the run's wall time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "expr", "calculus", "domains", "classify", "sampling",
          "hulls", "report")

# Tree constructors are left untraced, so building a tree counts as self
# time of whoever builds it: ``parse`` or ``wirtinger`` (derivative trees).
_UNTRACED = {
    "expr": {"const", "var", "add", "sub", "mul", "div", "neg", "power",
             "conj", "re_", "im_", "abs_", "abs2", "ln", "exp_"},
}

_LINALG = ("eigh", "eigvalsh", "norm")

# functions reported together under one metric name
_MERGED = {"domains.interior_sample_rng": "domains.interior_sample",
           "linalg.eigvalsh": "linalg.eigh"}


class _Buffer:
    """Spans of one thread, in columns."""

    def __init__(self, thread_index: int):
        self.thread = thread_index
        self.stack: list[int] = []
        self.fids = array("i")
        self.sids = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.skipped_rays = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn, on_result=None):
        fid = len(self.names)
        self.names.append(name)
        ids = self._ids
        main = self._main
        get_buffer = self._buffer

        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                # a worker thread: the main thread is waiting in the map
                outer = main.stack
                parent = outer[-1] if outer else -1
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.fids.append(fid)
                buf.sids.append(sid)
                buf.parents.append(parent)
                buf.starts.append(start)
                buf.ends.append(end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_skipped_rays(self, samples):
        self.skipped_rays += samples.skipped_rays

    def install(self) -> None:
        """Trace the public functions of every layer module and np.linalg."""
        import levikit.cli  # noqa: F401  (imports every layer module)

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"levikit.{layer}"]
            skip = _UNTRACED.get(layer, set())
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    hook = (self._count_skipped_rays
                            if (layer, name) == ("domains", "boundary_sample")
                            else None)
                    replace[id(fn)] = self.wrap(f"{layer}.{name}", fn, hook)

        linalg = types.ModuleType(np.linalg.__name__)
        linalg.__dict__.update(np.linalg.__dict__)
        for name in _LINALG:
            setattr(linalg, name, self.wrap(f"linalg.{name}",
                                            getattr(np.linalg, name)))
        traced_np = types.ModuleType(np.__name__)
        traced_np.__dict__.update(np.__dict__)
        traced_np.linalg = linalg

        for modname, mod in list(sys.modules.items()):
            if modname != "levikit" and not modname.startswith("levikit."):
                continue
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
                elif value is np:
                    setattr(mod, name, traced_np)

    def spans(self) -> dict:
        """All spans as numpy columns, with self times."""
        bufs = self._buffers
        fid = np.concatenate([np.frombuffer(b.fids, dtype=np.int32)
                              for b in bufs]).astype(np.int64)
        sid = np.concatenate([np.frombuffer(b.sids, dtype=np.int64) for b in bufs])
        parent = np.concatenate([np.frombuffer(b.parents, dtype=np.int64)
                                 for b in bufs])
        start = np.concatenate([np.frombuffer(b.starts) for b in bufs])
        end = np.concatenate([np.frombuffer(b.ends) for b in bufs])
        thread = np.concatenate([np.full(len(b.sids), b.thread) for b in bufs])
        duration = end - start

        row = np.full(int(sid.max()) + 1 if len(sid) else 0, -1, dtype=np.int64)
        row[sid] = np.arange(len(sid))
        has_parent = parent >= 0
        parent_row = np.where(has_parent, row[np.maximum(parent, 0)], -1)
        same = has_parent & (thread == thread[np.maximum(parent_row, 0)])
        covered = np.zeros(len(sid))
        # children on the parent's thread run one after another
        np.add.at(covered, parent_row[same], duration[same])
        # children on worker threads overlap: cover their union
        cross = np.flatnonzero(has_parent & ~same)
        for prow in np.unique(parent_row[cross]):
            kids = cross[parent_row[cross] == prow]
            lo = np.maximum(start[kids], start[prow])
            hi = np.minimum(end[kids], end[prow])
            order = np.argsort(lo)
            reach = start[prow]
            for a, b in zip(lo[order], hi[order]):
                if b > reach:
                    covered[prow] += b - max(a, reach)
                    reach = b
        return {"fid": fid, "start": start, "end": end,
                "self": duration - covered}

    def metrics(self) -> dict:
        """Calls and self seconds per traced function and per layer.

        Keys are ``<layer>.<function>.calls`` and ``.self_s`` over the whole
        repetition (config loading and the checks after the run included),
        ``<layer>.self_s`` over the ``cli.run_command`` span only, and
        ``trace.spans``; ``run_window_self_s`` is the self time of every
        span inside ``cli.run_command``.
        """
        sp = self.spans()
        names = [_MERGED.get(n, n) for n in self.names]
        out: dict = {"trace.spans": float(len(sp["fid"]))}
        calls = np.bincount(sp["fid"], minlength=len(names))
        self_s = np.bincount(sp["fid"], weights=sp["self"], minlength=len(names))
        for name, c, s in zip(names, calls, self_s):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + float(c)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + float(s)

        runs = np.flatnonzero(sp["fid"] == self.names.index("cli.run_command"))
        if len(runs) != 1:
            raise RuntimeError(f"expected one cli.run_command span, got {len(runs)}")
        r = runs[0]
        inside = (sp["start"] >= sp["start"][r]) & (sp["end"] <= sp["end"][r])
        layer_of = np.array([n.split(".")[0] for n in self.names])[sp["fid"]]
        for layer in LAYERS + ("linalg",):
            out[f"{layer}.self_s"] = float(
                np.sum(sp["self"][inside & (layer_of == layer)]))
        out["run_window_self_s"] = float(np.sum(sp["self"][inside]))
        out["domains.boundary_sample.skipped_rays"] = float(self.skipped_rays)
        return out
