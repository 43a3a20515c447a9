"""Span tracer that wraps tuckersketch's public functions from outside.

While a root span is open, every public function of the traced
tuckersketch modules (plus ``numpy.linalg.{svd,eigh,qr,solve,pinv,cond}``)
is rebound, inside the ``tuckersketch.*`` module namespaces, to a wrapper
that records one span: name, start, end, parent and root.  The library's
own code is not modified; closing the root restores every original
binding.  numpy.linalg is reached through a shadow ``np`` module bound in
the tuckersketch modules only, so numpy itself is never patched.

Spans live in flat in-memory arrays (one slot per span, indexed by span
id) and are written out with :meth:`Tracer.save`.  Self time is a span's
duration minus the durations of its direct children.  Work counts
(bytes at a call boundary, matrix cells per SVD) are computed from
argument and result shapes, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("tensor", "tucker", "embeddings", "rng", "decompose", "bounds", "bench", "fileio")
LINALG = ("svd", "eigh", "qr", "solve", "pinv", "cond")
# Classes are not wrapped, except this one: its constructor checks
# orthonormality, which is real work on the solver's path.
TRACED_CLASSES = {"tucker.TuckerDecomposition"}


def array_bytes(args, result) -> int:
    """Bytes of every ndarray passed in or returned (computed, not measured)."""
    return sum(a.nbytes for a in (*args, result) if isinstance(a, np.ndarray))


def matrix_cells(args, result) -> int:
    """m * n of the matrix handed to an SVD."""
    m, n = np.shape(args[0])[-2:]
    return int(m) * int(n)


WORK = {
    "tensor.mode_multiply": array_bytes,
    "embeddings.mix": array_bytes,
    "embeddings.subsample_mode": array_bytes,
    "fileio.write_tensor": array_bytes,
    "fileio.read_tensor": array_bytes,
    "linalg.svd": matrix_cells,
}


def _public_callables(layer: str):
    mod = sys.modules[f"tuckersketch.{layer}"]
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for attr in names:
        obj = getattr(mod, attr)
        span = f"{layer}.{attr}"
        if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, type) and span not in TRACED_CLASSES:
            continue
        yield span, obj


class Tracer:
    """Records spans of calls into tuckersketch while a root span is open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack: list[int] = []
        self._root = -1
        self._bindings = self._make_bindings()

    def _make_bindings(self):
        """(module, attribute, original, wrapper) for every name to rebind."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            for span, obj in _public_callables(layer):
                wrappers[id(obj)] = (obj, self._wrap(span, obj))
        shadow_linalg = types.ModuleType("numpy.linalg")
        shadow_linalg.__dict__.update(vars(np.linalg))
        for fn in LINALG:
            setattr(shadow_linalg, fn, self._wrap(f"linalg.{fn}", getattr(np.linalg, fn)))
        shadow_np = types.ModuleType("numpy")
        shadow_np.__dict__.update(vars(np))
        shadow_np.random = np.random
        shadow_np.linalg = shadow_linalg
        wrappers[id(np)] = (np, shadow_np)

        bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname != "tuckersketch" and not modname.startswith("tuckersketch."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    bindings.append((mod, attr, obj, entry[1]))
        return bindings

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        work = WORK.get(name)
        name_id, parent, root, start, end, works = (
            self.name_id, self.parent, self.root, self.start, self.end, self.work
        )
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            root.append(tracer._root)
            end.append(0)
            works.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if work is not None:
                works[idx] = work(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span_root(self, name: str):
        """Open a top-level span (one op or the set-up) with wrappers installed.

        Yields the root span id; spans recorded inside carry it as their root.
        """
        nid = self._intern(name)
        idx = len(self.name_id)
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self.name_id.append(nid)
        self.parent.append(-1)
        self.root.append(idx)
        self.end.append(0)
        self.work.append(0)
        self._root = idx
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()
            self._root = -1
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def _columns(self):
        # Copies, so no buffer export blocks later appends.
        return {k: np.array(getattr(self, k), dtype=np.int64)
                for k in ("name_id", "parent", "root", "start", "end", "work")}

    def summary(self, roots) -> dict[str, dict[str, float]]:
        """Per span name, totals over the spans under the given roots.

        Returns ``{name: {"calls", "ms", "self_ms", "work"}}``; ``ms`` is
        inclusive time, ``self_ms`` excludes time covered by direct children.
        Root spans themselves are not included.
        """
        c = self._columns()
        if len(c["name_id"]) == 0:
            return {}
        dur = (c["end"] - c["start"]).astype(np.float64)
        child = c["parent"] >= 0
        covered = np.bincount(c["parent"][child], weights=dur[child], minlength=len(dur))
        self_ns = dur - covered
        mask = child & np.isin(c["root"], np.asarray(list(roots), dtype=np.int64))
        out = {}
        for nid in np.unique(c["name_id"][mask]):
            sel = mask & (c["name_id"] == nid)
            out[self.names[nid]] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float(self_ns[sel].sum()) / 1e6,
                "work": int(c["work"][sel].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write every span (columns indexed by span id) to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self._columns())
