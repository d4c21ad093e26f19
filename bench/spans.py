"""Span tracer for the traced run, recorded from outside the package.

Each traced function is wrapped, and the wrapper replaces the original under
every name that refers to it in every ``vaknh`` module.  Rebinding only the
defining module would miss calls through ``from ._jets import
restricted_table`` in the modules that use it.  A span is (name, start, end,
parent span, operation index); spans live in flat arrays in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

import numpy as np

# Layer (module) -> functions recorded as spans named "<module>.<function>".
TARGETS = {
    "cli": ("run",),
    "system": ("load_system", "verify_linearity"),
    "_jets": ("restricted_table", "ambient_velocity_gradient"),
    "vakonomic": ("vak_rhs", "hamiltonian", "w1_momenta"),
    "nonholonomic": ("nh_rhs", "legendre_lift"),
    "integrate": ("integrate", "trajectory_to_csv"),
    "comparison": ("scan", "g_residuals", "field_residual", "tangency_residuals"),
}
# Methods recorded the same way: (module, class, method, span name).
METHODS = (("comparison", "ComparisonReport", "to_json", "comparison.to_json"),)


def _vaknh_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vaknh" or name.startswith("vaknh."))]


class Tracer:
    """Records spans while installed (``with tracer:``)."""

    def __init__(self):
        self.names: list[str] = []
        self.ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.ops = array("i")
        self.op = -1              # index of the operation being run
        self._stack = [-1]
        self._restore = []
        self._originals = {}      # span name -> unwrapped function

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._originals[name] = fn
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        ops, stack, clock = self.ops, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def __enter__(self):
        homes = {layer: importlib.import_module(f"vaknh.{layer}") for layer in TARGETS}
        modules = _vaknh_modules()
        for layer, functions in TARGETS.items():
            home = homes[layer]
            for attr in functions:
                original = getattr(home, attr, None)
                if original is None:   # absent in this version of the package
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(homes[layer], cls_name)
            original = cls.__dict__.get(attr)
            if original is not None:
                setattr(cls, attr, self._wrap(span, original))
                self._restore.append((cls, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def counted_calls(self, fn, *args, **kwargs):
        """Run ``fn`` under ``sys.setprofile`` and return how often each
        traced function's code object ran: an independent count to hold the
        span counts against."""
        codes = {f.__code__: name for name, f in self._originals.items()}
        counts = dict.fromkeys(self._originals, 0)

        def profile(frame, event, _arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        sys.setprofile(profile)
        try:
            fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
        return counts

    def table(self) -> "SpanTable":
        return SpanTable(self)

    def dump(self, path) -> None:
        """Write every span as a tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tparent\top\tstart_s\tend_s\n")
            for i, (nid, parent, op, start, end) in enumerate(
                    zip(self.ids, self.parents, self.ops, self.starts, self.ends)):
                fh.write(f"{i}\t{self.names[nid]}\t{parent}\t{op}\t{start!r}\t{end!r}\n")


class SpanTable:
    """Per-name call counts, inclusive and self time, derived from spans."""

    def __init__(self, tracer: Tracer):
        ids = np.frombuffer(tracer.ids, dtype=np.uint16)
        parents = np.frombuffer(tracer.parents, dtype=np.int32)
        duration = (np.frombuffer(tracer.ends, dtype=float)
                    - np.frombuffer(tracer.starts, dtype=float))
        children = np.zeros(len(duration))
        nested = parents >= 0
        np.add.at(children, parents[nested], duration[nested])
        self.names = tracer.names
        self._ids = ids
        self._parents = parents
        self._duration = duration
        self._self = duration - children

    def _mask(self, name):
        if name not in self.names:
            return np.zeros(len(self._ids), dtype=bool)
        return self._ids == self.names.index(name)

    def calls(self, name) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def total(self, name) -> float:
        return float(self._duration[self._mask(name)].sum())

    def self_total(self, name) -> float:
        return float(self._self[self._mask(name)].sum())

    def per_call(self, name, self_time=False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        return (self.self_total(name) if self_time else self.total(name)) / calls

    def calls_within(self, names, ancestor) -> int:
        """Spans named in ``names`` that run inside an ``ancestor`` span."""
        if ancestor not in self.names:
            return 0
        anc = self.names.index(ancestor)
        wanted = {self.names.index(n) for n in names if n in self.names}
        inside = bytearray(len(self._ids))
        count = 0
        for i, (nid, parent) in enumerate(zip(self._ids.tolist(), self._parents.tolist())):
            if nid == anc or (parent >= 0 and inside[parent]):
                inside[i] = 1
                count += nid in wanted and nid != anc
        return count
