"""In-memory span tracer that wraps the public entry points of hypnodal.

The tracer lives entirely in the benchmark: it replaces module attributes
(and the same function objects wherever another hypnodal module imported
them by name) with wrappers that record one span per call, and restores the
originals on exit.  Nothing under src/ knows about it.

A span is [name, parent index, start, end] with perf_counter times; spans
are kept in a list and written out when the run ends.  Observers attached
to a wrapper keep references to arguments and results (cheap), so the
derived numbers (mesh quality, residuals) are computed after the timed
region and never inflate a span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("hypgeo", "hypmesh", "hypfem", "surfglue", "nodal")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.active = False
        self.observed = {}  # span name -> list of (args, kwargs, result)

    @contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (setup, workload)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if observe:
                tracer.observed.setdefault(name, []).append((args, kwargs, out))
            return out

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every target for the duration of the block.

        targets are (span name, owner, attribute, observe) tuples; owner is a
        module or a class.  Module-level functions are also replaced in every
        hypnodal module that holds the same object under the same name.
        """
        modules = [m for k, m in sys.modules.items() if k.startswith("hypnodal.")]
        undo = []
        for name, owner, attr, observe in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, observe)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [m for m in modules if m is not owner and m.__dict__.get(attr) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def calls(self, name: str) -> list:
        return self.observed.get(name, [])

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive(self, names) -> float:
        """Total duration of spans named in `names`, counting only the
        outermost one where such spans nest."""
        names = set(names) if not isinstance(names, str) else {names}
        total = 0.0
        for rec in self.spans:
            if rec[0] in names and not self._has_ancestor(rec, names):
                total += rec[3] - rec[2]
        return total

    def _has_ancestor(self, rec, names) -> bool:
        p = rec[1]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][1]
        return False

    def count_within(self, name: str, ancestor: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and self._has_ancestor(s, {ancestor}))

    def self_times(self) -> dict:
        """Self time per layer (first dotted component of the span name):
        span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        out = {}
        for rec, c in zip(self.spans, child):
            layer = rec[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (rec[3] - rec[2]) - c
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "parent": p, "start": s - t0, "end": e - t0}
            for i, (n, p, s, e) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
