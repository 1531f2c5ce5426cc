"""In-memory spans for the traced run.

A span is (name, start ns, end ns, parent index, operation index).  Spans
are appended while the run goes and written out once it ends; the untraced
run passes ``no_span`` instead and records nothing.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


def no_span(name):
    return _NULL


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent, op]
        self.op = None       # index of the operation being traced, or None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, 0, 0, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    @contextlib.contextmanager
    def wrapping(self, targets):
        """Temporarily replace module functions by span-recording wrappers.

        ``targets`` lists (module, attribute, span name); a span name may be
        a callable of the call's first argument.  This times calls the
        package makes internally, through the same public functions, without
        changing its code path.
        """
        saved = []
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            with self.span(name(args[0]) if callable(name) else name):
                return fn(*args, **kwargs)
        return wrapper

    def durations(self, ops=True):
        """Seconds per span name, summed, over spans inside operations
        (``ops=True``) or outside them."""
        out = {}
        for name, start, end, _, op in self.spans:
            if (op is not None) == ops:
                out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def self_times(self):
        """Seconds of self time per layer (span-name prefix) inside
        operations: a span's duration minus the part its children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op is None:
                continue
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path, extra):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
