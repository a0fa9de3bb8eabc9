"""Span recorder for the traced pass.

The benchmark wraps each layer's public function at the attribute its
caller looks it up through (a module global or a model class), so the
program itself is unchanged.  Spans are kept in memory as rows
[name, start, end, parent index]; a span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name) in targets while active.

        An attribute a class only inherits is removed again on exit, so
        the class falls back to its base exactly as before.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, own, vars(owner).get(attr)))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, own, value in reversed(saved):
                if own:
                    setattr(owner, attr, value)
                else:
                    delattr(owner, attr)

    def totals(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, total, self_time = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start,
                         self_time + end - start - child)
        return out
