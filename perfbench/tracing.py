"""In-memory span tracer that wraps pidga's module-level names from outside.

pidga looks its collaborators up as module globals at call time (for example
`pidga.experiment.run_ga` inside `run_sweep`), so replacing those bindings
with timing wrappers records one span per call without editing the package.
Each span stores its name, its parent span, start and end times and a few
counts taken from the call's arguments or result.  `restore` puts the original
bindings back.
"""

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, module, attr, name, count=None):
        """Replace module.attr by a wrapper that records a span `name`.

        count(counts, args, kwargs, result) may add entries to the span's
        counts once the call has returned.
        """
        fn = getattr(module, attr)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span.counts, args, kwargs, result)
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def summary(self):
        """Per span name: calls, total seconds, self seconds, summed counts.

        Self time is a span's duration minus the durations of its direct
        children.  Recursion into the same name is not expected here.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.duration
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            agg = out[s.name]
            agg["calls"] += 1
            agg["s"] += s.duration
            agg["self_s"] += s.duration - child_time[id(s)]
            for k, v in s.counts.items():
                agg[k] = agg.get(k, 0) + v
        return dict(out)

    def child_calls(self, name, parent_name):
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        return sum(1 for s in self.spans if s.name == name
                   and s.parent is not None and s.parent.name == parent_name)

    def dump(self, path):
        """Write the spans as JSON lines, parents referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "start": s.start, "end": s.end, "counts": s.counts}) + "\n")
