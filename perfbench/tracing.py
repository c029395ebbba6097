"""In-memory span tracer that wraps the program's public functions.

Tracing works from outside the package: ``Tracer.install`` replaces each
function named in ``layers.WRAPPED`` by a wrapper, in every ``thintree``
module that holds a reference to it (``edge_connectivity`` is bound in
``flows``, ``pipeline`` and ``surgery``, for example), and on the owning
class for methods.  ``uninstall`` puts the originals back, so timed runs
execute the program untouched.

A span is ``(name, start, end, parent span index, instance id)``.  Spans
stay in memory; ``summary`` reduces them once, at the end of the run.  Times
are CPU time of the process, not scaled for the host's speed.  Self time is
a span's duration minus the durations of its direct children (spans are
strictly nested, since the program is single-threaded).  Functions marked
``count`` are too hot to span and only bump a call counter.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from layers import WRAPPED


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)   # (name, instance) -> calls
        self.extra = defaultdict(float)  # (quantity, instance) -> sum
        self.instance = None
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for spec in WRAPPED:
            module = getattr(self.api, spec.module)
            if spec.cls is None:
                original = getattr(module, spec.attr)
                wrapper = self._wrap(spec, original)
                for mod in self.api.modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
            else:
                owner = getattr(module, spec.cls)
                raw = vars(owner)[spec.attr]
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(spec, raw.__func__))
                else:
                    replacement = self._wrap(spec, raw)
                self._saved.append((owner, spec.attr, raw))
                setattr(owner, spec.attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, spec, fn):
        name = spec.name
        counts = self.counts
        if spec.mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name, self.instance] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        stack = self.stack
        hook = spec.hook
        clock = time.process_time

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance)
            if hook is not None:
                for key, value in hook(args, result).items():
                    self.extra[f"{name}.{key}", self.instance] += value
            return result
        return spanned

    # -- reduction ---------------------------------------------------------

    def summary(self, instances):
        """Totals over the given instance ids.

        Returns (spans, parents, counts, extra): spans maps a spanned name
        to {"calls", "total_s", "self_s"}; parents counts (child name,
        parent name) span pairs; counts maps a counted name to its calls;
        extra maps a hook quantity to its sum.
        """
        keep = set(instances)
        child_time = defaultdict(float)
        for name, start, end, parent, inst in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        parents = defaultdict(int)
        for i, (name, start, end, parent, inst) in enumerate(self.spans):
            if inst not in keep:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            parents[(name, parent_name)] += 1
        counts = defaultdict(int)
        for (name, inst), value in self.counts.items():
            if inst in keep:
                counts[name] += value
        extra = defaultdict(float)
        for (key, inst), value in self.extra.items():
            if inst in keep:
                extra[key] += value
        return out, parents, counts, extra
