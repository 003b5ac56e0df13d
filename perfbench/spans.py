"""Spans recorded from outside the program, and their per-layer aggregation.

A span is (name, start, end, parent, job, counts): name is
"<module>.<function>[.<variant>]", parent is the index of the enclosing span
or -1, job identifies the job that made the call, and counts holds work
counts read from the call's arguments or result.
The layer of a span is its module.  Spans stay in memory while a job runs and
are written out when it ends.
"""

from __future__ import annotations

import functools
import time

LAYERS = ("cli", "algebra", "calculus", "lipschitz", "states", "distance", "probes", "torus",
          "verify")


class Tracer:
    """Records nested spans of one job in one thread."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self._stack = []
        self.enabled = True

    def wrap(self, fn, name, counts=None, variant=None):
        """fn wrapped in a span; counts(args, kwargs, result) -> dict of work counts.

        variant(args) -> suffix appended to the span name, for calls that take
        one of several code paths.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if variant is None else f"{name}.{variant(args)}"
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([label, time.perf_counter(), None, parent, self.job, {}])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counts is not None:
                self.spans[index][5] = counts(args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list:
    """Each span's duration minus the time covered by its direct children.

    Children of one span never overlap, because a job runs in one thread.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _outermost(spans, key):
    """Indices of spans with no ancestor of the same key(name)."""
    keep = []
    for i, span in enumerate(spans):
        k = key(span[0])
        p = span[3]
        while p >= 0 and key(spans[p][0]) != k:
            p = spans[p][3]
        if p < 0:
            keep.append(i)
    return keep


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans) -> dict:
    """Per span name and per layer: calls, busy time, self time, summed counts.

    Busy time sums the outermost spans of a name (or layer), so a nested call
    of the same name is not counted twice; self time sums span self times.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, (name, _, _, _, _, counts) in enumerate(spans):
        rec = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        for k, v in counts.items():
            if k.startswith("max_"):
                rec["counts"][k] = max(rec["counts"].get(k, v), v)
            else:
                rec["counts"][k] = rec["counts"].get(k, 0) + v
    for i in _outermost(spans, lambda n: n):
        by_name[spans[i][0]]["busy_s"] += spans[i][2] - spans[i][1]
    by_layer = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, span in enumerate(spans):
        rec = by_layer.setdefault(layer_of(span[0]), {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
    for i in _outermost(spans, layer_of):
        by_layer[layer_of(spans[i][0])]["busy_s"] += spans[i][2] - spans[i][1]
    return {"names": by_name, "layers": by_layer}
