"""Spans around the benchmark's calls into radolab.

A span records one call from the benchmark into a layer: its name
(``layer.function``), start and end (``time.perf_counter`` seconds), the
index of the enclosing span and the id of the query it served.  Spans stay in
memory; the run writes them out when it ends.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    """Tracing off: each call goes straight through."""

    spans = ()

    def set_query(self, qid):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Tracing on: each call is wrapped in a span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, query id]
        self._open = []
        self._qid = None

    def set_query(self, qid):
        self._qid = qid

    def call(self, name, fn, *args):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self._qid]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()


def busy_by_name(spans) -> dict:
    """Total span duration per span name."""
    out = {}
    for name, t0, t1, _, _ in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0)
    return out


def calls_by_name(spans) -> dict:
    out = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


def self_time_by_layer(spans) -> dict:
    """Per layer (the span name up to the first dot): span time minus the
    time covered by its direct children.  Children nest inside their parent
    because every call runs on the one thread."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
    return out


def write_spans(path, passes) -> None:
    """Write the spans of each traced pass, one JSON object per span."""
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for name, t0, t1, parent, qid in spans:
                fh.write(
                    json.dumps(
                        {"pass": k, "name": name, "start": t0, "end": t1, "parent": parent, "query": qid}
                    )
                    + "\n"
                )
