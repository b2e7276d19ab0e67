"""Spans recorded from outside the program, around calls into each layer.

The benchmark wraps public functions and methods of the package (a
backend's ``mxm``, ``transitive_closure``, ``QueryService.add_edges`` ...)
with :meth:`Tracer.wrap`; each call then records one span: name, start,
end, parent span and the op it belongs to (for spans on the service's
worker threads, the op whose client span contains them, see
:meth:`Tracer._attributed`).  Spans stay in memory and are
written once at the end as Chrome-trace JSON, in the complete-event
shape ``repro.gpu.trace`` emits for simulated device streams.

Untraced runs install no wrapper at all.  In a traced run the workload
flips :attr:`Tracer.enabled` between alternating time slices, so the op
latencies of traced and untraced slices, measured in one process on one
host state, give the tracing overhead.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import resource
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Spans kept in memory at most; later spans still feed the aggregates.
SPAN_LIMIT = 200_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        #: span name -> durations (seconds) of spans recorded while enabled
        self.durations: dict[str, list] = defaultdict(list)
        #: span name -> summed getrusage deltas ("minor_faults", "sys_s")
        self.usage: dict[str, Counter] = defaultdict(Counter)

    # -- op attribution ------------------------------------------------------

    def set_op(self, op: int | None) -> None:
        """Attribute the calling thread's next spans to op ``op``."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, usage: bool = False):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        ru0 = resource.getrusage(resource.RUSAGE_THREAD) if usage else None
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if ru0 is not None:
                ru1 = resource.getrusage(resource.RUSAGE_THREAD)
                with self._lock:
                    u = self.usage[name]
                    u["minor_faults"] += ru1.ru_minflt - ru0.ru_minflt
                    u["sys_s"] += ru1.ru_stime - ru0.ru_stime
                    u["calls"] += 1
            self.durations[name].append(end - start)
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((
                    sid, parent, getattr(self._local, "op", None), name,
                    threading.get_ident(), start, end,
                ))

    def wrap(self, owner, attr: str, name: str, *, usage: bool = False) -> None:
        """Replace ``owner.attr`` by a spanning wrapper (instance or module)."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name, usage=usage):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # -- aggregates ----------------------------------------------------------

    def median_ms(self, prefix: str) -> float:
        """Median over every span whose name starts with ``prefix``."""
        xs = sorted(x for k, v in self.durations.items() if k.startswith(prefix)
                    for x in v)
        return xs[len(xs) // 2] * 1e3 if xs else 0.0

    def total_ms(self, prefix: str) -> float:
        return sum(
            sum(v) for k, v in self.durations.items() if k.startswith(prefix)
        ) * 1e3

    # -- export ----------------------------------------------------------------

    def _attributed(self) -> list[tuple]:
        """Spans with worker-thread spans tied to the op they served.

        Only client threads call :meth:`set_op`, so a span recorded on a
        service worker thread has no op, and the outermost one no
        parent.  Each client thread runs one op span at a time; a worker
        span inside exactly one client's span gets that op (and, if
        outermost, that span as parent).  A worker span inside the spans
        of two clients at once keeps no op: time alone cannot tell which
        request it served.
        """
        roots: dict = defaultdict(list)  # client thread -> [(start, end, sid, op)]
        for sid, parent, op, _, tid, start, end in self.spans:
            if op is not None and parent == 0:
                roots[tid].append((start, end, sid, op))
        for spans in roots.values():
            spans.sort()
        starts = {tid: [r[0] for r in spans] for tid, spans in roots.items()}
        out = []
        for span in self.spans:
            sid, parent, op, name, tid, start, end = span
            if op is None:
                hits = []
                for client, spans in roots.items():
                    i = bisect.bisect_right(starts[client], start) - 1
                    if i >= 0 and end <= spans[i][1]:
                        hits.append(spans[i])
                if len(hits) == 1:
                    op = hits[0][3]
                    parent = parent or hits[0][2]
                    span = (sid, parent, op, name, tid, start, end)
            out.append(span)
        return out

    def write_chrome_trace(self, path: Path, meta: dict) -> None:
        threads = {}
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "perfbench"}}]
        for sid, parent, op, name, tid, start, end in self._attributed():
            t = threads.setdefault(tid, len(threads) + 1)
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": t,
                "args": {"id": sid, "parent": parent, "op": op},
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
