"""read-mix: two closed-loop clients on the query service.

``QueryService(workers=1, hybrid="auto")`` serves a LUBM-like graph
restored from its store.  Each client sends its next request when the
previous one returns: mostly single-source RPQs from the Table II
templates (a stated share exact repeats), plus a few all-pairs RPQs,
same-generation CFPQs and min-plus distance queries.  One op is one
request, timed from submit to answer.  Answers are kept as digests and
checked against the oracles after the timed phase.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import threading
import time

from . import oracles
from .harness import (
    OUT,
    SPARSE_OPS,
    Ops,
    hybrid_counts,
    hybrid_layers,
    log,
    rss_peak_mib,
    with_setups,
)
from .inputs import (
    CFPQ_GRAMMARS,
    DIST_WEIGHTS,
    PAIRS_QUERIES,
    REACH_QUERIES,
    grammar_text,
    read_stream,
    university,
    warmup_requests,
)

GRAPH = "lubm"
CLIENTS = 2
#: One worker: requests queue behind each other and the load needs one
#: core, not both (with two workers a request ran at the pace of
#: whatever else the shared host ran on the second core).
WORKERS = 1
#: Requests per client before the timed phase (plans compile, caches fill).
WARMUP_REQUESTS = 40


def labeled_graph(g):
    from repro.graph import LabeledGraph

    lg = LabeledGraph(n=g.n)
    for label in sorted(g.edges):
        lg.edges[label].extend(sorted(g.edges[label]))
    return lg


def build_service(lg, root, name: str, *, workers: int, timings: dict):
    """The program's set-up, from scratch: a cold start that registers
    the graph, and a warm restart that restores it from the store.

    Only those two paths are timed.  The snapshot they restore from is
    written in between by the package's own ``persist_graph``; its
    fsyncs are input preparation and vary with the disk, not the code.
    """
    from repro.service import QueryService

    t0 = time.perf_counter()
    svc = QueryService(workers=workers, hybrid="auto", store_root=root)
    t1 = time.perf_counter()
    svc.register_graph(name, lg)
    t2 = time.perf_counter()
    timings.setdefault("register", []).append(t2 - t1)
    svc.persist_graph(name)
    svc.close()
    t3 = time.perf_counter()
    svc = QueryService(workers=workers, hybrid="auto", store_root=root)
    t4 = time.perf_counter()
    svc.restore_all()
    t5 = time.perf_counter()
    timings.setdefault("restore", []).append(t5 - t4)
    return svc, (t2 - t0) + (t5 - t3)


def _ask(svc, req):
    kind, qi, source = req
    if kind == "reach":
        return svc.reach(GRAPH, REACH_QUERIES[qi][1], source=source)
    if kind == "pairs":
        return svc.pairs(GRAPH, PAIRS_QUERIES[qi])
    if kind == "cfpq":
        return svc.cfpq(GRAPH, grammar_text(*CFPQ_GRAMMARS[qi]))
    return svc.distances(GRAPH, source=source, weights=DIST_WEIGHTS)


def _digest(kind, answer) -> str:
    if kind == "reach":
        return oracles.set_digest(answer)
    if kind == "dist":
        return oracles.distances_digest(answer)
    return oracles.pairs_digest(answer)


class _Answers:
    """First digest per distinct request; later answers must match it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.first: dict = {}
        self.mismatches = 0

    def add(self, req, d: str) -> None:
        with self.lock:
            prev = self.first.setdefault(req, d)
            if prev != d:
                self.mismatches += 1


def _verify(g, answers: _Answers) -> bool:
    edges = {label: g.arrays(label) for label in g.edges}
    expected = {}
    by_query: dict = {}
    for kind, qi, source in answers.first:
        by_query.setdefault((kind, qi), []).append(source)
    weighted = None
    for (kind, qi), sources in by_query.items():
        if kind == "reach":
            auto = oracles.Automaton(REACH_QUERIES[qi][1])
            for s, ans in zip(sources, oracles.rpq_reach(auto, edges, g.n, sources)):
                expected[(kind, qi, s)] = oracles.set_digest(ans)
        elif kind == "pairs":
            auto = oracles.Automaton(PAIRS_QUERIES[qi])
            expected[(kind, qi, -1)] = oracles.pairs_digest(
                oracles.rpq_pairs(auto, edges, g.n))
        elif kind == "cfpq":
            terminals, binary = oracles.same_generation_cnf(*CFPQ_GRAMMARS[qi])
            expected[(kind, qi, -1)] = oracles.pairs_digest(
                oracles.cnf_fixpoint(edges, terminals, binary))
        else:
            if weighted is None:
                weighted = oracles.weighted_graph(edges, g.n, DIST_WEIGHTS)
            for s, ans in zip(sources, oracles.distances(weighted, sources)):
                expected[(kind, qi, s)] = oracles.distances_digest(ans)
    wrong = [req for req, d in answers.first.items() if expected[req] != d]
    for req in wrong[:5]:
        log(f"read-mix: wrong answer for {req}")
    return not wrong and answers.mismatches == 0


def _wrap_layers(svc, tracer) -> None:
    import repro.algorithms.shortest_paths as sssp
    import repro.cfpq.tensor_algorithm as tensor
    import repro.incr.engine as incr
    import repro.rpq.engine as rpq

    for op in SPARSE_OPS:
        tracer.wrap(svc.ctx.backend.inner, op, f"backends.hybrid.sparse.{op}")
    tracer.wrap(rpq, "rpq_reach_batch", "rpq.reach_batch")
    tracer.wrap(rpq, "rpq_index", "rpq.index")
    tracer.wrap(incr, "rpq_reach_incremental", "rpq.reach_frontier")
    tracer.wrap(incr, "rpq_pairs_incremental", "rpq.pairs_incremental")
    tracer.wrap(tensor, "tensor_cfpq", "cfpq.tensor")
    tracer.wrap(incr, "tensor_cfpq_incremental", "cfpq.tensor_incremental")
    tracer.wrap(sssp, "single_source_shortest_paths", "algorithms.sssp")


def run(seed: int, seconds: float, tracer) -> dict:
    g = university(seed)
    lg = labeled_graph(g)
    scratch = OUT / f"tmp-read-mix-{seed}-{time.time_ns()}"
    timings: dict = {}
    count = iter(range(1 << 30))

    def build():
        return build_service(lg, scratch / f"setup-{next(count)}", GRAPH,
                             workers=WORKERS, timings=timings)

    try:
        result, setup_s = with_setups(
            build, lambda s: s.close(),
            lambda svc: _timed(svc, g, seed, seconds, tracer))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return finish(result, setup_s, timings, tracer)


def finish(result: dict, setup_s: float, timings: dict, tracer) -> dict:
    """Add the set-up figures, measured around the timed phase."""
    result["end_to_end"]["setup_s"] = setup_s
    if tracer is not None:
        result["per_layer"]["service.register_ms"] = statistics.median(timings["register"]) * 1e3
        result["per_layer"]["store.restore_ms"] = statistics.median(timings["restore"]) * 1e3
    return result


def _in_threads(target, streams) -> None:
    """One thread per client stream; re-raise the first error a thread hit."""
    errors = []

    def guarded(stream):
        try:
            target(stream)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(s,)) for s in streams]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _timed(svc, g, seed, seconds, tracer) -> dict:
    if tracer is not None:
        _wrap_layers(svc, tracer)
    answers = _Answers()
    ops = Ops(traced_run=tracer is not None)
    lock = threading.Lock()
    streams = [read_stream(seed, c, g) for c in range(CLIENTS)]
    errors: list = []
    op_ids = itertools.count()

    def send(req):
        if tracer is None:
            return _ask(svc, req)
        tracer.set_op(next(op_ids))
        with tracer.span(f"service.{req[0]}"):
            return _ask(svc, req)

    def warm(stream):
        for _ in range(WARMUP_REQUESTS):
            req = next(stream)
            answers.add(req, _digest(req[0], send(req)))

    def client(stream):
        done = []  # (seconds or None if the request failed, traced)
        while (now := time.perf_counter()) - ops.start < seconds:
            traced = ops.slice_traced(now)
            if tracer is not None:
                tracer.enabled = traced
            req = next(stream)
            t0 = time.perf_counter()
            try:
                answer = send(req)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                done.append((None, traced))
                errors.append(repr(exc))
                continue
            done.append((time.perf_counter() - t0, traced))
            answers.add(req, _digest(req[0], answer))
        with lock:
            for latency, traced in done:
                ops.attempted += 1
                if latency is None:
                    ops.failed += 1
                else:
                    ops.record(latency, traced)

    # Pool queries first, then each client's first requests.  Untraced:
    # the per-layer figures describe the timed phase, where the all-pairs
    # and CFPQ requests are answered by the result cache (write-fresh
    # times their evaluators, after writes invalidate it).
    for req in warmup_requests():
        answers.add(req, _digest(req[0], _ask(svc, req)))
    _in_threads(warm, streams)
    before = svc.stats()
    hybrid0 = hybrid_counts(svc.ctx.backend)
    sparse0 = tracer.total_ms("backends.hybrid.sparse.") if tracer is not None else 0.0
    arena = svc.ctx.device.arena
    arena.reset_peak()
    ops.begin()
    _in_threads(client, streams)
    if tracer is not None:
        tracer.enabled = False
    after = svc.stats()
    hybrid1 = hybrid_counts(svc.ctx.backend)
    for e in errors[:5]:
        log(f"read-mix: request failed: {e}")

    e2e = ops.summary(clients=CLIENTS)
    e2e["arena_peak_mib"] = arena.peak_bytes / 2**20
    e2e["rss_peak_mib"] = rss_peak_mib()
    layers = {}
    if tracer is not None:
        lat = after.latency
        layers["service.queue_wait_ms"] = lat["queue_wait"].p50 * 1e3
        layers["service.evaluate_ms"] = lat["evaluate"].p50 * 1e3
        layers["service.compile_ms"] = lat["compile"].p50 * 1e3
        layers["service.batch_mean"] = after.batch_sizes["mean"]
        layers["service.plan_hit_ratio"] = after.plan_cache["hit_ratio"]
        layers["service.result_hits"] = (
            after.counters.get("result_cache_hits", 0)
            - before.counters.get("result_cache_hits", 0))
        layers.update(hybrid_layers(
            hybrid0, hybrid1, len(ops.latencies) + len(ops.traced),
            (tracer.total_ms("backends.hybrid.sparse.") - sparse0) / max(1, len(ops.traced))))
        layers["rpq.eval_ms"] = tracer.median_ms("rpq.")
        layers["cfpq.eval_ms"] = tracer.median_ms("cfpq.")
    ok = _verify(g, answers)
    return {"correct": ok and ops.correct, "attempted": ops.attempted,
            "failed": ops.failed, "end_to_end": e2e, "per_layer": layers, "ops": ops}
