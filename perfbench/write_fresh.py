"""write-fresh: one client writing to a store-backed primary with one
in-process follower, then re-asking a standing query.

One op, in order: apply a mutation batch (varied size, some removals)
through ``QueryService.apply_batch`` (WAL append and fsync); wait until
the follower has applied that version; re-ask one of a fixed set of
standing queries on the primary (RPQs and a same-generation CFPQ).
The op waits on the follower directly rather than reading through
``ReadRouter``, because a ``min_version`` read issued right after a
write falls back to the primary almost every time.

The timed phase is a series of episodes, each on a freshly set-up
primary and follower, each replaying the same write stream from the
initial graph (see ``EPISODE_OPS``).  The benchmark keeps its own mirror
of the edge set; after the timed phase it replays the first episode's
batches on a copy of the initial graph and checks every answer against
the oracles, checks that every later episode gave the same answers, and
checks each episode's follower's final edge sets against the mirror.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import gc
import shutil
import socket
import statistics
import time

from . import oracles
from .harness import OUT, Ops, log, rss_peak_mib
from .inputs import (
    STANDING_QUERIES,
    apply_to_mirror,
    grammar_text,
    standing_sources,
    university,
    write_stream,
)
from .read_mix import build_service, finish, labeled_graph

GRAPH = "lubm"
#: Seconds a follower may take to apply one version before the op fails.
CATCHUP_TIMEOUT_S = 30.0
WARMUP_OPS = 8
#: Timed ops per episode.  Every episode sets up a fresh primary and
#: follower and replays the same write stream from the initial graph, so
#: each run repeats whole episodes of the same ops: the overlay of
#: pending deltas, whose size sets the cost of a read after a write,
#: grows the same way in every episode instead of with the run's length.
EPISODE_OPS = 200
#: Set-ups before the timed phase; each episode adds one more.
PRE_SETUPS = 5


def _build(lg, root, timings):
    from repro.cluster import ClusterFollower, ClusterPrimary

    svc, service_s = build_service(lg, root, GRAPH, workers=1, timings=timings)
    t0 = time.perf_counter()
    primary = ClusterPrimary(svc, heartbeat=0.2).start()
    follower = ClusterFollower(root, primary.address, workers=1, heartbeat=0.2,
                               hybrid="auto").start()
    version = svc.graphs.get(GRAPH).current_version()
    if not follower.wait_applied(GRAPH, version, timeout=CATCHUP_TIMEOUT_S):
        raise RuntimeError("follower did not reach the primary's version")
    return (svc, primary, follower), service_s + time.perf_counter() - t0


def _teardown(state) -> None:
    svc, primary, follower = state
    follower.close()
    # The follower's replication thread sees the close only when its
    # blocked read returns, at the primary's next heartbeat; closing the
    # primary first would stop the heartbeats and leave that thread, and
    # the primary's thread on the other end, waiting out the 5-second
    # read timeout with the closed services alive.
    deadline = time.monotonic() + CATCHUP_TIMEOUT_S
    while follower.connected() and time.monotonic() < deadline:
        time.sleep(0.01)
    primary.close()
    svc.close()
    # close() leaves the primary's and the follower's accept threads
    # blocked in accept() on their closed listeners, holding the closed
    # services and all their state.  A connection wakes each; it then
    # sees the close and returns, so episodes do not pile up in memory.
    for address in (primary.address, follower.query_address):
        with contextlib.suppress(OSError):
            socket.create_connection(tuple(address)[:2], timeout=1.0).close()
    # glibc keeps the freed heap of the closed services; without a trim
    # the peak resident memory grew by about 10 MB per episode, so it
    # followed the number of episodes a run fits, that is the host's speed.
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):  # not glibc: no trim
        ctypes.CDLL("libc.so.6").malloc_trim(0)


def _ask(svc, qi, source):
    kind, query, _ = STANDING_QUERIES[qi]
    if kind == "reach":
        return oracles.set_digest(svc.reach(GRAPH, query, source=source))
    if kind == "pairs":
        return oracles.pairs_digest(svc.pairs(GRAPH, query))
    return oracles.pairs_digest(svc.cfpq(GRAPH, grammar_text(*query)))


def _expected(g, qi, source, edges, automata) -> str:
    kind, query, _ = STANDING_QUERIES[qi]
    if kind == "reach":
        return oracles.set_digest(oracles.rpq_reach(automata[qi], edges, g.n, [source])[0])
    if kind == "pairs":
        return oracles.pairs_digest(oracles.rpq_pairs(automata[qi], edges, g.n))
    return oracles.pairs_digest(
        oracles.cnf_fixpoint(edges, *oracles.same_generation_cnf(*query)))


def run(seed: int, seconds: float, tracer) -> dict:
    g = university(seed)
    lg = labeled_graph(g)
    scratch = OUT / f"tmp-write-fresh-{seed}-{time.time_ns()}"
    timings: dict = {}
    setups: list = []
    count = iter(range(1 << 30))

    def build():
        state, s = _build(lg, scratch / f"setup-{next(count)}", timings)
        setups.append(s)
        return state

    try:
        for _ in range(PRE_SETUPS):
            _teardown(build())
        result = _timed(build, g, seed, seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return finish(result, statistics.median(setups), timings, tracer)


class _Episode:
    """A freshly set-up primary and follower, and the write stream
    replayed from the initial graph onto the benchmark's mirror of it."""

    def __init__(self, state, g, seed, sources, tracer):
        self.svc, _, self.follower = state
        self.mirror = copy.copy(g)
        self.mirror.edges = copy.deepcopy(g.edges)
        self.stream = write_stream(seed, self.mirror)
        self.sources = sources
        self.tracer = tracer
        self.answers = []  # (deltas, query, answer digest) per op, warm-up included

    def op(self, i: int, traced: bool) -> float:
        """One op; returns its seconds."""
        svc, follower = self.svc, self.follower
        deltas = next(self.stream)
        qi = i % len(STANDING_QUERIES)
        span = self.tracer.span if (self.tracer is not None and traced) else None
        t0 = time.perf_counter()
        if span:
            with span("store.commit"):
                version = svc.apply_batch(GRAPH, deltas)
            with span("cluster.catchup"):
                caught = follower.wait_applied(GRAPH, version, timeout=CATCHUP_TIMEOUT_S)
            with span("service.fresh_read"):
                d = _ask(svc, qi, self.sources[qi])
        else:
            version = svc.apply_batch(GRAPH, deltas)
            caught = follower.wait_applied(GRAPH, version, timeout=CATCHUP_TIMEOUT_S)
            d = _ask(svc, qi, self.sources[qi])
        elapsed = time.perf_counter() - t0
        apply_to_mirror(self.mirror, deltas)
        self.answers.append((deltas, qi, d))
        if not caught:
            raise RuntimeError(f"follower missed version {version}")
        return elapsed


def _timed(build, g, seed, seconds, tracer) -> dict:
    if tracer is not None:
        import repro.cfpq.tensor_algorithm as tensor
        import repro.incr.engine as incr
        import repro.rpq.engine as rpq

        tracer.wrap(incr, "rpq_reach_incremental", "incr.rpq_reach")
        tracer.wrap(incr, "rpq_pairs_incremental", "incr.rpq_pairs")
        tracer.wrap(rpq, "rpq_index", "rpq.index")
        tracer.wrap(rpq, "rpq_reach_batch", "rpq.reach_batch")
        tracer.wrap(tensor, "tensor_cfpq", "cfpq.tensor")
        tracer.wrap(incr, "tensor_cfpq_incremental", "cfpq.tensor_incremental")
    sources = standing_sources(seed, g)
    ops = Ops(traced_run=tracer is not None)
    episodes = []  # (answers, follower matched the mirror) per episode
    counters: dict = {}
    arena_peak = 0.0
    timed = 0.0
    ops.begin()
    while timed < seconds:
        state = build()
        try:
            ep = _Episode(state, g, seed, sources, tracer)
            for i in range(WARMUP_OPS):
                ep.op(i, False)
            before = ep.svc.stats().counters
            arenas = [ep.svc.ctx.device.arena, ep.follower.service.ctx.device.arena]
            for a in arenas:
                a.reset_peak()
            t0 = time.perf_counter()
            for i in range(WARMUP_OPS, WARMUP_OPS + EPISODE_OPS):
                traced = ops.slice_traced(time.perf_counter())
                if tracer is not None:
                    tracer.enabled = traced
                    tracer.set_op(len(episodes) * EPISODE_OPS + i)
                ops.attempted += 1
                try:
                    ops.record(ep.op(i, traced), traced)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    ops.failed += 1
                    log(f"write-fresh: op failed: {exc!r}")
            timed += time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            after = ep.svc.stats().counters
            for key in set(before) | set(after):
                counters[key] = counters.get(key, 0) + after.get(key, 0) - before.get(key, 0)
            arena_peak = max(arena_peak, sum(a.peak_bytes for a in arenas) / 2**20)
            episodes.append((ep.answers, _follower_matches(ep.follower, ep.mirror)))
        finally:
            _teardown(state)

    e2e = ops.summary()
    e2e["arena_peak_mib"] = arena_peak
    e2e["rss_peak_mib"] = rss_peak_mib()
    layers = {}
    if tracer is not None:
        for name in ("store.commit", "cluster.catchup", "service.fresh_read"):
            layers[f"{name}_ms"] = tracer.median_ms(name)
        layers["cfpq.eval_ms"] = tracer.median_ms("cfpq.")
        for counter, key in (("incremental_evals", "incr.incremental_evals"),
                             ("full_evals", "incr.full_evals"),
                             ("incremental_declined", "incr.declined")):
            layers[key] = counters.get(counter, 0)
    correct = _verify(g, sources, episodes)
    return {"correct": correct and ops.correct, "attempted": ops.attempted,
            "failed": ops.failed, "end_to_end": e2e, "per_layer": layers, "ops": ops}


def _follower_matches(follower, mirror) -> bool:
    """Whether the follower's edge sets equal the benchmark's mirror."""
    replica = follower.service.graphs.get(GRAPH).graph
    ok = True
    for label, edges in mirror.edges.items():
        if {tuple(e) for e in replica.edges.get(label, ())} != edges:
            ok = False
            log(f"write-fresh: follower diverged on label {label}")
    return ok


def _verify(g, sources, episodes) -> bool:
    """Replay the first episode's batches on a copy of the initial graph
    and check each answer against the oracles; every later episode sent
    the same batches and must have given the same answers.  Each
    episode's follower must have ended with the mirror's edge sets."""
    replay = copy.copy(g)
    replay.edges = copy.deepcopy(g.edges)
    automata = [oracles.Automaton(q) if kind != "cfpq" else None
                for kind, q, _ in STANDING_QUERIES]
    arrays = {label: replay.arrays(label) for label in replay.edges}
    first, _ = episodes[0]
    ok = all(follower_ok for _, follower_ok in episodes)
    for step, (deltas, qi, d) in enumerate(first):
        apply_to_mirror(replay, deltas)
        for _, label, _ in deltas:
            arrays[label] = replay.arrays(label)
        if _expected(replay, qi, sources[qi], arrays, automata) != d:
            ok = False
            log(f"write-fresh: wrong answer at op {step} (query {qi})")
    for n, (answers, _) in enumerate(episodes[1:], start=1):
        if answers != first:
            ok = False
            log(f"write-fresh: episode {n} answered differently from episode 0")
    return ok
