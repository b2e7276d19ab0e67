"""paper-ops: the paper's operations, single-threaded, on the cuBool port.

One op is one fixed round over the E0 graph families (uniform,
power-law, grid, fan-hub): per family ``M·M``, ``Mᵀ``, ``M ∨ Mᵀ``,
``tile ⊗ M``, a sub-matrix and the row reduction; then one transitive
closure and one CFPQ index (Azimov's matrix algorithm, query G2); last,
``M·M`` of two denser matrices on a second, ``hybrid="auto"`` context,
which the dispatcher sends to the flat and to the tiled bit kernels.  A
round is the unit because single ops differ in cost by orders of
magnitude, and a median over them would pick whichever op sits in the
middle.  Op time is the time spent inside the package's calls; checking
each output against its SciPy oracle happens between calls, untimed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from . import oracles
from .harness import (
    SPARSE_OPS,
    Ops,
    hybrid_counts,
    hybrid_layers,
    log,
    rss_peak_mib,
    with_setups,
)
from .inputs import paper_ops_input

CUBOOL_OPS = ("mxm", "ewise_add", "kron", "transpose", "extract_submatrix",
              "reduce_to_column")


def _expected(inp) -> dict:
    """Oracle digests of every output of a round."""
    out = {}
    tile = oracles.pattern(*inp.tile, (3, 3))
    for f in inp.families:
        m = oracles.pattern(f.rows, f.cols, (f.n, f.n))
        t = oracles.transpose(m)
        out[(f.name, "mxm")] = oracles.csr_digest(oracles.mxm(m, m))
        out[(f.name, "transpose")] = oracles.csr_digest(t)
        out[(f.name, "add")] = oracles.csr_digest(oracles.ewise_add(m, t))
        out[(f.name, "kron")] = oracles.csr_digest(oracles.kron(tile, m))
        out[(f.name, "sub")] = oracles.csr_digest(
            oracles.submatrix(m, *inp.submatrix[f.name]))
        out[(f.name, "reduce")] = oracles.digest(oracles.reduce_rows(m))
    for f in inp.hybrid:
        m = oracles.pattern(f.rows, f.cols, (f.n, f.n))
        out[(f.name, "mxm")] = oracles.csr_digest(oracles.mxm(m, m))
    c = inp.closure
    out["closure"] = oracles.csr_digest(
        oracles.closure(oracles.pattern(c.rows, c.cols, (c.n, c.n))))
    terminals, binary = oracles.same_generation_cnf(
        "~subClassOf", "subClassOf", base="subClassOf")
    out["cfpq"] = oracles.pairs_digest(
        oracles.cnf_fixpoint(inp.cfpq_graph.edges, terminals, binary))
    return out


def _labeled_graph(h):
    from repro.graph import LabeledGraph

    g = LabeledGraph(n=h.n)
    for label, (r, c) in h.edges.items():
        g.edges[label].extend(zip(r.tolist(), c.tolist()))
    return g


def _build(inp):
    """The program's set-up: both contexts and every input matrix."""
    import repro
    from repro.grammar.cfg import CFG

    t0 = time.perf_counter()
    ctx = repro.Context(backend="cubool", hybrid=False)
    mats = {
        f.name: ctx.matrix_from_lists((f.n, f.n), f.rows, f.cols)
        for f in inp.families
    }
    hctx = repro.Context(backend="cubool", hybrid="auto")
    hybrid = {
        f.name: hctx.matrix_from_lists((f.n, f.n), f.rows, f.cols)
        for f in inp.hybrid
    }
    tile = ctx.matrix_from_lists((3, 3), *inp.tile)
    c = inp.closure
    closure_in = ctx.matrix_from_lists((c.n, c.n), c.rows, c.cols)
    graph = _labeled_graph(inp.cfpq_graph)
    grammar = CFG.from_text(inp.cfpq_grammar)
    state = {"ctx": ctx, "mats": mats, "tile": tile, "closure": closure_in,
             "graph": graph, "grammar": grammar, "hctx": hctx, "hybrid": hybrid}
    return state, time.perf_counter() - t0


def _pattern_digest(m) -> str:
    r, c = m.to_arrays()
    return oracles.pattern_digest(r, c)


def _round(state, inp, tracer, expected) -> tuple[float, bool]:
    """One op; returns (seconds inside the package, outputs correct)."""
    from repro.algorithms.closure import transitive_closure
    from repro.cfpq import matrix_cfpq

    span = tracer.span if tracer is not None else None
    spent = 0.0
    ok = True

    def timed(fn, name=None):
        nonlocal spent
        t0 = time.perf_counter()
        if span is not None and name is not None:
            with span(name, usage=True):
                out = fn()
        else:
            out = fn()
        spent += time.perf_counter() - t0
        return out

    def release(obj):
        nonlocal spent
        t0 = time.perf_counter()
        obj.free()
        spent += time.perf_counter() - t0

    def check(key, value):
        nonlocal ok
        if value != expected[key]:
            ok = False
            log(f"paper-ops: wrong output for {key}")

    tile = state["tile"]
    for f in inp.families:
        m = state["mats"][f.name]
        out = timed(lambda: m.mxm(m))
        check((f.name, "mxm"), _pattern_digest(out))
        release(out)
        t = timed(lambda: m.transpose())
        check((f.name, "transpose"), _pattern_digest(t))
        out = timed(lambda: m.ewise_add(t))
        check((f.name, "add"), _pattern_digest(out))
        release(out)
        release(t)
        out = timed(lambda: tile.kron(m))
        check((f.name, "kron"), _pattern_digest(out))
        release(out)
        out = timed(lambda: m.extract_submatrix(*inp.submatrix[f.name]))
        check((f.name, "sub"), _pattern_digest(out))
        release(out)
        vec = timed(lambda: m.reduce_to_vector())
        check((f.name, "reduce"), oracles.digest(np.sort(vec.to_indices().astype(np.int64))))
        release(vec)
    out = timed(lambda: transitive_closure(state["closure"]), "algorithms.closure")
    check("closure", _pattern_digest(out))
    release(out)
    index = timed(lambda: matrix_cfpq(state["graph"], state["grammar"], state["ctx"]),
                  "cfpq.index")
    check("cfpq", oracles.pairs_digest(index.pairs()))
    timed(index.free)
    for f in inp.hybrid:
        m = state["hybrid"][f.name]
        out = timed(lambda: m.mxm(m))
        check((f.name, "mxm"), _pattern_digest(out))
        release(out)
    return spent, ok


#: Repetitions of each family product in the paper-reference pass.
REFERENCE_REPEATS = 5


def _reference_mxm(inp, tracer) -> dict:
    """Traced runs only, outside any op: every family's ``M·M`` on the
    cuBool, generic and clBool backends, the paper's comparison.

    Returns each backend's median per product and the generic/cuBool and
    clBool/cuBool ratios of the summed per-family medians.
    """
    import repro

    per_family: dict = {}
    for backend in ("cubool", "generic", "clbool"):
        ctx = repro.Context(backend=backend, hybrid=False)
        mats = [ctx.matrix_from_lists((f.n, f.n), f.rows, f.cols) for f in inp.families]
        name = f"paper.{backend}.mxm"
        tracer.wrap(ctx.backend, "mxm", name)
        for i, m in enumerate(mats):
            start = len(tracer.durations[name])
            for _ in range(REFERENCE_REPEATS):
                m.mxm(m).free()
            per_family[(backend, i)] = statistics.median(tracer.durations[name][start:])
        ctx.finalize()

    def total(backend):
        return sum(v for (b, _), v in per_family.items() if b == backend)

    return {
        "backends.generic.mxm_ms": tracer.median_ms("paper.generic.mxm"),
        "backends.clbool.mxm_ms": tracer.median_ms("paper.clbool.mxm"),
        "paper.generic_over_cubool": total("generic") / total("cubool"),
        "paper.clbool_over_cubool": total("clbool") / total("cubool"),
    }


def run(seed: int, seconds: float, tracer) -> dict:
    inp = paper_ops_input(seed)
    expected = _expected(inp)

    def teardown(state):
        state["ctx"].finalize()
        state["hctx"].finalize()

    result, setup_s = with_setups(
        lambda: _build(inp), teardown,
        lambda state: _timed(state, inp, expected, seconds, tracer))
    result["end_to_end"]["setup_s"] = setup_s
    return result


def _timed(state, inp, expected, seconds, tracer) -> dict:
    ctx, hctx = state["ctx"], state["hctx"]
    if tracer is not None:
        for op in CUBOOL_OPS:
            tracer.wrap(ctx.backend, op, f"backends.cubool.{op}", usage=True)
        for op in SPARSE_OPS:
            tracer.wrap(hctx.backend.inner, op, f"backends.hybrid.sparse.{op}")
    # Warm-up round: lazy imports, first-touch allocations, and the
    # hybrid operands' bit views (the dispatcher caches them).
    _round(state, inp, None, expected)
    arenas = [ctx.device.arena, hctx.device.arena]
    for arena in arenas:
        arena.reset_peak()
    allocs0 = sum(a.stats().alloc_count for a in arenas)
    hybrid0 = hybrid_counts(hctx.backend)
    ops = Ops(traced_run=tracer is not None)
    ops.begin()
    while time.perf_counter() - ops.start < seconds:
        traced = ops.slice_traced(time.perf_counter())
        if tracer is not None:
            tracer.enabled = traced
            tracer.set_op(ops.attempted)
        ops.attempted += 1
        try:
            spent, ok = _round(state, inp, tracer if traced else None, expected)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            ops.failed += 1
            log(f"paper-ops: round failed: {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        if not ok:
            ops.correct = False
        ops.record(spent, traced)
    rounds = ops.attempted
    e2e = ops.summary()
    e2e["arena_peak_mib"] = sum(a.peak_bytes for a in arenas) / 2**20
    e2e["rss_peak_mib"] = rss_peak_mib()
    layers = {}
    if tracer is not None:
        layers["gpu.arena_allocs"] = (
            sum(a.stats().alloc_count for a in arenas) - allocs0) / max(1, rounds)
        layers.update(hybrid_layers(
            hybrid0, hybrid_counts(hctx.backend), rounds,
            tracer.total_ms("backends.hybrid.sparse.") / max(1, len(ops.traced))))
        tracer.enabled = True
        layers.update(_reference_mxm(inp, tracer))
        tracer.enabled = False
        for op in ("mxm", "ewise_add", "kron"):
            layers[f"backends.cubool.{op}_ms"] = tracer.median_ms(f"backends.cubool.{op}")
        traced_rounds = max(1, len(ops.traced))
        faults = sum(u["minor_faults"] for k, u in tracer.usage.items()
                     if k.startswith("backends.cubool."))
        sys_s = sum(u["sys_s"] for k, u in tracer.usage.items()
                    if k.startswith("backends.cubool."))
        layers["backends.cubool.minor_faults"] = faults / traced_rounds
        layers["backends.cubool.sys_ms"] = sys_s * 1e3 / traced_rounds
        layers["algorithms.closure_ms"] = tracer.median_ms("algorithms.closure")
        cu = tracer.usage["algorithms.closure"]
        layers["algorithms.closure_minor_faults"] = cu["minor_faults"] / max(1, cu["calls"])
        layers["algorithms.closure_sys_share"] = (
            cu["sys_s"] / max(1e-12, sum(tracer.durations["algorithms.closure"])))
        layers["cfpq.index_ms"] = tracer.median_ms("cfpq.index")
    return {"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed,
            "end_to_end": e2e, "per_layer": layers, "ops": ops}
