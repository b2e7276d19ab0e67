"""Pieces every workload shares: host facts, the drift control, timing
summaries, set-up repetition and the traced/untraced time slices."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11
#: Length of one traced or untraced slice of a traced run.
TRACE_SLICE_S = 0.5

OUT = Path(__file__).resolve().parent / "out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> dict:
    """Fix every thread-count knob before NumPy loads; returns the settings.

    BLAS pools run one thread (the kernels under test are not BLAS
    calls, and a pool sized by the host would make runs differ between
    hosts); the package's bit kernels run serially (``REPRO_BIT_WORKERS=1``),
    since a kernel split across the cores runs at the pace of the busier one.
    Package switches that would change what runs are cleared: each
    workload passes its policy explicitly.
    """
    settings = {
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_BIT_WORKERS": "1",
    }
    os.environ.update(settings)
    for name in ("REPRO_HYBRID", "REPRO_HYBRID_AUTOTUNE", "REPRO_STORE",
                 "REPRO_CHECK_LOCKS", "REPRO_LOCK_HOLD_MS"):
        os.environ.pop(name, None)
    return settings


def reference_loop_ms() -> float:
    """Median time of a fixed pure-NumPy sort/unique loop (drift control).

    The same loop varies by a quarter between processes on a shared
    host, so a slow host is reported next to a slow program.
    """
    import numpy as np

    x = np.random.default_rng(12345).integers(0, 1 << 20, 1 << 16)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.unique(x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def host_facts(threads: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "cores": os.cpu_count(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def rss_peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, int(round(q * len(xs))) - 1))]


def with_setups(build, teardown, body):
    """Measure set-up from scratch SETUP_REPEATS times and run ``body``
    on one of the states.

    ``build() -> (state, seconds)`` times only the package's own calls.
    Six set-ups run before ``body`` (it gets the last one) and the rest
    after it, so the median spans two host states half a minute apart
    instead of one short window.  Returns (body's result, median
    seconds).
    """
    before = SETUP_REPEATS // 2 + 1
    times, state = [], None
    for _ in range(before):
        if state is not None:
            teardown(state)
        state, seconds = build()
        times.append(seconds)
    try:
        result = body(state)
    finally:
        teardown(state)
    for _ in range(SETUP_REPEATS - before):
        state, seconds = build()
        times.append(seconds)
        teardown(state)
    return result, statistics.median(times)


@dataclass
class Ops:
    """Op latencies of the timed phase, split by trace slice."""

    traced_run: bool
    latencies: list = field(default_factory=list)     # untraced slices
    traced: list = field(default_factory=list)        # traced slices
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    start: float = 0.0

    def begin(self) -> None:
        self.start = time.perf_counter()

    def slice_traced(self, now: float) -> bool:
        """Whether the slice containing ``now`` is traced (odd slices)."""
        return self.traced_run and int((now - self.start) / TRACE_SLICE_S) % 2 == 1

    def record(self, seconds: float, traced: bool) -> None:
        (self.traced if traced else self.latencies).append(seconds)

    def summary(self, clients: int = 1) -> dict:
        """``op_ms``, ``op_p90_ms`` and ``ops_per_s`` of the run.

        Throughput is ``clients`` closed-loop clients over the mean op
        time (Little's law), so the untimed checks a client makes
        between ops do not count.
        """
        xs = self.latencies or self.traced
        return {
            "op_ms": statistics.median(xs) * 1e3,
            "op_p90_ms": percentile(xs, 0.90) * 1e3,
            "ops_per_s": clients * len(xs) / sum(xs),
        }

    def overhead(self) -> dict:
        if not (self.latencies and self.traced):
            return {"trace.overhead_pct": 0.0, "trace.traced_op_ms": 0.0}
        a = statistics.median(self.latencies)
        b = statistics.median(self.traced)
        return {"trace.overhead_pct": (b / a - 1.0) * 100.0,
                "trace.traced_op_ms": b * 1e3}


HYBRID_ROUTES = ("sparse", "bit", "tiled", "value")


def hybrid_counts(backend) -> tuple[dict, dict]:
    """Route decisions and kernel seconds so far of a hybrid backend.

    The dispatcher counts a tiled product as a ``bit`` route decision;
    here ``bit`` keeps only the flat bit kernels and ``tiled`` the
    products that ran a tiled kernel.  Kernel seconds come from the
    dispatcher's own ``kernel_times`` (it records no sparse kernel time).
    """
    routes = dict.fromkeys(HYBRID_ROUTES, 0)
    for counter in backend.dispatch_counts.values():
        for route, n in counter.items():
            routes[route] += n
    tiled = sum(n for counter in backend.kernel_counts.values()
                for kernel, n in counter.items() if kernel.startswith("tiled"))
    routes["bit"] -= tiled
    routes["tiled"] += tiled
    kernel_s = {"bit": 0.0, "tiled": 0.0, "value": 0.0}
    for times in backend.kernel_times.values():
        for kernel, s in times.items():
            key = ("value" if kernel.startswith("generic:")
                   else "tiled" if kernel.startswith("tiled") else "bit")
            kernel_s[key] += s
    return routes, kernel_s


def hybrid_layers(before, after, ops: int, sparse_ms: float) -> dict:
    """Per-layer hybrid figures between two :func:`hybrid_counts`
    snapshots: route decisions, and kernel milliseconds per op.
    ``sparse_ms`` is the time the benchmark's spans saw in the wrapped
    sparse backend, per traced op."""
    (routes0, kernel0), (routes1, kernel1) = before, after
    layers = {f"backends.hybrid.routes.{r}": routes1[r] - routes0[r]
              for r in HYBRID_ROUTES}
    for route in kernel0:
        layers[f"backends.hybrid.kernel_ms.{route}"] = (
            (kernel1[route] - kernel0[route]) * 1e3 / max(1, ops))
    layers["backends.hybrid.kernel_ms.sparse"] = sparse_ms
    return layers


#: Sparse-backend operations wrapped under ``backends.hybrid.sparse.*``.
SPARSE_OPS = ("mxm", "ewise_add", "ewise_mult", "kron", "transpose",
              "extract_submatrix", "reduce_to_column")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
