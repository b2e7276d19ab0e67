"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-ops --seed 1 --seconds 36 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``).  The line before it records the
run: workload, seed, host facts and the drift control.  A traced run
also writes its spans as Chrome-trace JSON under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-ops", "read-mix", "write-fresh")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no package source under src/repro; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness

    threads = harness.pin_threads()
    drift_before = harness.reference_loop_ms()

    from perfbench import paper_ops, read_mix, write_fresh
    from perfbench.tracer import Tracer

    module = {"paper-ops": paper_ops, "read-mix": read_mix,
              "write-fresh": write_fresh}[args.workload]
    tracer = Tracer() if args.trace else None
    result = module.run(args.seed, args.seconds, tracer)
    drift_after = harness.reference_loop_ms()

    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": harness.host_facts(threads),
        "ref_loop_ms": [round(drift_before, 3), round(drift_after, 3)],
    }
    if tracer is None:
        wanted, values = spec["end_to_end"], result["end_to_end"]
    else:
        wanted = spec["per_layer"]
        values = dict(result["per_layer"])
        values.update(result["ops"].overhead())
        values["host.ref_loop_ms"] = (drift_before + drift_after) / 2
        values["trace.spans"] = len(tracer.spans)
        trace_path = harness.OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(trace_path, run_info)
        run_info["trace_file"] = str(trace_path.relative_to(ROOT))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({"run": run_info}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, and with it the
        # iteration order of sets of labels; fix it, so that every run
        # does its work in the same order.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
