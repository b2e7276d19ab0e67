"""Run the benchmark over several seeds and keep every run's output.

    python3 perfbench/sweep.py --out perfbench/out/a --seeds 1-10
    python3 perfbench/sweep.py --out perfbench/out/t --seeds 1-3 --trace 1 \\
        --workloads paper-ops

Runs are sequential (one process at a time, so runs do not compete for
cores).  Each run's standard output goes to
``<out>/<workload>-s<seed>-t<trace>.txt``; feed two such directories to
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seeds", default="1-10", type=_seeds)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            target = args.out / f"{workload}-s{seed}-t{args.trace}.txt"
            target.write_text(proc.stdout)
            last = proc.stdout.strip().splitlines()[-1:] or ["<no output>"]
            print(f"{workload} seed={seed} exit={proc.returncode} {last[0][:160]}",
                  flush=True)
            if proc.returncode:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
    return status


if __name__ == "__main__":
    sys.exit(main())
