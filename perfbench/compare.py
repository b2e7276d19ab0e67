"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py perfbench/out/a perfbench/out/b
    python3 perfbench/compare.py perfbench/out/a          # one set: spreads only

Each argument is a directory of run outputs (standard output of
``run.py``, as ``sweep.py`` saves them).  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over median), and whether the sets agree within the
metric's bound from BENCHMARK.json: each spread within the bound, and
the two medians apart by at most the bound, in either direction
(``|b - a| / a``, so ``compare A B`` and ``compare B A`` agree on the
same rows up to the choice of base).  The spread of ``setup_s`` is
printed but not judged: set-up is a few tens of milliseconds of a
shared host, and its bound is meant for the medians.  It also checks
that the share of failed operations is the same in both sets.  Exits 1
when any row disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """workload -> {"metrics": {name: [values]}, "attempted": n, "failed": n}"""
    out: dict = defaultdict(lambda: {"metrics": defaultdict(list), "attempted": 0,
                                     "failed": 0, "runs": 0, "correct": True})
    for path in sorted(directory.glob("*.txt")):
        lines = [ln for ln in path.read_text().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            continue
        info = json.loads(lines[-2]).get("run", {})
        if info.get("trace"):
            continue
        result = json.loads(lines[-1])
        w = out[info["workload"]]
        w["runs"] += 1
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        w["correct"] &= bool(result["correct"])
        for name, m in result["metrics"].items():
            w["metrics"][name].append(m["value"])
    return out


def stats(values: list) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load(args.first)] + ([load(args.second)] if args.second else [])
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        if not all(wl in s for s in sets):
            continue
        rows = [s[wl] for s in sets]
        shares = [r["failed"] / max(1, r["attempted"]) for r in rows]
        print(f"\n{wl}: runs {[r['runs'] for r in rows]}, failed share {shares}, "
              f"correct {[r['correct'] for r in rows]}")
        if len(set(shares)) > 1 or not all(r["correct"] for r in rows):
            status = 1
        print(f"  {'metric':16s} {'bound':>5s} " + " | ".join(
            f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>6s}" for _ in rows)
            + ("  change  agree" if len(rows) == 2 else "  agree"))
        for m in metrics:
            bound = m["bound"]
            st = [stats(r["metrics"][m["name"]]) for r in rows]
            ok = all(s[3] <= bound for s in st) or m["name"] == "setup_s"
            cells = " | ".join(f"{a:10.4g} {b:10.4g} {c:10.4g} {d:6.3f}" for a, b, c, d in st)
            tail = ""
            if len(st) == 2:
                a, b = st[0][0], st[1][0]
                change = (b - a) / a
                ok = ok and abs(change) <= bound
                tail = f"  {change:+6.3f}"
            if not ok:
                status = 1
            print(f"  {m['name']:16s} {bound:5.2f} {cells}{tail}   {'yes' if ok else 'NO'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
