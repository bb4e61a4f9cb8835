#!/usr/bin/env python3
"""Compare two sets of benchmark results, one per commit.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a directory of result files written by ``run.py`` (the
``.bench_out/results`` of a checkout). For every workload with untraced
runs on both sides, each end-to-end metric gets the median over runs of
each side, the change, the base side's spread (quartile distance over
median) and a verdict against its bound in BENCHMARK.json:

    worse       the new median is worse than the base by more than the bound
    unresolved  the base spread is wider than the bound, unless every new
                run beats every base run
    ok          otherwise

Pipeline outputs are also compared per workload and seed, since a change
is expected to keep them byte-identical. Results recorded on different
machines (Python version, CPU count, platform) are refused.

Exit status: 0 all ok, 1 some metric got worse, 2 refused or no overlap.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("*.json"))]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(d) for d in argv)
    machines = {json.dumps(r["machine"], sort_keys=True) for r in base + new}
    if len(machines) > 1:
        print("refused: results come from different machines:", file=sys.stderr)
        for m in sorted(machines):
            print(f"  {m}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = sorted({r["workload"] for r in base if not r["trace"]}
                       & {r["workload"] for r in new if not r["trace"]})
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':<18} {'metric':<16} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        sides = [[r for r in rs if r["workload"] == w and not r["trace"]] for rs in (base, new)]
        for m in spec["end_to_end"]:
            b, n = ([r["result"]["metrics"][m["name"]]["value"] for r in side] for side in sides)
            mb, mn = statistics.median(b), statistics.median(n)
            sign = 1 if m["better"] == "higher" else -1
            change = (mn - mb) / mb
            if -sign * change > m["bound"]:
                verdict, worse = "worse", True
            elif spread(b) > m["bound"] and not (
                    min(x * sign for x in n) > max(x * sign for x in b)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:<18} {m['name']:<16} {mb:>12.6g} {mn:>12.6g} {change:>+8.2%} "
                  f"{spread(b):>7.2%} {m['bound']:>6.0%}  {verdict}  (runs {len(b)}/{len(n)})")
        digests = {}
        for label, side in zip(("base", "new"), sides):
            for r in side:
                digests.setdefault(r["seed"], {}).setdefault(label, set()).update(
                    r["output_digests"])
        same = [s for s, d in digests.items() if len(d) == 2]
        differ = [s for s in same if digests[s]["base"] != digests[s]["new"]]
        if same:
            print(f"{w:<18} outputs: {len(same) - len(differ)} of {len(same)} shared seeds "
                  f"byte-identical" + (f"; differ on seeds {sorted(differ)}" if differ else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
