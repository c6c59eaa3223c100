#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``run.py --out``.  For every workload
and end-to-end metric it prints each side's median and quartiles and a
verdict against the bound in ``BENCHMARK.json``:

  unresolved  the base's own spread (quartile distance over median) is
              wider than the bound, and the sides overlap
  worse       the new median is worse than the base median by more than
              the bound
  better      the new side wins at least nine tenths of the seed-paired
              runs and the medians differ by more than the base's spread
  same        none of the above

Results from different kernel implementations are never paired: the
comparison refuses them and exits 2.
"""

import json
import statistics
import sys

from metrics import declared


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list, new: list, better: str, bound: float, wins: float) -> str:
    q1, median, q3 = spread(base)
    new_median = statistics.median(new)
    sign = 1 if better == "lower" else -1
    change = sign * (new_median - median) / median
    base_spread = (q3 - q1) / median
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if base_spread > bound and overlap:
        return "unresolved"
    if change > bound:
        return "worse"
    if wins >= 0.9 and -change > base_spread:
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(path) for path in argv)
    kernels = {side: {r["provenance"]["kernel_implementation"] for r in records}
               for side, records in (("base", base), ("new", new))}
    if len(kernels["base"] | kernels["new"]) != 1:
        print(f"refusing to pair results from different kernel "
              f"implementations: {kernels}", file=sys.stderr)
        return 2
    workloads = sorted({r["provenance"]["workload"] for r in base + new})
    for workload in workloads:
        b = [r for r in base if r["provenance"]["workload"] == workload]
        n = [r for r in new if r["provenance"]["workload"] == workload]
        if not b or not n:
            print(f"{workload}: missing on one side")
            continue
        failed = (sum(r["failed"] for r in b), sum(r["failed"] for r in n))
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs, "
              f"failed items {failed[0]} -> {failed[1]}")
        for m in declared()["end_to_end"]:
            name, unit, better, bound = m["name"], m["unit"], m["better"], m["bound"]
            bv = [r["end_to_end"][name] for r in b]
            nv = [r["end_to_end"][name] for r in n]
            by_seed = {r["provenance"]["seed"]: r["end_to_end"][name] for r in b}
            pairs = [(by_seed[r["provenance"]["seed"]], r["end_to_end"][name])
                     for r in n if r["provenance"]["seed"] in by_seed]
            won = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
            wins = won / len(pairs) if pairs else 0.0
            bq, nq = spread(bv), spread(nv)
            print(f"  {name:<12} {unit:<4} base {bq[1]:.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f"  new {nq[1]:.5g} [{nq[0]:.5g}, {nq[2]:.5g}]"
                  f"  wins {won}/{len(pairs)}  bound {bound}"
                  f"  {verdict(bv, nv, better, bound, wins)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
