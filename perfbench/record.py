#!/usr/bin/env python3
"""Record every pool item's cost and output digest into pool.json.

    python3 perfbench/record.py

Runs each workload's whole pool in cold children, five times, under two
alternating hash seeds.  Every item must pass and give the same digest
every time; the recorded cost is its median latency in reference seconds
(``speed.py``), the estimate the benchmark's own metrics use.  The
samplers and the pass count draw from these costs, so re-recording
changes which items each seed draws: it is a change to the benchmark,
made on its own and followed by a fresh baseline.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pool  # noqa: E402
import run  # noqa: E402


def main() -> int:
    record = {"hash_seeds": [run.HASH_SEED, run.HASH_SEED_ALT],
              "items": {}, "workloads": {}}
    status = 0
    for workload, items in pool.pool_items().items():
        results = []
        for hash_seed in (run.HASH_SEED, run.HASH_SEED_ALT) * 2 + (run.HASH_SEED,):
            result = run.run_child(items, False, hash_seed,
                                   time.perf_counter() + 1800)
            results.append({m["item"]: m for m in result["items"]})
        for spec in items:
            runs = [r.get(spec["id"]) for r in results]
            if (any(m is None or m["error"] or not m["passed"] for m in runs)
                    or len({m["digest"] for m in runs}) != 1):
                print(f"{workload}: {spec['id']}: failed or not deterministic: {runs}")
                status = 1
                continue
            record["items"][spec["id"]] = {
                "kind": spec["kind"], "args": spec["args"],
                "cost_s": round(statistics.median(m["reference_s"] for m in runs), 5),
                "digest": runs[0]["digest"]}
        record["workloads"][workload] = [spec["id"] for spec in items]
        total = sum(record["items"][s["id"]]["cost_s"] for s in items
                    if s["id"] in record["items"])
        print(f"{workload}: {len(items)} items, {total:.2f} s recorded")
    if status:
        return status
    with open(pool.POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
