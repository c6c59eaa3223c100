"""The reach table: how large a ``residue_check`` instance finishes within
a CPU budget, and what it cost.

    python tools/reach.py               # budget 10 s CPU per instance
    python tools/reach.py --budget 2.5

Three series grow one instance at a time: (2, N) and (3, N) for N = 1,
2, ..., and (n, 3) for n = 2, 3, ...  Each instance runs in a fresh
interpreter, so no cache carries over from the one before.  A series
stops after its first instance whose CPU time exceeds the budget; an
instance that has not finished when its process reaches the budget plus
two seconds of CPU time is stopped there (the operating system's CPU
limit) and shown as over the budget, so a run is bounded in time and
memory.  An instance that two series share runs once.

Each row gives (n, N), the report's number of records, the CPU seconds of
the ``residue_check`` call, the process's peak resident set (ru_maxrss,
which includes the interpreter and the imports) and the sha256 of the
report's JSON text as ``report_to_json`` writes it, the text that
``tools/digests.py`` hashes.  The library is imported from this
checkout's ``src/``.  It uses only the standard library.
"""

import argparse
import itertools
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SERIES = (lambda k: (2, k), lambda k: (3, k), lambda k: (k + 1, 3))
MAX_RANK = 255


def child(n: int, N: int, budget: float) -> None:
    """Run residue_check(n, N) under the CPU limit and print its row."""
    import hashlib
    import resource
    import time

    limit = math.ceil(budget) + 2
    resource.setrlimit(resource.RLIMIT_CPU,
                       (limit, resource.getrlimit(resource.RLIMIT_CPU)[1]))
    sys.path.insert(0, str(ROOT / "src"))
    from queercrystals.qrep.checks import residue_check
    from queercrystals.serialize import report_to_json

    start = time.process_time()
    report = residue_check(n, N)
    cpu = time.process_time() - start
    text = report_to_json(report)
    print(json.dumps({
        "n": n, "N": N, "records": len(report["records"]),
        "cpu_s": round(cpu, 3),
        "maxrss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}))


def run(n: int, N: int, budget: float) -> dict:
    """The row of one instance, from a fresh interpreter; an instance
    stopped by the CPU limit has no record count and no digest."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(n), str(N),
         "--budget", str(budget)],
        capture_output=True, text=True)
    if done.returncode == 0:
        return json.loads(done.stdout)
    if done.returncode < 0:  # killed at the CPU limit
        return {"n": n, "N": N, "records": None, "cpu_s": None,
                "maxrss_mb": None, "sha256": None}
    raise RuntimeError(f"residue_check({n}, {N}) failed:\n{done.stderr}")


def over(row: dict, budget: float) -> bool:
    return row["cpu_s"] is None or row["cpu_s"] > budget


def table(budget: float):
    """The rows of the three series, each instance once, yielded in the
    order they run."""
    rows = {}
    for size in SERIES:
        for k in itertools.count(1):
            n, N = size(k)
            if n > MAX_RANK:
                break
            if (n, N) not in rows:
                rows[n, N] = run(n, N, budget)
                yield rows[n, N]
            if over(rows[n, N], budget):
                break


def line(row: dict, budget: float) -> str:
    size = f"({row['n']}, {row['N']})"
    if row["cpu_s"] is None:
        return f"{size:<9} stopped at the CPU limit, over {budget:g} s"
    return (f"{size:<9} records {row['records']:>6}  cpu_s "
            f"{row['cpu_s']:>8.3f}  maxrss_mb {row['maxrss_mb']:>7.1f}  "
            f"sha256 {row['sha256']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="residue_check's reach within a CPU budget")
    parser.add_argument("--budget", type=float, default=10.0,
                        help="CPU seconds per instance (default 10)")
    parser.add_argument("--child", nargs=2, type=int, metavar=("n", "N"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.budget <= 0:
        parser.error("the budget must be positive")
    if args.child:
        child(*args.child, args.budget)
        return 0
    for row in table(args.budget):
        print(line(row, args.budget), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
