"""The benchmark trajectory: one row per ``BENCH_*.json`` record.

    python tools/trajectory.py

Rows come in the order git added the records; a record that git does not
know yet comes last, and without git every record is ordered by name.
Each row gives, per workload, the run_s parent and change medians and
the verdict the record holds, the workloads in ``BENCHMARK.json``'s
order, so that the columns line up; a workload it does not declare comes
last.  A record keeps each workload's metrics under
``end_to_end.<workload>.end_to_end``.  It uses only the standard library.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def metrics_of(record: dict, workload: str) -> dict:
    """Metric name -> result of one workload."""
    return record["end_to_end"][workload]["end_to_end"]


def row(record: dict) -> list:
    """(workload, parent median, change median, verdict) of run_s."""
    out = []
    for workload in sorted(record["end_to_end"], key=lambda w: (
            WORKLOADS.index(w) if w in WORKLOADS else len(WORKLOADS))):
        result = metrics_of(record, workload)["run_s"]
        out.append((workload, result["parent"]["median"],
                    result["change"]["median"], result["verdict"]))
    return out


def records() -> list:
    """The records' paths, in the order git added them."""
    try:
        added = subprocess.run(
            ["git", "log", "--diff-filter=A", "--reverse", "--format=",
             "--name-only", "--", "BENCH_*.json"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        added = ""
    rank = {name: k for k, name in enumerate(added.split())}
    return sorted(ROOT.glob("BENCH_*.json"),
                  key=lambda p: (rank.get(p.name, len(rank)), p.name))


def main() -> int:
    for path in records():
        record = json.loads(path.read_text(encoding="utf-8"))
        cells = [f"{workload} {parent:.4g} -> {change:.4g} {verdict}"
                 for workload, parent, change, verdict in row(record)]
        print(f"{path.stem[len('BENCH_'):]:<24} " + "  |  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
