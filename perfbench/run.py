#!/usr/bin/env python3
"""The repository benchmark: cold-process verifier workloads.

    python3 perfbench/run.py --workload shape-sweep --seed 1 --seconds 32 --trace 0

Every pass of a workload runs in a fresh child interpreter started from
this process, one child at a time: a closed loop with concurrency 1, as a
user running the CLI sees it.  Module-level caches and GC state never
carry over between passes.  A run makes as many passes as fit in
``--seconds`` at the items' recorded cost, at least one.  Times are in
reference seconds (``speed.py``), which discount the slow periods of a
shared machine.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` one more pass runs with the per-layer tracer and the last
line holds the per-layer metrics.  Every item's output is checked against
the digest recorded in ``pool.json``; a mismatch, an exception, a timeout
or a failed report makes the item fail.  Timed passes run under one fixed
``PYTHONHASHSEED``.

``--workload all`` measures each workload in turn, each ending in its own
result line.

Other modes:
    --list              print the items the seed draws, and exit
    --hashseed-check    run the draw under two hash seeds; digests must agree
    --out FILE          also append the full result record to FILE (JSON lines)
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import pool  # noqa: E402
import speed  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
HASH_SEED = 0
HASH_SEED_ALT = 1729
SETUP_SAMPLES = 15
# a pass's wall time over its items' recorded cost (in reference seconds)
# during a slow period, and its fixed part
PASS_COST_FACTOR = 2.0
PASS_OVERHEAD_S = 0.3
RUN_LIMIT_S = 170.0


class Child:
    """A child interpreter and the protocol messages it writes."""

    def __init__(self, hash_seed: int, deadline: float):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED=str(hash_seed))
        # start-up reads cached bytecode, as an installed package would
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = deadline
        self.diagnostics = []
        self._buffer = b""
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT)

    def message(self):
        """Next protocol message, or None at end of output or deadline."""
        fd = self.proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline].decode("utf-8", "replace")
                self._buffer = self._buffer[newline + 1:]
                if line.startswith("@@ "):
                    return json.loads(line[3:])
                self.diagnostics.append(line)
                continue
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk

    def send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request).encode("utf-8"))
        self.proc.stdin.close()

    def close(self) -> None:
        try:
            self.proc.wait(timeout=max(0.0, min(5.0, self.deadline - time.perf_counter())))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(items: list, trace: bool, hash_seed: int, deadline: float) -> dict:
    """One pass (or, with no items, one set-up only) in a fresh child."""
    child = Child(hash_seed, deadline)
    try:
        ready = child.message()
        setup_wall_s = time.perf_counter() - child.started
        if ready is None or not ready.get("ready"):
            return {"ready": None, "setup_s": None, "items": [],
                    "complete": False, "diagnostics": child.diagnostics,
                    "body_s": 0.0, "peak_rss_mb": 0.0, "prim_cache": [0, 0],
                    "trace": None}
        setup_s = speed.discount(setup_wall_s - ready["probe_s"], ready["slowdown"])
        child.send({"items": items, "trace": trace})
        sent = time.perf_counter()
        reported = []
        done = None
        while len(reported) < len(items) or (items and done is None):
            msg = child.message()
            if msg is None:
                break
            if "item" in msg:
                reported.append(msg)
            elif msg.get("done"):
                done = msg
        result = {"ready": ready, "setup_s": setup_s, "items": reported,
                  "complete": done is not None or not items,
                  "diagnostics": child.diagnostics}
        if done is not None:
            result.update(body_s=done["body_s"], peak_rss_mb=done["peak_rss_mb"],
                          prim_cache=done["prim_cache"], trace=done["trace"])
        else:
            result.update(body_s=time.perf_counter() - sent, peak_rss_mb=0.0,
                          prim_cache=[0, 0], trace=None)
        return result
    finally:
        child.close()


def planned_passes(items: list, seconds: float) -> int:
    """Passes a run makes: as many as fit in ``seconds`` at recorded cost.

    The count depends only on ``pool.json``, so two commits measured with
    one seed take their medians over the same number of passes.
    """
    per_pass = sum(s["cost_s"] for s in items) * PASS_COST_FACTOR + PASS_OVERHEAD_S
    return max(1, int(seconds // per_pass))


def check_pass(result: dict, items: list, digests: dict) -> list:
    """Failure reasons per expected item (an empty list means all good)."""
    failures = []
    reported = {m["item"]: m for m in result["items"]}
    for spec in items:
        msg = reported.get(spec["id"])
        if msg is None:
            failures.append((spec["id"], "not reported (timed out or crashed)"))
        elif msg["error"]:
            failures.append((spec["id"], msg["error"]))
        elif not msg["passed"]:
            failures.append((spec["id"], "report did not pass"))
        elif msg["digest"] != digests[spec["id"]]:
            failures.append((spec["id"], "digest differs from the recorded one"))
    return failures


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".so")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build() -> None:
    """Build the package's extension in place, once per source state.

    A no-op while the build has no extension to compile; otherwise the
    compiled kernel is what the benchmark measures, and the provenance
    records it.
    """
    setup = os.path.join(ROOT, "setup.py")
    if not os.path.exists(setup):
        return
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    inputs = hashlib.sha256()
    for name in ("setup.py", "pyproject.toml"):
        path = os.path.join(ROOT, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                inputs.update(fh.read())
    inputs.update(source_digest().encode("ascii"))
    stamp = os.path.join(build_dir, "build.stamp")
    if os.path.exists(stamp):
        with open(stamp, encoding="ascii") as fh:
            if fh.read() == inputs.hexdigest():
                return
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "w", encoding="utf-8") as log:
        code = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", os.path.join(build_dir, "temp")],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=600).returncode
    if code != 0:
        sys.exit(f"build failed; see {os.path.join(build_dir, 'build.log')}")
    with open(stamp, "w", encoding="ascii") as fh:
        fh.write(inputs.hexdigest())


def list_items(workloads: list, seed: int, recorded: dict) -> None:
    for workload in workloads:
        items = pool.sample(workload, seed, recorded)
        print(json.dumps({"workload": workload, "seed": seed,
                          "seed_effect": pool.SEED_EFFECT[workload],
                          "items": [{"id": s["id"], "kind": s["kind"],
                                     "args": s["args"],
                                     "recorded_cost_s": s["cost_s"]}
                                    for s in items]}))


def hashseed_check(workloads: list, seed: int, recorded: dict) -> int:
    digests = {k: v["digest"] for k, v in recorded["items"].items()}
    status = 0
    for workload in workloads:
        items = pool.sample(workload, seed, recorded)
        deadline = time.perf_counter() + 2 * RUN_LIMIT_S
        runs = {h: run_child(items, False, h, deadline)
                for h in (HASH_SEED, HASH_SEED_ALT)}
        seen = {}
        for h, result in runs.items():
            for msg in result.get("items", []):
                seen.setdefault(msg["item"], {})[h] = msg["digest"]
        problems = [(i, r) for h, result in runs.items()
                    for i, r in check_pass(result, items, digests)]
        problems += [(spec["id"], "digests differ between hash seeds")
                     for spec in items
                     if len(set(seen.get(spec["id"], {}).values())) > 1]
        for item_id, reason in problems:
            print(f"{workload}: {item_id}: {reason}")
        print(f"{workload}: {len(items)} items under PYTHONHASHSEED "
              f"{HASH_SEED} and {HASH_SEED_ALT}: "
              + ("identical digests" if not problems else "FAILED"))
        status |= bool(problems)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=pool.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--hashseed-check", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    args = parser.parse_args(argv)

    recorded = pool.load_pool()
    workloads = list(pool.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.list:
        list_items(workloads, args.seed, recorded)
        return 0
    if not os.path.exists(os.path.join(ROOT, "src", "queercrystals", "__init__.py")):
        print("no library under src/queercrystals to benchmark", file=sys.stderr)
        return 2
    build()
    if args.hashseed_check:
        return hashseed_check(workloads, args.seed, recorded)
    status = 0
    for workload in workloads:
        args.workload = workload
        status |= measure(args, recorded)
    return status


def measure(args, recorded: dict) -> int:
    workload = args.workload
    items = pool.sample(workload, args.seed, recorded)
    digests = {k: v["digest"] for k, v in recorded["items"].items()}
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    warm = run_child([], False, HASH_SEED, deadline)  # fills the bytecode cache
    if warm["ready"] is None:
        print("the library did not import:\n" + "\n".join(warm["diagnostics"]),
              file=sys.stderr)
        return 3

    passes = []
    planned = planned_passes(items, args.seconds)
    measure_start = time.perf_counter()
    while len(passes) < planned:
        passes.append(run_child(items, False, HASH_SEED, deadline))
        per_pass = (time.perf_counter() - measure_start) / len(passes)
        # a commit too slow for the plan stops early rather than overrun
        if (not passes[-1]["complete"]
                or time.perf_counter() + per_pass * (2 + 3 * args.trace) > deadline):
            break
    setups = [p["setup_s"] for p in passes if p["ready"]]
    while len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        extra = run_child([], False, HASH_SEED, deadline)
        if extra["ready"] is None:
            break
        setups.append(extra["setup_s"])

    failures = [f for p in passes for f in check_pass(p, items, digests)]
    attempted = len(items) * len(passes)
    if not metrics.item_latencies(passes) or not setups:
        print("no item finished:\n" + "\n".join(passes[-1]["diagnostics"]),
              file=sys.stderr)
        return 3
    values = metrics.end_to_end(passes, setups)
    traced = None
    if args.trace:
        traced = run_child(items, True, HASH_SEED, deadline)
        failures += check_pass(traced, items, digests)
        attempted += len(items)
    failed_items = len(failures)
    problems = [f"{i}: {r}" for i, r in failures]

    layer_values = None
    if traced is not None and traced["trace"] is not None:
        layer_values = metrics.per_layer(
            traced, statistics.median(p["body_s"] for p in passes))
        untraced = {m["item"]: m["digest"] for m in passes[0]["items"]}
        if any(untraced.get(m["item"]) != m["digest"] for m in traced["items"]):
            problems.append("traced digests differ from the untraced ones")
        share = layer_values["trace.unattributed_s"] / layer_values["trace.run_s"]
        if share > metrics.UNATTRIBUTED_LIMIT:
            problems.append(
                f"layer self times leave {share:.1%} of the traced pass "
                f"unattributed (limit {metrics.UNATTRIBUTED_LIMIT:.0%})")
    elif traced is not None:
        problems.append("the traced pass did not finish")

    ready = passes[0]["ready"] or warm["ready"]
    provenance = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_implementation": ready["kernel"],
        "queercrystals_pure": ready["pure_env"], "python": ready["python"],
        "nproc": os.cpu_count(), "hash_seed": HASH_SEED,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "concurrency": 1, "seed_effect": pool.SEED_EFFECT[workload],
    }
    declared = metrics.declared()
    report(values, passes, setups, len(items), failed_items, attempted,
           layer_values, traced, problems, provenance, declared)

    chosen = layer_values if args.trace else values
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed_items,
        "metrics": {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace else "end_to_end"]}
                   if chosen else {},
    }
    if args.out:
        record = {"provenance": provenance, "end_to_end": values,
                  "per_layer": layer_values, "correct": result["correct"],
                  "attempted": attempted, "failed": failed_items,
                  "items_per_pass": len(items),
                  "pass_body_s": [p["body_s"] for p in passes],
                  "setup_samples_s": setups,
                  "item_seconds": {spec["id"]: [m["seconds"] for p in passes
                                                for m in p["items"]
                                                if m["item"] == spec["id"]]
                                   for spec in items},
                  "item_reference_s": {spec["id"]: [m["reference_s"] for p in passes
                                                    for m in p["items"]
                                                    if m["item"] == spec["id"]]
                                       for spec in items}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def report(values, passes, setups, per_pass, failed, attempted, layer_values,
           traced, problems, provenance, declared) -> None:
    """Human-readable lines before the result line."""
    latencies = metrics.item_latencies(passes)
    tail_value, tail_pct = metrics.tail(latencies)
    notes = {
        "run_s": f"reference s, sum of each item's median of {len(passes)} pass(es)",
        "items_per_s": f"{per_pass} items per pass",
        "item_p50_s": f"{len(latencies)} items, median of {len(passes)} each",
        "item_tail_s": f"p{tail_pct:.1f} of {len(latencies)} items",
        "setup_s": f"median of {len(setups)} child start-ups",
        "peak_rss_mb": f"median of {len(passes)} pass(es)",
    }
    print(f"workload {provenance['workload']}  seed {provenance['seed']}  "
          f"kernel {provenance['kernel_implementation']}  "
          f"PYTHONHASHSEED {provenance['hash_seed']}  concurrency 1 (closed loop)")
    for m in declared["end_to_end"]:
        name = m["name"]
        print(f"  {name:<14} {values[name]:.6g} {m['unit']:<4} ({notes[name]})")
    print(f"  {'fail_share':<14} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items failed)")
    if layer_values is not None:
        print("per-layer metrics (traced pass):")
        for m in declared["per_layer"]:
            name = m["name"]
            print(f"  {name:<42} {layer_values[name]:.6g} {m['unit']:<5} "
                  f"moves {metrics.MOVES[name]}")
        rows = sorted(traced["trace"]["stats"], key=lambda r: -r[4])[:15]
        print("hottest (function, parent) edges by self time:")
        for name, parent, calls, total, self_s in rows:
            print(f"  {self_s:10.4f} s self {total:10.4f} s total "
                  f"{calls:9d} calls  {name} <- {parent}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
