"""One cold benchmark pass: import the library, run items, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Protocol on stdout, one JSON message per line prefixed "@@ ":

  @@ {"ready": ...}    sent once the package is imported
  (the parent then writes {"items": [...], "trace": bool} to stdin)
  @@ {"item": ...}     one per item, in order
  @@ {"done": ...}     body wall time, peak memory, trace summary

An untraced pass also reports each item's time in reference seconds
(``speed.py``); wall times exclude the speed probes.

Each item is a call into the library's public entry points, made the
way the acceptance suite and the README's CLI commands make it.  Its
digest covers only the output that must not change: for a report, its
(check, instance, status) triples and ``passed``; for a graph, its bytes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import signal
import sys
import time

import speed

# probes the machine's speed at start-up, before the library is imported
METER = speed.Meter()
START_SLOWDOWN = METER.slowdown

import queercrystals  # noqa: E402
from queercrystals import cli, graphs, theorems, weyl, words  # noqa: E402
from queercrystals.qrep import action, checks  # noqa: E402

ITEM_TIMEOUT_S = 60.0

PROTOCOL = sys.stdout


def send(message: dict) -> None:
    PROTOCOL.write("@@ " + json.dumps(message) + "\n")
    PROTOCOL.flush()


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def report_digest(rep: dict):
    triples = [[r["check"], r["instance"], r["status"]] for r in rep["records"]]
    return sha(json.dumps([triples, rep["passed"]])), rep["passed"]


THEOREMS = {
    "theorem-b": "verify_unique_highest_weight",
    "theorem-c": "verify_highest_weight_formula",
    "theorem-e3": "verify_decomposition",
    "reading": "verify_reading_independence",
}


class Runner:
    """Runs items; graphs built by one item are reused by the next."""

    def __init__(self):
        self.graphs = {}

    def run(self, kind: str, args: list):
        """(digest, passed) of one item."""
        if kind in THEOREMS:
            n, lam = args
            return report_digest(getattr(theorems, THEOREMS[kind])(tuple(lam), n))
        if kind == "graph":
            n, N, fmt = args
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["graph", "--tensor", str(N), "-n", str(n),
                                 "--format", fmt])
            return sha(out.getvalue()), code == 0
        if kind == "components":
            n, N = args
            graph = theorems.tensor_power_graph(n, N)
            self.graphs[(n, N)] = graph
            comps = graphs.graph_components(graph)
            covered = sum(len(c) for c in comps) == len(graph) == n ** N
            return sha(repr([c.nodes for c in comps])), covered
        if kind == "highest-weight":
            n, N = args
            graph = self.graphs.pop((n, N), None)
            if graph is None:
                graph = theorems.tensor_power_graph(n, N)
            hw = graphs.highest_weight_nodes(graph)
            return sha(repr(hw)), len(hw) > 0
        if kind == "odd-well-defined":
            return odd_well_defined(*args)
        if kind == "odd-nilpotent":
            return odd_nilpotent(*args)
        if kind == "residue":
            return report_digest(checks.residue_check(*args))
        raise ValueError(f"unknown item kind {kind!r}")


def odd_well_defined(n: int, length: int):
    """Acceptance criterion 6: ebar_3 is the same under two reduced words.

    The loops here are the benchmark's own, untraced code, so they are
    kept lean: their time counts against the traced pass's gap.
    """
    weyl_S, ebar1 = weyl.weyl_S, words.ebar1
    first, second = (2, 3, 1, 2), (2, 1, 3, 2)  # each the other reversed
    results = []
    agree = True
    for w in words.all_words(n, length):
        x = ebar1(weyl_S(first, w, n), n)
        y = ebar1(weyl_S(second, w, n), n)
        x = None if x is None else weyl_S(second, x, n)
        y = None if y is None else weyl_S(first, y, n)
        agree = agree and x == y
        results.append(x)
    return sha(repr(results)), agree and len(results) == n ** length


def odd_nilpotent(n: int, length: int):
    """Acceptance criterion 7: fbar1 and ebar1 square to zero."""
    fbar1, ebar1 = words.fbar1, words.ebar1
    every = list(words.all_words(n, length))
    down = [x for x in map(fbar1, every, itertools.repeat(n)) if x is not None]
    up = [x for x in map(ebar1, every, itertools.repeat(n)) if x is not None]
    nilpotent = (set(map(fbar1, down, itertools.repeat(n))) <= {None}
                 and set(map(ebar1, up, itertools.repeat(n))) <= {None})
    return (sha(repr((len(every), len(down), len(up)))),
            nilpotent and len(every) == n ** length)


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {ITEM_TIMEOUT_S}s")


def main() -> int:
    METER.tick()
    send({"ready": True,
          # start-up in reference seconds: speed.discount(wall - probe_s, slowdown)
          "probe_s": METER.probe_s,
          "slowdown": (START_SLOWDOWN + METER.slowdown) / 2,
          "kernel": queercrystals.KERNEL_IMPLEMENTATION,
          "python": sys.version.split()[0],
          "pure_env": os.environ.get("QUEERCRYSTALS_PURE")})
    request = json.loads(sys.stdin.read() or "{}")
    items = request.get("items", [])
    if not items:
        return 0
    tracer = meter = None
    if request.get("trace"):
        import layertrace
        tracer = layertrace.install()
    else:
        meter = METER
        meter.start_sampling()
        probed_before_body = meter.probe_s
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner()
    sink = io.StringIO()
    body_start = time.perf_counter()
    for spec in items:
        attributed = tracer.attributed_s() if tracer else 0.0
        error = None
        digest = None
        passed = False
        # the timeout is armed and disarmed outside the timed stretch
        signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
        try:
            reference0 = meter.tick() if meter else 0.0
            probed0 = meter.probe_s if meter else 0.0
            t0 = time.perf_counter()
            try:
                # the CLI's own output is captured per item; stray library
                # output must not reach the protocol stream
                with contextlib.redirect_stdout(sink):
                    digest, passed = runner.run(spec["kind"], spec["args"])
            except Exception as exc:  # an item that raises is a failed item
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if meter:
                seconds -= meter.probe_s - probed0
                reference_s = meter.tick() - reference0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        message = {"item": spec["id"], "seconds": seconds, "digest": digest,
                   "passed": bool(passed), "error": error}
        if meter:
            message["reference_s"] = reference_s
        if tracer:
            message["attributed_s"] = tracer.attributed_s() - attributed
        send(message)
        sink.seek(0)
        sink.truncate()
    body_s = time.perf_counter() - body_start
    if meter:
        meter.stop_sampling()
        body_s -= meter.probe_s - probed_before_body
    prim = action._act_prim_tensor.cache_info()
    send({"done": True, "body_s": body_s,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
          "prim_cache": [prim.hits, prim.misses],
          "trace": tracer.summary() if tracer else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
