"""Workload pools and the seeded samplers that draw each run's inputs.

Every item the benchmark can run is listed in ``pool.json`` with the cost
and the output digest recorded for it by ``record.py``.  A workload is a
rule that draws a list of those items from the seed.  The draw depends
only on the seed and on the recorded costs, never on the code under test,
so two commits measured with one seed run identical inputs.

Sampling is systematic in recorded cost.  Items costing more than the
workload's cap are left out.  The rest are sorted by cost and cut into
groups of adjacent items, and the seed picks one item of each group.
Every draw therefore has the same number of items and nearly the same
cost profile, which keeps the run time and the item-latency quantiles
steady from seed to seed while the inputs themselves change.
Stratifying by instance size instead left the item-latency median 15-30 %
apart between seeds, because item costs span four orders of magnitude.
The cap keeps a pass to a few seconds, so that a run holds several passes
to take each item's median over; the handful of items above it each cost
as much as a whole pass.
"""

import json
import os
import random

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")

WORKLOADS = ("shape-sweep", "word-graphs", "residue")

SWEEP_RANKS = (2, 3, 4)
SWEEP_MAX_SIZE = 8
SWEEP_CHECKS = ("theorem-b", "theorem-c", "theorem-e3", "reading")
SWEEP_CAP_S = 0.15
SWEEP_GROUP = 2

# graph --tensor N -n n with n^N in [2000, 8000]
GRAPH_BAND = (2000, 8000)
JSON_CASE = (4, 6)
GRAPH_FIXED = 4
# the word identities run on lengths with n^length in this band: shorter
# lengths take microseconds, so their latencies would be timer noise
WORD_BAND = (256, 8000)

# residue_check(2, 3) and (3, 2), and the smaller cases beside them, so
# that the pass has more than two item latencies to take quantiles of
RESIDUE_CASES = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3))


def strict_partitions(max_size: int, n: int) -> list:
    """Strict partitions with at most n parts and |lam| <= max_size."""
    out = []

    def grow(prefix, remaining, cap):
        for p in range(min(remaining, cap), 0, -1):
            cand = prefix + (p,)
            if len(cand) <= n:
                out.append(cand)
                grow(cand, remaining - p, p - 1)

    grow((), max_size, max_size)
    out.sort(key=lambda t: (sum(t), t))
    return out


def graph_cases() -> list:
    """(n, N) pairs in the graph band, by number of words."""
    cases = [(n, N) for n in range(2, 10) for N in range(1, 14)
             if GRAPH_BAND[0] <= n ** N <= GRAPH_BAND[1]]
    return sorted(cases, key=lambda c: (c[0] ** c[1], c))


def word_lengths(n: int) -> list:
    """Word lengths with n^length in the word band."""
    return [length for length in range(1, 20)
            if WORD_BAND[0] <= n ** length <= WORD_BAND[1]]


def item(kind: str, *args) -> dict:
    return {"id": item_id(kind, args), "kind": kind, "args": list(args)}


def item_id(kind: str, args) -> str:
    if kind in SWEEP_CHECKS:
        n, lam = args
        return f"{kind} n={n} lam={','.join(map(str, lam))}"
    if kind == "graph":
        return f"graph n={args[0]} N={args[1]} {args[2]}"
    if kind in ("components", "highest-weight", "residue"):
        return f"{kind} n={args[0]} N={args[1]}"
    if kind in ("odd-well-defined", "odd-nilpotent"):
        return f"{kind} n={args[0]} length={args[1]}"
    raise ValueError(f"unknown item kind {kind!r}")


def pool_items() -> dict:
    """Every item any workload can draw, by workload, in run order."""
    sweep = [item(check, n, list(lam))
             for n in SWEEP_RANKS
             for lam in strict_partitions(SWEEP_MAX_SIZE, n)
             for check in SWEEP_CHECKS]
    graphs = []
    for n, N in graph_cases():
        graphs += [item("graph", n, N, "dot"), item("graph", n, N, "json"),
                   item("components", n, N), item("highest-weight", n, N)]
    # acceptance criteria 6 and 7, one item per (rank, word length) with
    # n^length in the word band
    graphs += [item("odd-well-defined", 4, length) for length in word_lengths(4)]
    graphs += [item("odd-nilpotent", n, length)
               for n in (2, 3, 4, 5) for length in word_lengths(n)]
    residue = [item("residue", n, N) for n, N in RESIDUE_CASES]
    return {"shape-sweep": sweep, "word-graphs": graphs,
            "residue": residue}


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cost_grouped(units: list, cost, rnd: random.Random, cap: float,
                 size: int) -> list:
    """Seeded draw of one unit in every ``size`` below a cost cap.

    Units costing ``cap`` or more are left out.  The rest are sorted by
    cost; the cheapest ones that do not fill a whole group are always
    drawn, and the seed picks one unit of each following group of
    ``size`` adjacent units.  The result keeps the input order.
    """
    rest = sorted((u for u in units if cost(u) < cap), key=lambda u: (cost(u), u))
    extra = len(rest) % size
    chosen = set(rest[:extra])
    for k in range(extra, len(rest), size):
        chosen.add(rnd.choice(rest[k:k + size]))
    return [u for u in units if u in chosen]


def sample(workload: str, seed: int, pool: dict | None = None) -> list:
    """The item specs one pass of the workload runs for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pool = pool if pool is not None else load_pool()
    items = pool["items"]
    rnd = random.Random(f"{workload}:{seed}")

    def cost(item_key):
        return items[item_key]["cost_s"]

    by_kind = {}
    for key in pool["workloads"][workload]:
        by_kind.setdefault(items[key]["kind"], []).append(key)

    if workload == "shape-sweep":
        chosen = cost_grouped(pool["workloads"][workload], cost, rnd,
                              SWEEP_CAP_S, SWEEP_GROUP)
    elif workload == "word-graphs":
        cases = [tuple(items[k]["args"][:2]) for k in by_kind["components"]]

        def case_cost(case):
            n, N = case
            return sum(cost(item_id(kind, args)) for kind, args in (
                ("graph", (n, N, "dot")), ("components", (n, N)),
                ("highest-weight", (n, N))))

        # the costliest graphs run in every draw: they hold the tail of the
        # item latencies, which would otherwise move with the seed
        ranked = sorted(cases, key=lambda case: (case_cost(case), case))
        fixed = ranked[len(ranked) - GRAPH_FIXED:]
        drawn = cost_grouped([c for c in cases if c not in fixed], case_cost,
                             rnd, float("inf"), 2)
        picked = [c for c in cases if c in fixed or c in drawn]
        # JSON emission is pure-Python indent=2 and would swamp the kernel,
        # so one mid-sized graph emits JSON, the same in every draw.  It
        # runs first and pays the first graph's one-off costs, which would
        # otherwise fall on whichever graph the seed drew first.
        chosen = [item_id("graph", JSON_CASE + ("json",))]
        for n, N in picked:
            chosen += [item_id("graph", (n, N, "dot")),
                       item_id("components", (n, N)),
                       item_id("highest-weight", (n, N))]
        chosen += by_kind["odd-well-defined"] + by_kind["odd-nilpotent"]
    else:
        # residue: the inputs are fixed by (n, N); the seed has no effect
        chosen = list(pool["workloads"][workload])
    return [dict(items[k], id=k) for k in chosen]


SEED_EFFECT = {
    "shape-sweep": "draws half of the theorem items under 0.15 s, by cost",
    "word-graphs": "draws one (n, N) graph of each pair of adjacent cost "
                   "below the four costliest, which run in every draw",
    "residue": "none: the inputs are fixed by (n, N)",
}
