"""Digests of the exact side's reports, of the theorem reports and of the
emitted graphs, in six groups.

    python tools/digests.py                      # print the digests
    python tools/digests.py --check              # compare with the record
    python tools/digests.py > tools/digests.json # re-record, deliberately

The manifest holds 480 outputs.  ``relations`` is criterion 9's eight
``verify_relations`` instances and ``verify_relations(2, 3,
which="kbar")``, ``comult`` is ``verify_comult_odd`` for n = 2..4, and
``residue`` is ``residue_check`` at (2..6, 1), (2..4, 2), (2, 3), (2, 4),
(3, 3) and (2, 5): each such report is the JSON text ``report_to_json``
writes.  ``theorems`` is criteria 3-5's sweep, every strict partition
of size at most 8 with at most n parts for n = 2..4, through
``verify_unique_highest_weight``, ``verify_highest_weight_formula``,
``verify_decomposition``, ``verify_reading_independence`` and
``explore_conjecture``, one verifier at a time over the sweep: each
report as the JSON text ``report_to_json`` writes.  ``crystal`` is
``crystal_of_shape`` for every strict partition of size at most 6 with
at most n parts, n = 1..3, and ``words`` is
``tensor_power_graph(n, N)`` for n = 2..5, N >= 1 and n^N <= 3000: each
such graph as its DOT text, then its JSON text, as the CLI writes them.
A group's sha256 is taken over its outputs' texts in manifest order,
each followed by a newline.  The output is JSON: per group the count of
outputs and the sha256, then the sha256 of the groups' lines.

With ``--check`` the digests are compared with the committed
``tools/digests.json``; the exit status is 1 when any group differs, each
such group named on stderr, else 0.  The library is imported from this
checkout's ``src/``.  It uses only the standard library.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "digests.json"
CRITERION_9 = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (3, 3),
               (4, 3)]
RESIDUE = [(n, 1) for n in range(2, 7)] + [(n, 2) for n in range(2, 5)] + [
    (2, 3), (2, 4), (3, 3), (2, 5)]
STRICT_6 = [(1,), (2,), (3,), (2, 1), (4,), (3, 1), (5,), (4, 1), (3, 2),
            (6,), (5, 1), (4, 2), (3, 2, 1)]
SHAPES = [(parts, n) for n in (1, 2, 3) for parts in STRICT_6
          if len(parts) <= n]
# strict_partitions(8, 4) in its order; criteria 3-5 sweep each n = 2..4
STRICT_8 = [(1,), (2,), (2, 1), (3,), (3, 1), (4,), (3, 2), (4, 1), (5,),
            (3, 2, 1), (4, 2), (5, 1), (6,), (4, 2, 1), (4, 3), (5, 2),
            (6, 1), (7,), (4, 3, 1), (5, 2, 1), (5, 3), (6, 2), (7, 1), (8,)]
SWEEP = [(parts, n) for n in (2, 3, 4) for parts in STRICT_8
         if len(parts) <= n]
THEOREMS = ["verify_unique_highest_weight", "verify_highest_weight_formula",
            "verify_decomposition", "verify_reading_independence",
            "explore_conjecture"]
POWERS = [(n, N) for n in range(2, 6) for N in range(1, 12) if n ** N <= 3000]
# group -> outputs, each (form, function name, args, kwargs): a "report" is
# a function of qrep.checks; a "theorem" report and a "dot" or "json" graph
# are a function of the queercrystals package
MANIFEST = {
    "relations": [("report", "verify_relations", key, {})
                  for key in CRITERION_9]
    + [("report", "verify_relations", (2, 3), {"which": "kbar"})],
    "comult": [("report", "verify_comult_odd", (n,), {}) for n in range(2, 5)],
    "residue": [("report", "residue_check", key, {}) for key in RESIDUE],
    "theorems": [("theorem", name, key, {})
                 for name in THEOREMS for key in SWEEP],
    "crystal": [(form, "crystal_of_shape", key, {})
                for key in SHAPES for form in ("dot", "json")],
    "words": [(form, "tensor_power_graph", key, {})
              for key in POWERS for form in ("dot", "json")],
}


def render(form: str, name: str, args, kwargs) -> str:
    """The text of one manifest output."""
    import queercrystals
    from queercrystals.qrep import checks
    from queercrystals.serialize import (graph_to_dot, graph_to_json,
                                         report_to_json)

    if form == "report":
        return report_to_json(getattr(checks, name)(*args, **kwargs))
    value = getattr(queercrystals, name)(*args, **kwargs)
    if form == "dot":
        return graph_to_dot(value)
    return report_to_json(graph_to_json(value) if form == "json" else value)


def digests(manifest: dict = MANIFEST) -> dict:
    """{"groups": {group: {"count", "sha256"}}, "total": sha256}."""
    sys.path.insert(0, str(ROOT / "src"))
    groups = {}
    for group, outputs in manifest.items():
        h = hashlib.sha256()
        for output in outputs:
            h.update(render(*output).encode("utf-8") + b"\n")
        groups[group] = {"count": len(outputs), "sha256": h.hexdigest()}
    lines = "".join(f"{g} {v['count']} {v['sha256']}\n"
                    for g, v in groups.items())
    return {"groups": groups,
            "total": hashlib.sha256(lines.encode("utf-8")).hexdigest()}


def differing(got: dict, want: dict) -> list:
    """The groups of either side whose count or sha256 differ."""
    names = list(dict.fromkeys([*want["groups"], *got["groups"]]))
    return [g for g in names
            if got["groups"].get(g) != want["groups"].get(g)]


def main(argv=None, manifest: dict = MANIFEST, record=DIGESTS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    got = digests(manifest)
    print(json.dumps(got, indent=1))
    if not argv:
        return 0
    bad = differing(got, json.loads(pathlib.Path(record).read_text()))
    for group in bad:
        print(f"group {group} differs from {record}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
