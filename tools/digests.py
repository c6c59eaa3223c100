"""Digests of the exact side's reports, of the theorem reports, of the
emitted graphs and of the relations' operator columns, in ten groups:
the one committed record of the library's pinned outputs.

    python tools/digests.py                      # print the digests
    python tools/digests.py --check              # compare with the record
    python tools/digests.py > tools/digests.json # re-record, deliberately

The manifest holds 524 outputs, each a form and a Python expression
evaluated in one namespace: the package's public names, the verifiers of
``qrep.checks`` and ``relation_columns``.  A "report" is written as the
JSON text ``report_to_json`` writes, a graph as its DOT text ("dot") or
its JSON text ("json"), as the CLI writes them, and a "text" as it is.

- ``relations``: criterion 9's eight ``verify_relations`` instances and
  ``verify_relations(2, 3, which='kbar')``;
- ``comult``: ``verify_comult_odd`` for n = 2..4;
- ``residue``: ``residue_check`` at (2..6, 1), (2..4, 2), (2, 3),
  (2, 4), (3, 3) and (2, 5);
- ``theorems``: criteria 3-5's sweep, every strict partition of size at
  most 8 with at most n parts for n = 2..4, through
  ``verify_unique_highest_weight``, ``verify_highest_weight_formula``,
  ``verify_decomposition``, ``verify_reading_independence`` and
  ``explore_conjecture``, one verifier at a time over the sweep;
- ``crystal``: ``crystal_of_shape`` for every strict partition of size
  at most 6 with at most n parts, n = 1..3, each graph's DOT then JSON;
- ``words``: ``tensor_power_graph(n, N)`` for n = 2..5, N >= 1 and
  n^N <= 3000, likewise;
- ``graphs``: ``tensor_power_graph(3, 3)``, two tableau crystals of
  rank 4, ``full_ssyt_graph((2, 1), 3)``, a tableau crystal tensored
  with ``vector_crystal(3)`` and the three components of
  ``tensor_power_graph(2, 4)``, likewise;
- ``exact``: ``residue_check`` at (2, 2), (3, 2) and (2, 3),
  ``verify_relations(3, 2)`` and ``verify_comult_odd(2)``;
- ``theorem-reports``: the four theorem verifiers at ((3, 1), 4),
  ((4, 2, 1), 4), ((5,), 3) and ((2, 1), 3), ``explore_conjecture`` at
  three (lam, n), rank 5 and its conjugated odd operators among them,
  and ``verify_highest_weight_formula((3, 1), 5)``;
- ``relation-columns``: ``relation_columns(n, N)`` at (2, 2), (3, 2)
  and (4, 1), every relation's lhs and rhs columns on every basis tensor.

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
# group -> outputs, each (form, expression): the expression is evaluated in
# namespace(), and its value written as a report ("report"), a graph's DOT
# or JSON ("dot", "json") or as it is, a text ("text")
MANIFEST = {
    "relations": [("report", f"verify_relations{key!r}")
                  for key in CRITERION_9]
    + [("report", "verify_relations(2, 3, which='kbar')")],
    "comult": [("report", f"verify_comult_odd({n})") for n in range(2, 5)],
    "residue": [("report", f"residue_check{key!r}") for key in RESIDUE],
    "theorems": [("report", f"{name}{key!r}")
                 for name in THEOREMS for key in SWEEP],
    "crystal": [(form, f"crystal_of_shape{key!r}")
                for key in SHAPES for form in ("dot", "json")],
    "words": [(form, f"tensor_power_graph{key!r}")
              for key in POWERS for form in ("dot", "json")],
    "graphs": [(form, expression) for expression in (
        "tensor_power_graph(3, 3)", "crystal_of_shape((3, 1), 4)",
        "crystal_of_shape((4, 2, 1), 4)", "full_ssyt_graph((2, 1), 3)",
        "tensor(crystal_of_shape((2, 1), 3), vector_crystal(3))",
        *(f"graph_components(tensor_power_graph(2, 4))[{k}]"
          for k in range(3))) for form in ("dot", "json")],
    "exact": [("report", expression) for expression in (
        "residue_check(2, 2)", "residue_check(3, 2)", "residue_check(2, 3)",
        "verify_relations(3, 2)", "verify_comult_odd(2)")],
    "theorem-reports": [("report", f"{name}{key!r}") for name in THEOREMS[:4]
                        for key in (((3, 1), 4), ((4, 2, 1), 4), ((5,), 3),
                                    ((2, 1), 3))]
    + [("report", f"explore_conjecture{key!r}")
       for key in (((2, 1), 3), ((2, 1), 5), ((3, 1), 4))]
    + [("report", "verify_highest_weight_formula((3, 1), 5)")],
    "relation-columns": [("text", f"relation_columns{key!r}")
                         for key in ((2, 2), (3, 2), (4, 1))],
}


def relation_columns(n: int, N: int) -> str:
    """Every relation of ``relations_catalogue(n)``: its name, then one line
    per basis tensor of ``basis(n, N)`` in sorted order with the tensor and
    the lhs and rhs columns on it, each sorted by basis tensor.  A report
    only says pass; this also shows a relation replaced by a different
    true identity, such as both sides rescaled."""
    from queercrystals.qrep.action import basis
    from queercrystals.qrep.checks import relations_catalogue

    tensors = sorted(basis(n, N))
    lines = []
    for name, lhs, rhs in relations_catalogue(n):
        lines.append(name)
        lines.extend(f"{t!r} {sorted(lhs.view(t).items())!r} "
                     f"{sorted(rhs.view(t).items())!r}" for t in tensors)
    return "\n".join(lines)


def namespace() -> dict:
    """The names a manifest expression may use: the package's public
    names, the verifiers of ``qrep.checks`` and ``relation_columns``."""
    import queercrystals
    from queercrystals.qrep import checks

    names = {name: getattr(queercrystals, name)
             for name in queercrystals.__all__}
    names.update((name, getattr(checks, name)) for name in (
        "verify_relations", "verify_comult_odd", "residue_check"))
    names["relation_columns"] = relation_columns
    return names


def render(form: str, expression: str) -> str:
    """The text of one manifest output."""
    from queercrystals.serialize import (graph_to_dot, graph_to_json,
                                         report_to_json)

    value = eval(expression, namespace())
    if form == "dot":
        return graph_to_dot(value)
    if form == "json":
        return report_to_json(graph_to_json(value))
    return value if form == "text" else report_to_json(value)


def digests(manifest: dict = MANIFEST) -> dict:
    """{"groups": {group: {"count", "sha256"}}, "total": sha256}."""
    sys.path.insert(0, str(ROOT / "src"))
    groups = {}
    for group, outputs in manifest.items():
        h = hashlib.sha256()
        for form, expression in outputs:
            h.update(render(form, expression).encode("utf-8") + b"\n")
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
