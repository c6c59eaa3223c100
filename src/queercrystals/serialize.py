"""DOT and JSON emission for crystal graphs.

Output is deterministic: nodes appear in the graph's canonical order and
edges in canonical (source, label, target) order, so identical inputs give
byte-identical artifacts.  Even edges are solid and carry their index as
label; the odd edge is dashed and labeled with a barred 1.
"""

import json

from .graphs import ODD, CrystalGraph, check_graph
from .tableaux import Tableau, tableau_json

DOT_ODD_LABEL = "1̄"  # 1 with combining macron, as in the usual figures


def node_payload(node):
    if isinstance(node, bytes):
        return list(node)
    if isinstance(node, Tableau):
        return tableau_json(node)
    if isinstance(node, tuple):
        return {"factors": [node_payload(x) for x in node]}
    raise TypeError(f"cannot serialize node {node!r}")


def graph_to_json(graph: CrystalGraph) -> dict:
    check_graph(graph)
    return {
        "n": graph.n,
        "nodes": [
            {
                "id": k,
                "kind": graph.kind,
                "payload": node_payload(b),
                "weight": list(graph.weights[k]),
            }
            for k, b in enumerate(graph.nodes)
        ],
        "edges": [
            {"src": s, "label": str(lab), "dst": d}
            for s, lab, d in graph.edges
        ],
    }


def _node_label(node) -> str:
    if isinstance(node, bytes):
        return "⊗".join(str(a) for a in node)
    if isinstance(node, Tableau):
        rows = {}
        for (r, c), v in zip(node.shape.boxes, node.entries):
            rows.setdefault(r, {})[c] = v
        min_col = min(c for _, c in node.shape.boxes)
        parts = []
        for r in sorted(rows):
            cols = rows[r]
            start = min(cols)
            parts.append("." * (start - min_col)
                         + "".join(str(cols[c]) for c in sorted(cols)))
        return "/".join(parts)
    if isinstance(node, tuple):
        return "|".join(_node_label(x) for x in node)
    raise TypeError(f"cannot label node {node!r}")


def graph_to_dot(graph: CrystalGraph) -> str:
    check_graph(graph)
    lines = ["digraph crystal {", "  rankdir=TB;", "  node [shape=box];"]
    for k, b in enumerate(graph.nodes):
        lines.append(f'  {k} [label="{_node_label(b)}"];')
    for s, lab, d in graph.edges:
        if lab == ODD:
            lines.append(f'  {s} -> {d} [label="{DOT_ODD_LABEL}", style=dashed];')
        else:
            lines.append(f'  {s} -> {d} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_to_json(data: dict) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"
