"""Crystal graphs: closure, components, tensor products, isomorphism.

A ``CrystalGraph`` stores the nodes (in a canonical order), their weights,
and the arrows of the lowering operators f_1..f_{n-1} and fbar1.  Arrows
for the conjugated odd operators fbar_i (i >= 2) are derived data and are
recomputed on demand rather than stored: they are determined by the
stored structure through the Weyl-group action.

Each graph stores its arrow tables once: per label a src -> dst and a
dst -> src map, built in one pass over the edges on first request.

Canonical node order: weight descending lexicographically, then a
kind-specific payload key.  This makes serialization and component
splitting reproducible run to run.

Operator access is through small "ops" adapters (words, tableaux, stored
graphs, tensor products) so that closure, highest-weight detection and
the Weyl action can be written once.  A stored graph is split into
components on node indices along its arrow tables (``graph_components``);
``components`` splits any element set through an ops adapter.
"""

from dataclasses import dataclass

from . import kernel
from .errors import StructureError
from .weyl import conjugating_word

ODD = "1bar"


def even_labels(n: int) -> tuple:
    return tuple(range(1, n))


def all_labels(n: int) -> tuple:
    return even_labels(n) + ((ODD,) if n >= 2 else ())


@dataclass(frozen=True)
class CrystalGraph:
    n: int
    kind: str  # "word" | "tableau" | "pair"
    nodes: tuple
    weights: tuple
    edges: tuple  # (src_index, label, dst_index), canonically sorted

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {b: k for k, b in enumerate(self.nodes)})
        object.__setattr__(self, "_arrows", None)

    @property
    def node_index(self) -> dict:
        return self._index

    def _arrow_tables(self) -> tuple:
        """(successor maps, predecessor maps) by label, built on first use."""
        if self._arrows is None:
            succ = {lab: {} for lab in all_labels(self.n)}
            pred = {lab: {} for lab in all_labels(self.n)}
            for s, lab, d in self.edges:
                succ.setdefault(lab, {})[s] = d
                pred.setdefault(lab, {})[d] = s
            object.__setattr__(self, "_arrows", (succ, pred))
        return self._arrows

    def successors(self, label) -> dict:
        """Map src index -> dst index for one label (shared, read-only)."""
        return self._arrow_tables()[0].get(label, {})

    def predecessors(self, label) -> dict:
        """Map dst index -> src index for one label (shared, read-only)."""
        return self._arrow_tables()[1].get(label, {})

    def __len__(self):
        return len(self.nodes)


# ---------------------------------------------------------------------------
# ops adapters


class WordOps:
    """Kashiwara operators on words (kernel-backed)."""

    kind = "word"

    def __init__(self, n: int):
        self.n = n

    def weight(self, w):
        return kernel.weight_of(w, self.n)

    def e(self, i, w):
        return kernel.apply_e(w, i)

    def f(self, i, w):
        return kernel.apply_f(w, i)

    def ebar1(self, w):
        return kernel.apply_ebar1(w) if self.n >= 2 else None

    def fbar1(self, w):
        return kernel.apply_fbar1(w) if self.n >= 2 else None

    def sort_key(self, w):
        return w

    def is_highest_weight(self, w):
        return kernel.is_q_highest(w, self.n)


class GraphOps:
    """Operators read off a stored crystal graph."""

    def __init__(self, graph: CrystalGraph):
        self.graph = graph
        self.n = graph.n
        self.kind = graph.kind
        self._succ = {lab: graph.successors(lab) for lab in all_labels(graph.n)}
        self._pred = {lab: graph.predecessors(lab) for lab in all_labels(graph.n)}

    def weight(self, b):
        return self.graph.weights[self.graph.node_index[b]]

    def _step(self, table, b):
        k = table.get(self.graph.node_index[b])
        return None if k is None else self.graph.nodes[k]

    def e(self, i, b):
        return self._step(self._pred[i], b)

    def f(self, i, b):
        return self._step(self._succ[i], b)

    def ebar1(self, b):
        return self._step(self._pred[ODD], b) if self.n >= 2 else None

    def fbar1(self, b):
        return self._step(self._succ[ODD], b) if self.n >= 2 else None

    def sort_key(self, b):
        return self.graph.node_index[b]


def _string_lengths(step: dict, size: int) -> list:
    """Chain length from every node along a map: phi_i from successors,
    eps_i from predecessors."""
    out = [-1] * size
    for start in range(size):
        if out[start] >= 0:
            continue
        chain = []
        v = start
        while out[v] < 0 and v in step:
            chain.append(v)
            v = step[v]
        base = out[v] if out[v] >= 0 else 0
        if out[v] < 0:
            out[v] = 0
        for k, u in enumerate(reversed(chain)):
            out[u] = base + k + 1
    return out


class TensorOps:
    """Tensor-rule operators on pairs of nodes of two crystal graphs."""

    kind = "pair"

    def __init__(self, left: CrystalGraph, right: CrystalGraph):
        if left.n != right.n:
            raise ValueError("tensor factors must share the rank")
        self.n = left.n
        self.left = left
        self.right = right
        n = self.n
        self._succ1 = {lab: left.successors(lab) for lab in all_labels(n)}
        self._pred1 = {lab: left.predecessors(lab) for lab in all_labels(n)}
        self._succ2 = {lab: right.successors(lab) for lab in all_labels(n)}
        self._pred2 = {lab: right.predecessors(lab) for lab in all_labels(n)}
        self._phi1 = {i: _string_lengths(self._succ1[i], len(left))
                      for i in even_labels(n)}
        self._eps2 = {i: _string_lengths(self._pred2[i], len(right))
                      for i in even_labels(n)}

    def elements(self):
        for a in self.left.nodes:
            for b in self.right.nodes:
                yield (a, b)

    def weight(self, pair):
        wa = self.left.weights[self.left.node_index[pair[0]]]
        wb = self.right.weights[self.right.node_index[pair[1]]]
        return tuple(x + y for x, y in zip(wa, wb))

    def _left_step(self, table, pair):
        k = table.get(self.left.node_index[pair[0]])
        return None if k is None else (self.left.nodes[k], pair[1])

    def _right_step(self, table, pair):
        k = table.get(self.right.node_index[pair[1]])
        return None if k is None else (pair[0], self.right.nodes[k])

    def e(self, i, pair):
        ia = self.left.node_index[pair[0]]
        ib = self.right.node_index[pair[1]]
        if self._phi1[i][ia] >= self._eps2[i][ib]:
            return self._left_step(self._pred1[i], pair)
        return self._right_step(self._pred2[i], pair)

    def f(self, i, pair):
        ia = self.left.node_index[pair[0]]
        ib = self.right.node_index[pair[1]]
        if self._phi1[i][ia] > self._eps2[i][ib]:
            return self._left_step(self._succ1[i], pair)
        return self._right_step(self._succ2[i], pair)

    def _odd_on_left(self, pair) -> bool:
        wb = self.right.weights[self.right.node_index[pair[1]]]
        return wb[0] == 0 and wb[1] == 0

    def ebar1(self, pair):
        if self.n < 2:
            return None
        if self._odd_on_left(pair):
            return self._left_step(self._pred1[ODD], pair)
        return self._right_step(self._pred2[ODD], pair)

    def fbar1(self, pair):
        if self.n < 2:
            return None
        if self._odd_on_left(pair):
            return self._left_step(self._succ1[ODD], pair)
        return self._right_step(self._succ2[ODD], pair)

    def sort_key(self, pair):
        return (self.left.node_index[pair[0]], self.right.node_index[pair[1]])


# ---------------------------------------------------------------------------
# generic operators built on an ops adapter


def weyl_s_ops(ops, i, b):
    """Simple-reflection action through an ops adapter."""
    wt = ops.weight(b)
    m = wt[i - 1] - wt[i]
    if m >= 0:
        for _ in range(m):
            b = ops.f(i, b)
    else:
        for _ in range(-m):
            b = ops.e(i, b)
    if b is None:
        raise RuntimeError("Weyl reflection fell off a string; broken crystal")
    return b


def _conjugated_odd(ops, i, b, odd1):
    """odd1 (ops.ebar1 or ops.fbar1) moved from index 1 to index i."""
    if i == 1:
        return odd1(b)
    rw = conjugating_word(i)
    for s in reversed(rw):
        b = weyl_s_ops(ops, s, b)
    b = odd1(b)
    if b is None:
        return None
    for s in rw:
        b = weyl_s_ops(ops, s, b)
    return b


def ebar_ops(ops, i, b):
    """Odd raising operator for any index i through an ops adapter."""
    return _conjugated_odd(ops, i, b, ops.ebar1)


def fbar_ops(ops, i, b):
    """Odd lowering operator for any index i through an ops adapter."""
    return _conjugated_odd(ops, i, b, ops.fbar1)


def is_highest_weight_ops(ops, b) -> bool:
    """All raising operators e_i, ebar_i (i = 1..n-1) vanish on b."""
    fast = getattr(ops, "is_highest_weight", None)
    if fast is not None:
        return fast(b)
    for i in even_labels(ops.n):
        if ops.e(i, b) is not None:
            return False
    if ops.n >= 2 and ops.ebar1(b) is not None:
        return False
    for i in range(2, ops.n):
        if ebar_ops(ops, i, b) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# building graphs


def closure_set(ops, seed) -> set:
    """All elements reachable from the seed under e/f/ebar1/fbar1."""
    seen = {seed}
    todo = [seed]
    n = ops.n
    while todo:
        b = todo.pop()
        for i in range(1, n):
            for x in (ops.f(i, b), ops.e(i, b)):
                if x is not None and x not in seen:
                    seen.add(x)
                    todo.append(x)
        if n >= 2:
            for x in (ops.fbar1(b), ops.ebar1(b)):
                if x is not None and x not in seen:
                    seen.add(x)
                    todo.append(x)
    return seen


def build_graph(ops, elements) -> CrystalGraph:
    """Crystal graph on a set of elements closed under the operators."""
    nodes = sorted(
        elements,
        key=lambda b: (tuple(-x for x in ops.weight(b)), ops.sort_key(b)),
    )
    index = {b: k for k, b in enumerate(nodes)}
    edges = []
    try:
        for k, b in enumerate(nodes):
            for i in even_labels(ops.n):
                x = ops.f(i, b)
                if x is not None:
                    edges.append((k, i, index[x]))
            if ops.n >= 2:
                x = ops.fbar1(b)
                if x is not None:
                    edges.append((k, ODD, index[x]))
    except KeyError as exc:
        raise StructureError(
            f"an operator leaves the element set at {exc.args[0]!r}") from None
    # appended by source, then label in all_labels order: already sorted
    return CrystalGraph(
        n=ops.n,
        kind=ops.kind,
        nodes=tuple(nodes),
        weights=tuple(ops.weight(b) for b in nodes),
        edges=tuple(edges),
    )


def closure(ops, seed) -> CrystalGraph:
    """Connected component of the seed as a crystal graph."""
    return build_graph(ops, closure_set(ops, seed))


def components(ops, elements) -> list:
    """Split a set of elements into connected components (stable order)."""
    pool = set(elements)
    order = sorted(
        pool,
        key=lambda b: (tuple(-x for x in ops.weight(b)), ops.sort_key(b)),
    )
    seen = set()
    out = []
    for b in order:
        if b in seen:
            continue
        comp = closure_set(ops, b)
        if not comp <= pool:
            raise ValueError("element set is not closed under the operators")
        seen |= comp
        out.append(build_graph(ops, comp))
    return out


def tensor(left: CrystalGraph, right: CrystalGraph) -> CrystalGraph:
    """Tensor-product crystal of two graphs, on all pairs of nodes."""
    ops = TensorOps(left, right)
    return build_graph(ops, list(ops.elements()))


def graph_components(graph: CrystalGraph) -> list:
    """Components of a stored graph, split on node indices.

    A search along the stored arrow tables collects each component's
    indices; its nodes, weights and edges are then sliced out in the
    parent's (canonical) order.  Components come in the order of their
    first node, and a connected graph is returned as it is.
    """
    tables = [graph.successors(lab) for lab in all_labels(graph.n)]
    tables += [graph.predecessors(lab) for lab in all_labels(graph.n)]
    component = [-1] * len(graph)
    members = []
    for start in range(len(graph)):
        if component[start] >= 0:
            continue
        c = len(members)
        component[start] = c
        found = [start]
        todo = [start]
        while todo:
            v = todo.pop()
            for table in tables:
                u = table.get(v)
                if u is not None and component[u] < 0:
                    component[u] = c
                    found.append(u)
                    todo.append(u)
        found.sort()
        members.append(found)
    if len(members) == 1:
        return [graph]
    local = [0] * len(graph)
    for found in members:
        for j, k in enumerate(found):
            local[k] = j
    edges = [[] for _ in members]
    for s, lab, d in graph.edges:
        edges[component[s]].append((local[s], lab, local[d]))
    return [
        CrystalGraph(
            n=graph.n,
            kind=graph.kind,
            nodes=tuple(graph.nodes[k] for k in found),
            weights=tuple(graph.weights[k] for k in found),
            edges=tuple(comp_edges),
        )
        for found, comp_edges in zip(members, edges)
    ]


def highest_weight_nodes(graph: CrystalGraph) -> list:
    """Nodes annihilated by every raising operator, in canonical order."""
    ops = GraphOps(graph)
    preds = [graph.predecessors(lab) for lab in all_labels(graph.n)]
    out = []
    for k, b in enumerate(graph.nodes):
        if any(k in p for p in preds):
            continue
        if all(ebar_ops(ops, i, b) is None for i in range(2, graph.n)):
            out.append(b)
    return out


def validate(graph: CrystalGraph) -> None:
    """Check the structural invariants of a crystal graph.

    Every label is a partial matching and every arrow lowers the weight by
    the simple root of its label (the odd label shares alpha_1).
    """
    for lab in all_labels(graph.n):
        srcs = [s for s, l, _ in graph.edges if l == lab]
        dsts = [d for _, l, d in graph.edges if l == lab]
        if len(srcs) != len(set(srcs)) or len(dsts) != len(set(dsts)):
            raise ValueError(f"label {lab} is not a partial matching")
    for s, lab, d in graph.edges:
        i = 1 if lab == ODD else lab
        ws, wd = graph.weights[s], graph.weights[d]
        delta = [a - b for a, b in zip(ws, wd)]
        expect = [0] * graph.n
        expect[i - 1] = 1
        expect[i] = -1
        if delta != expect:
            raise ValueError(f"edge {(s, lab, d)} breaks weights: {ws}->{wd}")


def isomorphic(g1: CrystalGraph, g2: CrystalGraph):
    """Label- and weight-preserving isomorphism of connected crystals.

    Both graphs must be connected with exactly one highest-weight node;
    the map is grown from the highest-weight pair along stored arrows.
    Returns a node mapping, or None when the graphs are not isomorphic.
    """
    tops = []
    for g in (g1, g2):
        if len(graph_components(g)) != 1:
            raise ValueError("isomorphic() needs connected graphs")
        hw = highest_weight_nodes(g)
        if len(hw) != 1:
            raise ValueError("isomorphic() needs a unique highest-weight node")
        tops.append(g.node_index[hw[0]])
    if len(g1) != len(g2) or len(g1.edges) != len(g2.edges):
        return None
    h1, h2 = tops
    tables = []
    for lab in all_labels(g1.n):
        tables.append((g1.successors(lab), g2.successors(lab)))
        tables.append((g1.predecessors(lab), g2.predecessors(lab)))
    mapping = {h1: h2}
    todo = [h1]
    while todo:
        v = todo.pop()
        w = mapping[v]
        if g1.weights[v] != g2.weights[w]:
            return None
        for t1, t2 in tables:
            a = t1.get(v)
            b = t2.get(w)
            if (a is None) != (b is None):
                return None
            if a is None:
                continue
            if a in mapping:
                if mapping[a] != b:
                    return None
            else:
                mapping[a] = b
                todo.append(a)
    if len(mapping) != len(g1):
        return None
    edges2 = {(mapping[s], lab, mapping[d]) for s, lab, d in g1.edges}
    if edges2 != set(g2.edges):
        return None
    return {g1.nodes[a]: g2.nodes[b] for a, b in mapping.items()}
