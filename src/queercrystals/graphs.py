"""Crystal graphs: closure, components, tensor products, isomorphism.

A ``CrystalGraph`` stores the nodes (in a canonical order), their weights,
and the arrows of the lowering operators f_1..f_{n-1} and fbar1, in one
form: per label, an array giving each node's successor index, -1 where
the operator vanishes.  Everything else (the node -> index map, the
(source, label, target) edge list, predecessor arrays, string lengths,
components) is derived from these arrays on request; a graph keeps its
node index and predecessor arrays once derived.  Arrows for the
conjugated odd operators fbar_i (i >= 2) are not stored either: they are
determined by the stored structure through the Weyl-group action.
Graphs, like the tableau types, are immutable slotted values
(``_Frozen``), compared, hashed and printed by their fields.

Canonical node order: weight descending lexicographically, then a
kind-specific payload key.  This makes serialization and component
splitting reproducible run to run.

Operator access is through small "ops" adapters so that closure,
highest-weight detection and the Weyl action can be written once: words
(``WordOps``), tableaux (``TableauOps``), and stored graphs, which are
their own adapter on node indices: ``ebar_ops(graph, i, k)`` walks the
graph's arrays from node index k and returns an index, or None.
``closure`` records the arrows while it searches a word's component: one
``kernel.edits`` scan per node gives the position each operator edits,
and ``kernel._put`` writes the result there; ``build_graph`` applies
f_i and fbar1 to each element of a given set.  Stored graphs are split
into components (``graph_components``), compared (``isomorphic``) and
tensored (``tensor``) on node indices along their arrays, the first two
by one breadth-first search (``_search``); ``tensor`` orders its pairs
by one packed integer per summed weight.  ``components`` splits any
element set through an ops adapter.
"""

from functools import partial
from types import MappingProxyType

from . import kernel
from .errors import StructureError
from .words import check_rank, check_word

ODD = "1bar"


def all_labels(n: int) -> tuple:
    """The labels of the rank-n operators: 1..n-1, then the odd label
    from n = 2 on.  Every operator list and arrow array follows it."""
    return tuple(range(1, n)) + ((ODD,) if n >= 2 else ())


_set = object.__setattr__


class _Frozen:
    """An immutable slotted value, as a frozen dataclass is: ``__init__``
    sets each field once through ``_set``, and assigning to a field later
    raises AttributeError.  Two values are equal when they are of one
    class with equal ``_fields``; a value hashes as the tuple of its
    fields, prints as ``Name(field=value, ...)`` and is pickled and
    copied through its constructor."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild a value through its constructor
        return type(self), self._values()


class _Adapter:
    """The base of the library's ops adapters: ``WordOps``,
    ``TableauOps`` and ``CrystalGraph`` (see ``check_ops``)."""

    __slots__ = ()


class CrystalGraph(_Frozen, _Adapter):
    """Nodes in canonical order, their weights, and one successor array
    per label: ``arrows[k][s]`` is the index of f(node s) for the k-th
    label of ``all_labels(n)``, or -1 where that operator vanishes.
    ``node_index`` (node -> index, read-only) and the predecessor arrays
    are derived on first request and kept.

    A graph is also an ops adapter on its node indices: ``weight``, ``f``,
    ``e``, ``fbar1``, ``ebar1`` and ``sort_key`` take an index and return
    an index, or None where the operator vanishes, so the generic
    operators (``ebar_ops``, ``fbar_ops``, ``components``) run on it."""

    __slots__ = ("n", "kind", "nodes", "weights", "arrows", "_succ", "_pred",
                 "_node_index", "__weakref__")
    _fields = ("n", "kind", "nodes", "weights", "arrows")
    n: int
    kind: str  # "word" | "tableau" | "pair"
    nodes: tuple
    weights: tuple
    arrows: tuple  # one tuple of successor indices per label

    def __init__(self, n, kind, nodes, weights, arrows):
        if len(weights) != len(nodes):
            raise ValueError("need one weight per node")
        if len(arrows) != len(all_labels(n)) or any(
                len(succ) != len(nodes) for succ in arrows):
            raise ValueError("need one successor per node for every label")
        _set(self, "n", n)
        _set(self, "kind", kind)
        _set(self, "nodes", nodes)
        _set(self, "weights", weights)
        _set(self, "arrows", arrows)
        # label -> successor array, and label -> predecessor array once derived
        _set(self, "_succ", dict(zip(all_labels(n), arrows)))
        _set(self, "_pred", {})
        _set(self, "_node_index", None)

    @property
    def node_index(self):
        """Node -> index, as a read-only mapping; derived on first request
        and kept, so every caller of a shared graph reads the same one."""
        index = self._node_index
        if index is None:
            index = MappingProxyType({b: k for k, b in enumerate(self.nodes)})
            _set(self, "_node_index", index)
        return index

    @property
    def edges(self) -> tuple:
        """(source, label, target) triples, by source, then label order."""
        labels = all_labels(self.n)
        return tuple((s, lab, d)
                     for s, targets in enumerate(zip(*self.arrows))
                     for lab, d in zip(labels, targets) if d >= 0)

    def successors(self, label) -> tuple:
        """Successor index of every node along one label, -1 for none."""
        return self._succ[label]

    def predecessors(self, label) -> tuple:
        """Predecessor index of every node along one label, -1 for none;
        derived on first request and kept."""
        pred = self._pred.get(label)
        if pred is None:
            inverse = [-1] * len(self.nodes)
            for s, d in enumerate(self.successors(label)):
                if d >= 0:
                    inverse[d] = s
            pred = self._pred[label] = tuple(inverse)
        return pred

    def __len__(self):
        return len(self.nodes)

    # ops adapter on node indices.  f and e take any label of the graph,
    # the odd one too; another label raises.  A -1 is never returned: as
    # an index it would wrap to the last node.

    def weight(self, k):
        return self.weights[k]

    def f(self, i, k):
        d = self._succ[i][k]
        return None if d < 0 else d

    def e(self, i, k):
        d = (self._pred.get(i) or self.predecessors(i))[k]
        return None if d < 0 else d

    def fbar1(self, k):
        return self.f(ODD, k) if self.n >= 2 else None

    def ebar1(self, k):
        return self.e(ODD, k) if self.n >= 2 else None

    def sort_key(self, k):
        return k


def check_graph(*graphs) -> None:
    """Raise TypeError unless every argument is a ``CrystalGraph``."""
    for g in graphs:
        if not isinstance(g, CrystalGraph):
            raise TypeError(f"{type(g).__name__} is not a CrystalGraph")


def check_ops(ops) -> None:
    """Raise TypeError unless ops is one of the library's adapters."""
    if not isinstance(ops, _Adapter):
        raise TypeError(f"{type(ops).__name__} is not an ops adapter "
                        "(WordOps, TableauOps or a CrystalGraph)")


# ---------------------------------------------------------------------------
# ops adapters


class WordOps(_Adapter):
    """Kashiwara operators on words (kernel-backed)."""

    kind = "word"

    def __init__(self, n: int):
        check_rank(n)
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


def _string_lengths(step) -> list:
    """Chain length from every node along an index array: phi_i from
    successors, eps_i from predecessors."""
    out = [-1] * len(step)
    for start in range(len(step)):
        chain = []
        v = start
        while out[v] < 0 and step[v] >= 0:
            chain.append(v)
            v = step[v]
        if out[v] < 0:
            out[v] = 0
        for k, u in enumerate(reversed(chain), start=out[v] + 1):
            out[u] = k
    return out


# ---------------------------------------------------------------------------
# generic operators built on an ops adapter


def weyl_s_ops(ops, i, b):
    """Simple-reflection action through an ops adapter; a step that
    vanishes means a broken crystal and raises ``StructureError``."""
    wt = ops.weight(b)
    m = wt[i - 1] - wt[i]
    step = ops.f if m >= 0 else ops.e
    for _ in range(abs(m)):
        b = step(i, b)
        if b is None:
            raise StructureError(
                "Weyl reflection fell off a string; broken crystal")
    return b


def ebar_ops(ops, i, b):
    """Odd raising operator for any index i through an ops adapter: the
    kernel's conjugation, reflecting through ``weyl_s_ops``."""
    return kernel._conjugated_odd(b, i, ops.ebar1,
                                  lambda b, s: weyl_s_ops(ops, s, b))


def fbar_ops(ops, i, b):
    """Odd lowering operator for any index i through an ops adapter."""
    return kernel._conjugated_odd(b, i, ops.fbar1,
                                  lambda b, s: weyl_s_ops(ops, s, b))


def is_highest_weight_ops(ops, b) -> bool:
    """All raising operators e_i, ebar_i (i = 1..n-1) vanish on b."""
    return all(ops.e(i, b) is None and ebar_ops(ops, i, b) is None
               for i in range(1, ops.n))


# ---------------------------------------------------------------------------
# building graphs


def closure_set(ops, seed) -> set:
    """All elements reachable from the seed under e/f/ebar1/fbar1."""
    seen = {seed}
    todo = [seed]
    labels = all_labels(ops.n)
    while todo:
        b = todo.pop()
        for lab in labels:
            moves = ((ops.fbar1(b), ops.ebar1(b)) if lab == ODD
                     else (ops.f(lab, b), ops.e(lab, b)))
            for x in moves:
                if x is not None and x not in seen:
                    seen.add(x)
                    todo.append(x)
    return seen


def _ordered(ops, elements):
    """Elements in canonical order, their weights, and each one's index,
    with None (where an operator vanishes) at -1."""
    weight = {b: ops.weight(b) for b in elements}
    nodes = tuple(sorted(
        weight, key=lambda b: (tuple(-x for x in weight[b]), ops.sort_key(b))))
    index = {b: k for k, b in enumerate(nodes)}
    index[None] = -1
    return nodes, tuple(map(weight.__getitem__, nodes)), index


def build_graph(ops, elements) -> CrystalGraph:
    """Crystal graph on a set of elements closed under the operators."""
    check_ops(ops)
    nodes, weights, index = _ordered(ops, elements)
    lowering = [ops.fbar1 if lab == ODD else partial(ops.f, lab)
                for lab in all_labels(ops.n)]
    try:
        arrows = tuple(tuple(map(index.__getitem__, map(op, nodes)))
                       for op in lowering)
    except KeyError as exc:
        raise StructureError(
            f"an operator leaves the element set at {exc.args[0]!r}") from None
    return CrystalGraph(n=ops.n, kind=ops.kind, nodes=nodes, weights=weights,
                        arrows=arrows)


def closure(ops, seed) -> CrystalGraph:
    """Connected component of the seed word as a crystal graph.

    ``ops`` is a word adapter, anything else is refused with TypeError,
    and the seed is checked to be a word over 1..n once, here, as the scan
    does not check letters.  One ``kernel.edits`` scan per node gives
    the positions its lowering operators (f_1..f_{n-1}, fbar1) and its
    raising ones edit, and ``kernel._put`` writes each result.  Every new
    result is queued, and the lowering row becomes the node's arrows once
    the nodes are sorted, so no operator is applied twice.  The
    generic form, for any adapter, is ``build_graph(ops, closure_set(ops,
    seed))``; it gives the same graph.
    """
    if not isinstance(ops, WordOps):
        raise TypeError(f"{type(ops).__name__} is not a word adapter "
                        "(WordOps)")
    n = ops.n
    check_word(seed, n)
    down_letters, up_letters = kernel.edit_letters(n)
    edits = kernel.edits
    put = kernel._put
    lowered = {seed: None}
    todo = [seed]
    while todo:
        b = todo.pop()
        down, up = edits(b, n)
        row = [put(b, p, a) if p >= 0 else None
               for p, a in zip(down, down_letters)]
        lowered[b] = row
        for x in row + [put(b, p, a) for p, a in zip(up, up_letters)
                        if p >= 0]:
            if x is not None and x not in lowered:
                lowered[x] = None
                todo.append(x)
    nodes, weights, index = _ordered(ops, lowered)
    # one row of target indices per node, transposed to one array per label
    arrows = tuple(zip(*(tuple(map(index.__getitem__, lowered[b]))
                         for b in nodes)))
    return CrystalGraph(n=ops.n, kind=ops.kind, nodes=nodes, weights=weights,
                        arrows=arrows)


def components(ops, elements) -> list:
    """Split a set of elements into connected components (stable order)."""
    check_ops(ops)
    pool = set(elements)
    seen = set()
    out = []
    for b in _ordered(ops, pool)[0]:
        if b in seen:
            continue
        comp = closure_set(ops, b)
        if not comp <= pool:
            raise ValueError("element set is not closed under the operators")
        seen |= comp
        out.append(build_graph(ops, comp))
    return out


def _packed(weights, low: int, base: int) -> list:
    """Each weight as one integer: its entries less ``low`` as digits in
    ``base``, the first entry most significant."""
    out = []
    for w in weights:
        p = 0
        for x in w:
            p = p * base + x - low
        out.append(p)
    return out


def tensor(left: CrystalGraph, right: CrystalGraph) -> CrystalGraph:
    """Tensor-product crystal of two graphs, on all pairs of nodes.

    The pair (a, b) of node indices is coded a * len(right) + b.  Each
    factor's weights are packed into integers in one base wide enough for
    the digits of a sum, so the packing adds and orders like the weight
    tuples, and the canonical order (weight descending, then a, then b)
    sorts the codes by the negated packed sum, equal keys in code order.
    An even f_i acts on the left factor when phi_i(a) > eps_i(b), else on
    the right; fbar1 acts on the left when the right factor's weight
    starts (0, 0), else on the right.
    """
    check_graph(left, right)
    if left.n != right.n:
        raise ValueError("tensor factors must share the rank")
    size = len(right)
    entries = [[x for w in g.weights for x in w] for g in (left, right)]
    low = [min(xs, default=0) for xs in entries]
    base = 1 + sum(max(xs, default=0) for xs in entries) - sum(low)
    packed_right = _packed(right.weights, low[1], base)
    keys = [-(p + q) for p in _packed(left.weights, low[0], base)
            for q in packed_right]
    codes = sorted(range(len(keys)), key=keys.__getitem__)
    # one weight tuple per distinct key, summed from one pair that has it
    weight = {}
    for key, c in dict(zip(keys, range(len(keys)))).items():
        a, b = divmod(c, size)
        weight[key] = tuple(x + y for x, y in zip(left.weights[a],
                                                  right.weights[b]))
    # position[c] is the place of code c: the inverse permutation
    position = sorted(range(len(codes)), key=codes.__getitem__)
    # rows[a][b] is the position of the pair (a, b); rows[a][-1] is -1
    rows = [position[a * size:(a + 1) * size] + [-1]
            for a in range(len(left))]
    vanished = [-1] * size
    arrows = []
    for lab in all_labels(left.n):
        succ_left, succ_right = left.successors(lab), right.successors(lab)
        if lab == ODD:
            zero = [wb[0] == 0 and wb[1] == 0 for wb in right.weights]
            on_left = [zero] * len(left)
        else:
            phi = _string_lengths(succ_left)
            eps = _string_lengths(right.predecessors(lab))
            by_phi = {p: [p > e for e in eps] for p in set(phi)}
            on_left = map(by_phi.__getitem__, phi)
        # the target of every pair, in code order: each row picks, pair by
        # pair, the left factor's target where left_acts, else the right's
        targets = []
        for row, d, left_acts in zip(rows, succ_left, on_left):
            lowered_right = map(row.__getitem__, succ_right)
            lowered_left = rows[d] if d >= 0 else vanished
            targets += map(tuple.__getitem__,
                           zip(lowered_right, lowered_left), left_acts)
        arrows.append(tuple(map(targets.__getitem__, codes)))
    pairs = [(x, y) for x in left.nodes for y in right.nodes]
    return CrystalGraph(
        n=left.n,
        kind="pair",
        nodes=tuple(map(pairs.__getitem__, codes)),
        weights=tuple(map(weight.__getitem__,
                          map(keys.__getitem__, codes))),
        arrows=tuple(arrows),
    )


def _steps(graph: CrystalGraph) -> list:
    """The successor arrays, then the predecessor arrays, in label order."""
    labels = all_labels(graph.n)
    return list(graph.arrows) + [graph.predecessors(lab) for lab in labels]


def _search(steps, start, seen) -> list:
    """Breadth-first search along index arrays: the indices reached from
    start, in the order they are met, each marked in ``seen``."""
    seen[start] = True
    found = [start]
    for v in found:
        for step in steps:
            u = step[v]
            if u >= 0 and not seen[u]:
                seen[u] = True
                found.append(u)
    return found


def graph_components(graph: CrystalGraph) -> list:
    """Components of a stored graph, split on node indices.

    A search along the successor and predecessor arrays collects each
    component's indices; its nodes, weights and arrows are then sliced
    out in the parent's (canonical) order.  Components come in the order
    of their first node, and a connected graph is returned as it is.
    """
    check_graph(graph)
    steps = _steps(graph)
    seen = [False] * len(graph)
    members = [sorted(_search(steps, start, seen))
               for start in range(len(graph)) if not seen[start]]
    if len(members) == 1:
        return [graph]
    # local[k] is node k's index in its component; local[-1] keeps -1
    local = [0] * len(graph) + [-1]
    for found in members:
        for j, k in enumerate(found):
            local[k] = j
    return [
        CrystalGraph(
            n=graph.n,
            kind=graph.kind,
            nodes=tuple(graph.nodes[k] for k in found),
            weights=tuple(graph.weights[k] for k in found),
            arrows=tuple(tuple(local[succ[k]] for k in found)
                         for succ in graph.arrows),
        )
        for found in members
    ]


def highest_weight_nodes(graph: CrystalGraph) -> list:
    """Nodes annihilated by every raising operator, in canonical order."""
    check_graph(graph)
    targets = {d for succ in graph.arrows for d in succ}
    return [graph.nodes[k] for k in range(len(graph)) if k not in targets
            and all(ebar_ops(graph, i, k) is None for i in range(2, graph.n))]


def validate(graph: CrystalGraph) -> None:
    """Check the structural invariants of a crystal graph.

    Every label is a partial matching and every arrow lowers the weight by
    the simple root of its label (the odd label shares alpha_1); a graph
    that breaks either raises ``StructureError``.
    """
    check_graph(graph)
    for lab, succ in zip(all_labels(graph.n), graph.arrows):
        targets = [d for d in succ if d >= 0]
        if len(targets) != len(set(targets)) or any(
                d >= len(graph) for d in targets):
            raise StructureError(f"label {lab} is not a partial matching")
        i = 1 if lab == ODD else lab
        expect = [0] * graph.n
        expect[i - 1] = 1
        expect[i] = -1
        for s, d in enumerate(succ):
            if d < 0:
                continue
            ws, wd = graph.weights[s], graph.weights[d]
            if [a - b for a, b in zip(ws, wd)] != expect:
                raise StructureError(
                    f"edge {(s, lab, d)} breaks weights: {ws}->{wd}")


def isomorphic(g1: CrystalGraph, g2: CrystalGraph):
    """Label- and weight-preserving isomorphism of connected crystals.

    Both graphs must be connected with exactly one highest-weight node.
    Each is searched from that node, along its arrays in label order; the
    graphs are isomorphic exactly when, node for node, the two searches
    meet the same weight and the same arrows, read as search ranks.
    Returns the node mapping, or None when the graphs are not isomorphic.
    """
    check_graph(g1, g2)
    searches = []
    for g in (g1, g2):
        hw = highest_weight_nodes(g)
        steps = _steps(g)
        # the search reaches every node just when g is connected
        seen = [False] * len(g)
        order = _search(steps, g.node_index[hw[0]], seen) if hw else []
        if hw and len(order) != len(g):
            raise ValueError("isomorphic() needs connected graphs")
        if len(hw) != 1:
            raise ValueError("isomorphic() needs a unique highest-weight node")
        # rank[k] is node k's place in the search; rank[-1] keeps -1
        rank = [0] * len(g) + [-1]
        for r, k in enumerate(order):
            rank[k] = r
        # the weights met, then each label's arrows, in search order
        met = [[g.weights[k] for k in order]]
        met += [[rank[step[k]] for k in order] for step in steps]
        searches.append((order, met))
    (order1, met1), (order2, met2) = searches
    if met1 != met2:
        return None
    return {g1.nodes[a]: g2.nodes[b] for a, b in sorted(zip(order1, order2))}
