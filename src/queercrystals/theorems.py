"""Verifiers for the structural theorems about crystals of words and tableaux.

The statements checked here, by explicit enumeration:

* uniqueness: the connected crystal B(lam) built on staircase tableaux has
  exactly one highest-weight node, of weight lam;
* decomposition: B (x) B(lam) splits into components matched bijectively
  with the strict partitions lam + eps_j, each component isomorphic to
  B(lam + eps_j);
* highest-weight formula: the highest-weight vectors of B (x) B(lam) are
  exactly 1 (x) f_1 f_2 ... f_{j-1} b_lam over the same j's (the operator
  with the largest index acting first);
* reading independence: row and column readings induce the same tableau
  operators on the full staircase filling set.

The conjecture explorer reports, without asserting, how the highest-weight
vectors of B(lam) (x) B relate to products of odd lowering operators
applied to b_lam.
"""

from . import kernel, words
from .errors import VerificationError
from .graphs import (ODD, WordOps, all_labels, build_graph, fbar_ops,
                     graph_components, highest_weight_nodes, isomorphic,
                     tensor, validate)
from .reports import check, record, report
from .tableaux import (TableauOps, _fillings, b_lambda,
                       check_strict_partition, crystal_of_shape,
                       partition_weight, shape_from_partition)


def vector_crystal(n: int):
    """The rank-n letter crystal, as a graph on one-letter words."""
    return tensor_power_graph(n, 1)


def tensor_power_graph(n: int, N: int):
    """Crystal graph on all words of length N (all components at once)."""
    words.check_rank(n)
    N = words._integer(N, "tensor power", least=0)
    return build_graph(WordOps(n), list(words.all_words(n, N)))


def strict_successors(parts, n: int) -> list:
    """Pairs (j, lam + eps_j) for which lam + eps_j is a strict partition."""
    parts = check_strict_partition(parts, n)
    out = []
    for j in range(1, n + 1):
        mu = list(partition_weight(parts, n))
        mu[j - 1] += 1
        if all(mu[k] > mu[k + 1] for k in range(n - 1) if mu[k + 1] > 0):
            out.append((j, tuple(x for x in mu if x > 0)))
    return out


def decompose_product(left, right) -> list:
    """Split a tensor of two crystal graphs and label components.

    Each component must have a unique highest-weight node whose weight is a
    strict partition mu with the component isomorphic to the staircase
    crystal of mu; anything else raises VerificationError.
    """
    product = tensor(left, right)
    out = []
    for comp in graph_components(product):
        hw = highest_weight_nodes(comp)
        if len(hw) != 1:
            raise VerificationError(
                f"component with {len(hw)} highest-weight nodes")
        wt = comp.weights[comp.node_index[hw[0]]]
        mu = tuple(x for x in wt if x > 0)
        if partition_weight(mu, comp.n) != wt or any(
                a <= b for a, b in zip(mu, mu[1:])):
            raise VerificationError(
                f"highest weight {wt} is not a strict partition")
        model = crystal_of_shape(mu, comp.n)
        if isomorphic(comp, model) is None:
            raise VerificationError(
                f"component with highest weight {mu} does not match its model")
        out.append((mu, comp))
    return out


def highest_weight_formula_side(parts, n: int, graph) -> dict:
    """Map j -> 1 (x) f_1 ... f_{j-1} b_lam, for the admissible j.

    ``graph`` is ``crystal_of_shape(parts, n)``.
    """
    top = graph.node_index[b_lambda(parts, n)]
    out = {}
    for j, _ in strict_successors(parts, n):
        k = top
        for i in range(j - 1, 0, -1):
            k = graph.f(i, k)
            if k is None:
                raise VerificationError(
                    f"f_{i} vanished while forming the formula for j={j}")
        out[j] = (bytes([1]), graph.nodes[k])
    return out


def verify_unique_highest_weight(parts, n: int) -> dict:
    """Connectedness and unique highest weight of the staircase crystal."""
    parts = check_strict_partition(parts, n)
    instance = f"n={n} lam={parts}"
    records = []
    graph = crystal_of_shape(parts, n)
    validate(graph)
    ncomp = len(graph_components(graph))
    records.append(check("connected", instance, ncomp == 1,
                         {"components": ncomp}))
    hw = highest_weight_nodes(graph)
    records.append(check("unique-highest-weight", instance, len(hw) == 1,
                         {"count": len(hw)}))
    if len(hw) == 1:
        wt = graph.weights[graph.node_index[hw[0]]]
        records.append(check("highest-weight-is-lam", instance,
                             wt == partition_weight(parts, n),
                             {"weight": list(wt)}))
    return report(records, instance=instance, size=len(graph))


def verify_decomposition(parts, n: int) -> dict:
    """Tensor decomposition of B (x) B(lam) against the strict successors."""
    parts = check_strict_partition(parts, n)
    instance = f"n={n} lam={parts}"
    records = []
    expected = sorted(mu for _, mu in strict_successors(parts, n))
    try:
        pieces = decompose_product(vector_crystal(n), crystal_of_shape(parts, n))
    except VerificationError as exc:
        records.append(record("decomposition", instance, "fail",
                              witness={"error": str(exc)}))
        return report(records, instance=instance)
    got = sorted(mu for mu, _ in pieces)
    records.append(check("decomposition-labels", instance, got == expected,
                         {"got": [list(m) for m in got],
                          "expected": [list(m) for m in expected]}))
    records.append(record("component-models", instance, "pass"))
    return report(records, instance=instance,
                  labels=[list(m) for m in got])


def _describe_product_node(product, node) -> dict:
    return {
        "letter": node[0][0],
        "weight": list(product.weights[product.node_index[node]]),
    }


def verify_highest_weight_formula(parts, n: int) -> dict:
    """Highest-weight vectors of B (x) B(lam) vs the operator formula.

    The report carries both sides: the enumerated highest-weight nodes and
    the elements 1 (x) f_1 ... f_{j-1} b_lam, keyed by j.
    """
    parts = check_strict_partition(parts, n)
    instance = f"n={n} lam={parts}"
    shape_graph = crystal_of_shape(parts, n)
    product = tensor(vector_crystal(n), shape_graph)
    actual = set(highest_weight_nodes(product))
    try:
        formula = highest_weight_formula_side(parts, n, shape_graph)
    except VerificationError as exc:
        records = [record("highest-weight-formula", instance, "fail",
                          witness={"error": str(exc)})]
        return report(records, instance=instance)
    predicted = set(formula.values())

    def described(nodes):
        return [_describe_product_node(product, b)
                for b in sorted(nodes, key=product.node_index.get)]

    records = [check("highest-weight-formula", instance, actual == predicted,
                     {"missing": described(predicted - actual),
                      "extra": described(actual - predicted)})]
    return report(
        records, instance=instance, enumerated=described(actual),
        formula={str(j): _describe_product_node(product, b)
                 for j, b in sorted(formula.items())},
        count_actual=len(actual), count_predicted=len(predicted))


def verify_reading_independence(parts, n: int) -> dict:
    """Row and column readings induce identical operators on all fillings.

    Every filling's entry tuple comes from ``tableaux._fillings``, and
    one ``kernel.edits`` scan of a word gives the position every operator
    edits on it.  An operator changes one letter, to a letter that does
    not depend on the reading, so the two results are the same tableau
    exactly when the two positions, each mapped to a box through its
    reading's ``order``, are the same box (or both vanish).

    The operators are compared one by one, in the order f_1, e_1, ...,
    f_{n-1}, e_{n-1}, fbar1, ebar1, and the first whose two boxes differ
    is the witness.  The column word is scanned only when it differs from
    the row word: the scan is a function of the word, so equal words
    share their positions.  On a shape whose two orders agree, the column
    word is not even read.  Every result is checked to be semistandard on
    its edited box alone, against that box's neighbors, which is
    equivalent for a one-box change of a semistandard filling; a result
    that fails is decoded, which raises.
    """
    parts = check_strict_partition(parts, n)
    instance = f"n={n} lam={parts}"
    shape = shape_from_partition(parts, n)
    row_ops = TableauOps(shape, n, "row")
    col_ops = TableauOps(shape, n, "col")
    down_letters, up_letters = kernel.edit_letters(n)
    # (name, 0 for lowering or 1 for raising, index in edits, letter
    # written); edits lists each side's positions in all_labels order
    operators = []
    for k, lab in enumerate(all_labels(n)):
        suffix = "bar1" if lab == ODD else f"_{lab}"
        operators.append((f"f{suffix}", 0, k, down_letters[k]))
        operators.append((f"e{suffix}", 1, k, up_letters[k]))
    # the box at each reading position, and box -1 at position -1 (the
    # crystal zero) from the entry appended last
    row_order, col_order = row_ops.order, col_ops.order
    row_box = row_order + (-1,)
    col_box = col_order + (-1,)
    one_order = row_order == col_order
    edits = kernel.edits
    put = kernel._put
    # the check reads boxes, so it serves both readings
    fits = row_ops.keeps_semistandard
    mismatch = None
    for entries in _fillings(row_ops.neighbors, n):
        row_word = bytes(map(entries.__getitem__, row_order))
        row_edits = edits(row_word, n)
        col_word, col_edits = row_word, row_edits
        if not one_order:
            col_word = bytes(map(entries.__getitem__, col_order))
            if col_word != row_word:
                col_edits = edits(col_word, n)
        for name, side, k, letter in operators:
            p = row_edits[side][k]
            x = row_box[p]
            if x >= 0 and not fits(entries, x, letter):
                row_ops.decode(put(row_word, p, letter))
            q = col_edits[side][k]
            y = col_box[q]
            if y != x:
                if y >= 0 and not fits(entries, y, letter):
                    col_ops.decode(put(col_word, q, letter))
                mismatch = {"tableau": list(entries), "op": name}
                break
        if mismatch:
            break
    records = [check("reading-independence", instance, mismatch is None,
                     mismatch)]
    return report(records, instance=instance)


def explore_conjecture(parts, n: int, max_depth: int | None = None) -> dict:
    """Describe the highest-weight vectors of B(lam) (x) B.

    For each highest-weight vector x (x) letter, search breadth-first for a
    product of odd lowering operators fbar_i carrying b_lam to x.  Purely
    descriptive: nothing is asserted about what must be found.
    """
    parts = check_strict_partition(parts, n)
    if max_depth is None:
        max_depth = sum(parts) + 1
    max_depth = words._integer(max_depth, "max_depth", least=0)
    graph = crystal_of_shape(parts, n)
    top = graph.node_index[b_lambda(parts, n)]
    # breadth-first closure under the odd lowering operators, on node indices
    expressions = {top: []}
    frontier = [top]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        nxt = []
        for t in frontier:
            for i in range(1, n):
                u = fbar_ops(graph, i, t)
                if u is not None and u not in expressions:
                    expressions[u] = expressions[t] + [i]
                    nxt.append(u)
        frontier = nxt
    product = tensor(graph, vector_crystal(n))
    found = []
    for node in highest_weight_nodes(product):
        first, letter = node
        k = graph.node_index[first]
        expr = expressions.get(k)
        found.append({
            "letter": letter[0],
            "first_factor_weight": list(graph.weights[k]),
            "odd_ops_applied_in_order": expr,
            "found": expr is not None,
        })
    records = [record("conjecture-survey", f"n={n} lam={parts}", "info",
                      witness=None)]
    return report(records, instance=f"n={n} lam={parts}",
                  highest_weight_vectors=found, max_depth=max_depth)
