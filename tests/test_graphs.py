"""Crystal graphs: closures, components, tensor products, isomorphism."""

import copy
import pickle
import weakref

import pytest

from queercrystals import (ODD, CrystalGraph, WordOps, all_words, closure,
                           crystal_of_shape, full_ssyt_graph,
                           highest_weight_nodes, isomorphic, kernel, tensor,
                           tensor_power_graph, vector_crystal, word)
from queercrystals.errors import StructureError
from queercrystals.graphs import (all_labels, build_graph, components,
                                  ebar_ops, fbar_ops, graph_components,
                                  is_highest_weight_ops, validate, weyl_s_ops)


def W(*letters):
    return word(letters)


def edge_set(graph):
    return {(graph.nodes[s], lab, graph.nodes[d]) for s, lab, d in graph.edges}


# the rank-3 two-letter crystal, encoded by hand from its known picture
BXB_EDGES = {
    (W(1, 1), 1, W(2, 1)), (W(1, 1), ODD, W(1, 2)),
    (W(2, 1), 2, W(3, 1)), (W(2, 1), 1, W(2, 2)), (W(2, 1), ODD, W(2, 2)),
    (W(3, 1), 1, W(3, 2)), (W(3, 1), ODD, W(3, 2)),
    (W(1, 2), 2, W(1, 3)),
    (W(2, 2), 2, W(3, 2)),
    (W(3, 2), 2, W(3, 3)),
    (W(1, 3), 1, W(2, 3)), (W(1, 3), ODD, W(2, 3)),
}


def test_vector_crystal_is_a_chain_with_doubled_first_edge():
    for n in (2, 3, 4, 5):
        g = vector_crystal(n)
        assert [bytes(x) for x in g.nodes] == [W(a) for a in range(1, n + 1)]
        expected = {(W(1), 1, W(2)), (W(1), ODD, W(2))}
        expected |= {(W(j), j, W(j + 1)) for j in range(2, n)}
        assert edge_set(g) == expected


def test_two_letter_crystal_matches_hand_encoded_graph():
    g = closure(WordOps(3), W(1, 1))
    assert len(g) == 9
    assert edge_set(g) == BXB_EDGES
    validate(g)


def test_closure_rank_one_is_a_point():
    g = closure(WordOps(1), W(1))
    assert len(g) == 1 and g.edges == ()


def test_closure_of_a_letter_is_the_whole_vector_crystal():
    assert closure(WordOps(3), W(1)) == vector_crystal(3)
    assert closure(WordOps(4), W(3)) == vector_crystal(4)


def test_components_of_small_tensor_powers():
    assert [len(c) for c in components(WordOps(2), all_words(2, 2))] == [4]
    assert [len(c) for c in components(WordOps(3), all_words(3, 2))] == [9]
    assert sorted(len(c) for c in
                  components(WordOps(2), all_words(2, 3))) == [2, 6]
    with pytest.raises(ValueError, match="not closed"):
        components(WordOps(2), [W(1)])  # f_1 leads to 2


def test_components_of_a_single_closure_is_itself():
    g = closure(WordOps(2), W(1, 1))
    comps = components(WordOps(2), g.nodes)
    assert len(comps) == 1
    assert comps[0].nodes == g.nodes
    assert comps[0].edges == g.edges


def test_graph_components_equal_the_generic_split():
    # the generic closure over the stored graph's node indices is the
    # oracle; its components hold indices, mapped back to the nodes here
    cases = [
        tensor_power_graph(2, 4),
        tensor_power_graph(3, 3),
        full_ssyt_graph((3,), 2),
        full_ssyt_graph((3, 1), 3),
        tensor(vector_crystal(3), crystal_of_shape((2, 1), 3)),
    ]
    for g in cases:
        got = graph_components(g)
        oracle = components(g, range(len(g)))
        assert [(c.n, c.kind, c.nodes, c.weights, c.edges) for c in got] == \
            [(c.n, c.kind, tuple(g.nodes[k] for k in c.nodes), c.weights,
              c.edges) for c in oracle]
        assert sum(len(c) for c in got) == len(g)
        for c in got:
            validate(c)
    connected = crystal_of_shape((2, 1), 3)
    (comp,) = graph_components(connected)
    assert comp is connected
    assert graph_components(tensor_power_graph(2, 0)) == [tensor_power_graph(2, 0)]


def test_component_weights_are_strict_partitions_with_unique_hw():
    for n in (2, 3):
        for N in range(1, 6):
            for comp in components(WordOps(n), all_words(n, N)):
                hw = highest_weight_nodes(comp)
                assert len(hw) == 1
                wt = comp.weights[comp.node_index[hw[0]]]
                pos = [x for x in wt if x > 0]
                assert list(wt)[:len(pos)] == pos
                assert all(a > b for a, b in zip(pos, pos[1:]))


def test_arrow_tables_equal_a_scan_of_the_edges():
    graphs = [tensor_power_graph(3, 3), full_ssyt_graph((2, 1), 3),
              tensor(crystal_of_shape((2, 1), 3), vector_crystal(3))]
    assert [g.kind for g in graphs] == ["word", "tableau", "pair"]
    for g in graphs:
        arrows = set()
        for lab in all_labels(g.n):
            succ, pred = g.successors(lab), g.predecessors(lab)
            assert len(succ) == len(pred) == len(g)
            # derived once per graph and kept
            assert isinstance(pred, tuple) and g.predecessors(lab) is pred
            # the predecessors invert the successors
            assert {(s, d) for s, d in enumerate(succ) if d >= 0} == \
                {(s, d) for d, s in enumerate(pred) if s >= 0}
            arrows |= {(s, lab, d) for s, d in enumerate(succ) if d >= 0}
        # edges lists each arrow of the arrays exactly once
        assert len(g.edges) == len(set(g.edges))
        assert set(g.edges) == arrows


def test_edges_are_built_in_source_label_target_order():
    graphs = [tensor_power_graph(3, 4), crystal_of_shape((3, 1), 4),
              full_ssyt_graph((2, 1), 3),
              tensor(crystal_of_shape((2, 1), 3), vector_crystal(3))]
    assert [g.kind for g in graphs] == ["word", "tableau", "tableau", "pair"]
    for g in graphs:
        assert any(lab == ODD for _, lab, _ in g.edges)
        labels = all_labels(g.n)
        assert list(g.edges) == sorted(
            g.edges, key=lambda e: (e[0], labels.index(e[1]), e[2]))


def test_validate_rejects_a_label_that_is_not_a_partial_matching():
    # two 1-arrows into one node; the weights alone are consistent
    g = CrystalGraph(n=2, kind="word", nodes=(W(1), W(2), W(1, 2, 1)),
                     weights=((1, 0), (0, 1), (1, 0)),
                     arrows=((1, -1, 1), (-1, -1, -1)))
    with pytest.raises(StructureError, match="partial matching"):
        validate(g)


def test_validate_rejects_an_arrow_that_breaks_weights():
    # a 1-arrow that raises the weight by alpha_1 instead of lowering it
    g = CrystalGraph(n=2, kind="word", nodes=(W(1), W(2)),
                     weights=((1, 0), (0, 1)),
                     arrows=((-1, 0), (-1, -1)))
    with pytest.raises(StructureError, match="breaks weights"):
        validate(g)


def test_arrow_arrays_must_match_the_labels_and_nodes():
    with pytest.raises(ValueError):
        CrystalGraph(n=2, kind="word", nodes=(W(1), W(2)),
                     weights=((1, 0), (0, 1)), arrows=((1, -1),))
    with pytest.raises(ValueError):
        CrystalGraph(n=2, kind="word", nodes=(W(1), W(2)),
                     weights=((1, 0), (0, 1)), arrows=((1, -1), (1,)))


def test_weights_must_match_the_nodes():
    # one weight for two nodes used to pass, and graph_to_json and
    # validate then raised IndexError
    with pytest.raises(ValueError, match="one weight per node"):
        CrystalGraph(n=2, kind="word", nodes=(W(1), W(2)),
                     weights=((1, 0),), arrows=((1, -1), (1, -1)))


def test_a_graph_is_an_immutable_value():
    g = vector_crystal(2)
    fields = (2, "word", (W(1), W(2)), ((1, 0), (0, 1)), ((1, -1), (1, -1)))
    same = CrystalGraph(*fields)
    assert same == g and same is not g
    assert hash(same) == hash(g) == hash(fields)
    assert CrystalGraph(2, "pair", *fields[2:]) != g
    assert g != fields
    assert repr(g) == (
        "CrystalGraph(n=2, kind='word', nodes=(b'\\x01', b'\\x02'), "
        "weights=((1, 0), (0, 1)), arrows=((1, -1), (1, -1)))")
    for name in ("n", "kind", "nodes", "weights", "arrows", "node_index",
                 "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.nodes
    assert g == same
    for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert twin == g and twin.successors(ODD) == g.successors(ODD)
    # the layer tracer keeps weak references to the graphs it sees
    assert weakref.ref(g)() is g
    assert g.node_index == {b: k for k, b in enumerate(g.nodes)}
    assert g.node_index is g.node_index


def test_a_shared_node_index_cannot_be_written(fresh_shape_crystals):
    # crystal_of_shape hands one graph to every caller, so a write into
    # its node index would reach every later check on that crystal
    g = crystal_of_shape((2, 1), 3)
    with pytest.raises(TypeError):
        g.node_index[g.nodes[0]] = 5
    with pytest.raises(TypeError):
        del g.node_index[g.nodes[0]]
    assert crystal_of_shape((2, 1), 3).node_index[g.nodes[0]] == 0
    assert g.node_index == {b: k for k, b in enumerate(g.nodes)}


def test_graph_invariants_across_tensor_powers():
    for n in (2, 3):
        for N in range(0, 4):
            validate(tensor_power_graph(n, N))


def test_highest_weight_detection_agrees_between_routes():
    """Stored-edge conjugation walks vs the direct word-kernel test."""
    from queercrystals import is_highest_weight
    for n in (2, 3, 4):
        g = tensor_power_graph(n, 3)
        via_graph = set(highest_weight_nodes(g))
        via_kernel = {w for w in g.nodes if is_highest_weight(w, n)}
        assert via_graph == via_kernel


def test_the_adapter_highest_weight_test_is_the_kernels_on_words():
    """e_i and ebar_i vanish for every i through WordOps exactly where the
    kernel's is_q_highest holds, on every word of length <= 4, n <= 4."""
    cases = 0
    for n in (1, 2, 3, 4):
        ops = WordOps(n)
        for length in range(5):
            for w in all_words(n, length):
                assert is_highest_weight_ops(ops, w) == \
                    kernel.is_q_highest(w, n), (n, w)
                cases += 1
    assert cases == 498


def test_a_stored_graph_answers_operator_calls_as_the_kernel_does():
    """Operators called on a stored graph's node indices, and ebar_i and
    fbar_i walked along them, give the word kernel's results for every
    node and index: an index, or None where the operator vanishes."""
    cases = 0
    for n, N in ((1, 2), (3, 1), (3, 4), (3, 6), (4, 3), (4, 5), (5, 2),
                 (5, 4)):
        g = tensor_power_graph(n, N)
        for k, w in enumerate(g.nodes):
            assert g.weight(k) == kernel.weight_of(w, n) and g.sort_key(k) == k
            if n == 1:
                assert g.fbar1(k) is None and g.ebar1(k) is None
            for i in range(1, n):
                if i == 1:
                    up, down = kernel.apply_ebar1(w), kernel.apply_fbar1(w)
                else:
                    up, down = kernel.apply_ebar(w, i), kernel.apply_fbar(w, i)
                got = [g.f(i, k), g.e(i, k), ebar_ops(g, i, k),
                       fbar_ops(g, i, k)]
                assert -1 not in got
                assert [None if x is None else g.nodes[x] for x in got] == \
                    [kernel.apply_f(w, i), kernel.apply_e(w, i), up, down], \
                    (n, i, w)
                cases += 1
    assert cases == 2 * 3 + 2 * 81 + 2 * 729 + 3 * 64 + 3 * 1024 \
        + 4 * 25 + 4 * 625


def test_highest_weight_nodes_of_pair_graphs_equal_the_kernel_test():
    for n in (3, 4):
        for a in range(1, 4):
            for b in range(1, 4):
                if n ** (a + b) > 1024:
                    continue
                g = tensor(tensor_power_graph(n, a), tensor_power_graph(n, b))
                assert g.kind == "pair"
                expected = {(u, v) for u, v in g.nodes
                            if kernel.is_q_highest(u + v, n)}
                got = highest_weight_nodes(g)
                assert set(got) == expected and len(got) == len(expected)
                assert got == sorted(got, key=g.node_index.get)


def test_a_stored_graph_rejects_a_label_it_does_not_have():
    g = tensor_power_graph(3, 2)
    for label in (0, 3, -1):
        with pytest.raises(KeyError):
            g.f(label, 0)
        with pytest.raises(KeyError):
            g.e(label, 0)
        with pytest.raises(KeyError):
            g.successors(label)


def test_weyl_reflection_on_a_broken_stored_graph_raises():
    # weight (2, 0) needs two f_1 steps.  With none, the walk stops at
    # the first step: a None, not -1, which as an index would wrap to the
    # last node.
    broken = CrystalGraph(n=2, kind="word", nodes=(W(1, 1),),
                          weights=((2, 0),), arrows=((-1,), (-1,)))
    with pytest.raises(StructureError, match="fell off"):
        weyl_s_ops(broken, 1, 0)
    # with one, the walk ends on None
    short = CrystalGraph(n=2, kind="word", nodes=(W(1, 1), W(2, 1)),
                         weights=((2, 0), (1, 1)),
                         arrows=((1, -1), (-1, -1)))
    with pytest.raises(StructureError, match="fell off"):
        weyl_s_ops(short, 1, 0)


def test_tensor_of_graphs_matches_word_operators():
    """The graph-level tensor rule reproduces the word crystal: B^a (x) B^b
    is B^(a+b) under concatenation of each pair."""
    cases = [(n, vector_crystal(n), vector_crystal(n), 2) for n in (2, 3)]
    cases += [(n, tensor_power_graph(n, a), tensor_power_graph(n, b), a + b)
              for n in (2, 3, 4) for a in range(1, 8) for b in range(1, 8)
              if n ** (a + b) <= 256]
    for n, left, right, N in cases:
        prod = tensor(left, right)
        direct = tensor_power_graph(n, N)
        relabel = {node: node[0] + node[1] for node in prod.nodes}
        assert sorted(relabel.values()) == sorted(direct.nodes)
        assert {relabel[b]: w for b, w in zip(prod.nodes, prod.weights)} == \
            dict(zip(direct.nodes, direct.weights))
        got = {(relabel[prod.nodes[s]], lab, relabel[prod.nodes[d]])
               for s, lab, d in prod.edges}
        assert got == edge_set(direct), (n, len(left), len(right))
        validate(prod)


def test_tensor_orders_pairs_by_summed_weight_then_indices():
    """tensor sorts packed integer keys; the order they stand for is the
    summed weight tuple, descending, then the left and right indices."""
    def bare(*weights):
        # a graph with these weights and no arrows
        return CrystalGraph(n=3, kind="word", nodes=tuple(range(len(weights))),
                            weights=weights, arrows=((-1,) * len(weights),) * 3)

    cases = [
        (bare((0, 3, -2), (-1, 0, 5), (2, 2, 2)),
         bare((1, -4, 0), (0, 0, 0), (3, 1, -1), (0, 5, 0))),
        (bare((4, 0, 0), (0, 4, 0), (3, 0, 1)), bare((0, 0, 3), (1, 0, 2))),
        # summed entries reach 2: in base 2, (0, 2, 0) would pack as (1, 0, 0)
        (bare((0, 1, 0), (1, 0, 0)), bare((0, 1, 0), (0, 0, 0))),
        (vector_crystal(3), crystal_of_shape((3, 1), 3)),
        (crystal_of_shape((2, 1), 3), vector_crystal(3)),
        (tensor_power_graph(3, 2), crystal_of_shape((4,), 3)),
    ]
    for left, right in cases:
        summed = {(a, b): tuple(x + y for x, y in zip(wa, wb))
                  for a, wa in enumerate(left.weights)
                  for b, wb in enumerate(right.weights)}
        order = sorted(summed, key=lambda ab: (
            tuple(-x for x in summed[ab]), ab))
        prod = tensor(left, right)
        assert prod.nodes == tuple((left.nodes[a], right.nodes[b])
                                   for a, b in order)
        assert prod.weights == tuple(summed[ab] for ab in order)


def test_tensor_factors_must_share_the_rank():
    with pytest.raises(ValueError, match="rank"):
        tensor(vector_crystal(2), vector_crystal(3))


def test_isomorphic_identity_and_model():
    g = closure(WordOps(2), W(1, 1))
    assert isomorphic(g, g) is not None
    model = crystal_of_shape((2,), 2)
    mapping = isomorphic(model, g)
    assert mapping is not None
    assert len(mapping) == 4


def test_isomorphic_distinguishes_sizes():
    g1 = closure(WordOps(3), W(1))
    g2 = closure(WordOps(3), W(1, 1))
    assert isomorphic(g1, g2) is None


def test_isomorphic_rejects_disconnected_or_multi_hw_input():
    g = tensor_power_graph(2, 3)  # two components
    single = closure(WordOps(2), W(1, 1, 1))
    with pytest.raises(ValueError, match="connected"):
        isomorphic(g, single)
    # connected, but no arrow enters either of the first two nodes
    two_tops = CrystalGraph(n=2, kind="word", nodes=(W(1), W(2), W(3)),
                            weights=((1, 0), (1, 0), (0, 1)),
                            arrows=((2, -1, -1), (-1, 2, -1)))
    with pytest.raises(ValueError, match="unique highest-weight"):
        isomorphic(two_tops, two_tops)


def test_isomorphic_requires_matching_weights():
    comps = {len(c): c for c in components(WordOps(2), all_words(2, 3))}
    two = comps[2]  # the pair {121, 122}, a doubled arrow
    assert isomorphic(two, build_graph(WordOps(2),
                                       [W(1, 2, 1), W(1, 2, 2)])) is not None
    letter = closure(WordOps(2), W(1))  # also two nodes and a doubled arrow
    assert isomorphic(two, letter) is None


@pytest.mark.parametrize("arrows1, arrows2", [
    # a 1-arrow on one side only
    (((-1, -1, -1), (-1, 0, 1)), ((-1, -1, 0), (-1, -1, 1))),
    # the same fbar1 chain 2 -> 1 -> 0, plus a 1-arrow on one side
    (((-1, -1, -1), (-1, 0, 1)), ((-1, -1, 0), (-1, 0, 1))),
    # both fbar1 images of the first graph's chain sent to node 0
    (((-1, -1, 0), (-1, 0, 1)), ((-1, -1, 0), (1, -1, 0))),
])
def test_isomorphic_rejects_arrows_that_do_not_correspond(arrows1, arrows2):
    """Connected three-node graphs of one weight whose only highest-weight
    node is 2: no map of one onto the other carries arrows to arrows."""
    g1, g2 = (CrystalGraph(n=2, kind="word", nodes=(W(1), W(2), W(1, 2)),
                           weights=((0, 0),) * 3, arrows=arrows)
              for arrows in (arrows1, arrows2))
    assert isomorphic(g1, g2) is None
    assert isomorphic(g2, g1) is None
