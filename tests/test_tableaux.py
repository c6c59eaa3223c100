"""Staircase shapes, semistandard fillings, readings, tableau operators."""

import copy
import pickle

import pytest

from queercrystals import (WordOps, b_lambda, closure, crystal_of_shape,
                           enumerate_ssyt, full_ssyt_graph, isomorphic,
                           kernel, reading_word, shape_from_partition,
                           tableau_operator, verify_unique_highest_weight,
                           word)
from queercrystals.errors import StructureError, VerificationError
from queercrystals.graphs import (ODD, all_labels, build_graph, closure_set,
                                  graph_components, highest_weight_nodes,
                                  is_highest_weight_ops)
from queercrystals.tableaux import (Tableau, TableauOps, _crystal_of_shape,
                                    check_strict_partition, strict_partitions,
                                    tableau_json)


def test_staircase_of_the_big_example():
    shape = shape_from_partition((7, 6, 4, 2))
    assert len(shape.boxes) == 19
    rows = {}
    for r, c in shape.boxes:
        rows.setdefault(r, []).append(c)
    assert {r: (min(cs), len(cs)) for r, cs in rows.items()} == {
        1: (7, 1), 2: (6, 2), 3: (5, 3), 4: (4, 4),
        5: (3, 4), 6: (2, 3), 7: (1, 2),
    }
    # anti-diagonal d carries exactly lam_d boxes
    diag_counts = {}
    for r, c in shape.boxes:
        diag_counts[r + c] = diag_counts.get(r + c, 0) + 1
    assert [diag_counts[7 + d] for d in range(1, 5)] == [7, 6, 4, 2]


def test_staircase_small_shapes():
    assert shape_from_partition((1,)).boxes == ((1, 1),)
    assert shape_from_partition((2,)).boxes == ((1, 2), (2, 1))
    assert shape_from_partition((2, 1)).boxes == ((1, 2), (2, 1), (2, 2))


def test_strict_partition_validation():
    with pytest.raises(ValueError):
        check_strict_partition((2, 2), 3)
    with pytest.raises(ValueError):
        check_strict_partition((0,), 3)
    with pytest.raises(ValueError):
        check_strict_partition((), 3)
    with pytest.raises(ValueError):
        check_strict_partition((3, 2, 1), 2)  # more parts than the rank


@pytest.mark.parametrize("parts, n, bad", [
    ((2.7, 1), 2, "2.7"),     # was truncated to (2, 1)
    (("3", 1), 2, "'3'"),     # was parsed to (3, 1)
    ((2, 1), 3.0, "3.0"),     # a rank must be an integer too
    ((True,), 2, "True"),     # was read as (1,)
])
def test_a_part_or_rank_that_is_not_an_integer_is_refused(parts, n, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
        check_strict_partition(parts, n)
    with pytest.raises(ValueError, match="must be an integer"):
        crystal_of_shape(parts, n)


def test_strict_partitions_refuses_a_bad_size_or_rank():
    # 3.5 used to end in a bare TypeError from range
    with pytest.raises(ValueError, match="size must be an integer, got 3.5"):
        strict_partitions(3.5, 2)
    with pytest.raises(ValueError, match="size must be an integer, got True"):
        strict_partitions(True, 2)
    # rank 0 used to return [] in silence
    with pytest.raises(ValueError, match="rank must be in 1..255, got 0"):
        strict_partitions(4, 0)
    with pytest.raises(ValueError, match="rank must be an integer"):
        strict_partitions(4, 2.0)
    assert strict_partitions(3, 2) == [(1,), (2,), (2, 1), (3,)]


def test_enumerate_ssyt_counts():
    assert len(enumerate_ssyt(shape_from_partition((2,)), 2)) == 4
    assert len(enumerate_ssyt(shape_from_partition((2, 1)), 2)) == 2
    for n in (1, 2, 3, 4, 5, 6):
        assert len(enumerate_ssyt(shape_from_partition((1,)), n)) == n


def test_enumeration_is_row_major_lexicographic():
    ts = enumerate_ssyt(shape_from_partition((2, 1)), 3)
    fillings = [t.entries for t in ts]
    assert fillings == sorted(fillings)


def test_readings():
    shape = shape_from_partition((2, 1))
    t = Tableau(shape=shape, entries=(1, 1, 2))  # boxes (1,2),(2,1),(2,2)
    assert reading_word(t, "row") == word([1, 2, 1])
    assert reading_word(t, "col") == word([1, 2, 1])
    shape2 = shape_from_partition((2,))
    t2 = Tableau(shape=shape2, entries=(1, 2))  # (1,2)=1, (2,1)=2
    assert reading_word(t2, "row") == word([1, 2])
    with pytest.raises(ValueError, match="unknown reading"):
        reading_word(t2, "diagonal")


def test_tableau_operator_examples():
    shape = shape_from_partition((2,))
    ones = Tableau(shape=shape, entries=(1, 1))
    lowered = tableau_operator("f", 1, ones, 2)
    assert lowered.entries == (2, 1)  # box (1,2) is read first
    odd = tableau_operator("f", ODD, ones, 2)
    assert odd.entries == (1, 2)  # the other box
    assert tableau_operator("e", 1, ones, 2) is None
    # rank 1 has no odd operators
    single = b_lambda((1,), 1)
    ops = TableauOps(single.shape, 1)
    assert ops.ebar1(single) is None and ops.fbar1(single) is None
    # b_(3,2,1) at rank 3 holds the letter 3, which rank 2 does not have
    with pytest.raises(ValueError, match="out of range"):
        tableau_operator("f", 1, b_lambda((3, 2, 1), 3), 2)


@pytest.mark.parametrize("direction, label, parts", [
    ("e", 0, (2, 1)),       # no label 0
    ("f", 3, (3, 2, 1)),    # labels stop at n - 1
    ("e", "x", (2, 1)),     # not a label at all
    ("up", ODD, (2, 1)),    # the odd label took any direction as "f"
])
def test_tableau_operator_rejects_a_bad_label_or_direction(direction, label,
                                                           parts):
    with pytest.raises(ValueError):
        tableau_operator(direction, label, b_lambda(parts, 3), 3)


def test_tableau_operator_rejects_broken_fillings():
    shape = shape_from_partition((2, 1))
    ops = TableauOps(shape, 3)
    with pytest.raises(StructureError):
        ops.decode(word([3, 2, 1]))  # column would not increase
    with pytest.raises(StructureError):
        ops.decode(word([1, 2, 3]))  # row (2, 1), (2, 2) would decrease


def test_tableau_operator_refuses_a_filling_that_is_not_semistandard():
    """The column (1, 1) does not increase: the input is at fault, so the
    error is a ValueError naming the entries, not a StructureError."""
    t = Tableau(shape_from_partition((2, 1), 3), (1, 1, 1))
    with pytest.raises(ValueError, match=r"entries \(1, 1, 1\)"):
        tableau_operator("f", 1, t, 3)


def test_b_lambda_examples():
    t = b_lambda((2,), 2)
    assert t.entries == (1, 1) and t.weight(2) == (2, 0)
    t = b_lambda((2, 1), 3)
    assert t.entries == (1, 1, 2)  # boxes (1,2),(2,1),(2,2) by anti-diagonal
    assert reading_word(t) == word([1, 2, 1])
    assert t.weight(3) == (2, 1, 0)
    t = b_lambda((1,), 4)
    assert t.entries == (1,)


@pytest.mark.parametrize("target, wrong, message", [
    ("queercrystals.tableaux.is_semistandard",
     lambda shape, entries: False, "not semistandard"),
    ("queercrystals.tableaux.partition_weight",
     lambda parts, n: (0,) * n, "wrong weight"),
    ("queercrystals.kernel.is_q_highest", lambda w, n: False,
     "not a highest weight vector"),
], ids=["semistandard", "weight", "highest"])
def test_a_canonical_tableau_that_fails_its_checks_raises(
        monkeypatch, target, wrong, message):
    monkeypatch.setattr(target, wrong)
    with pytest.raises(VerificationError, match=message):
        b_lambda((2, 1), 3)


def test_crystal_of_shape_examples():
    g = crystal_of_shape((1,), 3)
    v = closure(WordOps(3), word([1]))
    assert isomorphic(g, v) is not None
    g = crystal_of_shape((2,), 2)
    c = closure(WordOps(2), word([1, 1]))
    assert len(g) == 4 and isomorphic(g, c) is not None
    assert len(crystal_of_shape((2, 1), 2)) == 2


def test_full_filling_set_can_split_but_the_canonical_component_is_clean():
    g = full_ssyt_graph((3,), 2)
    assert len(g) == 8
    comps = graph_components(g)
    assert sorted(len(c) for c in comps) == [2, 6]
    comp = crystal_of_shape((3,), 2)
    assert len(comp) == 6
    assert len(highest_weight_nodes(comp)) == 1


def test_canonical_tableau_is_the_only_hw_of_its_weight_in_the_full_set():
    for n in (2, 3):
        for lam in strict_partitions(5, n):
            g = full_ssyt_graph(lam, n)
            target = tuple(list(lam) + [0] * (n - len(lam)))
            hw = [t for t in highest_weight_nodes(g)
                  if g.weights[g.node_index[t]] == target]
            assert hw == [b_lambda(lam, n)]


def test_the_adapter_highest_weight_test_on_tableaux():
    """The generic test through TableauOps, which conjugates ebar1 along
    e_i/f_i strings of fillings, agrees with the kernel's test on each
    filling's reading word: every filling of strict lam, |lam| <= 5."""
    cases = 0
    for n in (1, 2, 3, 4):
        for lam in strict_partitions(5, n):
            ops = TableauOps(shape_from_partition(lam, n), n)
            for t in enumerate_ssyt(ops.shape, n):
                assert is_highest_weight_ops(ops, t) == \
                    ops.is_highest_weight(t), (n, lam, t.entries)
                cases += 1
    assert cases == 2474


def test_operator_stability_never_breaks_semistandardness():
    # building the graph raises StructureError if an operator ever leaves
    # the filling set, under either reading
    for n in (2, 3):
        for lam in strict_partitions(5, n):
            full_ssyt_graph(lam, n)
            shape = shape_from_partition(lam, n)
            build_graph(TableauOps(shape, n, "col"), enumerate_ssyt(shape, n))


def graph_fields(g):
    return (g.n, g.kind, g.nodes, g.weights, g.edges)


def test_crystal_of_shape_equals_the_generic_closure_on_tableaux():
    # the generic closure over TableauOps, one operator at a time and
    # under either reading, is the oracle for the recording closure on
    # row-reading words
    for n in (1, 2, 3, 4):
        for lam in strict_partitions(6, n):
            t = b_lambda(lam, n)
            got = crystal_of_shape(lam, n)
            for reading in ("row", "col"):
                ops = TableauOps(t.shape, n, reading)
                oracle = build_graph(ops, closure_set(ops, t))
                assert graph_fields(got) == graph_fields(oracle), \
                    (n, lam, reading)


def test_full_ssyt_graph_equals_the_generic_build_on_tableaux():
    for n in (1, 2, 3, 4):
        for lam in strict_partitions(6, n):
            shape = shape_from_partition(lam, n)
            got = full_ssyt_graph(lam, n)
            for reading in ("row", "col"):
                oracle = build_graph(TableauOps(shape, n, reading),
                                     enumerate_ssyt(shape, n))
                assert graph_fields(got) == graph_fields(oracle), \
                    (n, lam, reading)


def test_an_operator_leaving_the_fillings_raises(monkeypatch,
                                                fresh_shape_crystals):
    # every node of a built graph is decoded and checked semistandard:
    # crystal_of_shape takes its arrows from kernel.edits, full_ssyt_graph
    # from kernel.apply_f.  Here every f_i edits the first letter, the top
    # of the two-box column, which must hold 1
    real = kernel.edits

    def edits(w, n):
        down, up = real(w, n)
        return [0] * (n - 1) + down[n - 1:], up

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "edits", edits)
        with pytest.raises(StructureError):
            crystal_of_shape((2, 1), 3)
    monkeypatch.setattr(kernel, "apply_f", lambda w, i: bytes([3] * len(w)))
    with pytest.raises(StructureError):
        full_ssyt_graph((2, 1), 3)


def test_tableau_hash_and_equality():
    t = b_lambda((2, 1), 3)
    same = Tableau(shape=shape_from_partition((2, 1), 3), entries=t.entries)
    assert same == t and hash(same) == hash(t) == hash(t.entries)
    assert same.shape is not t.shape
    assert len({t, same}) == 1
    # equal entries on different shapes are different tableaux
    other = Tableau(shape=shape_from_partition((3,), 3), entries=t.entries)
    assert other != t
    assert len({t, other}) == 2


def test_tableaux_and_shapes_are_immutable_values():
    t = b_lambda((2, 1), 3)
    shape = t.shape
    assert shape == shape_from_partition((2, 1), 3)
    assert shape != shape_from_partition((3,), 3)
    assert hash(shape) == hash((shape.partition, shape.boxes))
    assert shape != (shape.partition, shape.boxes)
    assert t != (shape, t.entries)
    assert repr(shape) == (
        "SkewShape(partition=(2, 1), boxes=((1, 2), (2, 1), (2, 2)))")
    assert repr(t) == f"Tableau(shape={shape!r}, entries=(1, 1, 2))"
    for value, name in ((t, "shape"), (t, "entries"), (shape, "partition"),
                        (shape, "boxes")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert t.entries == (1, 1, 2) and shape.partition == (2, 1)
    for value in (t, shape):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value


def test_tableau_json_schema():
    t = b_lambda((2, 1), 3)
    data = tableau_json(t)
    assert data["shape"] == [2, 1]
    assert {"row": 2, "col": 2, "entry": 2} in data["cells"]
    assert len(data["cells"]) == 3


# the crystal_of_shape memo


def test_one_shape_in_any_integer_sequence_is_one_graph():
    g = crystal_of_shape((3, 1), 3)
    assert crystal_of_shape([3, 1], 3) is g
    assert crystal_of_shape(iter((3, 1)), 3) is g


def test_the_rank_is_part_of_the_key():
    g3, g4 = crystal_of_shape((2, 1), 3), crystal_of_shape((2, 1), 4)
    assert (g3.n, g4.n) == (3, 4)
    assert len(g3) == 8 and len(g4) == 20
    assert crystal_of_shape((2, 1), 3) is g3 and g3 != g4


@pytest.mark.parametrize("parts, n", [
    ((2, 2), 3), ((0,), 3), ((), 3), ((3, 2, 1), 2), ((2.9,), 2),
    (("3", 1), 2), ((2, 1), 0), ((2, 1), 2.0)])
def test_an_invalid_shape_raises_and_stores_nothing(parts, n):
    crystal_of_shape((1,), 2)
    before = _crystal_of_shape.cache_info()
    with pytest.raises(ValueError):
        crystal_of_shape(parts, n)
    after = _crystal_of_shape.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_a_shared_graph_equals_a_fresh_build():
    # every shape up to |lam| = 6 at n <= 4: the shared graph, after the
    # checks of theorem b have derived its node index and predecessor
    # arrays, equals an uncached build field for field, and so do those
    # derived arrays
    shapes = 0
    for n in (1, 2, 3, 4):
        for lam in strict_partitions(6, n):
            shared = crystal_of_shape(lam, n)
            assert verify_unique_highest_weight(lam, n)["passed"]
            assert crystal_of_shape(lam, n) is shared
            fresh = _crystal_of_shape.__wrapped__(lam, n)
            assert fresh is not shared
            assert shared == fresh
            assert shared.node_index == fresh.node_index
            for label in all_labels(n):
                assert shared.predecessors(label) == \
                    fresh.predecessors(label), (n, lam, label)
            shapes += 1
    assert shapes == 44


def test_an_evicted_shape_rebuilds_to_an_equal_graph(fresh_shape_crystals):
    first = crystal_of_shape((1,), 2)
    others = [(lam, n) for n in (2, 3, 4) for lam in strict_partitions(4, n)
              if (lam, n) != ((1,), 2)][:16]
    assert len(set(others)) == 16
    for lam, n in others:
        crystal_of_shape(lam, n)
    assert _crystal_of_shape.cache_info().currsize == 16
    again = crystal_of_shape((1,), 2)
    assert again is not first
    assert again == first
