"""The word kernel agrees with the independent forms of its operators.

Two oracles are already in the package: the generic Weyl action and
conjugation in ``queercrystals.graphs``, written once for every ops
adapter, which apply f_i or e_i one step at a time, and the
literal recursive tensor rules in ``queercrystals.tensor_rules``.  The
one-pass ``kernel.edits`` is also checked against the per-label
``apply_*`` functions, position by position, and the recording
``closure`` built on it against the generic ``build_graph(ops,
closure_set(ops, seed))``.  The one-box semistandard check that reading
independence runs on every result is checked against the full test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from queercrystals import kernel, words
from queercrystals.graphs import (WordOps, build_graph, closure, closure_set,
                                  ebar_ops, fbar_ops, weyl_s_ops)
from queercrystals.tableaux import (TableauOps, enumerate_ssyt,
                                    is_semistandard, shape_from_partition,
                                    strict_partitions)
from queercrystals.tensor_rules import (e_even_recursive, ebar1_recursive,
                                        f_even_recursive, fbar1_recursive,
                                        left_nested, tree_eps_phi)
from queercrystals.words import all_words


def test_conjugated_odd_operators_equal_the_generic_conjugation():
    cases = 0
    for n, longest in ((2, 5), (3, 5), (4, 5), (5, 4)):
        ops = WordOps(n)
        for length in range(0, longest + 1):
            for w in all_words(n, length):
                for i in range(1, n):
                    assert kernel.weyl_s(w, i) == weyl_s_ops(ops, i, w), \
                        (n, i, w)
                    assert words.ebar(i, w, n) == ebar_ops(ops, i, w), \
                        (n, i, w)
                    assert words.fbar(i, w, n) == fbar_ops(ops, i, w), \
                        (n, i, w)
                    cases += 1
    assert cases == 63 + 2 * 364 + 3 * 1365 + 4 * 781


def edited_position(w, x):
    """The one position where the result x differs from w, -1 for None."""
    if x is None:
        return -1
    assert len(x) == len(w), (w, x)
    (pos,) = [p for p in range(len(w)) if x[p] != w[p]]
    return pos


def per_label_results(w, n):
    odd = n >= 2
    down = [kernel.apply_f(w, i) for i in range(1, n)]
    up = [kernel.apply_e(w, i) for i in range(1, n)]
    return (down + ([kernel.apply_fbar1(w)] if odd else []),
            up + ([kernel.apply_ebar1(w)] if odd else []))


def test_edits_equal_the_per_label_operators():
    cases = 0
    for n, longest in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 4)):
        letters = kernel.edit_letters(n)
        for length in range(0, longest + 1):
            for w in all_words(n, length):
                edits = kernel.edits(w, n)
                for positions, results, written in zip(
                        edits, per_label_results(w, n), letters):
                    assert len(positions) == len(results) == len(written)
                    for p, x, a in zip(positions, results, written):
                        assert p == edited_position(w, x), (n, w)
                        assert p < 0 or kernel._put(w, p, a) == x, (n, w)
                cases += 1
    assert cases == 6 + 63 + 364 + 1365 + 781


def test_the_recording_closure_equals_the_generic_closure():
    for n in (1, 2, 3, 4):
        ops = WordOps(n)
        for length in range(0, 5):
            for w in all_words(n, length):
                got = closure(ops, w)
                oracle = build_graph(ops, closure_set(ops, w))
                assert (got.n, got.kind, got.nodes, got.weights, got.arrows) \
                    == (oracle.n, oracle.kind, oracle.nodes, oracle.weights,
                        oracle.arrows), (n, w)


@st.composite
def long_words(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    letters = draw(st.lists(st.integers(min_value=1, max_value=n),
                            min_size=7, max_size=14))
    return n, bytes(letters)


@settings(max_examples=300, deadline=None)
@given(long_words())
def test_kernel_equals_the_recursive_rules_on_long_words(case):
    n, w = case
    tree = left_nested(w)
    raised = []
    for i in range(1, n):
        assert kernel.eps_phi(w, i) == tree_eps_phi(tree, i)
        e = kernel.apply_e(w, i)
        assert e == e_even_recursive(i, w, n)
        assert kernel.apply_f(w, i) == f_even_recursive(i, w, n)
        raised.append(e)
    ebar1 = kernel.apply_ebar1(w)
    assert ebar1 == ebar1_recursive(w, n)
    assert kernel.apply_fbar1(w) == fbar1_recursive(w, n)
    raised.append(ebar1)
    ops = WordOps(n)
    raised += [ebar_ops(ops, i, w) for i in range(2, n)]
    assert kernel.is_q_highest(w, n) == all(b is None for b in raised)


@settings(max_examples=300, deadline=None)
@given(long_words())
def test_edits_equal_the_recursive_rules_on_long_words(case):
    n, w = case
    down, up = kernel.edits(w, n)
    assert down == [edited_position(w, f_even_recursive(i, w, n))
                    for i in range(1, n)] \
        + [edited_position(w, fbar1_recursive(w, n))]
    assert up == [edited_position(w, e_even_recursive(i, w, n))
                  for i in range(1, n)] \
        + [edited_position(w, ebar1_recursive(w, n))]


def test_the_local_check_equals_the_full_semistandard_test():
    # writing any letter into any box of any filling: the check of the
    # box's neighbors agrees with is_semistandard of the edited filling
    cases = 0
    for n in (1, 2, 3, 4):
        for lam in strict_partitions(5, n):
            shape = shape_from_partition(lam, n)
            ops = TableauOps(shape, n)
            for t in enumerate_ssyt(shape, n):
                for k in range(len(shape.boxes)):
                    for a in range(1, n + 1):
                        edited = t.entries[:k] + (a,) + t.entries[k + 1:]
                        assert ops.keeps_semistandard(t.entries, k, a) == \
                            is_semistandard(shape, edited), (lam, t, k, a)
                        cases += 1
    assert cases == 43126
