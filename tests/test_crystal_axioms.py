"""Local crystal axioms as an oracle on stored graphs.

Each axiom is checked by composing a graph's index arrays, so it holds or
fails independently of the kernel and the tensor rule that built the
graph:

* seminormality: phi_i - eps_i = wt_i - wt_{i+1} on every node, for each
  even label i;
* distant labels commute: for |i - j| >= 2, each of e_i, f_i commutes with
  each of e_j, f_j, as partial maps;
* the odd axiom of an abstract q(n)-crystal: ebar1 and fbar1 commute with
  e_i and f_i for 3 <= i <= n - 1.

The graphs are B^(x)N at five (n, N), and B(lam), B (x) B(lam) and
B(lam) (x) B for 2 <= n <= 4 and |lam| <= 7 (|lam| <= 6 at n = 4); at
n = 1 there is no label to check.
"""

import pytest

from queercrystals import (crystal_of_shape, tensor, tensor_power_graph,
                           vector_crystal)
from queercrystals.graphs import ODD, _string_lengths
from queercrystals.tableaux import strict_partitions


@pytest.fixture(scope="module")
def graphs():
    """(name, graph) pairs."""
    out = [(f"B^{N} n={n}", tensor_power_graph(n, N))
           for n, N in ((2, 8), (3, 6), (4, 5), (5, 4), (6, 3))]
    for n, size in ((2, 7), (3, 7), (4, 6)):
        letter = vector_crystal(n)
        for lam in strict_partitions(size, n):
            shape = crystal_of_shape(lam, n)
            out += [(f"B({lam}) n={n}", shape),
                    (f"B x B({lam}) n={n}", tensor(letter, shape)),
                    (f"B({lam}) x B n={n}", tensor(shape, letter))]
    return out


def _compose(outer, inner) -> list:
    """outer after inner, as a partial map on node indices (-1 for none)."""
    return [-1 if k < 0 else outer[k] for k in inner]


def _commute(a, b) -> bool:
    return _compose(a, b) == _compose(b, a)


def _moves(graph, label) -> tuple:
    """The raising and the lowering array of one label."""
    return graph.predecessors(label), graph.successors(label)


def test_seminormality(graphs):
    for name, g in graphs:
        for i in range(1, g.n):
            eps = _string_lengths(g.predecessors(i))
            phi = _string_lengths(g.successors(i))
            bad = [g.nodes[k] for k, wt in enumerate(g.weights)
                   if phi[k] - eps[k] != wt[i - 1] - wt[i]]
            assert not bad, (name, i, bad[:3])


def test_distant_labels_commute(graphs):
    for name, g in graphs:
        for i in range(1, g.n):
            for j in range(i + 2, g.n):
                for a in _moves(g, i):
                    for b in _moves(g, j):
                        assert _commute(a, b), (name, i, j)


def test_the_odd_pair_commutes_with_labels_three_and_up(graphs):
    for name, g in graphs:
        for i in range(3, g.n):
            for a in _moves(g, ODD):
                for b in _moves(g, i):
                    assert _commute(a, b), (name, i)
