"""Local crystal axioms as an oracle on stored graphs.

Each axiom is checked by composing a graph's index arrays, so it holds or
fails independently of the kernel and the tensor rule that built the
graph:

* seminormality: phi_i - eps_i = wt_i - wt_{i+1} on every node, for each
  even label i;
* distant labels commute: for |i - j| >= 2, each of e_i, f_i commutes with
  each of e_j, f_j, as partial maps;
* the odd axiom of an abstract q(n)-crystal: ebar1 and fbar1 commute with
  e_i and f_i for 3 <= i <= n - 1;
* adjacent labels, |i - j| = 1, by Stembridge's local axioms for
  simply-laced crystals (J. R. Stembridge, "A local characterization of
  simply-laced crystals", Trans. AMS 355 (2003)), which every gl(n)
  crystal obeys: each e_i step changes (eps_j, phi_j) by (0, -1) or
  (1, 0); where e_i x and e_j x are both defined, e_i e_j x = e_j e_i x
  if the e_i step leaves eps_j as it was or the e_j step leaves eps_i,
  and e_i e_j^2 e_i x = e_j e_i^2 e_j x if both steps raise them.  The
  same three hold for f_i with eps and phi exchanged, read on the
  reversed arrows.

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


def _word(x, *steps) -> int:
    """The node reached from x by the steps, the first applied first."""
    for step in steps:
        if x < 0:
            return -1
        x = step[x]
    return x


def _adjacent_counts(name, g, up, eps, phi, i) -> list:
    """Stembridge's step, square and octagon axioms for the labels i and
    i + 1, with ``up`` the raising array of each label and ``eps``,
    ``phi`` its string lengths.  Returns how many steps, squares and
    octagons were checked, failing on the first that breaks."""
    j = i + 1
    counts = [0, 0, 0]
    # rise[a][x]: how much an a-step from x raises eps of the other label
    rise = {}
    for a, b in ((i, j), (j, i)):
        rise[a] = [None] * len(g)
        for x, y in enumerate(up[a]):
            if y >= 0:
                step = (eps[b][y] - eps[b][x], phi[b][y] - phi[b][x])
                assert step in ((0, -1), (1, 0)), (name, g.nodes[x], a, b)
                rise[a][x] = step[0]
                counts[0] += 1
    ui, uj = up[i], up[j]
    for x, (ri, rj) in enumerate(zip(rise[i], rise[j])):
        if ri is None or rj is None:
            continue
        if ri == 0 or rj == 0:
            square = _word(x, ui, uj)
            assert square >= 0 and square == _word(x, uj, ui), (
                "square", name, g.nodes[x], i)
            counts[1] += 1
        else:
            octagon = _word(x, ui, uj, uj, ui)
            assert octagon >= 0 and octagon == _word(x, uj, ui, ui, uj), (
                "octagon", name, g.nodes[x], i)
            counts[2] += 1
    return counts


@pytest.mark.parametrize("side", ["raising", "lowering"])
def test_adjacent_labels_obey_stembridges_axioms(graphs, side):
    # the lowering side is the raising one on the reversed arrows, with
    # eps and phi exchanged
    totals = [0, 0, 0]
    for name, g in graphs:
        labels = range(1, g.n)
        down = {i: g.successors(i) for i in labels}
        up = {i: g.predecessors(i) for i in labels}
        eps = {i: _string_lengths(up[i]) for i in labels}
        phi = {i: _string_lengths(down[i]) for i in labels}
        if side == "lowering":
            up, eps, phi = down, phi, eps
        for i in range(1, g.n - 1):
            counts = _adjacent_counts(name, g, up, eps, phi, i)
            totals = [a + b for a, b in zip(totals, counts)]
    # every kind of axiom was met, so none of them holds vacuously
    assert all(totals), totals
