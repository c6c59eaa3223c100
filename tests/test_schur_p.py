"""An independent character oracle: Schur P-polynomials.

For a strict partition lam, the character of B(lam) is P_lam, the sum of
x^T over the marked shifted tableaux T of shape lam with unprimed diagonal
(Macdonald, *Symmetric Functions and Hall Polynomials*, III.8).  The
enumerator here uses nothing of ``queercrystals.tableaux``: a shifted
diagram, not the staircase, and marked entries, not words.  It checks the
weights of ``crystal_of_shape``, the Pieri form of the decomposition
theorem, and the multiplicity of each B(lam) in a tensor power.
"""

from collections import Counter
from functools import lru_cache

from queercrystals import (crystal_of_shape, graph_components,
                           highest_weight_nodes, strict_partitions,
                           strict_successors, tensor_power_graph)


def schur_p(parts, n: int) -> Counter:
    """P_lam in x_1..x_n, as a Counter from exponent vectors to coefficients.

    Marked entries are coded k' -> 2k - 1 and k -> 2k, so the order
    1' < 1 < 2' < 2 < ... is the integer order.  Rows and columns weakly
    increase; a primed letter repeats in no row, an unprimed one in no
    column, and the diagonal is unprimed.
    """
    boxes = [(r, c) for r, p in enumerate(parts) for c in range(r, r + p)]
    index = {b: k for k, b in enumerate(boxes)}
    entries = [0] * len(boxes)
    out = Counter()

    def fill(k):
        if k == len(boxes):
            wt = [0] * n
            for v in entries:
                wt[(v - 1) // 2] += 1
            out[tuple(wt)] += 1
            return
        r, c = boxes[k]
        lo = 1
        left, up = index.get((r, c - 1)), index.get((r - 1, c))
        if left is not None:
            a = entries[left]
            lo = max(lo, a if a % 2 == 0 else a + 1)
        if up is not None:
            a = entries[up]
            lo = max(lo, a if a % 2 == 1 else a + 1)
        for v in range(lo, 2 * n + 1):
            if c == r and v % 2 == 1:
                continue
            entries[k] = v
            fill(k + 1)

    fill(0)
    return out


def product(a: Counter, b: Counter) -> Counter:
    out = Counter()
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[tuple(x + y for x, y in zip(wa, wb))] += ca * cb
    return out


@lru_cache(maxsize=None)
def standard_shifted(parts: tuple) -> int:
    """Standard shifted tableaux of shape lam: remove each corner in turn."""
    if not parts:
        return 1
    total = 0
    for r, p in enumerate(parts):
        below = parts[r + 1] if r + 1 < len(parts) else 0
        if p - 1 > below:
            total += standard_shifted(parts[:r] + (p - 1,) + parts[r + 1:])
        elif p == 1 and below == 0:
            total += standard_shifted(parts[:r])
    return total


def test_schur_p_small_cases():
    assert schur_p((1,), 3) == Counter({(1, 0, 0): 1, (0, 1, 0): 1,
                                        (0, 0, 1): 1})
    # P_2(x1, x2) = x1^2 + 2 x1 x2 + x2^2
    assert schur_p((2,), 2) == Counter({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # P_21(x1, x2) = x1 x2 (x1 + x2)
    assert schur_p((2, 1), 2) == Counter({(2, 1): 1, (1, 2): 1})
    assert schur_p((2, 1), 1) == Counter()
    assert [standard_shifted(lam) for lam in
            ((1,), (2,), (2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 2, 1))] == \
        [1, 1, 1, 2, 2, 2, 7]


def test_crystal_of_shape_has_the_character_p_lam():
    cases = [(lam, n) for n in (2, 3, 4) for lam in strict_partitions(7, n)]
    assert len(cases) == 52
    for lam, n in cases:
        assert Counter(crystal_of_shape(lam, n).weights) == schur_p(lam, n), \
            (lam, n)


def test_pieri_rule_is_the_character_of_the_decomposition():
    """P_1 P_lam = sum of P_mu over the strict successors mu of lam."""
    for n in (2, 3, 4):
        for lam in strict_partitions(6, n):
            expected = Counter()
            for _, mu in strict_successors(lam, n):
                expected.update(schur_p(mu, n))
            assert product(schur_p((1,), n), schur_p(lam, n)) == expected, \
                (lam, n)


def test_tensor_power_multiplicities_are_standard_shifted_tableaux():
    """B^(x)N holds B(lam) once per standard shifted tableau of shape lam,
    for every strict lam of N with at most n parts, and nothing else."""
    for n, N in ((2, 4), (3, 4), (2, 5), (3, 5), (4, 5), (3, 6), (4, 6)):
        tops = Counter()
        for comp in graph_components(tensor_power_graph(n, N)):
            (hw,) = highest_weight_nodes(comp)
            tops[comp.weights[comp.node_index[hw]]] += 1
        expected = {lam + (0,) * (n - len(lam)): standard_shifted(lam)
                    for lam in strict_partitions(N, n) if sum(lam) == N}
        assert tops == expected, (n, N)
