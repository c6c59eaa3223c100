"""Operators stored by column against the flattened term expansion.

Here an operator is a tuple of (coefficient, symbol word) terms whose
products are multiplied out, so kbar_j has 5^(j-1) terms, and it is
evaluated term by term, symbol by symbol, over RatFunc.  It shares only
the primitive images with the library: each is built here with
``RatFunc.laurent`` from the library's integer rule.  For the composite
generators and the odd Kashiwara operators, the RatFunc view of every
column of the library's matrix must equal this expansion on that basis
tensor.
"""

from functools import lru_cache

import pytest

from queercrystals.qrep.action import (_act_prim_tensor, basis, ebar_expr,
                                       fbar_expr, kbar_expr, vec_add)
from queercrystals.qrep.kashiwara import (ktilde1_expr, tilde_ebar1_expr,
                                          tilde_fbar1_expr)
from queercrystals.qrep.laurent import ONE, Q, RatFunc

# -- the term algebra: rightmost symbols act first


def t_op(sym):
    return ((ONE, (sym,)),)


def t_qh(n, j, c):
    return t_op(("qh", tuple(c if k == j else 0 for k in range(1, n + 1))))


def t_compose(a, b):
    return tuple((ca * cb, sa + sb) for ca, sa in a for cb, sb in b)


def t_sum(*exprs):
    return tuple(term for e in exprs for term in e)


def t_scale(c, a):
    return tuple((c * ca, sa) for ca, sa in a)


def t_act(expr, t):
    """The expansion on one basis tensor, term by term, symbol by symbol."""
    out = {}
    for c, syms in expr:
        v = {t: c}
        for sym in reversed(syms):
            w = {}
            for t1, x in v.items():
                for (t2, k), sign in _act_prim_tensor(sym, t1).items():
                    vec_add(w, t2, x * RatFunc.laurent(k, (sign,)))
            v = w
        for t2, x in v.items():
            vec_add(out, t2, x)
    return out


# -- the generators and odd operators as term lists


@lru_cache(maxsize=None)
def t_kbar(j, n):
    if j == 1:
        return t_op(("kbar", 1))
    i = j - 1
    f = t_op(("f", i))
    inner = t_sum(t_compose(t_kbar(i, n), t_qh(n, j, 1)),
                  t_scale(-ONE, t_compose(t_ebar(i, n), f)),
                  t_compose(f, t_ebar(i, n)))
    return t_compose(inner, t_qh(n, i, -1))


def t_twist(a, b, c):
    """a b - c b a as terms."""
    return t_sum(t_compose(a, b), t_scale(-c, t_compose(b, a)))


@lru_cache(maxsize=None)
def t_ebar(i, n):
    inner = t_twist(t_kbar(i, n), t_op(("e", i)), Q)
    return t_compose(inner, t_qh(n, i, 1))


def t_fbar(i, n):
    inner = t_twist(t_kbar(i, n), t_op(("f", i)), Q)
    return t_scale(-ONE, t_compose(inner, t_qh(n, i, -1)))


def t_odd(n):
    kbar1, e1, f1 = t_op(("kbar", 1)), t_op(("e", 1)), t_op(("f", 1))
    return {
        "ktilde1": t_scale(ONE / Q, t_compose(t_qh(n, 1, 1), kbar1)),
        "tilde-ebar1": t_scale(-(ONE / Q), t_compose(t_twist(e1, kbar1, Q),
                                                     t_qh(n, 1, 1))),
        "tilde-fbar1": t_scale(-(ONE / Q), t_compose(t_twist(kbar1, f1, Q),
                                                     t_qh(n, 2, 1))),
    }


def odd_pairs(n):
    """(name, matrix, term expansion) of the three odd Kashiwara operators."""
    odd = t_odd(n)
    return [("ktilde1", ktilde1_expr(n), odd["ktilde1"]),
            ("tilde-ebar1", tilde_ebar1_expr(n), odd["tilde-ebar1"]),
            ("tilde-fbar1", tilde_fbar1_expr(n), odd["tilde-fbar1"])]


def operator_pairs(n):
    """(name, matrix, term expansion) for every operator checked at rank n."""
    pairs = [(f"kbar_{j}", kbar_expr(j, n), t_kbar(j, n))
             for j in range(1, n + 1)]
    for i in range(1, n):
        pairs.append((f"ebar_{i}", ebar_expr(i, n), t_ebar(i, n)))
        pairs.append((f"fbar_{i}", fbar_expr(i, n), t_fbar(i, n)))
    if n >= 2:
        pairs += odd_pairs(n)
    return pairs


def test_the_expansion_has_five_to_the_j_minus_1_terms():
    assert [len(t_kbar(j, 4)) for j in range(1, 5)] == [1, 5, 25, 125]
    assert [len(t_ebar(i, 4)) for i in range(1, 4)] == [2, 10, 50]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_column_equals_the_term_expansion(n):
    for name, matrix, terms in operator_pairs(n):
        nonzero = 0
        for N in (1, 2):
            for t in basis(n, N):
                assert matrix.view(t) == t_act(terms, t), (name, t)
                nonzero += bool(matrix[t])
        assert nonzero, name


@pytest.mark.parametrize("n", [2, 3])
def test_the_odd_operators_equal_the_expansion_on_three_factors(n):
    """Three factors bring cross terms of e_1 or f_1 and kbar_1 on
    different factors, and barred spectator letters between them."""
    for name, matrix, terms in odd_pairs(n):
        nonzero = 0
        for t in basis(n, 3):
            assert matrix.view(t) == t_act(terms, t), (name, t)
            nonzero += bool(matrix[t])
        assert nonzero, name
