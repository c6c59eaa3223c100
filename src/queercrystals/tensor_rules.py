"""Recursive tensor-product rules for crystal operators.

The tensor rule determines the operators on b1 (x) b2 from the operators
on the factors:

  e_i(b1 (x) b2) = e_i b1 (x) b2   if phi_i(b1) >= eps_i(b2), else
                   b1 (x) e_i b2
  f_i(b1 (x) b2) = f_i b1 (x) b2   if phi_i(b1) >  eps_i(b2), else
                   b1 (x) f_i b2

and for the primitive odd pair the acting factor is the first one exactly
when the weight of b2 pairs to zero with both k_1 and k_2 (i.e. b2
contains no letters 1 or 2), otherwise the second.

This module evaluates those rules literally on arbitrary binary nestings
of a word, serving as the independent reference for the closed forms in
``queercrystals.words`` (signature rule, rightmost-{1,2} rule).  The
string lengths of a tensor satisfy

  eps_i(b1 (x) b2) = eps_i(b1) + max(0, eps_i(b2) - phi_i(b1)),
  phi_i(b1 (x) b2) = phi_i(b2) + max(0, phi_i(b1) - eps_i(b2)),

which is the closed consequence of the branch rule used to recurse.

A nesting tree is either an ``int`` letter or a pair ``(left, right)`` of
nesting trees.  ``flatten`` recovers the underlying word.
"""

from .words import word


def flatten(tree) -> bytes:
    """Underlying word of a nesting tree."""
    if isinstance(tree, int):
        return bytes([tree])
    return flatten(tree[0]) + flatten(tree[1])


def left_nested(w: bytes):
    """The left-nested tree ((..(w1,w2),..),wN) of a word."""
    tree = w[0]
    for a in w[1:]:
        tree = (tree, a)
    return tree


def all_nestings(w: bytes):
    """Every binary nesting tree of a word (empty words have none)."""
    if len(w) == 1:
        yield w[0]
        return
    for cut in range(1, len(w)):
        for lt in all_nestings(w[:cut]):
            for rt in all_nestings(w[cut:]):
                yield (lt, rt)


def tree_weight(tree, n: int) -> tuple:
    wt = [0] * n
    for a in flatten(tree):
        wt[a - 1] += 1
    return tuple(wt)


def tree_eps_phi(tree, i: int) -> tuple:
    if isinstance(tree, int):
        return (1 if tree == i + 1 else 0), (1 if tree == i else 0)
    e1, p1 = tree_eps_phi(tree[0], i)
    e2, p2 = tree_eps_phi(tree[1], i)
    return e1 + max(0, e2 - p1), p2 + max(0, p1 - e2)


def e_even_tree(i: int, tree):
    """Recursive even raising operator on a nesting tree."""
    if isinstance(tree, int):
        return i if tree == i + 1 else None
    b1, b2 = tree
    _, p1 = tree_eps_phi(b1, i)
    e2, _ = tree_eps_phi(b2, i)
    if p1 >= e2:
        r = e_even_tree(i, b1)
        return None if r is None else (r, b2)
    r = e_even_tree(i, b2)
    return None if r is None else (b1, r)


def f_even_tree(i: int, tree):
    """Recursive even lowering operator on a nesting tree."""
    if isinstance(tree, int):
        return i + 1 if tree == i else None
    b1, b2 = tree
    _, p1 = tree_eps_phi(b1, i)
    e2, _ = tree_eps_phi(b2, i)
    if p1 > e2:
        r = f_even_tree(i, b1)
        return None if r is None else (r, b2)
    r = f_even_tree(i, b2)
    return None if r is None else (b1, r)


def _acts_on_first(b2, n: int) -> bool:
    wt = tree_weight(b2, n)
    return wt[0] == 0 and wt[1] == 0


def ebar1_tree(tree, n: int):
    """Recursive primitive odd raising operator on a nesting tree."""
    if isinstance(tree, int):
        return 1 if tree == 2 else None
    b1, b2 = tree
    if _acts_on_first(b2, n):
        r = ebar1_tree(b1, n)
        return None if r is None else (r, b2)
    r = ebar1_tree(b2, n)
    return None if r is None else (b1, r)


def fbar1_tree(tree, n: int):
    """Recursive primitive odd lowering operator on a nesting tree."""
    if isinstance(tree, int):
        return 2 if tree == 1 else None
    b1, b2 = tree
    if _acts_on_first(b2, n):
        r = fbar1_tree(b1, n)
        return None if r is None else (r, b2)
    r = fbar1_tree(b2, n)
    return None if r is None else (b1, r)


def e_even_recursive(i: int, w: bytes, n: int):
    """e_i on a word via the left-nested recursive rule."""
    if not w:
        return None
    r = e_even_tree(i, left_nested(w))
    return None if r is None else flatten(r)


def f_even_recursive(i: int, w: bytes, n: int):
    """f_i on a word via the left-nested recursive rule."""
    if not w:
        return None
    r = f_even_tree(i, left_nested(w))
    return None if r is None else flatten(r)


def ebar1_recursive(w: bytes, n: int):
    """ebar1 on a word via the left-nested recursive rule."""
    if not w or n < 2:
        return None
    r = ebar1_tree(left_nested(w), n)
    return None if r is None else flatten(r)


def fbar1_recursive(w: bytes, n: int):
    """fbar1 on a word via the left-nested recursive rule."""
    if not w or n < 2:
        return None
    r = fbar1_tree(left_nested(w), n)
    return None if r is None else flatten(r)
