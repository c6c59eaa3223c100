"""Weyl-group (symmetric-group) action on crystals of words.

The simple reflection acts on an element b by S_i b = f_i^m b when
m = <k_i - k_{i+1}, wt b> is nonnegative and by e_i^(-m) b otherwise; it
is an involution and permutes weights like the transposition (i, i+1).
Products S_w are evaluated with the rightmost reflection acting first and
do not depend on the choice of reduced expression for w, which is what
makes the conjugated odd operators well defined.
"""

from . import kernel
from .kernel import _conjugating_word as conjugating_word
from .words import _check_even_index


def permutation_of(indices, n: int) -> tuple:
    """One-line form of s_{i_1} ... s_{i_l} acting on 1..n (rightmost first).

    Uses the convention w(j) = s_{i_1}(s_{i_2}(... s_{i_l}(j))).
    """
    perm = list(range(1, n + 1))
    for i in indices:
        _check_even_index(i, n)
        # compose with s_i on the inside: new(j) = old(s_i(j))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def length(perm: tuple) -> int:
    """Coxeter length = number of inversions."""
    n = len(perm)
    return sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])


def is_reduced(indices, n: int) -> bool:
    """True iff the product of the given simple reflections is reduced."""
    return length(permutation_of(indices, n)) == len(indices)


def weyl_s(i: int, w: bytes, n: int) -> bytes:
    """Simple-reflection action S_i on a word (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.weyl_s(w, i)


def weyl_S(indices, w: bytes, n: int) -> bytes:
    """Action of S_w for the reduced word w = s_{i_1} ... s_{i_l}.

    The rightmost factor acts first.  Non-reduced input is rejected so a
    silent change of group element cannot slip through.  Letters are not
    checked.
    """
    indices = tuple(indices)
    if not is_reduced(indices, n):
        raise ValueError(f"word {indices} is not reduced")
    for i in reversed(indices):
        w = kernel.weyl_s(w, i)
    return w
