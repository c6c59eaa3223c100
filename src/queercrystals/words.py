"""Words of the letter crystal and their Kashiwara operators.

A word is an element of B^(x)N for the rank-n letter crystal B whose nodes
are 1..n; it is stored as ``bytes`` with one letter per byte, leftmost
byte = first tensor factor.  All operators are partial: ``None`` encodes
the crystal zero, so graphs never contain a zero node.

The even operators e_i, f_i (i = 1..n-1) are computed by the signature
rule, the primitive odd pair ebar1/fbar1 by its closed form (rightmost
letter in {1,2}), and the odd operators ebar_i, fbar_i for every i by
conjugating that pair with the Weyl-group action, whose conjugating word
is empty at i = 1; S_i itself comes from one signature scan.
``queercrystals.tensor_rules`` holds the recursive tensor-rule
definitions these closed forms are equivalent to; the equivalence is
checked exhaustively in the test suite.

Letter contract: ``eps``, ``phi``, ``e_even``, ``f_even``, ``ebar1``,
``fbar1``, ``ebar``, ``fbar``, ``weyl.weyl_s`` and ``weyl.weyl_S`` check
the operator index but not the word's letters; a letter outside 1..n
gives an unspecified result.  ``weight_of``, ``is_highest_weight`` and
``tableaux.tableau_operator`` check every letter.  A letter check in
each operator call cost the ``word-graphs`` benchmark +35 % in
item_p50_s, since its loops call these once per word and operator.
"""

import operator
from itertools import product

from . import kernel

Word = bytes


def word(letters) -> Word:
    """Build a word from an iterable of integer letters."""
    return bytes(letters)


def letters(w: Word) -> tuple:
    """Tuple of integer letters of a word."""
    return tuple(w)


def _integer(x, what: str, least: int | None = None) -> int:
    """``x`` as an int, through ``operator.index``: a float, a string or
    a ``bool`` is refused, not truncated, parsed or read as 0 or 1, and
    so is a value below ``least`` when that is given."""
    try:
        if isinstance(x, bool):
            raise TypeError
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if least is not None and x < least:
        raise ValueError(f"{what} must be >= {least}, got {x}")
    return x


def check_rank(n: int) -> None:
    """A rank must be an integer, and a word stores one letter per byte,
    which caps it at 255."""
    if not 1 <= _integer(n, "rank") <= 255:
        raise ValueError(f"rank must be in 1..255, got {n}")


def check_word(w: Word, n: int) -> None:
    check_rank(n)
    for a in w:
        if not 1 <= a <= n:
            raise ValueError(f"letter {a} out of range 1..{n}")


def _check_even_index(i: int, n: int) -> None:
    """An even index is an int in 1..n-1: a float or a bool is refused."""
    if type(i) is not int or not 1 <= i <= n - 1:
        raise ValueError(f"even index {i!r} is not an int in 1..{n - 1} "
                         f"at rank {n}")


def weight_of(w: Word, n: int) -> tuple:
    """Weight vector: entry j counts occurrences of the letter j."""
    check_word(w, n)
    return kernel.weight_of(w, n)


def eps(i: int, w: Word, n: int) -> int:
    """Length of the e_i-string through w (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.eps_phi(w, i)[0]


def phi(i: int, w: Word, n: int) -> int:
    """Length of the f_i-string through w (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.eps_phi(w, i)[1]


def e_even(i: int, w: Word, n: int):
    """Even raising operator, None when zero (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.apply_e(w, i)


def f_even(i: int, w: Word, n: int):
    """Even lowering operator, None when zero (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.apply_f(w, i)


def ebar1(w: Word, n: int):
    """Odd raising operator 1bar, None when zero (letters unchecked)."""
    if n < 2:
        return None
    return kernel.apply_ebar1(w)


def fbar1(w: Word, n: int):
    """Odd lowering operator 1bar, None when zero (letters unchecked)."""
    if n < 2:
        return None
    return kernel.apply_fbar1(w)


def ebar(i: int, w: Word, n: int):
    """Odd raising operator for any index i in 1..n-1 (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.apply_ebar(w, i)


def fbar(i: int, w: Word, n: int):
    """Odd lowering operator for any index i in 1..n-1 (letters unchecked)."""
    _check_even_index(i, n)
    return kernel.apply_fbar(w, i)


def is_highest_weight(w: Word, n: int) -> bool:
    """True iff all raising operators e_i and ebar_i (i = 1..n-1) vanish."""
    check_word(w, n)
    return kernel.is_q_highest(w, n)


def all_words(n: int, length: int):
    """All words of the given length, in lexicographic order."""
    yield from map(bytes, product(range(1, n + 1), repeat=length))
