"""Basis tensors of V^(x)N and vectors with rational-function coefficients.

V has basis v_1..v_n (even) and vbar_1..vbar_n (odd); a basis tensor is a
tuple of symbols (letter, bar) with bar in {0, 1}.  Its parity is the
number of barred factors mod 2, its weight counts letters regardless of
bars, and its letter pattern is the word of its letters: the pattern
spans l_b, the subspace attached to the crystal node b.

Vectors are plain dicts mapping basis tensors to nonzero RatFunc
coefficients; helpers below maintain the no-explicit-zeros invariant.
"""

from itertools import product

from .laurent import ONE, RatFunc

Symbol = tuple  # (letter, bar)
BasisTensor = tuple  # of Symbol


def parity(t: BasisTensor) -> int:
    return sum(s for _, s in t) & 1


def pattern(t: BasisTensor) -> bytes:
    """Letter word of a basis tensor (bars dropped)."""
    return bytes(j for j, _ in t)


def tensor_weight(t: BasisTensor, n: int) -> tuple:
    wt = [0] * n
    for j, _ in t:
        wt[j - 1] += 1
    return tuple(wt)


def basis(n: int, N: int) -> list:
    """All basis tensors of V^(x)N, letters-major then bar bits."""
    singles = [(j, s) for j in range(1, n + 1) for s in (0, 1)]
    return [t for t in product(singles, repeat=N)]


def lattice_basis(word: bytes) -> list:
    """Basis tensors with the given letter pattern, ordered by bar bits."""
    out = []
    for bits in product((0, 1), repeat=len(word)):
        out.append(tuple((a, s) for a, s in zip(word, bits)))
    return out


def vec_add(out: dict, t: BasisTensor, c: RatFunc) -> None:
    """Accumulate c on t in place, stripping zeros."""
    cur = out.get(t)
    s = c if cur is None else cur + c
    if s:
        out[t] = s
    elif cur is not None:
        del out[t]


def vec_scale(c: RatFunc, v: dict) -> dict:
    if not c:
        return {}
    return {t: c * x for t, x in v.items()}


def vec_sum(*vecs) -> dict:
    out = {}
    for v in vecs:
        for t, c in v.items():
            vec_add(out, t, c)
    return out


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for t, c in b.items():
        vec_add(out, t, -c)
    return out


def unit(t: BasisTensor) -> dict:
    return {t: ONE}
