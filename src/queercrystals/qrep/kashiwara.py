"""Kashiwara operators at q-level on tensor powers of V.

The even operators are defined through the i-string decomposition of a
weight vector u,

    u = sum_k f_i^(k) u_k   with  e_i u_k = 0,  f_i^(k) = f_i^k / [k]!,

via tilde_e u = sum f_i^(k-1) u_k and tilde_f u = sum f_i^(k+1) u_k.  The
decomposition is linear in u and depends only on i and the weight space, so
each (i, weight space) is solved once and cached: the string tops w_j of
ker e_i whose strings pass through the space, the matrix C whose columns
are their images f_i^(k_j) w_j, and C^-1 from one dense RREF over the
rational functions.  The solve raises unless C is square and invertible,
and the result is verified as the exact identity C . C^-1 = I on every
basis tensor of the space.  C^-1 is stored by column, like an operator, so
``act_expr`` applies it: the coefficients of u are C^-1 u, and tilde_e,
tilde_f apply to them the matrices whose columns j are the cached images
f_i^(k_j - 1) w_j and f_i^(k_j + 1) w_j.

The odd operators are operator polynomials, stored by column (``Operator``):

    ktilde_1    = q^{k_1 - 1} kbar_1,
    tilde_ebar1 = -(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1},
    tilde_fbar1 = -(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}.
"""

from functools import lru_cache
from typing import NamedTuple

from .action import (Operator, act_expr, act_prim, basis, bracket, compose,
                     op, qh_expr, scale, tensor_weight, unit, vec_scale,
                     vec_sum)
from .laurent import ONE, Q, ZERO, gauss_int

# ---------------------------------------------------------------------------
# linear algebra over the fraction field


def _rows(columns: list, index: dict) -> list:
    """The matrix of the given column dicts as a list of rows for _rref:
    index maps each key of a column to its row, ZERO fills the rest."""
    rows = [[ZERO] * len(columns) for _ in index]
    for k, col in enumerate(columns):
        for t, c in col.items():
            rows[index[t]][k] = c
    return rows


def _rref(rows: list) -> tuple:
    """Reduced row echelon form in place; returns pivot column list.

    Entries are ``RatFunc``.  Scaling and elimination touch only the
    columns where the pivot row is nonzero; every other cell keeps its
    value.
    """
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row = rows[r]
        inv = 1 / row[col]
        support = [j for j in range(col, ncols) if row[j]]
        for j in support:
            row[j] = inv * row[j]
        for k in range(len(rows)):
            c = rows[k][col]
            if k != r and c:
                other = rows[k]
                for j in support:
                    other[j] = other[j] - c * row[j]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_in_span(vectors: list, targets: list, index: dict) -> list:
    """Unique coefficients expressing each target in the given vectors.

    One RREF of [vectors | targets] serves every target; the result holds
    one coefficient list per target.  Raises ArithmeticError when a target
    lies outside the span or the vectors are dependent; with a complete
    string decomposition neither happens, so a failure here means a bug
    rather than bad input.
    """
    m = len(vectors)
    rows, pivots = _rref(_rows(vectors + targets, index))
    if any(p >= m for p in pivots):
        raise ArithmeticError("target outside the span")
    if pivots != list(range(m)):
        raise ArithmeticError("dependent string vectors; singular system")
    return [[rows[r][m + s] for r in range(m)] for s in range(len(targets))]


def kernel_on_weight_space(i: int, tensors: list, n: int) -> list:
    """Basis of ker e_i restricted to the span of the given basis tensors."""
    e = op(("e", i))
    images = [e[t] for t in tensors]
    index = {t: k for k, t in
             enumerate(sorted({t for img in images for t in img}))}
    rows, pivots = _rref(_rows(images, index))
    free = [c for c in range(len(tensors)) if c not in pivots]
    out = []
    for fc in free:
        v = {tensors[fc]: ONE}
        for r, pc in enumerate(pivots):
            c = rows[r][fc]
            if c:
                v[tensors[pc]] = -c
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# string decomposition and the even operators


@lru_cache(maxsize=None)
def _weight_spaces(n: int, N: int) -> dict:
    spaces = {}
    for t in basis(n, N):
        spaces.setdefault(tensor_weight(t, n), []).append(t)
    return spaces


def _homogeneous_weight(vec: dict, n: int) -> tuple:
    wts = {tensor_weight(t, n) for t in vec}
    if len(wts) != 1:
        raise ValueError("not a weight vector")
    return wts.pop()


def apply_f_power(vec: dict, i: int, k: int) -> dict:
    """Divided power f_i^(k) = f_i^k / [k]!, one divided step at a time."""
    for m in range(1, k + 1):
        vec = _divided_step(vec, i, m)
    return vec


def _divided_step(vec: dict, i: int, m: int) -> dict:
    """f_i^(m) w from vec = f_i^(m-1) w."""
    vec = act_prim(("f", i), vec)
    return vec_scale(ONE / gauss_int(m), vec) if m >= 2 else vec


class StringBasis(NamedTuple):
    """The i-strings through one weight space mu, indexed by candidate j.

    levels[j] = (k_j, w_j): a string top w_j in ker e_i whose image
    f_i^(k_j) w_j lies in mu.  With C the matrix whose columns are those
    images, C^-1 is stored by column like an ``Operator``: inverse[t] is
    {j: (C^-1)[j, t]} over its nonzero entries, so act_expr(inverse, u) is
    C^-1 u and act_expr(images, inverse[t]) is column t of C C^-1.
    raised[j] = f_i^(k_j - 1) w_j (empty at k_j = 0) and lowered[j] =
    f_i^(k_j + 1) w_j are the images of f_i^(k_j) w_j under tilde_e and
    tilde_f.
    """

    levels: tuple
    inverse: dict
    raised: tuple
    lowered: tuple


@lru_cache(maxsize=None)
def _string_basis(i: int, mu: tuple, n: int, N: int) -> StringBasis:
    """The i-string basis of the weight space mu of V^(x)N, solved once."""
    spaces = _weight_spaces(n, N)
    tensors = spaces[mu]
    index = {t: k for k, t in enumerate(tensors)}
    levels = []  # (k, string top)
    for k in range(mu[i] + 1):
        wt = list(mu)
        wt[i - 1] += k
        wt[i] -= k
        # a string top at this weight spans exactly <h_i, wt> steps down,
        # so shorter strings cannot reach back to mu
        if wt[i - 1] - wt[i] < k:
            continue
        tops = spaces.get(tuple(wt))
        if tops:
            levels.extend((k, w) for w in kernel_on_weight_space(i, tops, n))
    raised, images, lowered = [], [], []
    for k, w in levels:
        # one f_i chain per string top: f^(k-1) w, then f^(k) w, f^(k+1) w
        # by one step each, using f_i^(m) = f_i f_i^(m-1) / [m]
        above = apply_f_power(w, i, k - 1) if k else {}
        image = _divided_step(above, i, k) if k else w
        raised.append(above)
        images.append(image)
        lowered.append(_divided_step(image, i, k + 1))
    columns = solve_in_span(images, [unit(t) for t in tensors], index)
    inverse = {t: {j: c for j, c in enumerate(col) if c}
               for t, col in zip(tensors, columns)}
    # resubstitution check: C . C^-1 = I, one basis tensor per column
    for t in tensors:
        if act_expr(images, inverse[t]) != unit(t):
            raise ArithmeticError("string decomposition failed to reconstruct")
    return StringBasis(tuple(levels), inverse, tuple(raised), tuple(lowered))


def _string_coefficients(vec: dict, i: int, n: int) -> tuple:
    """(string basis of vec's weight space, C^-1 vec as {j: coefficient})."""
    mu = _homogeneous_weight(vec, n)
    string_basis = _string_basis(i, mu, n, len(next(iter(vec))))
    return string_basis, act_expr(string_basis.inverse, vec)


def string_decomposition(vec: dict, i: int, n: int) -> list:
    """Pairs (k, u_k) with vec = sum_k f_i^(k) u_k and e_i u_k = 0."""
    if not vec:
        return []
    string_basis, coeffs = _string_coefficients(vec, i, n)
    by_level = {}
    for j, c in coeffs.items():
        k, w = string_basis.levels[j]
        by_level[k] = vec_sum(by_level.get(k, {}), vec_scale(c, w))
    return sorted(by_level.items())


def tilde_e(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara raising operator at q-level: sum f_i^(k-1) u_k."""
    if not vec:
        return {}
    string_basis, coeffs = _string_coefficients(vec, i, n)
    return act_expr(string_basis.raised, coeffs)


def tilde_f(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara lowering operator at q-level: sum f_i^(k+1) u_k."""
    if not vec:
        return {}
    string_basis, coeffs = _string_coefficients(vec, i, n)
    return act_expr(string_basis.lowered, coeffs)


# ---------------------------------------------------------------------------
# odd operators


@lru_cache(maxsize=None)
def ktilde1_expr(n: int) -> Operator:
    """q^{k_1 - 1} kbar_1."""
    return scale(ONE / Q, compose(qh_expr(n, (1, 1)), op(("kbar", 1))))


@lru_cache(maxsize=None)
def tilde_ebar1_expr(n: int) -> Operator:
    """-(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1}."""
    return scale(-(ONE / Q), compose(bracket(op(("e", 1)), op(("kbar", 1)), Q),
                                     qh_expr(n, (1, 1))))


@lru_cache(maxsize=None)
def tilde_fbar1_expr(n: int) -> Operator:
    """-(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}."""
    return scale(-(ONE / Q), compose(bracket(op(("kbar", 1)), op(("f", 1)), Q),
                                     qh_expr(n, (2, 1))))


def tilde_k1(vec: dict, n: int) -> dict:
    return act_expr(ktilde1_expr(n), vec)


def tilde_ebar1(vec: dict, n: int) -> dict:
    return act_expr(tilde_ebar1_expr(n), vec)


def tilde_fbar1(vec: dict, n: int) -> dict:
    return act_expr(tilde_fbar1_expr(n), vec)
