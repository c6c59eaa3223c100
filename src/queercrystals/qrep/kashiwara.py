"""Kashiwara operators at q-level on tensor powers of V.

The even operators are defined through the i-string decomposition of a
weight vector u,

    u = sum_k f_i^(k) u_k   with  e_i u_k = 0,  f_i^(k) = f_i^k / [k]!,

via tilde_e u = sum f_i^(k-1) u_k and tilde_f u = sum f_i^(k+1) u_k.  The
decomposition is found by solving a dense linear system over the rational
functions, one weight space at a time, and is verified by resubstitution.

The odd operators are plain operator polynomials:

    ktilde_1    = q^{k_1 - 1} kbar_1,
    tilde_ebar1 = -(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1},
    tilde_fbar1 = -(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}.
"""

from functools import lru_cache

from .action import (act_expr, act_prim, compose, expr_sum, op, qh_expr,
                     scale)
from .laurent import ONE, Q, RatFunc, gauss_factorial
from .tensorspace import basis, tensor_weight, vec_scale, vec_sub, vec_sum

# ---------------------------------------------------------------------------
# linear algebra over the fraction field


def _coords(vec: dict, index: dict) -> list:
    out = [RatFunc(()) for _ in range(len(index))]
    for t, c in vec.items():
        out[index[t]] = c
    return out


def _rref(rows: list) -> tuple:
    """Reduced row echelon form in place; returns pivot column list."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][col]
        rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                c = rows[k][col]
                rows[k] = [a - c * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve_in_span(vectors: list, target: dict, index: dict) -> list:
    """Unique coefficients expressing target in the given vectors.

    Raises ArithmeticError when the system is inconsistent or the vectors
    are dependent; with a complete string decomposition neither happens,
    so a failure here means a bug rather than bad input.
    """
    m = len(vectors)
    cols = [_coords(v, index) for v in vectors] + [_coords(target, index)]
    rows = [[col[r] for col in cols] for r in range(len(index))]
    rows, pivots = _rref(rows)
    if m in pivots:
        raise ArithmeticError("target outside the span")
    if pivots != list(range(m)):
        raise ArithmeticError("dependent string vectors; singular system")
    coeffs = [RatFunc(()) for _ in range(m)]
    for r, col in enumerate(pivots):
        coeffs[col] = rows[r][m]
    return coeffs


def kernel_on_weight_space(i: int, tensors: list, n: int) -> list:
    """Basis of ker e_i restricted to the span of the given basis tensors."""
    images = [act_prim(("e", i), {t: ONE}) for t in tensors]
    support = sorted({t for img in images for t in img})
    index = {t: k for k, t in enumerate(support)}
    if not support:
        return [{t: ONE} for t in tensors]
    cols = [_coords(img, index) for img in images]
    rows = [[col[r] for col in cols] for r in range(len(support))]
    rows, pivots = _rref(rows)
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
    """Divided power f_i^(k) = f_i^k / [k]!."""
    for _ in range(k):
        vec = act_prim(("f", i), vec)
    if k >= 2:
        vec = vec_scale(ONE / gauss_factorial(k), vec)
    return vec


def string_decomposition(vec: dict, i: int, n: int) -> list:
    """Pairs (k, u_k) with vec = sum_k f_i^(k) u_k and e_i u_k = 0."""
    if not vec:
        return []
    N = len(next(iter(vec)))
    mu = _homogeneous_weight(vec, n)
    spaces = _weight_spaces(n, N)
    index = {t: k for k, t in enumerate(spaces[mu])}
    candidates = []  # (k, kernel vector, f^(k) kernel vector)
    for k in range(mu[i] + 1):
        wt = list(mu)
        wt[i - 1] += k
        wt[i] -= k
        # a string top at this weight spans exactly <h_i, wt> steps down,
        # so shorter strings cannot reach back to mu
        if wt[i - 1] - wt[i] < k:
            continue
        tensors = spaces.get(tuple(wt))
        if not tensors:
            continue
        for w in kernel_on_weight_space(i, tensors, n):
            candidates.append((k, w, apply_f_power(w, i, k)))
    coeffs = solve_in_span([v for _, _, v in candidates], vec, index)
    by_level = {}
    for (k, w, _), c in zip(candidates, coeffs):
        if c:
            by_level[k] = vec_sum(by_level.get(k, {}), vec_scale(c, w))
    # resubstitution check: the decomposition must reproduce the input
    recon = {}
    for k, u_k in by_level.items():
        recon = vec_sum(recon, apply_f_power(u_k, i, k))
    if vec_sub(recon, vec):
        raise ArithmeticError("string decomposition failed to reconstruct")
    return sorted(by_level.items())


def tilde_e(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara raising operator at q-level."""
    out = {}
    for k, u_k in string_decomposition(vec, i, n):
        if k >= 1:
            out = vec_sum(out, apply_f_power(u_k, i, k - 1))
    return out


def tilde_f(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara lowering operator at q-level."""
    out = {}
    for k, u_k in string_decomposition(vec, i, n):
        out = vec_sum(out, apply_f_power(u_k, i, k + 1))
    return out


# ---------------------------------------------------------------------------
# odd operators


@lru_cache(maxsize=None)
def ktilde1_expr(n: int) -> tuple:
    """q^{k_1 - 1} kbar_1."""
    return scale(ONE / Q, compose(qh_expr(n, (1, 1)), op(("kbar1",))))


@lru_cache(maxsize=None)
def tilde_ebar1_expr(n: int) -> tuple:
    """-(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1}."""
    inner = expr_sum(
        compose(op(("e", 1)), op(("kbar1",))),
        scale(-Q, compose(op(("kbar1",)), op(("e", 1)))),
    )
    return scale(-(ONE / Q), compose(inner, qh_expr(n, (1, 1))))


@lru_cache(maxsize=None)
def tilde_fbar1_expr(n: int) -> tuple:
    """-(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}."""
    inner = expr_sum(
        compose(op(("kbar1",)), op(("f", 1))),
        scale(-Q, compose(op(("f", 1)), op(("kbar1",)))),
    )
    return scale(-(ONE / Q), compose(inner, qh_expr(n, (2, 1))))


def tilde_k1(vec: dict, n: int) -> dict:
    return act_expr(ktilde1_expr(n), vec)


def tilde_ebar1(vec: dict, n: int) -> dict:
    return act_expr(tilde_ebar1_expr(n), vec)


def tilde_fbar1(vec: dict, n: int) -> dict:
    return act_expr(tilde_fbar1_expr(n), vec)
