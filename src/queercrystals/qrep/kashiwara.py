"""Kashiwara operators at q-level on tensor powers of V.

The even operators are defined through the i-string decomposition of a
weight vector u,

    u = sum_k f_i^(k) u_k   with  e_i u_k = 0,  f_i^(k) = f_i^k / [k]!,

via tilde_e u = sum f_i^(k-1) u_k and tilde_f u = sum f_i^(k+1) u_k.

e_i and f_i move only the factors whose letter is i or i+1, the active
factors; they never flip a bar, and their q-exponents count only the
letters i and i+1.  So the basis tensors that differ from a tensor t only
in the letters of its active factors span a U_q(sl_2)_i-module of their
own, and its block of one weight depends only on the class (m, a): m
active factors, a of them with letter i.  The class space of (m, a) is
spanned by the unbarred words of length m over the letters 1, 2 with a
ones, real basis tensors of V^(x)m at rank 2.  t's class tensor keeps its
active factors, drops their bars and shifts the letters i, i+1 to 1, 2;
the lift reverses that, shifting the letters back, restoring each
factor's own bar and putting the spectator factors back in place.

Each class is solved once and cached, over Z[q, q^-1] with integer
Laurent vectors.  Its string tops w_j, the tops of ker e_1 whose strings
pass through it, are an orthogonal basis (``_tops``) for the symmetric
form in which the basis tensors are orthonormal.  For that form <e_1 x,
y> = <x, q f_1 K^-1 y>, K = q^(k_1 - k_2), so strings from distinct tops
are orthogonal and the matrix C whose columns are the undivided images
F_j = f_1^(k_j) w_j has a diagonal C^T C: C^-1 = diag(1 / N_j) C^T, N_j
= <F_j, F_j>, with no elimination.  The class keeps D C^-1 over one
denominator D, the lcm of the N_j, and verifies C . (D C^-1) = D I
exactly on every class tensor; its trace counts the tops, so C is square
and D C^-1 is D times its inverse.  What is kept are class columns, each
a table {class tensor: integer Laurent vector}, a numerator over D made
by one product with D C^-1: per level k the part u_k of the string
decomposition (``levels``), and the images under tilde_e and tilde_f.
The class also keeps the images' values at q = 0, or their first poles,
read off the numerators without a gcd (``_numerator_at_zero``).
tilde_e, tilde_f and string_decomposition read the same numerators as
the residue path; a RatFunc is built only for their output.
``kernel_on_weight_space``, ``solve_in_span`` and
``apply_f_power`` solve a class over RatFunc as before, the oracle the
tests hold the classes to; ``_rref`` also ranks ``residue_check``'s
residue maps.

A table per (i, n) maps each basis tensor t to its class tensor and the
lift of its module (``_block``).  One reader, ``_lifted``, sums c_t
times the lift of t's class numerator over the keys t of a vector and
divides the sum by D once: tilde_e and tilde_f read one table of
columns, string_decomposition one per level.  The keys of a weight
vector share one weight and so one class and one D, whose columns serve
them all.  ``_lifted_residue`` lifts the values at q = 0 for one basis
tensor without a product over the fraction field.

The lift is exact because of a check made once per module, when the
operators first read one of its tensors at (i, n): on every tensor of the
module the real columns of e_i and f_i must equal the lifts of the columns
of e_1 and f_1 on its class tensor, else ArithmeticError.  Lifting is then
an isomorphism of U_q(sl_2)_i-modules from the class spaces onto the
blocks, so C_block = lift(C_class) and C_block . lift(D C_class^-1) = D
I: every basis tensor is covered by the factorization check and every
class tensor by the class identity.

The odd operators are the operator polynomials of the paper, written
with ``scale``, ``compose`` and ``bracket`` over Z[q, q^-1]:

    ktilde_1    = q^{k_1 - 1} kbar_1,
    tilde_ebar1 = -(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1},
    tilde_fbar1 = -(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}.

The six operators check their arguments on every call and before any
cache reads them: the rank n by ``check_rank``, the index i, an int in
1..n-1 (ebar1 and fbar1 have index 1), by ``words._check_even_index``,
and the vector by ``action.check_vector``, a TypeError unless it is a
dict and a ValueError naming a key that is no basis tensor of rank n of
the first key's length.  The even operators also refuse, with a
ValueError, a vector whose keys differ in weight.
"""

from functools import lru_cache
from itertools import product
from operator import attrgetter
from typing import NamedTuple

from ..words import _check_even_index, check_rank
from .action import (Operator, _apply, _laurent_terms, _times, act_expr,
                     act_prim, bracket, check_vector, compose, op, qh_expr,
                     ratfunc_vector, scale, tensor_weight, vec_add,
                     vec_scale)
from .laurent import (ONE, Q, ZERO, RatFunc, gauss_int, pdiv_exact, pgcd,
                      pmul, pnorm)

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
    images = [e.view(t) for t in tensors]
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


def apply_f_power(vec: dict, i: int, k: int) -> dict:
    """Divided power f_i^(k) = f_i^k / [k]!, one divided step at a time,
    using f_i^(m) = f_i f_i^(m-1) / [m]."""
    for m in range(1, k + 1):
        vec = act_prim(("f", i), vec)
        if m >= 2:
            vec = vec_scale(ONE / gauss_int(m), vec)
    return vec


def _class_tensors(m: int, a: int) -> list:
    """The class space (m, a): unbarred words over 1, 2 with a ones."""
    return [tuple((j, 0) for j in w) for w in product((1, 2), repeat=m)
            if w.count(1) == a]


# ---------------------------------------------------------------------------
# block classes over Z[q, q^-1]


def _by_tensor(vec: dict) -> dict:
    """An integer Laurent vector as {tensor: [(exponent, int), ...]}."""
    out = {}
    for (t, k), x in vec.items():
        out.setdefault(t, []).append((k, x))
    return out


def _polynomial(terms) -> tuple:
    """(lo, p): the Laurent polynomial of the (exponent, int) pairs as
    q^lo times the polynomial p, whose constant term is nonzero."""
    lo = min(k for k, x in terms if x)
    p = [0] * (max(k for k, _ in terms) - lo + 1)
    for k, x in terms:
        p[k - lo] += x
    return lo, pnorm(p)


def _over_gauss_int(vec: dict, k: int) -> dict:
    """vec / [k] for an integer Laurent vector that [k] divides in
    Z[q, q^-1]: [k] is num / q^(k-1) in normal form, and each entry is
    divided by num by integer long division; else ArithmeticError."""
    g = gauss_int(k)
    out = {}
    for t, terms in _by_tensor(vec).items():
        lo, p = _polynomial(terms)
        for j, x in enumerate(pdiv_exact(p, g.num)):
            if x:
                out[t, lo + len(g.den) - 1 + j] = x
    return out


def _norm(vec: dict) -> tuple:
    """<vec, vec> as (lo, p), for the symmetric form in which the basis
    tensors are orthonormal: the sum of each entry's square."""
    square = {}
    for terms in _by_tensor(vec).values():
        for k1, x1 in terms:
            for k2, x2 in terms:
                square[k1 + k2] = square.get(k1 + k2, 0) + x1 * x2
    return _polynomial(square.items())


@lru_cache(maxsize=None)
def _tops(m: int) -> dict:
    """String tops at rank 2: an orthogonal basis of ker e_1 on V^(x)m,
    {weight lam = #1 - #2: [integer Laurent vectors]}, for the symmetric
    form in which the basis tensors are orthonormal.  A top w of V^(x)m-1
    of weight lam gives w (x) v_1 and, when lam > 0, [lam] w (x) v_2 - q
    f_1 w (x) v_1, which e_1 kills since e_1 f_1 w = [lam] w; tops with
    distinct prefixes lie in orthogonal modules.  Every top is checked
    to be in ker e_1, else ArithmeticError."""
    if m == 0:
        return {0: [{((), 0): 1}]}
    e, f = op(("e", 1)), op(("f", 1))
    out = {}
    for lam, prefixes in _tops(m - 1).items():
        for w in prefixes:
            out.setdefault(lam + 1, []).append(
                {(t + ((1, 0),), k): x for (t, k), x in w.items()})
            if lam:
                top = _times(_laurent_terms(gauss_int(lam)), {
                    (t + ((2, 0),), k): x for (t, k), x in w.items()})
                for (t, k), x in _apply(f, w, {}).items():
                    vec_add(top, (t + ((1, 0),), k + 1), -x)
                out.setdefault(lam - 1, []).append(top)
    if any(_apply(e, w, {}) for tops in out.values() for w in tops):
        raise ArithmeticError(f"a string top of V^(x){m} is not in ker e_1")
    return out


class StringBasis(NamedTuple):
    """The class columns of one block class (m, a), each a table {class
    tensor c: integer Laurent vector over class tensors}, a numerator over
    the class denominator D, a polynomial (its coefficient tuple):
    levels[k][c] / D is u_k in c = sum_k f_1^(k) u_k with e_1 u_k = 0,
    levels in increasing k; raised[c] / D and lowered[c] / D are tilde_e
    c and tilde_f c.  A numerator's keys (tensor, exponent) are sorted.
    raised_at_zero[c] and lowered_at_zero[c] are the images at q = 0, as
    ``residue_at_zero`` gives them.  Shared: read only."""

    denominator: tuple
    levels: dict
    raised: dict
    lowered: dict
    raised_at_zero: dict
    lowered_at_zero: dict


def residue_at_zero(vec: dict) -> tuple:
    """vec at q = 0: (its residue, None), zeros dropped, or (None, (key,
    coefficient)) at the first key, in vec's order, with a pole there."""
    residue = {}
    for t, c in vec.items():
        if not c.is_regular_at_zero():
            return None, (t, c)
        value = c.at_zero()
        if value:
            residue[t] = value
    return residue, None


def _numerator_at_zero(column: dict, d: tuple) -> tuple:
    """``residue_at_zero`` of the vector column / d, read off the
    numerator without a gcd.  With d = q^v d_0, d_0(0) != 0, an entry is
    regular at q = 0 just when its numerator has no term below q^v, and
    its value there is its q^v coefficient over d_0(0).  The keys of
    column are sorted, so each tensor's lowest term comes first; a pole
    builds the one RatFunc of its coefficient."""
    v = next(k for k, x in enumerate(d) if x)
    residue = {}
    for (t, k), x in column.items():
        if k < v:
            return None, (t, ratfunc_vector(column)[t] / RatFunc.laurent(0, d))
        if k == v:
            residue[t] = RatFunc((x,), (d[v],))
    return residue, None


@lru_cache(maxsize=None)
def _string_basis(m: int, a: int) -> StringBasis:
    """The 1-string basis of the class space (m, a) at rank 2, solved once
    over Z[q, q^-1].  The images F_j = f_1^k w_j of the string tops, the
    columns of C, are orthogonal, so C^-1 = diag(1 / N_j) C^T with N_j =
    <F_j, F_j>: D is the lcm of the N_j and D C^-1 has the entries (D /
    N_j) F_j[c], checked by C . (D C^-1) = D I on every class tensor."""
    tensors = _class_tensors(m, a)
    tops = []  # (k, string top)
    for k in range(m - a + 1):
        # a string top with a + k ones spans exactly a + k - (m - a - k)
        # steps down, so shorter strings cannot reach back to the class
        if 2 * (a + k) - m < k:
            continue
        tops.extend((k, w) for w in _tops(m).get(2 * (a + k) - m, []))
    f = op(("f", 1))
    levels, raised, images, lowered = [], [], [], []
    for k, w in tops:
        # f^(k) = f^k / [k]!, so with the undivided images the level is
        # [k]! w, the raised image [k] f^(k-1) w and the lowered one
        # f^(k+1) w / [k+1]
        chain = [w]
        for _ in range(k + 1):
            chain.append(_apply(f, chain[-1], {}))
        for j in range(1, k + 1):
            w = _times(_laurent_terms(gauss_int(j)), w)
        levels.append(w)
        raised.append(_times(_laurent_terms(gauss_int(k)), chain[k - 1])
                      if k else {})
        images.append(chain[k])
        lowered.append(_over_gauss_int(chain[k + 1], k + 1))
    norms = [_norm(image) for image in images]
    d = (1,)
    for p in dict.fromkeys(p for _, p in norms):
        d = pmul(d, pdiv_exact(p, pgcd(d, p)))
    # D C^-1 by row j: D / N_j, then F_j[c] per class tensor c
    ratios = [tuple((k - lo, x) for k, x in enumerate(pdiv_exact(d, p)) if x)
              for lo, p in norms]
    entries = {t: [] for t in tensors}
    for j, image in enumerate(images):
        for t, terms in _by_tensor(image).items():
            entries[t].append((j, terms))

    def over_d(vectors):
        """The vectors as the columns of a matrix, times D C^-1: the
        table of its column per class tensor, keys sorted."""
        scaled = [_times(r, vec) for r, vec in zip(ratios, vectors)]
        out = {}
        for t, row in entries.items():
            col = {}
            for j, terms in row:
                for (s, k), x in scaled[j].items():
                    for e, y in terms:
                        col[s, k + e] = col.get((s, k + e), 0) + x * y
            out[t] = {key: x for key, x in sorted(col.items()) if x}
        return out
    # resubstitution check: C . (D C^-1) = D I, one class tensor per column
    if over_d(images) != {t: {(t, k): x for k, x in enumerate(d) if x}
                          for t in tensors}:
        raise ArithmeticError("string decomposition failed to reconstruct")
    # level k keeps the string tops of level k, in place, and no other
    levels = {k: over_d([w if top_k == k else {}
                         for (top_k, _), w in zip(tops, levels)])
              for k in dict.fromkeys(k for k, _ in tops)}
    raised, lowered = over_d(raised), over_d(lowered)
    return StringBasis(
        d, levels, raised, lowered,
        {t: _numerator_at_zero(col, d) for t, col in raised.items()},
        {t: _numerator_at_zero(col, d) for t, col in lowered.items()})


@lru_cache(maxsize=None)
def _blocks(i: int, n: int) -> dict:
    """Basis tensor -> (class tensor, lift) at (i, n), filled a module at
    a time by ``_block``; it holds no solve, only the checked structure.
    A lift is shared by its whole module: read only."""
    return {}


def _lift(i: int, t) -> dict:
    """The basis tensor of t's module for every unbarred word of length m
    over 1, 2: t with its m active factors' letters put in their place."""
    active = [p for p, (j, _) in enumerate(t) if i <= j <= i + 1]
    lift = {}
    for w in product(((1, 0), (2, 0)), repeat=len(active)):
        s = list(t)
        for p, (j, _) in zip(active, w):
            s[p] = (j + i - 1, t[p][1])
        lift[w] = tuple(s)
    return lift


def _block(i: int, t, n: int) -> tuple:
    """(class tensor, lift, StringBasis of the class) of the basis tensor
    t at (i, n); on the first read of t's module, check the factorization
    of e_i and f_i over the whole module."""
    blocks = _blocks(i, n)
    if t not in blocks:
        lift = _lift(i, t)
        for kind in ("e", "f"):
            real, model = op((kind, i)), op((kind, 1))
            for w, s in lift.items():
                if real[s] != {(lift[x], k): c
                               for (x, k), c in model[w].items()}:
                    raise ArithmeticError(
                        f"{kind}_{i} on {s!r} is not the lift of {kind}_1 "
                        f"on its class tensor {w!r}")
        for w, s in lift.items():
            blocks[s] = w, lift
    w, lift = blocks[t]
    return w, lift, _string_basis(len(w), w.count((1, 0)))


def _lifted(i: int, vec: dict, n: int, pick) -> dict:
    """sum over the keys t of vec of c_t times the lift of t's class
    column pick(basis)[w], a numerator over the class denominator D,
    divided by D once at the end: the keys of a weight vector share one
    class and so one D, and (sum c_t y_t) / D is sum c_t (y_t / D)."""
    out, d = {}, (1,)
    for t, c in vec.items():
        w, lift, basis = _block(i, t, n)
        d = basis.denominator
        for x, y in ratfunc_vector(pick(basis)[w]).items():
            vec_add(out, lift[x], c * y)
    return vec_scale(ONE / RatFunc.laurent(0, d), out)


def _lifted_residue(i: int, t, n: int, part: str) -> tuple:
    """The basis tensor t's ``part`` column ("raised" for tilde_e,
    "lowered" for tilde_f) at q = 0, read once per class and lifted:
    ``residue_at_zero(tilde_e(i, unit(t), n))`` for "raised".  i, n and t
    are taken as checked; t's module is checked on its first read."""
    w, lift, basis = _block(i, t, n)
    residue, pole = getattr(basis, part + "_at_zero")[w]
    if pole is not None:
        return None, (lift[pole[0]], pole[1])
    return {lift[x]: value for x, value in residue.items()}, None


def _weight_vector(i, vec: dict, n: int) -> dict:
    """The levels of the class of vec's keys, once the rank n, the even
    index i and the vector are checked and the keys found to share one
    weight, else ValueError.  A weight fixes the class (m, a) at i, so
    its levels serve every key; the zero vector has none."""
    check_rank(n)
    _check_even_index(i, n)
    check_vector(vec, n)
    if len({tensor_weight(t, n) for t in vec}) > 1:
        raise ValueError("not a weight vector")
    return _block(i, next(iter(vec)), n)[2].levels if vec else {}


def string_decomposition(vec: dict, i: int, n: int) -> list:
    """Pairs (k, u_k) with vec = sum_k f_i^(k) u_k and e_i u_k = 0."""
    pairs = [(k, _lifted(i, vec, n, lambda basis: basis.levels[k]))
             for k in _weight_vector(i, vec, n)]
    return [(k, u) for k, u in pairs if u]


def tilde_e(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara raising operator at q-level: sum f_i^(k-1) u_k."""
    _weight_vector(i, vec, n)
    return _lifted(i, vec, n, attrgetter("raised"))


def tilde_f(i: int, vec: dict, n: int) -> dict:
    """Even Kashiwara lowering operator at q-level: sum f_i^(k+1) u_k."""
    _weight_vector(i, vec, n)
    return _lifted(i, vec, n, attrgetter("lowered"))


# ---------------------------------------------------------------------------
# odd operators


@lru_cache(maxsize=None)
def ktilde1_expr(n: int) -> Operator:
    """ktilde_1 = q^{k_1 - 1} kbar_1."""
    return scale(ONE / Q, compose(qh_expr(n, (1, 1)), op(("kbar", 1))))


@lru_cache(maxsize=None)
def tilde_ebar1_expr(n: int) -> Operator:
    """tilde_ebar1 = -(e_1 kbar_1 - q kbar_1 e_1) q^{k_1 - 1}."""
    return scale(-(ONE / Q),
                 compose(bracket(op(("e", 1)), op(("kbar", 1)), Q),
                         qh_expr(n, (1, 1))))


@lru_cache(maxsize=None)
def tilde_fbar1_expr(n: int) -> Operator:
    """tilde_fbar1 = -(kbar_1 f_1 - q f_1 kbar_1) q^{k_2 - 1}."""
    return scale(-(ONE / Q),
                 compose(bracket(op(("kbar", 1)), op(("f", 1)), Q),
                         qh_expr(n, (2, 1))))


def tilde_k1(vec: dict, n: int) -> dict:
    check_rank(n)
    check_vector(vec, n)
    return act_expr(ktilde1_expr(n), vec)


def tilde_ebar1(vec: dict, n: int) -> dict:
    check_rank(n)
    _check_even_index(1, n)
    check_vector(vec, n)
    return act_expr(tilde_ebar1_expr(n), vec)


def tilde_fbar1(vec: dict, n: int) -> dict:
    check_rank(n)
    _check_even_index(1, n)
    check_vector(vec, n)
    return act_expr(tilde_fbar1_expr(n), vec)
