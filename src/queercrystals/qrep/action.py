"""Action of the quantum queer superalgebra on V and its tensor powers.

Four primitive generators act through explicit formulas: q^h, e_i, f_i
(even) and kbar_1 (odd).  On a tensor power the action comes from the
comultiplication

    D(q^h)    = q^h (x) q^h
    D(e_i)    = e_i (x) q^{-k_i + k_{i+1}} + 1 (x) e_i
    D(f_i)    = f_i (x) 1 + q^{k_i - k_{i+1}} (x) f_i
    D(kbar_1) = kbar_1 (x) q^{k_1} + q^{-k_1} (x) kbar_1

with the super sign rule (a (x) b)(x (x) y) = (-1)^{|b||x|} ax (x) by.
Since q^h is group-like, coassociativity makes the N-fold coproduct put
e_i, f_i or kbar_1 on one factor p at a time: e_i takes q^{-k_i+k_{i+1}}
from every factor right of p, f_i takes q^{k_i-k_{i+1}} from every factor
left of p, and kbar_1 takes q^{k_1} from the right, q^{-k_1} from the left
and, moving past the factors left of p, the sign (-1)^(bars left of p).

Everything else is generated: ebar_i, fbar_i and kbar_j for j >= 2 are
operator polynomials in the primitives obtained by solving the defining
relations, so their tensor action needs no comultiplication formula of its
own.  On V itself the composite operators reproduce the defining action
table, which the tests check symbol by symbol.

Every operator is a sparse matrix stored by column (``Operator``): column t
is the image of the basis tensor t, of any length N.  Sums and scalings act
column by column, and column t of a . b is a applied to column t of b.  The
q-commutator a b - c b a (``bracket``) is the one composite the generated
generators and the relations are written in.
"""

from functools import lru_cache

from .laurent import ONE, Q, RatFunc
from .tensorspace import unit, vec_add, vec_scale, vec_sum

# primitive symbols: ("qh", h-tuple), ("e", i), ("f", i), ("kbar1",)


@lru_cache(maxsize=None)
def _act_prim_tensor(sym, t) -> dict:
    """Primitive symbol applied to one basis tensor: its column {tensor:
    coeff}, in increasing order of the factor acted on.  Shared: read only."""
    kind = sym[0]
    if kind == "qh":
        h = sym[1]
        return {t: RatFunc.q_power(sum(h[j - 1] for j, _ in t))}
    # (letter acted on, letter produced, bar flip, exponent per letter of
    # each factor left of it, exponent per letter of each factor right)
    if kind == "e":
        i = sym[1]
        src, dst, flip, left, right = i + 1, i, 0, {}, {i: -1, i + 1: 1}
    elif kind == "f":
        i = sym[1]
        src, dst, flip, left, right = i, i + 1, 0, {i: 1, i + 1: -1}, {}
    elif kind == "kbar1":
        src, dst, flip, left, right = 1, 1, 1, {1: -1}, {1: 1}
    else:
        raise ValueError(f"unknown symbol {sym!r}")
    out = {}
    for p, (j, s) in enumerate(t):
        if j != src:
            continue
        k = (sum(left.get(a, 0) for a, _ in t[:p])
             + sum(right.get(a, 0) for a, _ in t[p + 1:]))
        c = RatFunc.q_power(k)
        if flip and sum(b for _, b in t[:p]) & 1:
            c = -c
        out[t[:p] + ((dst, s ^ flip),) + t[p + 1:]] = c
    return out


class Operator(dict):
    """Basis tensor -> image vector; a column is computed on first read by
    ``column(t)`` and kept.  Columns are shared: read only."""

    def __init__(self, column):
        self.column = column

    def __missing__(self, t):
        image = self[t] = self.column(t)
        return image


def act_prim(sym, vec: dict) -> dict:
    """Primitive symbol acting on a vector."""
    return act_expr(op(sym), vec)


def op(sym) -> Operator:
    return Operator(lambda t: _act_prim_tensor(sym, t))


def identity_expr() -> Operator:
    return Operator(unit)


def qh_expr(n: int, *pairs) -> Operator:
    """The operator q^h with h = sum of c * k_j over (j, c) pairs."""
    h = [0] * n
    for j, c in pairs:
        h[j - 1] += c
    return op(("qh", tuple(h)))


def compose(a, b) -> Operator:
    """a after b: column t is a applied to column t of b."""
    return Operator(lambda t: act_expr(a, b[t]))


def expr_sum(*exprs) -> Operator:
    """The sum of the operators; with no arguments, the zero operator."""
    return Operator(lambda t: vec_sum(*(e[t] for e in exprs)))


def scale(c: RatFunc, a) -> Operator:
    return Operator(lambda t: vec_scale(c, a[t]))


def bracket(a, b, c: RatFunc = ONE) -> Operator:
    """The q-commutator a b - c b a."""
    return expr_sum(compose(a, b), scale(-c, compose(b, a)))


def act_expr(expr, vec: dict) -> dict:
    """The operator applied to a vector: sum of c * expr[t] over vec."""
    out = {}
    for t, c in vec.items():
        for t2, x in expr[t].items():
            vec_add(out, t2, c * x)
    return out


@lru_cache(maxsize=None)
def kbar_expr(j: int, n: int) -> Operator:
    """kbar_j as an operator polynomial in the primitives.

    kbar_1 is primitive; higher ones come from the mixed commutator
    ebar_i f_i - f_i ebar_i = kbar_i q^{k_{i+1}} - kbar_{i+1} q^{k_i}.
    """
    if j == 1:
        return op(("kbar1",))
    i = j - 1
    inner = expr_sum(compose(kbar_expr(i, n), qh_expr(n, (j, 1))),
                     bracket(op(("f", i)), ebar_expr(i, n)))
    return compose(inner, qh_expr(n, (i, -1)))


@lru_cache(maxsize=None)
def ebar_expr(i: int, n: int) -> Operator:
    """ebar_i = (kbar_i e_i - q e_i kbar_i) q^{k_i}."""
    return compose(bracket(kbar_expr(i, n), op(("e", i)), Q),
                   qh_expr(n, (i, 1)))


@lru_cache(maxsize=None)
def fbar_expr(i: int, n: int) -> Operator:
    """fbar_i = -(kbar_i f_i - q f_i kbar_i) q^{-k_i}."""
    return scale(-ONE, compose(bracket(kbar_expr(i, n), op(("f", i)), Q),
                               qh_expr(n, (i, -1))))


def generator_expr(g, n: int) -> Operator:
    """The operator of any generator symbol.

    g is ("qh", h-tuple), ("e", i), ("f", i), ("kbar", j), ("ebar", i) or
    ("fbar", i).
    """
    kind = g[0]
    if kind == "qh":
        return op(("qh", tuple(g[1])))
    if kind in ("e", "f"):
        return op((kind, g[1]))
    if kind == "kbar":
        return kbar_expr(g[1], n)
    if kind == "ebar":
        return ebar_expr(g[1], n)
    if kind == "fbar":
        return fbar_expr(g[1], n)
    raise ValueError(f"unknown generator {g!r}")


def act_on_tensor(g, vec: dict, n: int) -> dict:
    """A generator acting on a vector in V^(x)N (any N >= 1)."""
    return act_expr(generator_expr(g, n), vec)
