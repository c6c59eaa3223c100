"""Action of the quantum queer superalgebra on V and its tensor powers.

V has basis v_1..v_n (even) and vbar_1..vbar_n (odd).  A basis tensor of
V^(x)N is a tuple of symbols (letter, bar), bar in {0, 1}; its letter
pattern, the word of its letters, spans l_b for the crystal node b.  A
vector is a dict from basis tensors to nonzero RatFunc coefficients.

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
So every image of a primitive on a basis tensor is a sum of basis tensors
times +-q^k, and one rule gives it in integers (``_act_prim_tensor``).

Everything else is generated, once per rank in one table: ebar_i, fbar_i
and kbar_j for j >= 2 are operator polynomials in the primitives obtained
by solving the defining relations, so their tensor action needs no
comultiplication formula of its own.  On V itself the composite
operators reproduce the defining action table, which the tests check
symbol by symbol.

Every operator is a sparse matrix stored by column (``Operator``): column t
is the image of the basis tensor t, of any length N, in Z[q, q^-1]: every
scalar an operator is built with is a Laurent polynomial, so sums,
scalings and products (column t of a . b is a applied to column t of b)
are integer arithmetic.  The q-commutator a b - c b a (``bracket``) is
the one composite the generated generators and the relations are written
in.  RatFunc enters where an operator meets a vector, through the view of
a column (``act_expr``).
"""

from functools import lru_cache
from itertools import product

from ..words import check_rank
from .laurent import ONE, Q, RatFunc

# ---------------------------------------------------------------------------
# basis tensors and vectors

BasisTensor = tuple  # of symbols (letter, bar)


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
    return list(product(singles, repeat=N))


def lattice_basis(word: bytes) -> list:
    """Basis tensors with the given letter pattern, ordered by bar bits."""
    return [tuple(zip(word, bits))
            for bits in product((0, 1), repeat=len(word))]


def vec_add(out: dict, t: BasisTensor, c: RatFunc) -> None:
    """Accumulate c on t in place, stripping zeros."""
    cur = out.get(t)
    s = c if cur is None else cur + c
    if s:
        out[t] = s
    elif cur is not None:
        del out[t]


def vec_scale(c: RatFunc, v: dict) -> dict:
    return {t: c * x for t, x in v.items()} if c else {}


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


# ---------------------------------------------------------------------------
# operators


@lru_cache(maxsize=None)
def _act_prim_tensor(sym, t) -> dict:
    """The one rule for a primitive symbol that ``op`` accepts on one basis
    tensor: its column {(tensor, exponent): sign}, each entry meaning
    sign * q^exponent on that tensor, in increasing order of the factor
    acted on.  The tensors are distinct.  Shared: read only."""
    kind, i = sym
    if kind == "qh":  # i is the tuple h
        return {(t, sum(i[j - 1] for j, _ in t)): 1}
    # (letter acted on, letter produced, bar flip, exponent per letter of
    # each factor left of it, exponent per letter of each factor right)
    if kind == "e":
        src, dst, flip, left, right = i + 1, i, 0, {}, {i: -1, i + 1: 1}
    elif kind == "f":
        src, dst, flip, left, right = i, i + 1, 0, {i: 1, i + 1: -1}, {}
    else:  # ("kbar", 1)
        src, dst, flip, left, right = 1, 1, 1, {1: -1}, {1: 1}
    out = {}
    for p, (j, s) in enumerate(t):
        if j != src:
            continue
        k = (sum(left.get(a, 0) for a, _ in t[:p])
             + sum(right.get(a, 0) for a, _ in t[p + 1:]))
        sign = -1 if flip and sum(b for _, b in t[:p]) & 1 else 1
        out[t[:p] + ((dst, s ^ flip),) + t[p + 1:], k] = sign
    return out


def ratfunc_vector(column: dict) -> dict:
    """The vector {tensor: RatFunc} of an integer Laurent vector
    {(tensor, exponent): int} with nonzero entries."""
    by_tensor = {}
    for (t, k), c in column.items():
        by_tensor.setdefault(t, {})[k] = c
    return {t: RatFunc.laurent(min(cs), [cs.get(k, 0) for k in
                                         range(min(cs), max(cs) + 1)])
            for t, cs in by_tensor.items()}


class Operator(dict):
    """Basis tensor -> column, its image as an integer Laurent vector
    {(tensor, exponent): int}, computed by ``column(t)`` and kept on first
    read.  ``once(t)`` keeps nothing: a composite reads its operands at t
    only for its own column t.  ``view(t)``, column t over RatFunc, is
    kept.  Columns and views are shared: read only."""

    def __init__(self, column):
        self.column = column

    def __missing__(self, t):
        image = self[t] = self.column(t)
        return image

    def once(self, t) -> dict:
        return self[t] if t in self else self.column(t)

    def view(self, t) -> dict:
        views = self.__dict__.setdefault("views", {})
        if t not in views:
            views[t] = ratfunc_vector(self[t])
        return views[t]


def act_prim(sym, vec: dict) -> dict:
    """Primitive symbol acting on a vector; ``op`` checks the symbol."""
    return act_expr(op(sym), vec)


def op(sym) -> Operator:
    """The operator of ("qh", h) with h a tuple of ints, ("e", i) or
    ("f", i) with i a positive int, or ("kbar", 1); any other symbol raises
    ValueError.  A letter above the rank n, as ("f", n) writes, is not
    seen here: ``act_on_tensor`` is the entry point that checks the rank."""
    kind, i = sym if type(sym) is tuple and len(sym) == 2 else (None, None)
    if not (kind == "qh" and type(i) is tuple
            and all(type(x) is int for x in i)
            or type(i) is int and (kind in ("e", "f") and i >= 1
                                   or sym == ("kbar", 1))):
        raise ValueError(f"unknown symbol {sym!r}")
    return Operator(lambda t: _act_prim_tensor(sym, t))


def identity_expr() -> Operator:
    return Operator(lambda t: {(t, 0): 1})


def qh_expr(n: int, *pairs) -> Operator:
    """The operator q^h with h = sum of c * k_j over (j, c) pairs at rank
    n; a j outside 1..n raises ValueError."""
    h = [0] * n
    for j, c in pairs:
        if not 1 <= j <= n:
            raise ValueError(f"k_{j} is not a weight at rank {n}")
        h[j - 1] += c
    return op(("qh", tuple(h)))


def _laurent_terms(c: RatFunc) -> tuple:
    """c as (exponent, int) pairs.  c is in Z[q, q^-1] exactly when its
    normal form has the denominator q^m; else ValueError."""
    if c.den[-1] != 1 or any(c.den[:-1]):
        raise ValueError(f"{c!r} is not a Laurent polynomial in q")
    return tuple((k + 1 - len(c.den), x) for k, x in enumerate(c.num) if x)


def _times(terms, column: dict) -> dict:
    """The Laurent polynomial of the (exponent, int) pairs terms times the
    Laurent vector column."""
    out = {}
    for j, s in terms:
        for (t, k), x in column.items():
            vec_add(out, (t, k + j), x * s)
    return out


def _apply(a, column: dict, out: dict) -> dict:
    """out plus a applied to the Laurent vector column."""
    for (t1, k1), c1 in column.items():
        for (t2, k2), c2 in a[t1].items():
            vec_add(out, (t2, k1 + k2), c1 * c2)
    return out


def compose(a, b) -> Operator:
    """a after b: column t is a applied to column t of b."""
    return Operator(lambda t: _apply(a, b.once(t), {}))


def expr_sum(*exprs) -> Operator:
    """The sum of the operators; with no arguments, the zero operator."""
    return Operator(lambda t: vec_sum(*(e.once(t) for e in exprs)))


def scale(c: RatFunc, a) -> Operator:
    """c a for c in Z[q, q^-1]; any other c raises ValueError."""
    terms = _laurent_terms(c)
    return Operator(lambda t: _times(terms, a.once(t)))


def bracket(a, b, c: RatFunc = ONE) -> Operator:
    """The q-commutator a b - c b a, both products in one column, for c in
    Z[q, q^-1]."""
    terms = _laurent_terms(-c)
    return Operator(lambda t: _apply(b, _times(terms, a.once(t)),
                                     _apply(a, b.once(t), {})))


def act_expr(expr, vec: dict) -> dict:
    """The operator applied to a vector over RatFunc: sum of c times the
    view of column t over the items (t, c) of vec."""
    out = {}
    for t, c in vec.items():
        for t2, x in expr.view(t).items():
            vec_add(out, t2, c * x)
    return out


@lru_cache(maxsize=None)
def _generators(n: int) -> dict:
    """Every generator of rank n but q^h, by symbol, each built once from
    those before it; kbar_{i+1} solves the mixed commutator
    ebar_i f_i - f_i ebar_i = kbar_i q^{k_{i+1}} - kbar_{i+1} q^{k_i}."""
    table = {("kbar", 1): op(("kbar", 1))}
    for i in range(1, n):
        kbar, e, f = table["kbar", i], op(("e", i)), op(("f", i))
        ebar = compose(bracket(kbar, e, Q), qh_expr(n, (i, 1)))
        fbar = scale(-ONE, compose(bracket(kbar, f, Q), qh_expr(n, (i, -1))))
        kbar = compose(expr_sum(compose(kbar, qh_expr(n, (i + 1, 1))),
                                bracket(f, ebar)), qh_expr(n, (i, -1)))
        table.update({("e", i): e, ("f", i): f, ("ebar", i): ebar,
                      ("fbar", i): fbar, ("kbar", i + 1): kbar})
    return table


def generator_expr(g, n: int) -> Operator:
    """The operator of ("qh", h), h a tuple of n ints, or of a symbol of the
    table above with an int index; any other symbol raises ValueError."""
    check_rank(n)
    kind, index = g if type(g) is tuple and len(g) == 2 else (None, None)
    if kind == "qh" and type(index) is tuple and len(index) == n and all(
            type(x) is int for x in index):
        return op(g)
    if type(kind) is str and type(index) is int and g in _generators(n):
        return _generators(n)[g]
    raise ValueError(f"unknown generator {g!r} at rank {n}")


def kbar_expr(j: int, n: int) -> Operator:
    return generator_expr(("kbar", j), n)


def ebar_expr(i: int, n: int) -> Operator:
    return generator_expr(("ebar", i), n)


def fbar_expr(i: int, n: int) -> Operator:
    return generator_expr(("fbar", i), n)


def check_vector(vec, n: int) -> None:
    """Raise TypeError unless vec is a dict, and ValueError unless every
    key is a basis tensor of V^(x)N at rank n, for the N of the first
    key: a tuple of N >= 1 (letter, bar) int pairs, letters in 1..n, bars
    0 or 1.  Made on every call, before any cache reads the keys: the
    caches compare keys by equality and take (1.0, 0) for (1, 0)."""
    if not isinstance(vec, dict):
        raise TypeError(f"a vector is a dict, not {type(vec).__name__}")
    first = next(iter(vec), None)
    for t in vec:
        if not (type(t) is tuple and len(t) >= 1
                and all(type(s) is tuple and tuple(map(type, s)) == (int, int)
                        and 1 <= s[0] <= n and s[1] in (0, 1) for s in t)):
            raise ValueError(f"{t!r} is not a basis tensor at rank {n}")
        if len(t) != len(first):
            raise ValueError(f"{t!r} is not a basis tensor at rank {n} "
                             "of the first key's length")


def act_on_tensor(g, vec: dict, n: int) -> dict:
    """A generator acting on a vector in V^(x)N (any N >= 1), checked by
    ``check_vector``."""
    expr = generator_expr(g, n)
    check_vector(vec, n)
    return act_expr(expr, vec)
