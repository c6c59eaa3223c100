"""Exact verifiers: defining relations, odd comultiplication, q->0 residues.

Every relation and comultiplication check instantiates an operator
identity and compares both sides' columns on each basis tensor of V^(x)N
in Z[q, q^-1] (the two relations with a scalar outside it are multiplied
through), so a "pass" is an exact equality, not a numeric approximation.
The residue check is the bridge to the combinatorial side: it confirms
that the q-level Kashiwara operators preserve the integral lattice spanned
by the basis tensors, and that setting q = 0 reproduces, pattern space by
pattern space, exactly the arrows of the word crystal B^(x)N, the graph
``tensor_power_graph(n, N)``.
"""

from ..graphs import ODD, all_labels
from ..reports import check, record, report
from ..theorems import tensor_power_graph
from ..words import _integer, all_words, check_rank
from .action import (Operator, basis, bracket, compose, expr_sum,
                     generator_expr, identity_expr, lattice_basis, op,
                     parity, pattern, qh_expr, ratfunc_vector, scale, unit,
                     vec_add, vec_sub)
from .laurent import ONE, Q, RatFunc
from .kashiwara import (_lifted_residue, _rows, _rref, ktilde1_expr,
                        residue_at_zero, tilde_ebar1, tilde_ebar1_expr,
                        tilde_fbar1, tilde_fbar1_expr, tilde_k1)


def _check_rank_and_power(n: int, N: int) -> None:
    """Reject instances with no basis tensor to evaluate."""
    check_rank(n)
    _integer(N, "tensor power", least=1)


def relations_catalogue(n: int) -> list:
    """Named operator identities (lhs, rhs) defining the algebra at rank n."""
    check_rank(n)
    rels = []
    qinv = ONE / Q
    h_samples = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    h_samples.append(tuple(range(1, n + 1)))
    # at rank 1 the sum sample (1,) is also the unit sample: list it once
    h_samples = list(dict.fromkeys(h_samples))

    def qh(h):
        return generator_expr(("qh", h), n)

    e, f, ebar, fbar = ({i: generator_expr((kind, i), n) for i in range(1, n)}
                        for kind in ("e", "f", "ebar", "fbar"))
    kbar = {j: generator_expr(("kbar", j), n) for j in range(1, n + 1)}
    zero = expr_sum()

    def serre(a, b):
        """a^2 b - (q + q^-1) a b a + b a^2."""
        return expr_sum(compose(compose(a, a), b),
                        scale(-(Q + qinv), compose(compose(a, b), a)),
                        compose(b, compose(a, a)))

    def commutators(*families):
        """[a_i, b_j] = diagonal(i) when i == j, else 0, for each family
        (name, a, b, diagonal), the families interleaved at each (i, j)."""
        for i in range(1, n):
            for j in range(1, n):
                for name, a, b, diagonal in families:
                    rels.append((f"{name} i={i} j={j}", bracket(a[i], b[j]),
                                 diagonal(i) if i == j else zero))

    def commute(name, a, b):
        """a b = b a."""
        rels.append((name, compose(a, b), compose(b, a)))

    def kbar_shift(i, s):
        """kbar_i q^{s k_{i+1}} - kbar_{i+1} q^{s k_i}."""
        return expr_sum(compose(kbar[i], qh_expr(n, (i + 1, s))),
                        scale(-ONE, compose(kbar[i + 1], qh_expr(n, (i, s)))))

    for a, h1 in enumerate(h_samples):
        h2 = h_samples[(a + 1) % len(h_samples)]
        hsum = tuple(x + y for x, y in zip(h1, h2))
        rels.append((f"qh-additivity h1={h1} h2={h2}",
                     compose(qh(h1), qh(h2)), qh(hsum)))
    # q^h e_i q^-h = q^<h, alpha_i> e_i, and f_i takes the inverse power
    for i in range(1, n):
        for h in h_samples[:2]:
            for kind, gens, sign in (("e", e, 1), ("f", f, -1)):
                rels.append((
                    f"qh-{kind}-commutation i={i} h={h}",
                    compose(compose(qh(h), gens[i]), qh(tuple(-x for x in h))),
                    scale(RatFunc.q_power(sign * (h[i - 1] - h[i])),
                          gens[i])))
    for j in range(1, n + 1):
        commute(f"qh-kbar-commute j={j}", qh(h_samples[-1]), kbar[j])
    # (q - q^-1)[e_i, f_j] = delta_ij (q^{k_i - k_{i+1}} - q^{-k_i + k_{i+1}})
    ef = {i: scale(Q - qinv, x) for i, x in e.items()}
    commutators(("e-f-commutator", ef, f, lambda i: expr_sum(
        qh_expr(n, (i, 1), (i + 1, -1)),
        scale(-ONE, qh_expr(n, (i, -1), (i + 1, 1))))))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                commute(f"e-e-distant-commute i={i} j={j}", e[i], e[j])
                commute(f"f-f-distant-commute i={i} j={j}", f[i], f[j])
            if abs(i - j) == 1:
                for kind, gens in (("e", e), ("f", f)):
                    rels.append((f"{kind}-serre i={i} j={j}",
                                 serre(gens[i], gens[j]), zero))
    # (q^2 - q^-2) kbar_i^2 = q^{2k_i} - q^{-2k_i}
    q2 = RatFunc.q_power(2) - RatFunc.q_power(-2)
    for i in range(1, n + 1):
        rels.append((
            f"kbar-squared i={i}",
            scale(q2, compose(kbar[i], kbar[i])),
            expr_sum(qh_expr(n, (i, 2)),
                     scale(-ONE, qh_expr(n, (i, -2))))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rels.append((f"kbar-anticommute i={i} j={j}",
                             bracket(kbar[i], kbar[j], -ONE), zero))
    for i in range(1, n):
        rels.append((f"kbar-e-twist i={i}", bracket(kbar[i], e[i], Q),
                     compose(ebar[i], qh_expr(n, (i, -1)))))
        rels.append((f"kbar-f-twist i={i}", bracket(kbar[i], f[i], Q),
                     scale(-ONE, compose(fbar[i], qh_expr(n, (i, 1))))))
    commutators(("e-fbar-commutator", e, fbar, lambda i: kbar_shift(i, -1)),
                ("ebar-f-commutator", ebar, f, lambda i: kbar_shift(i, 1)))
    for i in range(1, n):
        commute(f"e-ebar-commute i={i}", e[i], ebar[i])
        commute(f"f-fbar-commute i={i}", f[i], fbar[i])
    for i in range(1, n - 1):
        rels.append((f"e-braid-odd i={i}", bracket(e[i], e[i + 1], Q),
                     bracket(ebar[i], ebar[i + 1], -Q)))
        rels.append((f"f-braid-odd i={i}",
                     scale(-ONE, bracket(f[i], f[i + 1], Q)),
                     bracket(fbar[i], fbar[i + 1], -Q)))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                rels.append((f"e-serre-odd i={i} j={j}",
                             serre(e[i], ebar[j]), zero))
                rels.append((f"f-serre-odd i={i} j={j}",
                             serre(f[i], fbar[j]), zero))
    return rels


def _identity_record(kind: str, instance: str, lhs, rhs, tensors) -> dict:
    """Record of lhs = rhs on every basis tensor, in order, by integer
    columns.  A failure's witness is the first differing tensor and the
    least differing basis tensor of its column difference, over RatFunc."""
    for t in tensors:
        left, right = lhs.once(t), rhs.once(t)
        if left != right:
            diff = ratfunc_vector(vec_sub(left, right))
            component = min(diff)
            return record(kind, instance, "fail", witness={
                "tensor": repr(t), "component": repr(component),
                "coefficient": repr(diff[component])})
    return record(kind, instance, "pass")


def verify_relations(n: int, N: int, which: str | None = None) -> dict:
    """Check the defining relations as operator identities on V^(x)N.

    ``which`` filters relation names by substring.  Each relation is taken
    off the catalogue before it is checked, so its cached columns are freed
    once the next one starts.
    """
    _check_rank_and_power(n, N)
    if which is not None and not isinstance(which, str):
        raise ValueError(f"which must be a string or None, got {which!r}")
    records = []
    tensors = basis(n, N)
    catalogue = relations_catalogue(n)
    catalogue.reverse()
    while catalogue:
        name, lhs, rhs = catalogue.pop()
        if which and which not in name:
            continue
        records.append(_identity_record("relation", f"n={n} N={N} {name}",
                                        lhs, rhs, tensors))
    return report(records, n=n, N=N)


# ---------------------------------------------------------------------------
# comultiplication of the odd Kashiwara operators


def _assemble_two_factor(terms, x, y) -> dict:
    """Evaluate sum of A (x) B on the basis tensor x (x) y."""
    px = parity(x)
    out = {}
    for a_expr, b_expr, b_parity in terms:
        sign = -1 if (b_parity and px) else 1
        for (tx, kx), cx in a_expr[x].items():
            for (ty, ky), cy in b_expr[y].items():
                vec_add(out, (tx + ty, kx + ky), sign * cx * cy)
    return out


def comult_formulas(n: int) -> list:
    """The three odd comultiplication identities as (name, lhs, rhs-terms),
    each term (A, B, parity of B) standing for A (x) B."""
    check_rank(n)
    if n < 2:
        raise ValueError(f"odd comultiplication needs rank >= 2, got {n}")
    ident = identity_expr()
    ktilde = ktilde1_expr(n)
    etilde = tilde_ebar1_expr(n)
    ftilde = tilde_fbar1_expr(n)
    q12 = qh_expr(n, (1, 1), (2, 1))
    return [
        ("ktilde1", ktilde, [
            (ktilde, qh_expr(n, (1, 2)), 0),
            (ident, ktilde, 1),
        ]),
        ("tilde-ebar1", etilde, [
            (etilde, q12, 0),
            (ident, etilde, 1),
            (scale(Q * Q - ONE, ktilde),
             compose(op(("e", 1)), qh_expr(n, (1, 2))), 0),
        ]),
        ("tilde-fbar1", ftilde, [
            (ftilde, q12, 0),
            (ident, ftilde, 1),
            (scale(Q - ONE / Q, ktilde), compose(op(("f", 1)), q12), 0),
        ]),
    ]


def verify_comult_odd(n: int) -> dict:
    """Odd operators on V (x) V match their comultiplication formulas."""
    records = []
    for name, whole_expr, terms in comult_formulas(n):
        # the right side as an operator: its column t = x + y is at x (x) y
        split = Operator(lambda t, terms=terms:
                         _assemble_two_factor(terms, t[:1], t[1:]))
        records.append(_identity_record("comultiplication", f"n={n} {name}",
                                        whole_expr, split, basis(n, 2)))
    return report(records, n=n)


# ---------------------------------------------------------------------------
# lattice stability and q -> 0 residues


def residue_check(n: int, N: int) -> dict:
    """Lattice stability and the q=0 shadow of the Kashiwara operators.

    For each word pattern b and operator: every coefficient of the image of
    the 2^N-dimensional pattern space l_b must be regular at q = 0, the
    residue must land in l_{op(b)} (or vanish when op(b) does), and when
    op(b) is present the residue map l_b -> l_{op(b)} must be invertible.
    ktilde_1 must preserve each l_b.  The nonzero residue maps must
    reproduce the arrows of the word crystal ``tensor_power_graph(n, N)``
    exactly.  Patterns come in ``all_words`` order, and each one's
    operators in the order e_1, f_1, ..., e_{n-1}, f_{n-1}, ebar1, fbar1.

    The residues of e_i and f_i are read once per block class and lifted
    (``kashiwara._lifted_residue``), without the per-key check of
    ``tilde_e`` and ``tilde_f``: the keys are lattice_basis(b), which
    lattice-dimension compares with the basis tensors of pattern b, so no
    check is dropped.  The odd operators and ktilde_1 are the public,
    checked ones, each image taken at q = 0 by ``residue_at_zero``.
    """
    _check_rank_and_power(n, N)
    records = []
    graph = tensor_power_graph(n, N)
    odd = {}  # the odd operators by name, where the rank has the odd label

    def at_zero(q_op):
        """The residue of the q-level operator q_op, tensor by tensor."""
        return lambda t: residue_at_zero(q_op(unit(t)))

    # per label its raising, then its lowering operator: the record key,
    # the residue per tensor, and the graph's arrows (an index, or -1)
    table = []
    for lab in all_labels(n):
        if lab == ODD:
            odd = {"ebar1": lambda v: tilde_ebar1(v, n),
                   "fbar1": lambda v: tilde_fbar1(v, n)}
            keys = ("ebar1",), ("fbar1",)
            residues = [at_zero(odd[name]) for (name,) in keys]
        else:
            keys = ("e", lab), ("f", lab)
            residues = [lambda t, i=lab, part=part:
                        _lifted_residue(i, t, n, part)
                        for part in ("raised", "lowered")]
        table += zip(keys, residues,
                     (graph.predecessors(lab), graph.successors(lab)))

    def residue_map(residue, src):
        """(columns over the target basis, pole witness or None), from
        residue(t), a (column, pole or None) pair per source tensor t."""
        cols = []
        for t in src:
            col, pole = residue(t)
            if pole is not None:
                return None, {"tensor": repr(t), "component": repr(pole[0]),
                              "coefficient": repr(pole[1])}
            cols.append(col)
        return cols, None

    # the basis tensors of each pattern, enumerated apart from lattice_basis
    tensors = basis(n, N)
    spans = {}
    for t in tensors:
        spans.setdefault(pattern(t), set()).add(t)
    residue_edges = set()
    for b in all_words(n, N):
        src = lattice_basis(b)
        instance = f"n={n} N={N} b={list(b)}"
        ok = set(src) == spans[b]
        records.append(check("lattice-dimension", instance, ok))
        if not ok:
            continue  # maps on a wrong pattern space mean nothing
        k = graph.node_index[b]
        for op_key, residue, arrows in table:
            at = f"{instance} op={'-'.join(str(x) for x in op_key)}"
            cols, pole = residue_map(residue, src)
            records.append(check("lattice-stability", at, pole is None, pole))
            if pole is not None:
                continue
            support = {pattern(t) for col in cols for t in col}
            if arrows[k] < 0:
                records.append(check("residue-vanishes", at, not support,
                                     {"support": [list(p) for p in support]}))
                continue
            expected = graph.nodes[arrows[k]]
            ok = support == {expected}
            records.append(check("residue-target", at, ok,
                                 {"support": [list(p) for p in support],
                                  "expected": list(expected)}))
            if ok:
                residue_edges.add((b, op_key, expected))
                dst = {t: k for k, t in enumerate(lattice_basis(expected))}
                rank = len(_rref(_rows(cols, dst))[1])
                records.append(check("residue-isomorphism", at,
                                     rank == 2 ** N,
                                     {"rank": rank, "expected": 2 ** N}))
        # ktilde_1 preserves each pattern space
        cols, pole = residue_map(at_zero(lambda v: tilde_k1(v, n)), src)
        if pole is not None:
            records.append(record("ktilde1-lattice", instance, "fail",
                                  witness=pole))
        else:
            support = {pattern(t) for col in cols for t in col}
            records.append(check("ktilde1-preserves", instance, support <= {b},
                                 {"support": [list(p) for p in support]}))
    # residue arrows = combinatorial arrows
    comb_edges = {(graph.nodes[s], op_key, graph.nodes[d])
                  for op_key, _, arrows in table
                  for s, d in enumerate(arrows) if d >= 0}
    records.append(check(
        "residue-graph-equality", f"n={n} N={N}", residue_edges == comb_edges,
        {"missing": sorted(map(repr, comb_edges - residue_edges)),
         "extra": sorted(map(repr, residue_edges - comb_edges))}))
    # nilpotence of the odd operators on L/qL: a pole, else the first
    # nonzero residue, is the witness
    for name, fn in odd.items():
        cols, witness = residue_map(at_zero(lambda v: fn(fn(v))), tensors)
        if witness is None:
            witness = next(
                ({"tensor": repr(t), "component": repr(t2),
                  "value": str(value)}
                 for t, col in zip(tensors, cols)
                 for t2, value in col.items()), None)
        records.append(check(f"tilde-{name}-squared-zero", f"n={n} N={N}",
                             witness is None, witness))
    return report(records, n=n, N=N)
