"""q-level Kashiwara operators: strings, divided powers, odd operators."""

import pytest

from queercrystals.qrep import kashiwara
from queercrystals.qrep.action import (Operator, act_prim, basis,
                                       ratfunc_vector, tensor_weight, unit,
                                       vec_scale, vec_sum)
from queercrystals.qrep.kashiwara import (apply_f_power,
                                          kernel_on_weight_space,
                                          solve_in_span,
                                          string_decomposition, tilde_e,
                                          tilde_ebar1, tilde_f, tilde_fbar1,
                                          tilde_k1)
from queercrystals.qrep.laurent import ONE, Q, ZERO, RatFunc


def v(*symbols):
    return tuple((abs(j), 1 if j < 0 else 0) for j in symbols)


def test_examples_on_v():
    n = 3
    assert tilde_f(1, unit(v(1)), n) == unit(v(2))
    assert tilde_e(1, unit(v(2)), n) == unit(v(1))
    assert tilde_k1(unit(v(1)), n) == unit(v(-1))
    assert tilde_k1(unit(v(-1)), n) == unit(v(1))
    assert tilde_k1(unit(v(2)), n) == {}
    assert tilde_fbar1(unit(v(1)), n) == unit(v(-2))
    assert tilde_fbar1(unit(v(-1)), n) == unit(v(2))
    assert tilde_ebar1(unit(v(2)), n) == unit(v(-1))
    assert tilde_ebar1(unit(v(-2)), n) == unit(v(1))


def _recompose(decomposition, i, shift):
    """sum_k f_i^(k + shift) u_k over the levels with k + shift >= 0."""
    out = {}
    for k, u_k in decomposition:
        if k + shift >= 0:
            out = vec_sum(out, apply_f_power(u_k, i, k + shift))
    return out


def _check_string_decomposition(vec, i, n):
    """Recompose with apply_f_power, independently of the cached images."""
    decomposition = string_decomposition(vec, i, n)
    assert _recompose(decomposition, i, 0) == vec
    for k, u_k in decomposition:
        assert u_k and act_prim(("e", i), u_k) == {}
    assert tilde_e(i, vec, n) == _recompose(decomposition, i, -1)
    assert tilde_f(i, vec, n) == _recompose(decomposition, i, 1)


def test_string_decomposition_reconstructs_every_basis_tensor():
    # each class is verified once, by C . (D C^-1) = D I on every class
    # tensor; this recomposes each decomposition separately
    for n, N in ((2, 1), (2, 2), (3, 2), (2, 3)):
        for t in basis(n, N):
            for i in range(1, n):
                _check_string_decomposition(unit(t), i, n)


def weight_space_oracle(n, N):
    """By (i, basis tensor t) of V^(x)N: t's string decomposition and its
    images under tilde_e and tilde_f, from one full solve per (i, weight
    space): the string tops of ker e_i in every weight space whose strings
    pass through t's, and their images f_i^(k) w solved for t."""
    spaces = {}
    for t in basis(n, N):
        spaces.setdefault(tensor_weight(t, n), []).append(t)
    out = {}
    for i in range(1, n):
        for mu, tensors in spaces.items():
            levels = []
            for k in range(mu[i] + 1):
                wt = list(mu)
                wt[i - 1] += k
                wt[i] -= k
                if wt[i - 1] - wt[i] >= k and tuple(wt) in spaces:
                    levels += [(k, w) for w in kernel_on_weight_space(
                        i, spaces[tuple(wt)], n)]
            columns = solve_in_span(
                [apply_f_power(w, i, k) for k, w in levels],
                [unit(t) for t in tensors],
                {t: r for r, t in enumerate(tensors)})
            for t, column in zip(tensors, columns):
                by_level = {}
                for (k, w), c in zip(levels, column):
                    by_level[k] = vec_sum(by_level.get(k, {}),
                                          vec_scale(c, w))
                pairs = sorted((k, u) for k, u in by_level.items() if u)
                out[i, t] = (pairs, _recompose(pairs, i, -1),
                             _recompose(pairs, i, 1))
    return out


def test_the_block_classes_equal_the_full_weight_space_solve():
    for n, N in ((2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)):
        for (i, t), expected in weight_space_oracle(n, N).items():
            got = (string_decomposition(unit(t), i, n),
                   tilde_e(i, unit(t), n), tilde_f(i, unit(t), n))
            assert got == expected, (n, N, i, t)


def test_operators_are_linear_on_a_weight_space():
    n = 2
    coeffs = {v(1, 1, 2): Q, v(-1, 2, 1): ONE + Q * Q,
              v(2, -1, -1): (Q - ONE) / (Q + 2 * ONE), v(1, -2, 1): -ONE / Q}
    _check_string_decomposition(coeffs, 1, n)
    for op in (tilde_e, tilde_f):
        expected = {}
        for t, c in coeffs.items():
            expected = vec_sum(expected, vec_scale(c, op(1, unit(t), n)))
        assert op(1, coeffs, n) == expected


def test_multi_key_vectors_at_i_2_with_barred_spectators():
    """At i = 2 every key's letters 1 are barred spectators, in varying
    places, so one vector's keys lie in several modules of one class and
    each key's column is lifted past them.  A sum over a whole weight
    space and each string top of ker e_2 there (whose other levels sum
    to zero) must decompose, recompose and shift exactly."""
    n, i = 3, 2
    scalars = [Q, ONE + Q * Q, (Q - ONE) / (Q + 2 * ONE), -ONE / Q,
               2 * ONE, Q * Q * Q - ONE]
    tops = 0
    for mu in ((1, 1, 1), (1, 2, 0), (1, 0, 2), (2, 1, 0), (2, 0, 1)):
        tensors = [t for t in basis(n, 3) if tensor_weight(t, n) == mu
                   and all(s for j, s in t if j == 1)]
        whole = {t: scalars[k % len(scalars)]
                 for k, t in enumerate(tensors)}
        assert len(whole) > 1
        _check_string_decomposition(whole, i, n)
        for top in kernel_on_weight_space(i, tensors, n):
            if len(top) > 1:
                tops += 1
                _check_string_decomposition(top, i, n)
                assert string_decomposition(top, i, n) == [(0, top)]
    assert tops


def test_solve_in_span_rejects_singular_systems():
    a, b = v(1, 2), v(2, 1)
    index = {a: 0, b: 1}
    with pytest.raises(ArithmeticError, match="dependent"):
        solve_in_span([unit(a), vec_scale(Q, unit(a))], [unit(a)], index)
    with pytest.raises(ArithmeticError, match="outside"):
        solve_in_span([unit(a)], [unit(b)], index)
    assert solve_in_span([unit(a), vec_sum(unit(a), unit(b))],
                         [unit(a), unit(b)], index) == [[ONE, ZERO],
                                                        [-ONE, ONE]]


def test_rref_pivots_build_no_new_one(monkeypatch):
    """1 / pivot is the reciprocal of the pivot's normal form: no RatFunc
    1 is constructed for it, and constant rows reduce to integer ones."""
    ones = []
    init = RatFunc.__init__

    def counting_init(self, num, den=(1,)):
        if tuple(num) == (1,) and tuple(den) == (1,):
            ones.append(num)
        init(self, num, den)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    rows, pivots = kashiwara._rref([[Q, ONE, ONE], [ONE, Q, ZERO]])
    monkeypatch.undo()
    det = Q * Q - ONE
    assert ones == []
    assert pivots == [0, 1]
    assert rows == [[ONE, ZERO, Q / det], [ZERO, ONE, -ONE / det]]
    two, three = RatFunc.from_int(2), RatFunc.from_int(3)
    assert kashiwara._rref([[two, ONE], [ZERO, three]]) == (
        [[1, 0], [0, 1]], [0, 1])


@pytest.fixture
def fresh_string_bases():
    caches = (kashiwara._tops, kashiwara._string_basis)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_dependent_string_tops_raise(monkeypatch, fresh_string_bases):
    """Each top listed twice makes C wider than square; C . (D C^-1) then
    has the trace D times the number of tops, so it is not D I."""
    tops = kashiwara._tops
    monkeypatch.setattr(kashiwara, "_tops", lambda m: {
        lam: 2 * ws for lam, ws in tops(m).items()})
    with pytest.raises(ArithmeticError, match="reconstruct"):
        tilde_f(1, unit(v(1, 2)), 2)


def test_a_top_outside_the_kernel_is_refused(monkeypatch,
                                             fresh_string_bases):
    """[2] taken as the integer 2 builds a top of V^(x)3 that e_1 does
    not kill."""
    monkeypatch.setattr(kashiwara, "gauss_int", RatFunc.from_int)
    with pytest.raises(ArithmeticError, match="not in ker e_1"):
        tilde_f(1, unit(v(1, 1, 2)), 2)


def test_a_wrong_inverse_fails_resubstitution(monkeypatch, fresh_string_bases):
    """Norms off by their own lowest term give a D C^-1 that is no
    inverse of C."""
    norm = kashiwara._norm

    def off(vec):
        lo, p = norm(vec)
        return lo, (2 * p[0],) + p[1:]

    monkeypatch.setattr(kashiwara, "_norm", off)
    with pytest.raises(ArithmeticError, match="reconstruct"):
        tilde_e(1, unit(v(2, 1)), 2)


def class_oracle(m, a):
    """The class (m, a) solved over RatFunc as (levels, raised, lowered),
    each column's keys sorted: the string tops of ker e_1 by
    kernel_on_weight_space, their images f_1^(k) w by apply_f_power and
    C^-1 by solve_in_span."""
    tensors = kashiwara._class_tensors(m, a)
    tops = [(k, w) for k in range(m - a + 1) if 2 * (a + k) - m >= k
            for w in kernel_on_weight_space(
                1, kashiwara._class_tensors(m, a + k), 2)]
    inverse = solve_in_span([apply_f_power(w, 1, k) for k, w in tops],
                            [unit(t) for t in tensors],
                            {t: r for r, t in enumerate(tensors)})

    def table(vectors):
        return {t: dict(sorted(vec_sum(*(vec_scale(c, x) for c, x in
                                         zip(col, vectors))).items()))
                for t, col in zip(tensors, inverse)}
    levels = {k: table([w if top_k == k else {} for top_k, w in tops])
              for k in dict.fromkeys(k for k, _ in tops)}
    return (levels,
            table([apply_f_power(w, 1, k - 1) if k else {} for k, w in tops]),
            table([apply_f_power(w, 1, k + 1) for k, w in tops]))


def in_order(table):
    """A residue table with the order of every dict in it, as lists."""
    return [(t, residue and list(residue.items()), pole)
            for t, (residue, pole) in table.items()]


def ratfunc_view(basis):
    """The class's (levels, raised, lowered) tables over RatFunc: each
    numerator as a vector {class tensor: RatFunc} times 1 / D."""
    inverse = ONE / RatFunc.laurent(0, basis.denominator)

    def view(table):
        return {t: vec_scale(inverse, ratfunc_vector(col))
                for t, col in table.items()}
    return ({k: view(table) for k, table in basis.levels.items()},
            view(basis.raised), view(basis.lowered))


@pytest.mark.parametrize("m", range(1, 6))
def test_every_class_equals_the_ratfunc_oracle(m):
    """The RatFunc view of each class with m <= 5, its numerators over
    D, equals the oracle solve, and its residues at q = 0, read off the
    numerators, equal residue_at_zero of the oracle's columns, in the
    same key order."""
    for a in range(m + 1):
        levels, raised, lowered = class_oracle(m, a)
        basis = kashiwara._string_basis(m, a)
        assert ratfunc_view(basis) == (levels, raised, lowered), (m, a)
        for at_zero, oracle in ((basis.raised_at_zero, raised),
                                (basis.lowered_at_zero, lowered)):
            expected = {t: kashiwara.residue_at_zero(col)
                        for t, col in oracle.items()}
            assert in_order(at_zero) == in_order(expected), (m, a)


def test_a_numerator_is_read_at_q_to_the_v():
    """Over D = q^2 (-2 + q), v = 2: an entry is regular at q = 0 just
    when its numerator has no term below q^2, and its value there is its
    q^2 coefficient over D_0(0) = -2, sign included; a value 0 is
    dropped.  A term below q^2 is a pole, named with its RatFunc."""
    d = (0, 0, -2, 1)
    a, b, c = v(1, 2), v(2, 1), v(2, 2)
    column = {(a, 2): 4, (a, 5): 1, (b, 3): 7, (c, 2): -1, (c, 4): 3}
    assert in_order({0: kashiwara._numerator_at_zero(column, d)}) == [
        (0, [(a, -2), (c, RatFunc((1,), (2,)))], None)]
    column = {(a, 2): 4, (b, 1): 3, (b, 2): 1, (c, 0): 1}
    assert kashiwara._numerator_at_zero(column, d) == (
        None, (b, (3 * ONE + Q) / (Q * (Q - 2 * ONE))))


@pytest.fixture
def fresh_blocks():
    kashiwara._blocks.cache_clear()
    yield
    kashiwara._blocks.cache_clear()


def residue_of(i, vec, n):
    """The lifted class residue of tilde_e on the one key of vec."""
    (t,) = vec
    return kashiwara._lifted_residue(i, t, n, "raised")


def after_a_clean_key(i, vec, n):
    """tilde_f on vec after a first key of its weight whose module has no
    barred spectator."""
    return tilde_f(i, {v(1, 3): ONE, **vec}, n)


@pytest.mark.parametrize("kind, operator, key", [
    ("e", tilde_e, v(2, -3)), ("f", tilde_f, v(1, -3)),
    ("e", residue_of, v(2, -3)), ("f", after_a_clean_key, v(1, -3))])
def test_a_column_that_reads_a_spectator_bar_is_refused(
        monkeypatch, fresh_blocks, kind, operator, key):
    """e_1 or f_1 changing sign on a barred spectator letter 3 is no lift
    of its class column, so the block lift must refuse it, on the
    operators' path, for every key's module and not only the first
    key's, and on the residue path."""
    real = kashiwara.op

    def patched(sym):
        column = real(sym)
        if sym != (kind, 1):
            return column
        return Operator(lambda t: {x: -c for x, c in column[t].items()}
                        if any(j > 2 and s for j, s in t) else column[t])

    monkeypatch.setattr(kashiwara, "op", patched)
    with pytest.raises(ArithmeticError, match="not the lift"):
        operator(1, unit(key), 3)


def test_the_lifted_class_residues_equal_the_operators_at_zero():
    """On every basis tensor and index, the residue read from the class
    and lifted is tilde_e's or tilde_f's image at q = 0, zeros dropped."""
    for n, N in ((2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        for t in basis(n, N):
            for i in range(1, n):
                for part, operator in (("raised", tilde_e),
                                       ("lowered", tilde_f)):
                    image = operator(i, unit(t), n)
                    expected = {t2: c.at_zero() for t2, c in image.items()
                                if c.at_zero()}
                    assert kashiwara._lifted_residue(i, t, n, part) == (
                        expected, None), (n, N, i, t, part)


def test_a_polar_class_column_lifts_its_pole(monkeypatch):
    """A pole in a raised column of the class (2, 1) is found at its first
    polar entry and named as the lifted tensor at i = 2: the letters 1, 2
    shifted to 2, 3, each active factor's own bar and the spectator
    factor kept in place."""
    real = kashiwara._string_basis
    column = {v(2, 1): Q, v(1, 2): ONE / Q}

    def polar(m, a):
        basis = real(m, a)
        if (m, a) != (2, 1):
            return basis
        return basis._replace(raised_at_zero={
            c: kashiwara.residue_at_zero(column) for c in basis.raised})

    monkeypatch.setattr(kashiwara, "_string_basis", polar)
    assert kashiwara._lifted_residue(2, v(-1, 3, -2), 3, "raised") == (
        None, (v(-1, 2, -3), ONE / Q))
    assert kashiwara._lifted_residue(2, v(3, 1, 2), 3, "raised") == (
        None, (v(2, 1, 3), ONE / Q))


@pytest.mark.parametrize("call, bad", [
    (lambda: tilde_f(2, unit(v(1, 2)), 2), "index 2"),
    (lambda: tilde_f(1, unit(v(1)), 1), "index 1"),
    (lambda: tilde_f(0, unit(v(1)), 2), "index 0"),
    (lambda: tilde_e(True, unit(v(2)), 2), "index True"),
    (lambda: tilde_e(1.0, unit(v(2)), 2), "index 1.0"),
    (lambda: string_decomposition(unit(v(1)), 5, 2), "index 5"),
    (lambda: tilde_e(1, {}, 1), "index 1"),
    (lambda: tilde_ebar1(unit(v(1)), 1), "index 1"),
    (lambda: tilde_fbar1(unit(v(1)), 1), "index 1"),
    (lambda: tilde_e(1, unit(v(2)), 256), "rank"),
    (lambda: tilde_k1(unit(v(1)), 0), "rank"),
    (lambda: tilde_k1(unit(v(1)), True), "rank"),
    (lambda: tilde_fbar1(unit(v(1)), 2.0), "rank"),
    (lambda: tilde_f(1, unit(v(3)), 2), repr(v(3))),
    (lambda: string_decomposition(unit(v(1, 3)), 1, 2), repr(v(1, 3))),
    (lambda: tilde_fbar1(unit(v(3)), 2), repr(v(3))),
    (lambda: tilde_ebar1(unit(((2, 2),)), 2), repr(((2, 2),))),
    (lambda: tilde_k1(unit(((1, 0, 0),)), 2), repr(((1, 0, 0),))),
    (lambda: tilde_e(1, {1: ONE}, 2), "1 is not a basis tensor"),
    (lambda: tilde_k1({(): ONE}, 2), "() is not a basis tensor"),
])
def test_the_kashiwara_operators_refuse_a_bad_argument(call, bad):
    """A bad rank, index or key is refused by name, with a ValueError; an
    index of True is refused even after 1 filled the caches."""
    tilde_e(1, unit(v(2)), 2)
    with pytest.raises(ValueError) as info:
        call()
    assert bad in str(info.value)


@pytest.mark.parametrize("first, call", [
    (lambda: tilde_k1(unit(((1, 0),)), 2),
     lambda: tilde_k1(unit(((1.0, 0),)), 2)),
    (lambda: tilde_e(1, unit(((2, 0),)), 2),
     lambda: tilde_e(1, unit(((2.0, 0),)), 2)),
], ids=["tilde_k1", "tilde_e"])
def test_a_key_equal_to_a_cached_one_is_still_refused(first, call):
    """The caches compare keys by equality, so (1.0, 0) would find the
    column of (1, 0); every key is checked on every call, before them."""
    first()
    with pytest.raises(ValueError, match="not a basis tensor"):
        call()


def test_the_odd_weight_is_refused_above_the_rank():
    """tilde_fbar1 carries q^{k_2}, which rank 1 does not have."""
    with pytest.raises(ValueError, match="k_2 is not a weight at rank 1"):
        kashiwara.tilde_fbar1_expr(1)


def test_divided_powers():
    n = 2
    u = unit(v(1, 1))
    f2 = apply_f_power(u, 1, 2)
    # f^2 (v1 x v1) = [2] (v2 x v2) before division, so f^(2) is exact
    assert f2 == {v(2, 2): ONE}
    assert apply_f_power(u, 1, 3) == {}


def test_even_operators_on_a_two_fold_tensor():
    n = 2
    u = unit(v(1, 1))
    down = tilde_f(1, u, n)
    # f-tilde of the string top is just f
    assert down == {v(2, 1): ONE, v(1, 2): Q}
    # and e-tilde undoes it
    assert tilde_e(1, down, n) == u


def test_rejects_non_weight_vectors():
    n = 2
    mixed = vec_sum(unit(v(1)), unit(v(2)))
    for fn in (lambda: string_decomposition(mixed, 1, n),
               lambda: tilde_e(1, mixed, n), lambda: tilde_f(1, mixed, n)):
        with pytest.raises(ValueError):
            fn()
    # the zero vector has no weight either, and maps to zero
    assert string_decomposition({}, 1, n) == []
    assert tilde_e(1, {}, n) == {} and tilde_f(1, {}, n) == {}


def test_odd_nilpotence_is_exact_only_at_q_zero():
    # the square of the odd operators need not vanish identically,
    # but must vanish after taking residues; see the residue checks
    n = 2
    t = unit(v(1, 1))
    sq = tilde_fbar1(tilde_fbar1(t, n), n)
    for c in sq.values():
        assert c.is_regular_at_zero()
        assert c.at_zero() == 0
