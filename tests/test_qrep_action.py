"""Generator action on V and tensor powers: tables, signs, weights."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queercrystals.qrep.action import (Operator, _act_prim_tensor,
                                       act_on_tensor, act_prim, basis,
                                       bracket, compose, generator_expr, op,
                                       scale, tensor_weight, unit, vec_add,
                                       vec_scale, vec_sub, vec_sum)
from queercrystals.qrep.laurent import ONE, Q, ZERO, RatFunc


def v(*symbols):
    """v(1, -2) = v_1 (x) vbar_2."""
    return tuple((abs(j), 1 if j < 0 else 0) for j in symbols)


def test_action_table_on_v():
    """The defining action on the vector representation, symbol by symbol."""
    n = 3
    cases = [
        (("e", 1), v(2), {v(1): ONE}),
        (("e", 1), v(-2), {v(-1): ONE}),
        (("e", 1), v(1), {}),
        (("f", 1), v(1), {v(2): ONE}),
        (("f", 1), v(-1), {v(-2): ONE}),
        (("f", 2), v(3), {}),
        (("ebar", 1), v(2), {v(-1): ONE}),
        (("ebar", 1), v(-2), {v(1): ONE}),
        (("fbar", 1), v(1), {v(-2): ONE}),
        (("fbar", 1), v(-1), {v(2): ONE}),
        (("fbar", 2), v(2), {v(-3): ONE}),
        (("fbar", 2), v(-2), {v(3): ONE}),
        (("kbar", 1), v(1), {v(-1): ONE}),
        (("kbar", 1), v(-1), {v(1): ONE}),
        (("kbar", 1), v(2), {}),
        (("kbar", 2), v(2), {v(-2): ONE}),
        (("kbar", 2), v(-2), {v(2): ONE}),
        (("kbar", 3), v(3), {v(-3): ONE}),
        (("kbar", 3), v(1), {}),
        (("qh", (1, 0, 0)), v(1), {v(1): Q}),
        (("qh", (1, 0, 0)), v(-1), {v(-1): Q}),
        (("qh", (2, 1, 0)), v(2), {v(2): Q}),
    ]
    for g, t, expected in cases:
        assert act_on_tensor(g, unit(t), n) == expected, (g, t)
    with pytest.raises(ValueError, match="unknown symbol"):
        act_prim(("kbar", 2), unit(v(2)))
    with pytest.raises(ValueError, match="unknown generator"):
        act_on_tensor(("k", 1), unit(v(1)), n)


@pytest.mark.parametrize("g", [
    ("e", 0), ("f", 3), ("ebar", 3), ("fbar", 0), ("kbar", 0), ("kbar", 4),
    ("kbar", True), ("e", 1.0), ("qh", (1, 0)), ("qh", (1, 0, 0, 0)),
    ("qh", (1.0, 0, 0)), ("k", 1), ("kbar",), "e"])
def test_a_symbol_outside_the_table_is_refused(g):
    """At rank 3 the table holds e_i, f_i, ebar_i, fbar_i for i = 1, 2 and
    kbar_j for j = 1..3 with int indices; q^h takes three int entries."""
    for call in (lambda: generator_expr(g, 3),
                 lambda: act_on_tensor(g, unit(v(1)), 3)):
        with pytest.raises(ValueError, match="unknown generator") as info:
            call()
        assert repr(g) in str(info.value)


@pytest.mark.parametrize("sym", [
    ("e", 0), ("f", -1), ("e", 1.0), ("kbar", True), ("kbar", 2),
    ("qh", (1.0, 0)), ("qh", [1, 0]), ("ebar", 1), ("e",), "e"])
def test_op_refuses_a_primitive_symbol_it_has_no_formula_for(sym):
    """A primitive index is a positive int and kbar_1 is the one odd
    primitive: ("e", 0) used to write a letter 0, ("f", -1) to return {}
    and ("kbar", True) to act as kbar_1."""
    for call in (lambda: op(sym), lambda: act_prim(sym, unit(v(1)))):
        with pytest.raises(ValueError, match="unknown symbol") as info:
            call()
        assert repr(sym) in str(info.value)


@pytest.mark.parametrize("g, key", [
    (("e", 1), v(2, 7)),          # a letter above n
    (("qh", (1, 0, 0)), v(7)),    # q^h reads the letter's exponent
    (("kbar", 1), ((1, 2),)),     # a bar that is neither 0 nor 1
    (("f", 1), ((1.0, 0),)),      # a letter that is not an int
    (("f", 1), ()),               # a tensor of no factors
    (("f", 1), 1),                # a key that is not a tuple
])
def test_act_on_tensor_refuses_a_key_that_is_not_a_basis_tensor(g, key):
    with pytest.raises(ValueError, match="not a basis tensor"):
        act_on_tensor(g, {key: ONE}, 3)


def test_act_on_tensor_refuses_keys_of_two_lengths():
    with pytest.raises(ValueError, match="not a basis tensor"):
        act_on_tensor(("f", 1), {v(1): ONE, v(1, 1): ONE}, 3)


def test_full_action_table_is_weight_homogeneous():
    n = 3
    shifts = {"e": +1, "f": -1, "ebar": +1, "fbar": -1, "kbar": 0}
    for t in basis(n, 1):
        for kind, idx in [("e", 1), ("e", 2), ("f", 1), ("f", 2),
                          ("ebar", 1), ("ebar", 2), ("fbar", 1), ("fbar", 2),
                          ("kbar", 1), ("kbar", 2), ("kbar", 3)]:
            img = act_on_tensor((kind, idx), unit(t), n)
            for t2 in img:
                delta = [a - b for a, b in zip(tensor_weight(t2, n),
                                               tensor_weight(t, n))]
                expect = [0] * n
                if shifts[kind]:
                    expect[idx - 1] = shifts[kind]
                    expect[idx] = -shifts[kind]
                assert delta == expect


def test_tensor_action_examples():
    n = 3
    # e_1 (v_2 (x) v_2) = q v_1 (x) v_2 + v_2 (x) v_1
    img = act_on_tensor(("e", 1), unit(v(2, 2)), n)
    assert img == {v(1, 2): Q, v(2, 1): ONE}
    # q^{k_1} (v_1 (x) vbar_1) = q^2 (...)
    img = act_on_tensor(("qh", (1, 0, 0)), unit(v(1, -1)), n)
    assert img == {v(1, -1): Q * Q}
    # kbar_1 (v_1 (x) v_2): the second summand of the coproduct dies on v_2
    img = act_on_tensor(("kbar", 1), unit(v(1, 2)), n)
    assert img == {v(-1, 2): ONE}


def test_three_factor_coproduct_examples():
    """Hand-computed images on N = 3 from the two-factor coproduct, iterated."""
    n = 3
    qinv = ONE / Q
    # e_1 on factor p takes q^{-k_1 + k_2} from each factor right of p
    img = act_on_tensor(("e", 1), unit(v(2, 2, 1)), n)
    assert img == {v(1, 2, 1): ONE, v(2, 1, 1): qinv}
    img = act_on_tensor(("e", 1), unit(v(-2, 2, 1)), n)
    assert img == {v(-1, 2, 1): ONE, v(-2, 1, 1): qinv}
    # f_1 on factor p takes q^{k_1 - k_2} from each factor left of p
    img = act_on_tensor(("f", 1), unit(v(1, 1, 2)), n)
    assert img == {v(2, 1, 2): ONE, v(1, 2, 2): Q}
    img = act_on_tensor(("f", 1), unit(v(-1, 1, 1)), n)
    assert img == {v(-2, 1, 1): ONE, v(-1, 2, 1): Q, v(-1, 1, 2): Q * Q}
    # kbar_1 on factor p: q^{k_1} from the right, q^{-k_1} from the left,
    # and a sign for the odd vbar_1 it passes on the left
    img = act_on_tensor(("kbar", 1), unit(v(-1, 1, 1)), n)
    assert img == {v(1, 1, 1): Q * Q, v(-1, -1, 1): -ONE,
                   v(-1, 1, -1): -qinv * qinv}
    img = act_on_tensor(("kbar", 1), unit(v(2, -1, 1)), n)
    assert img == {v(2, 1, 1): Q, v(2, -1, -1): -qinv}


def test_super_sign_in_the_coproduct():
    """kbar_1 through an odd first factor picks up the sign."""
    n = 2
    img = act_on_tensor(("kbar", 1), unit(v(-2, 1)), n)
    # first term: kbar_1 v_2 = 0; second: -q^{-k_1}vbar_2 (x) kbar_1 v_1
    assert img == {v(-2, -1): -ONE}
    img = act_on_tensor(("kbar", 1), unit(v(2, 1)), n)
    assert img == {v(2, -1): ONE}


def test_anticommutator_of_distinct_kbars_vanishes_on_tensors():
    n = 3
    for t in basis(n, 2):
        ab = act_on_tensor(("kbar", 1), act_on_tensor(("kbar", 2),
                                                      unit(t), n), n)
        ba = act_on_tensor(("kbar", 2), act_on_tensor(("kbar", 1),
                                                      unit(t), n), n)
        total = dict(ab)
        for key, c in ba.items():
            cur = total.get(key, RatFunc(()))
            s = cur + c
            if s:
                total[key] = s
            else:
                total.pop(key, None)
        assert total == {}


def test_identity_of_weight_zero_qh():
    n = 2
    for t in basis(n, 2):
        assert act_on_tensor(("qh", (0, 0)), unit(t), n) == unit(t)


def test_vec_sub_strips_zeros():
    a = {v(1): ONE}
    assert vec_sub(a, a) == {}
    assert vec_scale(ZERO, a) == {}


def _signed_q_power(sign, k):
    """sign * q^k through the general constructor."""
    if k >= 0:
        return RatFunc((0,) * k + (sign,))
    return RatFunc((sign,), (0,) * -k + (1,))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_ratfunc_view_equals_the_integer_rule(n):
    """Every primitive symbol on every basis tensor of V^(x)N, N <= 3: the
    rule's integer column holds distinct tensors, each with a sign, and
    the RatFunc view of ``op(sym)`` holds each tensor times
    sign * q^exponent."""
    symbols = [("kbar", 1), ("qh", tuple(range(1, n + 1))),
               ("qh", tuple(-j for j in range(n)))]
    symbols += [(kind, i) for i in range(1, n) for kind in ("e", "f")]
    for N in (1, 2, 3):
        for t in basis(n, N):
            for sym in symbols:
                column = _act_prim_tensor(sym, t)
                assert len({t2 for t2, _ in column}) == len(column)
                assert all(sign in (1, -1) for sign in column.values())
                assert op(sym).view(t) == {
                    t2: _signed_q_power(sign, k)
                    for (t2, k), sign in column.items()}


@pytest.mark.parametrize("c", [ONE / (Q - ONE / Q), ONE / (Q * Q + ONE),
                               RatFunc((1,), (2,)), RatFunc((0, 1), (0, 3))])
def test_scale_refuses_a_scalar_that_is_not_a_laurent_polynomial(c):
    """Operators are evaluated over Z[q, q^-1]: 1/(q - q^-1), 1/(q^2 + 1),
    1/2 and q/(3q) have no integer Laurent column."""
    with pytest.raises(ValueError, match="not a Laurent polynomial"):
        scale(c, op(("e", 1)))


TENSORS = basis(2, 1)
columns = st.dictionaries(
    st.tuples(st.sampled_from(TENSORS), st.integers(-3, 3)),
    st.integers(-4, 4).filter(bool), max_size=4)
operators = st.fixed_dictionaries({t: columns for t in TENSORS})
laurents = st.builds(RatFunc.laurent, st.integers(-2, 2),
                     st.lists(st.integers(-2, 2), max_size=3))


def ratfunc_compose(a, vec: dict) -> dict:
    """The operator a on a RatFunc vector, column views times coefficients,
    as operators were composed on the fraction field."""
    out = {}
    for t, c in vec.items():
        for t2, x in a.view(t).items():
            vec_add(out, t2, c * x)
    return out


@settings(max_examples=200, deadline=None)
@given(operators, operators, laurents)
def test_integer_composition_equals_the_ratfunc_composition(a, b, c):
    """compose, bracket and scale on random sparse integer columns equal,
    in their RatFunc views, the composition over RatFunc: a b and
    a b - c b a applied column by column to the views."""
    a, b = Operator(a.__getitem__), Operator(b.__getitem__)
    ab, ba = compose(a, b), compose(b, a)
    for t in TENSORS:
        assert ab.view(t) == ratfunc_compose(a, b.view(t))
        assert bracket(a, b, c).view(t) == vec_sum(
            ratfunc_compose(a, b.view(t)),
            vec_scale(-c, ratfunc_compose(b, a.view(t))))
        assert scale(c, a).view(t) == vec_scale(c, a.view(t))
        assert compose(ab, a).view(t) == ratfunc_compose(ab, a.view(t))
        assert ba.view(t) == ratfunc_compose(b, a.view(t))
