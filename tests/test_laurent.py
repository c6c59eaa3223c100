"""Exact rational-function arithmetic in q."""

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queercrystals.qrep.laurent import (ONE, Q, ZERO, RatFunc, gauss_factorial,
                                        gauss_int, pdiv_exact, pgcd, pmul,
                                        pneg, pnorm)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0,
                  max_size=5)


def nonzero_poly(draw_result):
    return pnorm(draw_result) or (1,)


@st.composite
def ratfuncs(draw, allow_zero=True):
    num = pnorm(draw(coeffs))
    den = nonzero_poly(draw(coeffs))
    if not allow_zero and not num:
        num = (1,)
    return RatFunc(num, den)


@st.composite
def poly_pairs(draw):
    """(num, den) with a common factor half of the time, den nonzero."""
    num = pnorm(draw(coeffs))
    den = nonzero_poly(draw(coeffs))
    if draw(st.booleans()):
        common = nonzero_poly(draw(coeffs))
        num, den = pmul(num, common), pmul(den, common)
    return num, den


@st.composite
def monomial_den_pairs(draw):
    """(num, c*q^k) with c != 0 and k >= 0; num shares a power of q and an
    integer factor with the denominator half of the time."""
    num = pnorm(draw(coeffs))
    c = draw(st.integers(min_value=-12, max_value=12).filter(bool))
    k = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        shift = draw(st.integers(min_value=0, max_value=6))
        factor = draw(st.integers(min_value=-6, max_value=6).filter(bool))
        num = pmul(num, (0,) * shift + (factor,))
    return num, (0,) * k + (c,)


_q = sympy.Symbol("q")


def _to_sympy(a):
    return sympy.Poly(list(reversed(a)) or [0], _q, domain="ZZ")


def _from_sympy(p):
    return pnorm(int(c) for c in reversed(p.all_coeffs()))


def _sympy_normal_form(num, den) -> tuple:
    """(num, den) cancelled by sympy: content and primitive gcd divided
    out, denominator with a positive leading coefficient."""
    n, d = _to_sympy(num), _to_sympy(den)
    g = n.gcd(d)  # over Z: the content gcd times the primitive gcd
    n, d = n.exquo(g), d.exquo(g)
    if d.LC() < 0:
        n, d = -n, -d
    return _from_sympy(n), _from_sympy(d)


@given(coeffs, coeffs)
def test_pmul_of_normalized_operands_is_normalized_and_equals_sympy(a, b):
    """Z has no zero divisors, so the product's leading coefficient, the
    product of the operands' leading ones, is never 0."""
    a, b = pnorm(a), pnorm(b)
    product = pmul(a, b)
    assert not product or product[-1] != 0
    assert product == _from_sympy(_to_sympy(a) * _to_sympy(b))


def test_basic_values():
    assert RatFunc((2, 2), (2,)) == RatFunc((1, 1))
    assert RatFunc((0, 1), (0, 0, 1)) == ONE / Q
    assert Q * (ONE / Q) == ONE
    assert RatFunc((1,), (-1,)) == RatFunc((-1,))
    assert not ZERO
    assert repr(ZERO) == "0"
    assert RatFunc.q_power(-2) * RatFunc.q_power(2) == ONE
    with pytest.raises(AttributeError, match="immutable"):
        Q.num = (1,)
    # only integers combine with a RatFunc, on either side
    assert Q != "q"
    for combine in (lambda x: Q + x, lambda x: Q - x, lambda x: x - Q,
                    lambda x: Q * x, lambda x: Q / x, lambda x: x / Q):
        with pytest.raises(TypeError):
            combine("q")


def test_normal_form_invariants():
    x = RatFunc((-2, 2), (0, 4))  # (2q-2)/4q -> (q-1)/2q
    assert x.num == (-1, 1) and x.den == (0, 2)
    assert x.den[-1] > 0
    assert pgcd(x.num, x.den) == (1,)
    assert pgcd((), ()) == ()


def test_gauss_integers():
    # [k] = q^{k-1} + q^{k-3} + ... + q^{1-k}
    assert gauss_int(0) == ZERO
    assert gauss_int(1) == ONE
    assert gauss_int(2) == Q + ONE / Q
    assert gauss_int(3) == Q * Q + ONE + ONE / (Q * Q)
    assert gauss_factorial(3) == gauss_int(3) * gauss_int(2)


def test_regularity_and_residue():
    assert (ONE / (Q + ONE)).is_regular_at_zero()
    assert not (ONE / Q).is_regular_at_zero()
    x = (Q + 2) / (Q * Q - Q + 1)
    assert x.at_zero() == 2 and isinstance(x.at_zero(), RatFunc)
    assert ((2 + Q) / (1 + Q)).at_zero() == 2
    assert (ONE / (Q - 2)).at_zero() == RatFunc((-1,), (2,))
    with pytest.raises(ZeroDivisionError):
        (ONE / Q).at_zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), ())
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@settings(max_examples=200)
@given(ratfuncs(), ratfuncs())
def test_field_axioms_sample(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    assert a * (b + ONE) == a * b + a


@settings(max_examples=200)
@given(ratfuncs(allow_zero=False), ratfuncs(allow_zero=False))
def test_multiplicative_inverses(a, b):
    assert (a / b) * (b / a) == ONE
    assert a / a == ONE


@settings(max_examples=200)
@given(ratfuncs())
def test_normalization_is_idempotent(a):
    again = RatFunc(a.num, a.den)
    assert again.num == a.num and again.den == a.den
    assert a.den[-1] > 0
    if a.num:
        assert pgcd(a.num, a.den) == (1,)


@settings(max_examples=100)
@given(st.integers(min_value=-6, max_value=6))
def test_q_powers_multiply(k):
    assert RatFunc.q_power(k) * RatFunc.q_power(-k) == ONE
    assert RatFunc.q_power(k) == Q ** k if k >= 0 else True


def _sympy_expr(x: RatFunc):
    return _to_sympy(x.num).as_expr() / _to_sympy(x.den).as_expr()


@settings(max_examples=100, deadline=None)
@given(ratfuncs(allow_zero=False), st.integers(min_value=-5, max_value=5),
       st.integers(min_value=1, max_value=3))
def test_integer_operands_and_powers_equal_sympy(a, k, m):
    """k - x, x ** -m and from_int(k) equal sympy's values, and equal
    values hash alike however they were built."""
    expr = _sympy_expr(a)
    assert sympy.cancel(_sympy_expr(k - a) - (k - expr)) == 0
    assert sympy.cancel(_sympy_expr(a ** -m) - expr ** -m) == 0
    assert _sympy_expr(RatFunc.from_int(k)) == k
    assert RatFunc.from_int(k) == k
    scaled = RatFunc(pmul(a.num, (k or 1, 1)), pmul(a.den, (k or 1, 1)))
    assert scaled == a and hash(scaled) == hash(a)
    assert hash(a ** -m * a ** m) == hash(ONE)


@settings(max_examples=300, deadline=None)
@given(ratfuncs())
def test_value_at_zero_is_a_constant_equal_to_sympy(x):
    """Wherever x is regular at q = 0, its value there is a RatFunc
    constant, a denominator of length 1, equal to sympy's value."""
    if not x.is_regular_at_zero():
        with pytest.raises(ZeroDivisionError):
            x.at_zero()
        return
    value = x.at_zero()
    assert isinstance(value, RatFunc)
    assert len(value.num) <= 1 and len(value.den) == 1
    assert _sympy_expr(value) == _sympy_expr(x).subs(_q, 0)


def test_a_constant_hashes_as_its_integer():
    """A constant equals its integer, so the two must hash alike: a set or
    dict key holds them as one."""
    for k in range(-3, 4):
        c = RatFunc.from_int(k)
        assert c == k and hash(c) == hash(k)
        assert len({c, k}) == 1
    assert {1: "x"}.get(ONE) == "x"


def test_pmul_agrees_with_int_polynomials():
    assert pmul((1, 1), (1, -1)) == (1, 0, -1)
    assert pmul((), (1, 2)) == ()


@settings(max_examples=300, deadline=None)
@given(poly_pairs())
def test_normal_form_equals_sympy_cancellation(pair):
    num, den = pair
    x = RatFunc(num, den)
    assert (x.num, x.den) == _sympy_normal_form(num, den)
    assert x.den[-1] > 0
    assert _to_sympy(x.num).gcd(_to_sympy(x.den)).as_expr() == 1


@settings(max_examples=300, deadline=None)
@given(monomial_den_pairs())
def test_monomial_denominator_equals_sympy_cancellation(pair):
    num, den = pair
    x = RatFunc(num, den)
    assert (x.num, x.den) == _sympy_normal_form(num, den)


@settings(max_examples=200)
@given(ratfuncs())
def test_shortcuts_equal_the_normalizing_constructor(x):
    """Unit products, negation and reciprocals skip normalizing; each gives
    the pair that RatFunc builds from the plain formula."""
    def pair(y):
        assert isinstance(y, RatFunc)
        return y.num, y.den

    for unit in (ONE, -ONE):
        general = pair(RatFunc(pmul(x.num, unit.num), pmul(x.den, unit.den)))
        assert pair(x * unit) == general
        assert pair(unit * x) == general
    assert pair(-x) == pair(RatFunc(pneg(x.num), x.den))
    if x:
        assert pair(ONE / x) == pair(RatFunc(x.den, x.num))


@settings(max_examples=300, deadline=None)
@given(poly_pairs())
def test_pgcd_equals_sympy_primitive_gcd(pair):
    a, b = pair
    if not a:
        a, b = b, a  # also cover a zero second argument
    g = _to_sympy(a).gcd(_to_sympy(b)).primitive()[1]
    if g.LC() < 0:
        g = -g
    assert pgcd(a, b) == _from_sympy(g)


def test_pdiv_exact_rejects_inexact_division():
    assert pdiv_exact((1, 0, -1), (1, 1)) == (1, -1)
    assert pdiv_exact((), (3, 1)) == ()
    with pytest.raises(ArithmeticError):
        pdiv_exact((1, 1), (2,))  # quotient (1 + q)/2 is not integral
    with pytest.raises(ArithmeticError):
        pdiv_exact((1, 0, 1), (1, 1))  # remainder 2


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-6, max_value=6), coeffs,
       st.integers(min_value=0, max_value=2))
@example(-2, (1, 0, 3), 0)
@example(2, (0, -1), 1)
@example(-3, (0, 0, 5), 1)
@example(-1, (0, 0), 0)
@example(4, (), 0)
def test_the_laurent_constructor_equals_the_general_normal_form(lo, cs, pad):
    """sum_k cs[k] q^(lo + k), zeros at either end and the zero polynomial
    included, equals RatFunc over q^-lo and sympy's normal form."""
    cs = (0,) * pad + tuple(cs)
    x = RatFunc.laurent(lo, cs)
    if lo >= 0:
        num, den = (0,) * lo + cs, (1,)
    else:
        num, den = cs, (0,) * -lo + (1,)
    general = RatFunc(num, den)
    assert (x.num, x.den) == (general.num, general.den)
    if pnorm(num):
        assert (x.num, x.den) == _sympy_normal_form(pnorm(num), den)
    else:
        assert (x.num, x.den) == ((), (1,))
