"""Exact rational functions in q with integer coefficients.

Scalars live in the field Q(q) of rational functions, which contains every
coefficient arising from the algebra action on finite tensor powers; no
power-series truncation is ever needed, and a value at q = 0 is a constant
of the same type.  A fraction is kept in reduced normal form: numerator
and denominator are coprime integer polynomials and the denominator has a
positive leading coefficient, so equality is plain tuple comparison.
Normalizing stays on integers: a zero numerator takes the denominator
(1,), a denominator (1,) needs no work, and otherwise the primitive gcd is
a pseudo-remainder sequence, dividing by it is integer long division,
then content and sign are fixed; it is the string solves that divide.

Products with a factor +-1, negation and the reciprocal 1/x reuse the
operand's normal form instead of normalizing again, and a Laurent
polynomial in q, the value of every coefficient of an operator column
(``action``), is put in normal form directly (``RatFunc.laurent``).

Polynomials are tuples of integer coefficients, lowest degree first, with
no trailing zeros; the zero polynomial is the empty tuple.
"""

from functools import lru_cache
from math import gcd


def pnorm(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return pnorm(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def pmul(a, b) -> tuple:
    """The product of two normalized polynomials: Z has no zero divisors,
    so its leading coefficient is nonzero and it is normalized too."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def pcontent(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g


def pdiv_exact(a, b) -> tuple:
    """Exact quotient a/b by integer long division; raises unless b divides
    a over Z (a step that does not divide leaves a nonzero remainder)."""
    if not a:
        return ()
    r = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + db] // b[-1]
        for t, cb in enumerate(b):
            r[k + t] -= c * cb
    if any(r):
        raise ArithmeticError(f"{b} does not divide {a} over Z")
    return pnorm(q)


def pgcd(a, b) -> tuple:
    """Primitive gcd over Z with a positive leading coefficient.

    Primitive remainder sequence: (a, b) becomes (b, prem(a, b) / content),
    where the pseudo-remainder scales a by powers of b's leading
    coefficient so that every step stays in Z[q].
    """
    while b:
        r = list(a)
        db = len(b) - 1
        lb = b[-1]
        while len(r) > db:
            g = gcd(r[-1], lb)
            mr, mb = r[-1] // g, lb // g
            k = len(r) - 1 - db
            r = [mb * c for c in r]
            for t, cb in enumerate(b):
                r[k + t] -= mr * cb
            while r and r[-1] == 0:
                r.pop()
        g = pcontent(r)
        a, b = b, tuple(c // g for c in r)
    if not a:
        return ()
    g = pcontent(a) if a[-1] > 0 else -pcontent(a)
    return tuple(c // g for c in a)


def poly_str(a, var: str = "q") -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


class RatFunc:
    """A rational function num/den in q over the integers, normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = pnorm(num)
        den = pnorm(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = (1,)
        elif den == (1,):
            pass  # already reduced
        else:
            g = pgcd(num, den)
            if g != (1,):
                num = pdiv_exact(num, g)
                den = pdiv_exact(den, g)
            c = gcd(pcontent(num), pcontent(den))
            if c > 1:
                num = tuple(x // c for x in num)
                den = tuple(x // c for x in den)
            if den[-1] < 0:
                num = pneg(num)
                den = pneg(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def _reduced(num: tuple, den: tuple) -> "RatFunc":
        """The RatFunc of a (num, den) pair already in normal form."""
        x = object.__new__(RatFunc)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    @staticmethod
    def laurent(lo: int, coeffs) -> "RatFunc":
        """The Laurent polynomial sum_k coeffs[k] q^(lo + k), in normal form
        without a gcd.  Once the zero coefficients at both ends are
        dropped (none left: the zero function), the first coefficient is
        the nonzero constant term of the numerator, so no power of q
        divides it and it is coprime to the denominator q^-lo, whose
        leading coefficient is 1 and whose content is 1.  When lo >= 0
        the result is the polynomial q^lo * coeffs over (1,)."""
        coeffs = pnorm(coeffs)
        if not coeffs:
            return RatFunc._reduced((), (1,))
        v = next(v for v, c in enumerate(coeffs) if c)
        lo += v
        if lo >= 0:
            return RatFunc._reduced((0,) * lo + coeffs[v:], (1,))
        return RatFunc._reduced(coeffs[v:], (0,) * -lo + (1,))

    @staticmethod
    def from_int(k: int) -> "RatFunc":
        return RatFunc((k,))

    @staticmethod
    def q_power(k: int) -> "RatFunc":
        return RatFunc.laurent(k, (1,))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc((x,))
        return NotImplemented

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its integer, so it must hash as that integer
        if self.den == (1,) and len(self.num) <= 1:
            return hash(sum(self.num))
        return hash((self.num, self.den))

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        # negating the numerator keeps the normal form
        return RatFunc._reduced(pneg(self.num), self.den)

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == (1,):
            if self.num == (1,):
                return other
            if self.num == (-1,):
                return -other
        if other.den == (1,):
            if other.num == (1,):
                return self
            if other.num == (-1,):
                return -self
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        if self.num == (1,) and self.den == (1,):
            # swapping a normal form's num and den gives one, up to sign
            if other.num[-1] < 0:
                return RatFunc._reduced(pneg(other.den), pneg(other.num))
            return RatFunc._reduced(other.den, other.num)
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        # 1 / x takes the reciprocal shortcut of ONE / x: no new RatFunc 1
        other = ONE if other == 1 else RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc((1,)) / self ** (-k)
        out = RatFunc((1,))
        for _ in range(k):
            out = out * self
        return out

    def is_regular_at_zero(self) -> bool:
        """No pole at q = 0 (reduced denominator has a constant term)."""
        return self.den[0] != 0

    def at_zero(self) -> "RatFunc":
        """Value at q = 0, as a constant; raises on a pole."""
        if not self.is_regular_at_zero():
            raise ZeroDivisionError(f"{self} has a pole at q=0")
        return RatFunc(self.num[:1], self.den[:1])

    def __repr__(self):
        if self.den == (1,):
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


ZERO = RatFunc(())
ONE = RatFunc((1,))
Q = RatFunc((0, 1))


@lru_cache(maxsize=None)
def gauss_int(k: int) -> RatFunc:
    """[k] = (q^k - q^-k)/(q - q^-1)."""
    return (RatFunc.q_power(k) - RatFunc.q_power(-k)) / (Q - RatFunc.q_power(-1))


def gauss_factorial(k: int) -> RatFunc:
    """[k]! = [k][k-1]...[1]."""
    out = ONE
    for j in range(1, k + 1):
        out = out * gauss_int(j)
    return out
