# Univariate polynomials and rational functions over exact rationals.
#
# A polynomial is stored as a tuple of Fraction coefficients in ascending
# degree with the trailing coefficient nonzero (the zero polynomial is the
# empty tuple).  A rational function is always kept canonical: numerator and
# denominator coprime, denominator monic.  Everything here is exact; no
# floats ever enter.
#
# The kernels (sum, product, value, composition, gcd, canonical form, Sturm
# chain) run on integer coefficient lists: a polynomial is cleared to
# integers over one common denominator, the integers are combined, and one
# Fraction is built per coefficient that is returned.

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Sequence


def _cleared(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, den) with coeffs[k] == ints[k] / den, den the lcm of the
    denominators."""
    den = int_lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _primitive_ints(coeffs: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """(ints, content) with coeffs[k] == content * ints[k], content > 0 and
    the ints coprime; coeffs must not all be zero."""
    ints, den = _cleared(coeffs)
    g = int_gcd(*ints)
    return [v // g for v in ints], Fraction(g, den)


def _content_free(ints: list[int]) -> list[int]:
    """Divide out the positive gcd of the coefficients."""
    g = int_gcd(*ints) if ints else 1
    return ints if g == 1 else [v // g for v in ints]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two nonzero integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a by b, on integers.

    Each step scales the running remainder by |lc(b)| and subtracts a signed
    multiple of b, so the result is m*a - q*b with m a positive power of
    |lc(b)|: the signs of the true remainder are kept, which the Sturm chain
    needs.  Trailing zeros are stripped.
    """
    lb = b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    db = len(b) - 1
    rem = list(a)
    for top in range(len(a) - 1, db - 1, -1):
        c = rem.pop()
        if not c:
            continue
        if scale != 1:
            rem = [scale * v for v in rem]
        c *= sign
        shift = top - db
        for j in range(db):
            rem[shift + j] -= c * b[j]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _exact_quo(a: list[int], b: list[int]) -> list[int]:
    """The integer quotient a / b when b divides a in Z[x]."""
    lb = b[-1]
    db = len(b) - 1
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = c
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    return quo


def _gcd_ints(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two integer coefficient lists (primitive PRS)."""
    x, y = _content_free(a), _content_free(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _content_free(_prem(x, y))
    return x


def _homogeneous(ints: Sequence[int], u: int, v: int) -> int:
    """sum ints[k] u^k v^(d-k), d = len(ints) - 1: the value at u/v times v^d."""
    acc, vpow = 0, 1
    for c in reversed(ints):
        acc = acc * u + c * vpow
        vpow *= v
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable, var: str = "n"):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def _over(cls, ints: Sequence[int], den: int, var: str) -> "Polynomial":
        """The polynomial with coefficients ints[k] / den, one Fraction each;
        ints must have no trailing zero."""
        p = object.__new__(cls)
        p.coeffs = tuple([Fraction(v, den) for v in ints])
        p.var = var
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str = "n") -> "Polynomial":
        return cls((), var)

    @classmethod
    def constant(cls, value, var: str = "n") -> "Polynomial":
        return cls((value,), var)

    @classmethod
    def x(cls, var: str = "n") -> "Polynomial":
        return cls((0, 1), var)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def _check_var(self, other: "Polynomial") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other on integers over the lcm of the denominators."""
        self._check_var(other)
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        den = int_lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        n = max(len(a), len(b))
        out = [v * fa for v in a] + [0] * (n - len(a))
        for k, v in enumerate(b):
            out[k] += v * fb
        while out and not out[-1]:
            out.pop()
        return Polynomial._over(out, den, self.var)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial((-c for c in self.coeffs), self.var)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.var)
        a, da = _cleared(self.coeffs)
        b, db = _cleared(other.coeffs)
        return Polynomial._over(_convolve(a, b), da * db, self.var)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, factor) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial((c * f for c in self.coeffs), self.var)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        # constants compare equal across variables
        return self.degree < 1 or self.var == other.var

    def __hash__(self) -> int:
        return hash((self.coeffs, self.var if self.degree > 0 else ""))

    # -- evaluation and composition ------------------------------------

    def eval(self, x) -> Fraction:
        """Evaluate at a rational point by Horner's rule on the integers."""
        if not self.coeffs:
            return Fraction(0)
        x = Fraction(x)
        a, den = _cleared(self.coeffs)
        return Fraction(_homogeneous(a, x.numerator, x.denominator),
                        den * x.denominator ** self.degree)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute `inner` for the variable; result uses inner's variable.

        With self = a/da and inner = b/db on integers, Horner's rule on
        acc * b + a_k db^(d-k) gives self(inner) times da db^d.
        """
        if self.is_zero or inner.degree < 1:
            return Polynomial.constant(self.eval(inner.coeff(0)), inner.var)
        a, da = _cleared(self.coeffs)
        b, db = _cleared(inner.coeffs)
        acc, dpow = [a[-1]], 1
        for c in reversed(a[:-1]):
            dpow *= db
            acc = _convolve(acc, b)
            acc[0] += c * dpow
        return Polynomial._over(acc, da * dpow, inner.var)

    def shift(self, offset) -> "Polynomial":
        """p(x + offset), same variable."""
        return self.compose(Polynomial((offset, 1), self.var))

    def derivative(self) -> "Polynomial":
        return Polynomial(
            (k * c for k, c in enumerate(self.coeffs) if k), self.var)

    # -- division -----------------------------------------------------

    def quo_rem(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division: self == q * divisor + r with deg r < deg divisor."""
        self._check_var(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(divisor.coeffs)
        if dq < 0:
            return Polynomial.zero(self.var), self
        quo = [Fraction(0)] * (dq + 1)
        dlead = divisor.leading
        for k in range(dq, -1, -1):
            c = rem[k + divisor.degree] / dlead
            quo[k] = c
            if c:
                for j, b in enumerate(divisor.coeffs):
                    rem[k + j] -= c * b
        return Polynomial(quo, self.var), Polynomial(rem[:divisor.degree], self.var)

    def primitive(self) -> tuple["Polynomial", Fraction]:
        """Scale to coprime integer coefficients, keeping signs.

        Returns (p, f) with p == self.scale(f) and f > 0, so the sign
        pattern of the input is preserved exactly.
        """
        if self.is_zero:
            return self, Fraction(1)
        ints, content = _primitive_ints(self.coeffs)
        return Polynomial._over(ints, 1, self.var), 1 / content

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r}, var={self.var!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}{self.var}" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd, by a primitive remainder sequence on the integer
    coefficients: pseudo-remainders with the content divided out at each
    step, then made monic.  The gcd of two zero polynomials is zero."""
    a._check_var(b)
    g = _gcd_ints(_cleared(a.coeffs)[0], _cleared(b.coeffs)[0])
    if not g:
        return Polynomial.zero(a.var)
    return Polynomial._over(g, g[-1], a.var)


def square_free_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'): same distinct roots, all simple."""
    if p.degree < 1:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree < 1:
        return p
    return p.quo_rem(g)[0]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial, each element a positive
    multiple of the classical one (p, p', -rem, ...), so signs are kept."""
    chain = [p, [k * c for k, c in enumerate(p) if k]]
    while chain[-1]:
        chain.append(_content_free([-v for v in _prem(chain[-2], chain[-1])]))
    chain.pop()
    return chain


def _sign_variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def count_roots_above(p: Polynomial, a) -> int:
    """Number of distinct real roots of p in the open ray (a, +inf).

    Uses the Sturm chain of the square-free part, comparing sign
    variations at a and at +infinity (leading-coefficient signs).  The
    chain runs on integers; each element is a positive multiple of the
    classical one, so the signs, and the count, are the same.
    """
    q = square_free_part(p)
    if q.degree < 1:
        return 0
    chain = _sturm_chain(_cleared(q.coeffs)[0])
    a = Fraction(a)
    at_a = [_sign(_homogeneous(c, a.numerator, a.denominator)) for c in chain]
    at_inf = [_sign(c[-1]) for c in chain]
    return _sign_variations(at_a) - _sign_variations(at_inf)


class RationalFunction:
    """Quotient of two polynomials, always held in canonical form.

    Canonical means gcd(num, den) == 1 and the denominator is monic, so
    equal functions have identical coefficient tuples.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check_var(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num = Polynomial.zero(num.var)
            den = Polynomial.constant(1, num.var)
        else:
            # num = cn * nums and den = cd * dens with nums, dens primitive
            # integer lists; dividing both by the primitive gcd is exact in
            # Z[x] (Gauss's lemma), and the contents fold into one factor.
            g = poly_gcd(num, den)
            nums, cn = _primitive_ints(num.coeffs)
            dens, cd = _primitive_ints(den.coeffs)
            if g.degree > 0:
                gs = _primitive_ints(g.coeffs)[0]
                nums = _exact_quo(nums, gs)
                dens = _exact_quo(dens, gs)
            lead = dens[-1]
            f = cn / (cd * lead)
            num = Polynomial._over([v * f.numerator for v in nums], f.denominator, num.var)
            den = Polynomial._over(dens, lead, den.var)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(1, p.var))

    @classmethod
    def constant(cls, value, var: str = "n") -> "RationalFunction":
        return cls(Polynomial.constant(value, var),
                   Polynomial.constant(1, var))

    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_zero else self.den.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_canonical(self) -> bool:
        if self.num.is_zero:
            return self.den.degree == 0 and self.den.leading == 1
        return (self.den.leading == 1
                and poly_gcd(self.num, self.den).degree == 0)

    @property
    def degree_pair(self) -> tuple[int, int]:
        return self.num.degree, self.den.degree

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def scale(self, factor) -> "RationalFunction":
        return RationalFunction(self.num.scale(factor), self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def eval(self, x) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / d

    def compose(self, inner: Polynomial) -> "RationalFunction":
        return RationalFunction(self.num.compose(inner),
                                self.den.compose(inner))

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den.degree == 0 and self.den.leading == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"
