# Univariate polynomials and rational functions over exact rationals.
#
# A polynomial is stored as integer coefficients `ints` in ascending degree
# over one positive denominator `den`, in lowest terms: no trailing zero and
# gcd(den, *ints) == 1, so equal polynomials have equal fields (the zero
# polynomial is ((), 1)).  The kernels (sum, product, value, composition,
# gcd, canonical form, Sturm chain) read and build that integer form; only
# the `coeffs`, `leading` and `coeff` accessors build Fractions.  A rational
# function is always kept canonical: numerator and denominator coprime,
# denominator monic.  Everything here is exact; no floats ever enter.
#
# The gcd is heuristic (GCDHEU): the integer gcd of two values at a point xi
# >= 2 min(|x|, |y|) + 2 of the content-free inputs, rebuilt from its
# symmetric base-xi digits.  Under that bound a primitive candidate that
# divides both inputs is their gcd, and the exact division (`_exact_quo`,
# which raises on any nonzero remainder) decides that; if six points fail,
# a primitive remainder sequence (`_gcd_prs`) gives the gcd.  The Sturm
# chain keeps signed pseudo-remainders (`_prem`).

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm as int_lcm
from typing import Iterable, Sequence


def _content_free(ints: Sequence[int]) -> Sequence[int]:
    """Divide out the positive gcd of the coefficients."""
    g = int_gcd(*ints) if ints else 1
    return ints if g == 1 else [v // g for v in ints]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials (all zero when
    either is zero)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def _exact_quo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer quotient a / b; raises ArithmeticError unless b divides
    a in Z[x] (every leading division exact and a zero remainder)."""
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
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return quo


def _gcd_prs(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd of two integer coefficient lists, by a primitive
    remainder sequence: pseudo-remainders with the content divided out at
    each step.  The fallback of _gcd_ints."""
    x, y = _content_free(a), _content_free(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, _content_free(_prem(x, y))
    return x


# Evaluation points the heuristic gcd tries before it falls back.
_HEU_TRIES = 6


def _gcd_ints(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd of two integer coefficient lists, up to sign.

    The heuristic gcd of Char, Geddes and Gonnet: h = gcd(x(xi), y(xi)) of
    the content-free inputs at an integer xi >= 2 min(|x|, |y|) + 2 (max
    norms), read back as a polynomial from its symmetric base-xi digits.
    Under that bound a primitive candidate that divides both x and y is
    their gcd, so it is accepted only when _exact_quo divides both with a
    zero remainder; a constant candidate is 1.  Otherwise xi grows by about
    2.73 xi^(1/4), and after _HEU_TRIES points the remainder sequence
    _gcd_prs decides.
    """
    x, y = _content_free(a), _content_free(b)
    if not x or not y:
        return x or y
    if len(x) == 1 or len(y) == 1:
        return [1]
    xi = 2 * min(max(map(abs, x)), max(map(abs, y))) + 29
    for _ in range(_HEU_TRIES):
        vx, vy = _homogeneous(x, xi, 1), _homogeneous(y, xi, 1)
        if vx and vy:
            h, half, digits = int_gcd(vx, vy), xi // 2, []
            while h:
                d = h % xi
                if d > half:
                    d -= xi
                digits.append(d)
                h = (h - d) // xi
            # h > 0, so the top digit is positive; a constant reads as [1].
            cand = _content_free(digits)
            if len(cand) == 1:
                return cand
            try:
                _exact_quo(x, cand)
                _exact_quo(y, cand)
                return cand
            except ArithmeticError:
                pass
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return _gcd_prs(x, y)


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
    """Dense univariate polynomial over the rationals: the coefficient of
    var^k is ints[k] / den."""

    __slots__ = ("ints", "den", "var")

    def __init__(self, coeffs: Iterable, var: str = "n"):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = int_lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (den // c.denominator) for c in cs], den, var)

    def _set(self, ints: Sequence[int], den: int, var: str) -> None:
        """Store ints / den in lowest terms; den is nonzero.  Trailing zeros
        are popped off ints, so a sequence that has any must be a list.

        The stored tuple is built from a list, never from a generator: a
        tuple grown from a generator is resized as it fills, and the blocks
        it frees pile up in the tuple free lists round after round.
        """
        while ints and not ints[-1]:
            ints.pop()
        if den < 0:
            ints, den = [-v for v in ints], -den
        g = int_gcd(den, *ints)
        if g != 1:
            ints, den = [v // g for v in ints], den // g
        self.ints = tuple(ints)
        self.den = den
        self.var = var

    @classmethod
    def _over(cls, ints: Sequence[int], den: int, var: str) -> "Polynomial":
        """The polynomial with coefficients ints[k] / den."""
        p = object.__new__(cls)
        p._set(ints, den, var)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str = "n") -> "Polynomial":
        return cls((), var)

    @classmethod
    def constant(cls, value, var: str = "n") -> "Polynomial":
        return cls((value,), var)

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in ascending degree."""
        return tuple([Fraction(v, self.den) for v in self.ints])

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        return self.coeff(self.degree)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    def _check_var(self, other: "Polynomial") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other on integers over the lcm of the denominators."""
        self._check_var(other)
        a, b = self.ints, other.ints
        den = int_lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = [v * fa for v in a] + [0] * (len(b) - len(a))
        for k, v in enumerate(b):
            out[k] += v * fb
        return Polynomial._over(out, den, self.var)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._over([-v for v in self.ints], self.den, self.var)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_var(other)
        return Polynomial._over(_convolve(self.ints, other.ints),
                                self.den * other.den, self.var)

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
        return Polynomial._over([v * f.numerator for v in self.ints],
                                self.den * f.denominator, self.var)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.ints != other.ints or self.den != other.den:
            return False
        # constants compare equal across variables
        return self.degree < 1 or self.var == other.var

    def __hash__(self) -> int:
        return hash((self.ints, self.den, self.var if self.degree > 0 else ""))

    # -- evaluation and composition ------------------------------------

    def eval(self, x) -> Fraction:
        """Evaluate at a rational point by Horner's rule on the integers."""
        if not self.ints:
            return Fraction(0)
        x = Fraction(x)
        return Fraction(_homogeneous(self.ints, x.numerator, x.denominator),
                        self.den * x.denominator ** self.degree)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """Substitute `inner` for the variable; result uses inner's variable.

        With self = a/da and inner = b/db on integers, Horner's rule on
        acc * b + a_k db^(d-k) gives self(inner) times da db^d.
        """
        if self.is_zero or inner.degree < 1:
            return Polynomial.constant(self.eval(inner.coeff(0)), inner.var)
        a, b = self.ints, inner.ints
        acc, dpow = [a[-1]], 1
        for c in reversed(a[:-1]):
            dpow *= inner.den
            acc = _convolve(acc, b)
            acc[0] += c * dpow
        return Polynomial._over(acc, self.den * dpow, inner.var)

    def shift(self, offset) -> "Polynomial":
        """p(x + offset), same variable."""
        return self.compose(Polynomial((offset, 1), self.var))

    def primitive(self) -> tuple["Polynomial", Fraction]:
        """Scale to coprime integer coefficients, keeping signs.

        Returns (p, f) with p == self.scale(f) and f > 0, so the sign
        pattern of the input is preserved exactly.
        """
        if self.is_zero:
            return self, Fraction(1)
        g = int_gcd(*self.ints)
        return (Polynomial._over([v // g for v in self.ints], 1, self.var),
                Fraction(self.den, g))

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
    """Monic gcd, from the primitive gcd of the integer coefficients, made
    monic.  The gcd of two zero polynomials is zero.

    The primitive gcd is the heuristic gcd of Char, Geddes and Gonnet: one
    integer gcd of the values at an integer xi >= 2 min(|a|, |b|) + 2 (max
    norms of the content-free coefficients), read back from its symmetric
    base-xi digits and accepted only if it divides both inputs exactly.
    After a few larger points fail, a primitive remainder sequence decides.
    """
    a._check_var(b)
    g = _gcd_ints(a.ints, b.ints)
    if not g:
        return Polynomial.zero(a.var)
    return Polynomial._over(g, g[-1], a.var)


def _sturm_chain(p: Sequence[int]) -> list[Sequence[int]]:
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

    Uses the Sturm chain of the square-free part p / gcd(p, p'), comparing
    sign variations at a and at +infinity (leading-coefficient signs).  The
    chain runs on integers, from a nonzero multiple of that part; each
    element is a positive multiple of the classical one, so the signs, and
    the count, are the same.
    """
    if p.degree < 1:
        return 0
    ints = p.ints
    square_free = _exact_quo(ints, _gcd_ints(ints, [k * c for k, c in enumerate(ints) if k]))
    chain = _sturm_chain(square_free)
    a = Fraction(a)
    at_a = [_sign(_homogeneous(c, a.numerator, a.denominator)) for c in chain]
    at_inf = [_sign(c[-1]) for c in chain]
    return _sign_variations(at_a) - _sign_variations(at_inf)


class RationalFunction:
    """Quotient of two polynomials, always held in canonical form.

    Canonical means gcd(num, den) == 1 and the denominator is monic, so
    equal functions have identical fields.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        num._check_var(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = num, Polynomial.constant(1, num.var)
            return
        # The integer coefficients a and b of num and den divide exactly by
        # those of the primitive gcd (Gauss's lemma), and num / den is then
        # (a * den.den) / (b * num.den); dividing both by lc(b) makes the
        # denominator monic.
        g = poly_gcd(num, den)
        a, b = num.ints, den.ints
        if g.degree > 0:
            a, b = _exact_quo(a, g.ints), _exact_quo(b, g.ints)
        self.num = Polynomial._over([v * den.den for v in a], b[-1] * num.den, num.var)
        self.den = Polynomial._over(b, b[-1], den.var)

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
