from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypomean import polynomials
from hypomean.polynomials import (
    Polynomial,
    RationalFunction,
    _exact_quo,
    _gcd_ints,
    _gcd_prs,
    count_roots_above,
    poly_gcd,
)

F = Fraction

coeff = st.fractions(-20, 20, max_denominator=12)
small_poly = st.lists(coeff, min_size=0, max_size=6).map(Polynomial)
nonzero_poly = small_poly.filter(lambda p: not p.is_zero)


def P(*coeffs):
    return Polynomial(coeffs)


class TestPolynomialArithmetic:
    def test_square_of_linear(self):
        assert P(1, 1) * P(1, 1) == P(1, 2, 1)

    def test_eval_q_numerator_at_one(self):
        assert P(7, 66, 104, 60, 12).eval(1) == 249

    def test_self_subtraction_is_zero(self):
        p = P(1, 0, 1)
        assert (p - p).is_zero
        assert (p - p).degree == -1

    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (F(1), F(2))

    def test_variable_mismatch_raises(self):
        with pytest.raises(ValueError):
            Polynomial((1, 1), "n") + Polynomial((1, 1), "m")

    def test_constants_compare_across_variables(self):
        assert Polynomial((5,), "n") == Polynomial((5,), "m")

    @given(a=small_poly, b=small_poly)
    @settings(max_examples=80)
    def test_mul_commutes_and_eval_homomorphism(self, a, b):
        assert a * b == b * a
        x = F(3, 7)
        assert (a * b).eval(x) == a.eval(x) * b.eval(x)
        assert (a + b).eval(x) == a.eval(x) + b.eval(x)

    def test_compose_and_shift(self):
        p = P(0, 0, 1)  # x^2
        assert p.shift(1) == P(1, 2, 1)
        assert p.compose(P(1, 1)) == P(1, 2, 1)
        q = Polynomial((0, 1), "m").compose(Polynomial((1, 1), "n"))
        assert q.var == "n"

    def test_power(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(2) ** 0 == P(1)

    def test_gcd(self):
        a = P(1, 1) * P(2, 1)
        b = P(1, 1) * P(3, 1)
        assert poly_gcd(a, b) == P(1, 1)

    def test_primitive_preserves_signs(self):
        p = P(F(-2, 3), F(4, 9))
        prim, factor = p.primitive()
        assert factor > 0
        assert prim == p.scale(factor)
        assert prim.coeffs == (F(-3), F(2))

    def test_str_rendering(self):
        assert str(P(178, 35022)) == "35022*n + 178"
        assert str(P(0)) == "0"
        assert str(P(-1, 0, 1)) == "n^2 - 1"


class TestRootCounting:
    def test_two_roots_above_one(self):
        p = P(6, -5, 1)  # (x-2)(x-3)
        assert count_roots_above(p, 1) == 2
        assert count_roots_above(p, F(5, 2)) == 1
        assert count_roots_above(p, 4) == 0

    def test_no_real_roots(self):
        assert count_roots_above(P(1, 0, 1), 0) == 0

    def test_multiple_root_counted_once(self):
        p = P(25, -10, 1)  # (x-5)^2
        assert count_roots_above(p, 1) == 1
        assert count_roots_above(p, 5) == 0

    def test_degenerate_cases(self):
        assert count_roots_above(P(3), 0) == 0
        assert count_roots_above(Polynomial(()), 0) == 0


class TestUniqueForm:
    """The memos of the symbolic layer are keyed on these values
    (symbolic._eliminate on SymbolicQ), so equal values must have equal
    fields and equal hashes, whichever kernels built them."""

    @given(a=small_poly, b=small_poly, c=small_poly)
    @settings(max_examples=80, deadline=None)
    def test_polynomial_routes_agree(self, a, b, c):
        first = (a * b) + c
        assert first.den > 0
        assert gcd(first.den, *first.ints) == 1
        assert not first.ints or first.ints[-1]
        for p in (c + (b * a), Polynomial(first.coeffs), c - (-(b * a)),
                  first.shift(F(3, 2)).shift(F(-3, 2)),
                  (a * b).scale(7).scale(F(1, 7)) + c):
            assert (p.ints, p.den, hash(p)) == (first.ints, first.den, hash(first))
            assert p == first

    @given(n=small_poly, d=nonzero_poly, k=coeff.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_rational_function_ignores_a_common_factor(self, n, d, k):
        rf = RationalFunction(n, d)
        scaled = RationalFunction(n.scale(k), d.scale(k))
        assert scaled == rf
        assert hash(scaled) == hash(rf)
        assert (scaled.num.ints, scaled.num.den) == (rf.num.ints, rf.num.den)
        assert (scaled.den.ints, scaled.den.den) == (rf.den.ints, rf.den.den)


class TestRationalFunction:
    def test_canonical_form_is_monic_and_reduced(self):
        rf = RationalFunction(P(2, 2), P(4, 8))  # (2x+2)/(8x+4) -> (x+1)/4(x+1/2)
        assert rf.den.leading == 1
        assert poly_gcd(rf.num, rf.den).degree == 0

    def test_cross_form_equality(self):
        a = RationalFunction(P(1, 1), P(2, 1))
        b = RationalFunction(P(2, 2), P(4, 2))
        assert a == b

    def test_gcd_cancellation(self):
        num = P(1, 1) * P(5, 3)
        den = P(1, 1) * P(7, 2)
        rf = RationalFunction(num, den)
        assert rf == RationalFunction(P(5, 3), P(7, 2))

    def test_canonicalization_idempotent(self):
        rf = RationalFunction(P(6, 12, 6), P(3, 3))
        again = RationalFunction(rf.num, rf.den)
        assert again.num.coeffs == rf.num.coeffs
        assert again.den.coeffs == rf.den.coeffs

    @given(n1=small_poly, d1=nonzero_poly, n2=small_poly, d2=nonzero_poly)
    @settings(max_examples=60)
    def test_arithmetic_matches_pointwise(self, n1, d1, n2, d2):
        a = RationalFunction(n1, d1)
        b = RationalFunction(n2, d2)
        x = F(9, 5)
        if a.den.eval(x) == 0 or b.den.eval(x) == 0:
            return
        s = a + b
        p = a * b
        if s.den.eval(x) != 0:
            assert s.eval(x) == a.eval(x) + b.eval(x)
        if p.den.eval(x) != 0:
            assert p.eval(x) == a.eval(x) * b.eval(x)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), Polynomial(()))
        with pytest.raises(ZeroDivisionError):
            RationalFunction(P(1), P(1)) / RationalFunction(P(0), P(1))

    def test_pole_evaluation_raises(self):
        rf = RationalFunction(P(1), P(-1, 1))
        with pytest.raises(ZeroDivisionError):
            rf.eval(1)

    def test_compose(self):
        rf = RationalFunction(P(0, 1), P(1, 1))  # x/(x+1)
        shifted = rf.compose(P(1, 1))
        assert shifted == RationalFunction(P(1, 1), P(2, 1))

    def test_degree_pair(self):
        rf = RationalFunction(P(1, 0, 3), P(0, 0, 0, 1))
        assert rf.degree_pair == (2, 3)


# -- Fraction oracles for the integer kernels ------------------------------
#
# These are the Fraction algorithms the kernels replaced, on bare coefficient
# tuples, so that they share no code with the library.

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _mul_oracle(a, b):
    """Schoolbook product with a Fraction per partial product."""
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _divmod_oracle(a, b):
    rem = list(a)
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _trim(quo), _trim(rem[:len(b) - 1])


def _monic_oracle(a):
    return tuple(c / a[-1] for c in a) if a else a


def _gcd_oracle(a, b):
    """Euclid on Fractions, monic at each step."""
    x, y = a, b
    while y:
        x, y = y, _monic_oracle(_divmod_oracle(x, y)[1])
    return _monic_oracle(x)


def _eval_oracle(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _compose_oracle(a, inner):
    acc = ()
    for c in reversed(a):
        prod = list(_mul_oracle(acc, inner))
        prod += [F(0)] * (1 - len(prod))
        prod[0] += c
        acc = _trim(prod)
    return acc


def _canonical_oracle(num, den):
    """(num, den) reduced by the gcd, denominator monic."""
    if not num:
        return (), (F(1),)
    g = _gcd_oracle(num, den)
    num, den = _divmod_oracle(num, g)[0], _divmod_oracle(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def _roots_above_oracle(p, a):
    """Classical Sturm count on the Fraction square-free part."""
    g = _gcd_oracle(p, tuple(k * c for k, c in enumerate(p) if k))
    q = _divmod_oracle(p, g)[0]
    if len(q) < 2:
        return 0
    chain = [q, tuple(k * c for k, c in enumerate(q) if k)]
    while chain[-1]:
        chain.append(tuple(-c for c in _divmod_oracle(chain[-2], chain[-1])[1]))
    chain.pop()

    def variations(values):
        signs = [v > 0 for v in values if v]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return (variations([_eval_oracle(c, F(a)) for c in chain])
            - variations([c[-1] for c in chain]))


small_coeffs = st.lists(coeff, min_size=0, max_size=6).map(_trim)
# Coefficients well past 64 bits in numerator and denominator.
wide_coeff = st.builds(F, st.integers(-2 ** 130, 2 ** 130), st.integers(1, 2 ** 100))
wide_coeffs = st.lists(wide_coeff, min_size=0, max_size=5).map(_trim)
any_coeffs = st.one_of(small_coeffs, wide_coeffs)
nonzero_coeffs = any_coeffs.filter(bool)


class TestKernelsAgainstFractionOracles:
    @given(a=any_coeffs, b=any_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_product(self, a, b):
        assert (Polynomial(a) * Polynomial(b)).coeffs == _mul_oracle(a, b)

    @given(a=any_coeffs, b=any_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_sum_difference_and_value(self, a, b):
        n = max(len(a), len(b))
        pa = list(a) + [F(0)] * (n - len(a))
        pb = list(b) + [F(0)] * (n - len(b))
        assert (Polynomial(a) + Polynomial(b)).coeffs == _trim(x + y for x, y in zip(pa, pb))
        assert (Polynomial(a) - Polynomial(b)).coeffs == _trim(x - y for x, y in zip(pa, pb))
        for x in (F(0), F(1), F(-7, 3), F(2 ** 70 + 1, 3 ** 50)):
            assert Polynomial(a).eval(x) == _eval_oracle(a, x)

    @given(a=any_coeffs, inner=any_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_compose(self, a, inner):
        out = Polynomial(a).compose(Polynomial(inner, "m"))
        assert out.coeffs == _compose_oracle(a, inner)
        assert out.var == "m"

    @given(f=nonzero_coeffs, g1=any_coeffs, g2=any_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_gcd_and_canonical_form_with_a_planted_factor(self, f, g1, g2):
        a, b = _mul_oracle(f, g1), _mul_oracle(f, g2)
        g = poly_gcd(Polynomial(a), Polynomial(b))
        assert g.coeffs == _gcd_oracle(a, b)
        if b:
            rf = RationalFunction(Polynomial(a), Polynomial(b))
            assert (rf.num.coeffs, rf.den.coeffs) == _canonical_oracle(a, b)

    def test_gcd_of_zero_and_constant_inputs(self):
        zero, seven, p = P(), P(7), P(F(2, 3), 0, -4)
        assert poly_gcd(zero, zero).is_zero
        assert poly_gcd(zero, p).coeffs == _monic_oracle(p.coeffs) == (F(-1, 6), 0, 1)
        assert poly_gcd(p, zero).coeffs == _monic_oracle(p.coeffs)
        assert poly_gcd(seven, p) == poly_gcd(p, seven) == P(1)
        assert poly_gcd(seven, zero) == poly_gcd(P(F(-5, 2)), P(3)) == P(1)
        assert (p * zero).is_zero and (zero * p).is_zero
        assert (p * seven).coeffs == _mul_oracle(p.coeffs, seven.coeffs)
        assert RationalFunction(zero, p) == RationalFunction(P(0), P(1))
        assert RationalFunction(P(6), P(F(-3, 4))).num == P(-8)

    def test_wide_planted_factor(self):
        big = 2 ** 200 + 235
        f = (F(big, 3), F(-1, big), F(7))
        a = _mul_oracle(f, (F(1, big), F(big + 2)))
        b = _mul_oracle(f, (F(-3), F(5, 7), F(big)))
        assert poly_gcd(Polynomial(a), Polynomial(b)).coeffs == _monic_oracle(f)
        rf = RationalFunction(Polynomial(a), Polynomial(b))
        assert (rf.num.coeffs, rf.den.coeffs) == _canonical_oracle(a, b)

    @given(p=nonzero_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_primitive(self, p):
        prim, factor = Polynomial(p).primitive()
        assert factor > 0
        assert prim.coeffs == tuple(c * factor for c in p)
        assert all(c.denominator == 1 for c in prim.coeffs)

    @given(roots=st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=5),
           extra=small_coeffs, lead=st.sampled_from([F(-3), F(-1, 2), F(1), F(5, 3)]),
           a=st.fractions(-7, 7, max_denominator=3))
    @settings(max_examples=150, deadline=None)
    def test_root_count_with_either_leading_sign(self, roots, extra, lead, a):
        p = (lead,)
        for r in roots:
            p = _mul_oracle(p, (-r, F(1)))
        if extra:
            p = _mul_oracle(p, extra)
        assert count_roots_above(Polynomial(p), a) == _roots_above_oracle(p, a)

    @given(p=wide_coeffs.filter(lambda p: len(p) > 1), a=st.sampled_from([F(0), F(1), F(-2, 3)]))
    @settings(max_examples=60, deadline=None)
    def test_root_count_on_wide_coefficients(self, p, a):
        assert count_roots_above(Polynomial(p), a) == _roots_above_oracle(p, a)

    def test_root_count_with_negative_leading_coefficients(self):
        # -(x-1)(x-2)(x-4): the chain starts with a negative leading term.
        p = _mul_oracle(_mul_oracle((F(-1), F(1)), (F(-2), F(1))), (F(4), F(-1)))
        for a, expected in ((0, 3), (F(3, 2), 2), (3, 1), (5, 0)):
            assert count_roots_above(Polynomial(p), a) == expected
            assert _roots_above_oracle(p, a) == expected
        # 1 - x^2: dividing by p' = -2x takes one elimination step, so a
        # signed scale lc(p') would flip the sign of the next chain element.
        for a, expected in ((-2, 2), (0, 1), (F(1, 2), 1), (2, 0)):
            assert count_roots_above(P(1, 0, -1), a) == expected

    @given(squares=st.lists(st.fractions(0, 9, max_denominator=3), min_size=1, max_size=3),
           lead=st.sampled_from([F(-2), F(-1, 3), F(1), F(7, 2)]),
           a=st.fractions(-4, 4, max_denominator=2))
    @settings(max_examples=100, deadline=None)
    def test_root_count_of_even_polynomials(self, squares, lead, a):
        # Even polynomials skip every other elimination step in the chain.
        p = (lead,)
        for r in squares:
            p = _mul_oracle(p, (-r, F(0), F(1)))
        assert count_roots_above(Polynomial(p), a) == _roots_above_oracle(p, a)


def _int_product(a, b):
    return tuple(int(c) for c in _mul_oracle(a, b))


# Integer coefficient lists, constants and zero (the empty list) included.
# Coefficients up to 2^200 wide, or within [-3, 3], where the first point is
# small and a candidate that divides only one input turns up often.
int_coeffs = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200)),
                      min_size=0, max_size=5).map(_trim)


class TestIntegerGcd:
    """The heuristic gcd against the remainder sequence it falls back to and
    against Euclid on Fractions."""

    @given(f=int_coeffs, g1=int_coeffs, g2=int_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_heuristic_gcd_agrees_with_both_slow_paths(self, f, g1, g2):
        a, b = _int_product(f, g1), _int_product(f, g2)
        heu, prs = list(_gcd_ints(a, b)), list(_gcd_prs(a, b))
        assert heu in (prs, [-v for v in prs])
        assert _monic_oracle(tuple(map(F, heu))) == _gcd_oracle(tuple(map(F, a)),
                                                                tuple(map(F, b)))
        if a or b:
            assert gcd(*heu) == 1 and len(heu) >= len(f)

    def test_candidate_that_divides_only_one_input(self):
        # At the first point xi = 35 the values are 38 and -3572, whose gcd
        # 38 reads back as 3 + n itself: not a divisor of the second input,
        # so a larger point decides.
        assert _gcd_ints([3, 1], [-2, 3, -3]) == [1]

    def test_remainder_sequence_fallback(self, monkeypatch):
        # With no evaluation point left the remainder sequence decides.
        monkeypatch.setattr(polynomials, "_HEU_TRIES", 0)
        f = (-7, 0, 3)
        a, b = _int_product(f, (2 ** 90, -1, 1)), (7, 0, -3)
        assert list(_gcd_ints(a, b)) == [7, 0, -3]


class TestExactDivision:
    def test_nonzero_remainder_raises(self):
        for a, b in (([1, 0, 1], [0, 1]), ([5, 3], [1, 1])):
            with pytest.raises(ArithmeticError):
                _exact_quo(a, b)

    def test_exact_quotient(self):
        assert _exact_quo([2, 3, 1], [1, 1]) == [2, 1]
        assert _exact_quo([], [3, 1]) == []

