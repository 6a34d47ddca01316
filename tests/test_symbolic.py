import math
import tracemalloc
from fractions import Fraction

import pytest

from hypomean import (
    FactorableGenerators,
    LinearWeights,
    MatrixKind,
    ODD_CERTIFICATE_REFERENCE,
    ODD_FLOOR,
    Polynomial,
    RationalFunction,
    TableWeights,
    elimination_multiplier,
    finite_section,
    induction_certificate,
    known_floor,
    reference_ratio_odd,
    symbolic_q,
    symbolic_tridiagonal,
    tridiagonalize,
)
from hypomean import polynomials, symbolic
from hypomean.cli import EXIT_USAGE, main
from hypomean.symbolic import (
    CertificateInconclusive,
    certify_nonneg_on_ray,
    certify_positive_on_ray,
)

F = Fraction

FAMILIES = [LinearWeights(2, 1), LinearWeights(1, 5), LinearWeights(3, 1),
            LinearWeights(0, 1)]
SAMPLES = (0, 1, 2, 7, 19)


def _poly(*coeffs):
    return Polynomial(coeffs, "x")


class TestPositiveOnRay:
    def test_nonnegative_coefficients(self):
        assert certify_positive_on_ray(_poly(1, 3, 2), 0) == "coefficients"

    def test_shifted_coefficients(self):
        # x - 1 has a mixed sign pattern but is x' + 1 with x = x' + 2.
        assert certify_positive_on_ray(_poly(-1, 1), 2) == "shifted-coefficients"

    def test_sturm(self):
        # x^2 - 2x + 2 = (x-1)^2 + 1 has no real root.
        assert certify_positive_on_ray(_poly(2, -2, 1), 0) == "sturm"

    def test_roots_beyond_the_start(self):
        # (x-2)(x-3) is 6 at x = 0 but negative on (2, 3).
        p = _poly(6, -5, 1)
        assert p.eval(0) > 0
        assert certify_positive_on_ray(p, 0) is None
        assert certify_positive_on_ray(p, 4) == "shifted-coefficients"

    def test_not_positive_at_the_start(self):
        assert certify_positive_on_ray(_poly(-1, 1), 1) is None
        assert certify_positive_on_ray(_poly(), 0) is None


class TestNonnegOnRay:
    def test_zero_polynomial(self):
        assert certify_nonneg_on_ray(_poly(), 0) == (True, "zero polynomial")

    def test_roots_beyond_the_start(self):
        decided, why = certify_nonneg_on_ray(_poly(6, -5, 1), 0)
        assert not decided
        assert "not decided" in why

    def test_negative_at_the_start(self):
        assert certify_nonneg_on_ray(_poly(-1, 1), 0) == (
            False, "value at 0 is negative")

    def test_negative_leading_coefficient(self):
        assert certify_nonneg_on_ray(_poly(5, 0, -1), 0) == (
            False, "negative leading coefficient")

    def test_shifted_coefficients_and_sturm(self):
        assert certify_nonneg_on_ray(_poly(-3, 1), 3) == (True, "shifted-coefficients")
        assert certify_nonneg_on_ray(_poly(2, -2, 1), 0) == (True, "sturm")


@pytest.mark.parametrize("weights", FAMILIES, ids=lambda w: w.spec_string())
class TestAgainstNumericSections:
    def test_symbolic_q(self, weights):
        Q = finite_section(FactorableGenerators(weights), MatrixKind.Q, max(SAMPLES) + 3)
        q = symbolic_q(weights)
        assert (q.offdiag_row.var, q.offdiag_col.var) == ("m", "n")
        for n in SAMPLES:
            assert q.diagonal.eval(n) == Q.entry(n, n)
            for m in (n + 1, n + 3):
                assert (q.offdiag_row.eval(m) * q.offdiag_col.eval(n)
                        == Q.entry(m, n))

    def test_symbolic_tridiagonal(self, weights):
        N = max(SAMPLES) + 1
        Q = finite_section(FactorableGenerators(weights), MatrixKind.Q, N)
        T = tridiagonalize(Q)
        tri = symbolic_tridiagonal(weights)
        for n in SAMPLES:
            assert tri.z.eval(n) == elimination_multiplier(Q, n)
            assert tri.d.eval(n) == T.d[n]
            assert tri.s.eval(n) == T.s[n]


class TestKnownFloor:
    def test_odd_family_and_its_multiples(self):
        for weights in (LinearWeights(2, 1), LinearWeights(4, 2),
                        LinearWeights(1, F(1, 2)), LinearWeights(F(2, 3), F(1, 3))):
            assert known_floor(weights) is ODD_FLOOR

    def test_other_families_have_none(self):
        for weights in (LinearWeights(1, 1), LinearWeights(3, 1),
                        LinearWeights(0, 1), TableWeights((1, 3, 5, 7))):
            assert known_floor(weights) is None


class TestInductionCertificate:
    def test_known_floor_matches_the_reference(self):
        weights = LinearWeights(2, 1)
        cert = induction_certificate(weights, known_floor(weights))
        assert cert.nonneg_for_n_ge_1 and cert.base_holds
        assert reference_ratio_odd(cert.certificate) == 1
        assert cert.certificate.coeffs == tuple(F(c) for c in ODD_CERTIFICATE_REFERENCE)
        # Both sides are primitive, so the ratio can only be +1 or -1.
        assert math.gcd(*ODD_CERTIFICATE_REFERENCE) == 1
        assert reference_ratio_odd(-cert.certificate) == -1
        assert reference_ratio_odd(cert.certificate.shift(1)) is None

    def test_floor_vanishing_at_zero_is_rejected(self):
        floor = RationalFunction(Polynomial((0, 1)), Polynomial((1, 1)))
        with pytest.raises(ValueError, match="vanishes at 0"):
            induction_certificate(LinearWeights(2, 1), floor)


class TestFamilyMemo:
    def test_repeated_calls_equal_a_fresh_derivation(self):
        for weights in FAMILIES + [LinearWeights(F(7, 3), F(5, 8))]:
            q, tri = symbolic_q(weights), symbolic_tridiagonal(weights)
            assert symbolic_q(weights) is q
            assert symbolic_tridiagonal(weights) is tri
            fresh_q = symbolic._symbolic_q.__wrapped__(weights.alpha, weights.beta)
            assert fresh_q == q
            assert symbolic._eliminate.__wrapped__(fresh_q) == tri

    def test_memo_is_keyed_on_the_weights_not_their_ratio(self):
        odd, scaled = LinearWeights(2, 1), LinearWeights(4, 2)
        q, q2 = symbolic_q(odd), symbolic_q(scaled)
        assert q2.diagonal == q.diagonal
        assert q2.offdiag_row == q.offdiag_row.scale(F(1, 2))
        assert q2.offdiag_col == q.offdiag_col.scale(2)
        tri, tri2 = symbolic_tridiagonal(odd), symbolic_tridiagonal(scaled)
        assert (tri2.z, tri2.d, tri2.s) == (tri.z, tri.d, tri.s)

    def test_memo_is_bounded(self):
        assert symbolic._symbolic_q.cache_info().maxsize == symbolic.FAMILY_MEMO_SIZE
        assert symbolic._eliminate.cache_info().maxsize == symbolic.FAMILY_MEMO_SIZE

    def test_table_weights_still_raise(self, capsys):
        symbolic_tridiagonal(LinearWeights(1, 1))
        for derive in (symbolic_q, symbolic_tridiagonal):
            with pytest.raises(ValueError, match="linear weight family only"):
                derive(TableWeights((1, 3, 5, 7)))
        assert main(["symbolic", "--weights", "table:1,3,5", "--emit", "tridiag"]) == EXIT_USAGE
        assert "linear weight family only" in capsys.readouterr().err

    def test_reference_certificate_from_a_warm_memo(self):
        for weights in (LinearWeights(2, 1), LinearWeights(4, 2)):
            for _ in range(2):
                cert = induction_certificate(weights, known_floor(weights))
                assert cert.nonneg_for_n_ge_1 and cert.base_holds
                assert reference_ratio_odd(cert.certificate) == 1


# (a, b, c) of floors L(n) = (n+a)/(n^2+bn+c) for linear:2,1: the paper's
# floor first; (3/2, -2, 1) has a denominator that vanishes at n = 1.
ROUND_FLOORS = [(F(5, 2), 5, F(37, 4)), (F(1, 2), F(1, 2), F(33, 4)),
                (F(3, 2), -2, 1), (F(7, 2), 6, 12), (F(3, 2), 2, 6)]


def _floor_round():
    weights = LinearWeights(2, 1)
    for a, b, c in ROUND_FLOORS:
        floor = RationalFunction(Polynomial((a, 1)), Polynomial((c, b, 1)))
        try:
            induction_certificate(weights, floor)
        except CertificateInconclusive:
            pass


def test_floor_rounds_leave_no_memory_behind():
    # A floor search runs these rounds back to back, and its peak memory
    # must not climb with their number.  Coefficient tuples grown from
    # generators did: the blocks they freed filled the tuple free lists.
    for _ in range(3):
        _floor_round()
    tracemalloc.start()
    try:
        _floor_round()
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(40):
            _floor_round()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024


# The five families of a floor search and floors (n+a)/(n^2+bn+c) that
# reach each outcome: certified, not certified, a denominator left to the
# Sturm count (b < 0), and a floor that cannot be certified positive.
SEARCH_FAMILIES = [LinearWeights(2, 1), LinearWeights(1, 1), LinearWeights(3, 1),
                   LinearWeights(0, 1), LinearWeights(1, 5)]
SEARCH_FLOORS = ROUND_FLOORS + [(F(1, 2), F(-3, 2), F(1, 4)), (F(3), 0, F(5, 2)),
                                (4, F(-1, 2), 9), (1, 7, F(1, 2))]


def _search_outcomes():
    symbolic._symbolic_q.cache_clear()
    symbolic._eliminate.cache_clear()
    outcomes = []
    for weights in SEARCH_FAMILIES:
        for a, b, c in SEARCH_FLOORS:
            floor = RationalFunction(Polynomial((a, 1)), Polynomial((c, b, 1)))
            try:
                outcomes.append(induction_certificate(weights, floor))
            except CertificateInconclusive as exc:
                outcomes.append(str(exc))
    return outcomes


def test_floor_search_agrees_with_the_remainder_sequence(monkeypatch):
    # The memos are cleared before each side, so both derive every family
    # with their own gcd.
    heuristic = _search_outcomes()
    monkeypatch.setattr(polynomials, "_gcd_ints", polynomials._gcd_prs)
    assert _search_outcomes() == heuristic
    assert any(isinstance(o, str) for o in heuristic)
    assert any(not isinstance(o, str) and o.nonneg_for_n_ge_1 and o.base_holds
               for o in heuristic)
    assert any(not isinstance(o, str) and not o.nonneg_for_n_ge_1 for o in heuristic)

