import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypomean import (
    ExactMatrix,
    FactorableGenerators,
    FactoredSection,
    LinearWeights,
    MatrixKind,
    ODD_Q,
    TableWeights,
    b_entry,
    finite_section,
    fraction_str,
    m_entry,
    p_entry_oracle,
)

F = Fraction

# Positive rational weights, long enough for the sections up to N = 30.
RATIONAL_TABLE = tuple(F(k % 5 + 1, k % 3 + 1) for k in range(32))


# The entries of M and B from their definitions on Fractions, with w_k and
# a_i = 1/W_i read from the weights: the reference for m_entry, b_entry and
# the integer columns of B, which all read the integer generators.

def _w(g, k):
    return g.weights.weight(k)


def _a(g, i):
    return 1 / sum(_w(g, k) for k in range(i + 1))


def _m_definition(g, i, j):
    return _a(g, i) * _w(g, j) if j <= i else 0


def _b_definition(g, i, j):
    if i > j + 1:
        return 0
    ratio = _a(g, j + 1) / _a(g, j)
    if i == j + 1:
        return -ratio
    return _w(g, i) * (1 / _w(g, j) - ratio / _w(g, j + 1))


DEFINITION_FAMILIES = (LinearWeights(2, 1), LinearWeights(0, 1),
                       LinearWeights(F(7, 3), F(5, 8)), TableWeights(RATIONAL_TABLE))


class TestMeanMatrixEntries:
    def test_spec_values(self, odd_gens):
        assert m_entry(odd_gens, 0, 0) == 1
        assert m_entry(odd_gens, 2, 1) == F(1, 3)
        assert m_entry(odd_gens, 1, 2) == 0

    def test_rows_sum_to_one(self, all_families):
        for g in all_families:
            for i in range(30):
                assert sum(m_entry(g, i, j) for j in range(i + 1)) == 1

    def test_entries_equal_the_definition(self):
        for weights in DEFINITION_FAMILIES:
            g = FactorableGenerators(weights)
            for i in range(25):
                for j in range(25):
                    assert m_entry(g, i, j) == _m_definition(g, i, j), (weights, i, j)


class TestAuxiliaryFactorEntries:
    def test_entries_equal_the_definition(self):
        for weights in DEFINITION_FAMILIES:
            g = FactorableGenerators(weights)
            for i in range(25):
                for j in range(25):
                    assert b_entry(g, i, j) == _b_definition(g, i, j), (weights, i, j)

    def test_spec_values(self, odd_gens):
        assert b_entry(odd_gens, 0, 0) == F(11, 12)
        assert b_entry(odd_gens, 1, 0) == F(-1, 4)
        assert b_entry(odd_gens, 2, 0) == 0
        assert b_entry(odd_gens, 1, 1) == F(11, 15)

    def test_column_support(self, all_families):
        for g in all_families:
            for j in range(12):
                for i in range(j + 2, j + 8):
                    assert b_entry(g, i, j) == 0


class TestInterrupterEntries:
    def test_closed_form_spec_values(self, odd_gens):
        P = finite_section(odd_gens, MatrixKind.P_CLOSED, 1)
        assert P.entry(0, 0) == F(65, 72)
        assert P.entry(1, 0) == F(11, 270)
        assert P.entry(0, 1) == F(11, 270)

    def test_oracle_spec_values(self, odd_gens):
        assert p_entry_oracle(odd_gens, 0, 0) == F(11, 12) ** 2 + F(1, 4) ** 2
        assert p_entry_oracle(odd_gens, 0, 1) == F(11, 270)

    @given(i=st.integers(0, 15), j=st.integers(0, 15))
    @settings(max_examples=40)
    def test_oracle_symmetry(self, i, j, steep_gens):
        assert p_entry_oracle(steep_gens, i, j) == p_entry_oracle(steep_gens, j, i)

    @pytest.mark.parametrize("weights", [LinearWeights(3, 1), LinearWeights(1, 5),
                                         TableWeights(RATIONAL_TABLE)])
    def test_oracle_equals_uncached_sum_of_b_entries(self, weights):
        def by_b_entries(g, i, j):
            return sum(b_entry(g, k, i) * b_entry(g, k, j)
                       for k in range(min(i, j) + 2))

        pairs = [(i, j) for i in range(14) for j in range(14)]
        for i, j in pairs:
            fresh = FactorableGenerators(weights)
            assert p_entry_oracle(fresh, i, j) == by_b_entries(fresh, i, j)
        warmed = FactorableGenerators(weights)
        finite_section(warmed, MatrixKind.P_ORACLE, 13)
        for i, j in pairs:
            assert p_entry_oracle(warmed, i, j) == by_b_entries(warmed, i, j)

    def test_oracle_on_a_rational_family_at_n30(self):
        # lambda = 24: the integer columns of B carry the scale.
        g = FactorableGenerators(LinearWeights(F(7, 3), F(5, 8)))
        closed = finite_section(g, MatrixKind.P_CLOSED, 30)
        for i in range(31):
            for j in range(i, 31):
                oracle = p_entry_oracle(g, i, j)
                assert oracle == closed.entry(i, j), (i, j)
                assert oracle == sum(b_entry(g, k, i) * b_entry(g, k, j)
                                     for k in range(i + 2)), (i, j)

    def test_b_columns_equal_the_entry_definition(self):
        g = FactorableGenerators(TableWeights(RATIONAL_TABLE))
        for j in range(20):
            entries, den = g.b_column_scaled(j)
            assert tuple(F(x, den) for x in entries) == tuple(
                _b_definition(g, i, j) for i in range(j + 2))


class TestQEntries:
    def test_spec_values(self, odd_gens):
        Q = finite_section(odd_gens, MatrixKind.Q, 1)
        assert Q.entry(0, 0) == F(7, 72)
        assert Q.entry(1, 0) == F(-11, 270)
        assert Q.entry(1, 1) == F(83, 405)

    def test_specialized_closed_form_values(self):
        assert ODD_Q.diagonal.eval(0) == F(7, 72)
        assert ODD_Q.offdiag_row.eval(1) * ODD_Q.offdiag_col.eval(0) == F(-11, 270)
        assert ODD_Q.diagonal.eval(1) == F(249, 1215) == F(83, 405)

    def test_specialization_agreement_small_grid(self, odd_gens):
        Q = finite_section(odd_gens, MatrixKind.Q, 12)
        for m in range(13):
            assert Q.entry(m, m) == ODD_Q.diagonal.eval(m)
            for n in range(m):
                closed = ODD_Q.offdiag_row.eval(m) * ODD_Q.offdiag_col.eval(n)
                assert Q.entry(m, n) == Q.entry(n, m) == closed


class TestFiniteSections:
    def test_q_section_size_zero(self, odd_gens):
        section = finite_section(odd_gens, MatrixKind.Q, 0)
        assert section.entries == ((F(7, 72),),)
        assert section.symmetric

    def test_m_section(self, odd_gens):
        section = finite_section(odd_gens, MatrixKind.M, 1)
        assert section.entries == ((F(1), F(0)), (F(1, 4), F(3, 4)))
        assert not section.symmetric

    def test_closed_and_oracle_sections_identical(self, all_families):
        for g in (*all_families, FactorableGenerators(LinearWeights(1, 5)),
                  FactorableGenerators(TableWeights(RATIONAL_TABLE))):
            closed = finite_section(g, MatrixKind.P_CLOSED, 30)
            oracle = finite_section(g, MatrixKind.P_ORACLE, 30)
            assert closed.entries == oracle.entries, g.spec_string()

    def test_q_section_is_exactly_symmetric(self, steep_gens):
        section = finite_section(steep_gens, MatrixKind.Q, 12)
        assert section.symmetric
        for i in range(13):
            for j in range(13):
                assert section.entry(i, j) == section.entry(j, i)

    def test_section_matches_entry_functions(self, natural_gens):
        Q = finite_section(natural_gens, MatrixKind.Q, 8)
        P = finite_section(natural_gens, MatrixKind.P_CLOSED, 8)
        B = finite_section(natural_gens, MatrixKind.B, 8)
        for i in range(9):
            for j in range(9):
                assert Q.entry(i, j) == (i == j) - P.entry(i, j)
                assert B.entry(i, j) == b_entry(natural_gens, i, j)

    def test_q_and_p_sections_are_factored_with_lazy_entries(self, steep_gens):
        for kind in (MatrixKind.Q, MatrixKind.P_CLOSED):
            section = finite_section(steep_gens, kind, 6)
            assert isinstance(section, FactoredSection)
            assert (section.n_rows, section.n_cols) == (7, 7)
            assert "entries" not in vars(section)
            values = [[section.entry(i, j) for j in range(7)] for i in range(7)]
            assert "entries" not in vars(section)
            assert section.entries == tuple(map(tuple, values))
            assert "entries" in vars(section)

    def test_rejects_negative_size(self, odd_gens):
        with pytest.raises(ValueError):
            finite_section(odd_gens, MatrixKind.Q, -1)

    def test_short_table_raises_range_error(self):
        g = FactorableGenerators(TableWeights((1, 1)))
        with pytest.raises(IndexError):
            finite_section(g, MatrixKind.Q, 3)


class TestExactMatrix:
    def test_symmetric_flag_validated(self):
        with pytest.raises(ValueError):
            ExactMatrix(((F(1), F(2)), (F(3), F(4))), symmetric=True)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix(((F(1), F(2)), (F(3),)))

    def test_entries_become_fractions_and_fractions_are_kept(self):
        half = F(1, 2)
        m = ExactMatrix(((half, 1), ("1", F(0))), symmetric=True)
        assert m.entries[0][0] is half
        assert all(type(x) is Fraction for row in m.entries for x in row)
        assert m.entries == ((half, F(1)), (F(1), F(0)))

    def test_string_rows_round_trip(self, odd_gens):
        section = finite_section(odd_gens, MatrixKind.Q, 2)
        rows = section.to_string_rows()
        rebuilt = [[Fraction(s) for s in row] for row in rows]
        assert tuple(tuple(r) for r in rebuilt) == section.entries

    def test_fraction_str(self):
        assert fraction_str(F(7, 72)) == "7/72"
        assert fraction_str(F(-11, 270)) == "-11/270"
        assert fraction_str(F(4)) == "4"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.11")
    def test_fraction_str_keeps_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        huge = F(10 ** 5000 + 1, 3)
        text = fraction_str(huge)
        assert sys.get_int_max_str_digits() == limit
        assert text.endswith("/3") and len(text) == 5003
