import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypomean import (
    FactorableGenerators,
    LinearWeights,
    TableWeights,
    check_hypotheses,
    parse_weight_spec,
)


class TestWeightValues:
    def test_odd_family_values(self):
        w = LinearWeights(2, 1)
        assert w.weight(0) == 1
        assert w.weight(3) == 7

    def test_steep_family_value(self):
        assert LinearWeights(3, 1).weight(2) == 7

    def test_table_lookup_and_range(self):
        t = TableWeights((1, Fraction(3, 2), 2))
        assert t.weight(1) == Fraction(3, 2)
        with pytest.raises(IndexError):
            t.weight(3)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            LinearWeights(2, 1).weight(-1)

    @pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 0), (0, -2)])
    def test_invalid_linear_parameters(self, alpha, beta):
        with pytest.raises(ValueError):
            LinearWeights(alpha, beta)

    @pytest.mark.parametrize("values", [(), (0, 1), (1, -1)])
    def test_invalid_tables(self, values):
        with pytest.raises(ValueError):
            TableWeights(values)


def _partial_sum(g: FactorableGenerators, i: int) -> Fraction:
    return Fraction(g.scaled(i)[1], g.scale)


class TestPartialSums:
    def test_spec_values(self, odd_gens, steep_gens):
        assert odd_gens.scaled(0) == (1, 1, 1)
        assert odd_gens.scaled(3) == (7, 16, 84)
        assert steep_gens.scaled(2) == (7, 12, 66)

    def test_odd_partial_sums_are_perfect_squares(self, odd_gens):
        for i in range(1001):
            assert odd_gens.scaled(i)[1] == (i + 1) ** 2

    def test_generators_values(self, odd_gens):
        # lambda = 1: c^_i = w_i and W^_i = 1/a_i.
        assert odd_gens.scale == 1
        assert [odd_gens.scaled(i)[:2] for i in range(3)] == [(1, 1), (3, 4), (5, 9)]

    @given(i=st.integers(0, 200),
           alpha=st.fractions(0, 10, max_denominator=20),
           beta=st.fractions(Fraction(1, 20), 10, max_denominator=20))
    @settings(max_examples=60)
    def test_scaled_generators_match_the_weights(self, i, alpha, beta):
        weights = LinearWeights(alpha, beta)
        g = FactorableGenerators(weights)
        w = [weights.weight(k) for k in range(i + 1)]
        assert g.scaled(i) == (g.scale * w[i], g.scale * sum(w),
                               g.scale ** 2 * sum(x * x for x in w))

    @given(i=st.integers(0, 200),
           alpha=st.fractions(0, 10, max_denominator=20),
           beta=st.fractions(Fraction(1, 20), 10, max_denominator=20))
    @settings(max_examples=60)
    def test_partial_sums_strictly_increase(self, i, alpha, beta):
        g = FactorableGenerators(LinearWeights(alpha, beta))
        assert _partial_sum(g, i + 1) > _partial_sum(g, i)

    def test_concurrent_reads_consistent(self):
        g = FactorableGenerators(LinearWeights(2, 1))
        errors = []

        def reader():
            try:
                for i in range(300):
                    if g.scaled(i) != (2 * i + 1, (i + 1) ** 2,
                                       (i + 1) * (2 * i + 1) * (2 * i + 3) // 3):
                        errors.append(i)
                    j = i % 40
                    entries, den = g.b_column_scaled(j)
                    if Fraction(entries[-1], den) != -Fraction((j + 1) ** 2, (j + 2) ** 2):
                        errors.append(("b", j))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestHypothesisChecks:
    def test_odd_family_prefix_passes(self, odd_gens):
        report = check_hypotheses(odd_gens, 50)
        assert report.all_passed
        assert report.prefix_length == 50
        assert "not decidable" in report.analytic_notes
        assert "analytically" in report.analytic_notes

    def test_constant_table_prefix_passes(self):
        g = FactorableGenerators(TableWeights((1, 1, 1)))
        report = check_hypotheses(g, 2)
        assert report.all_passed
        assert "analytically" not in report.analytic_notes

    def test_ratio_violation_detected(self):
        # a_1/c_1 = (100/101)/(1/100) far exceeds a_0/c_0 = 1
        g = FactorableGenerators(TableWeights((1, Fraction(1, 100))))
        report = check_hypotheses(g, 1)
        by_name = {c.name: c for c in report.checks}
        ratio = by_name["a_over_c_strictly_decreasing"]
        assert not ratio.passed
        assert ratio.first_violation == 0
        assert by_name["a_strictly_decreasing"].passed

    def test_zero_weight_breaks_monotonicity(self):
        g = FactorableGenerators(TableWeights((1, 0, 5)))
        report = check_hypotheses(g, 2)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["a_strictly_decreasing"].passed
        assert by_name["a_strictly_decreasing"].first_violation == 0
        assert not by_name["a_over_c_strictly_decreasing"].passed

    def test_requires_positive_prefix_length(self, odd_gens):
        with pytest.raises(ValueError):
            check_hypotheses(odd_gens, 0)


class TestSpecParsing:
    @pytest.mark.parametrize("spec", ["linear:2,1", "linear:1/2,3/4",
                                      "table:1,3/2,2", "table:5"])
    def test_round_trip(self, spec):
        assert parse_weight_spec(spec).spec_string() == spec

    @pytest.mark.parametrize("bad", [
        "linear:1", "linear:1,2,3", "linear:1,0", "linear:-1,1",
        "table:", "table:0,1", "table:1,-2", "quadratic:1,1", "2,1",
        "linear:a,b", "table:1/0",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_weight_spec(bad)

    def test_parses_fraction_values(self):
        w = parse_weight_spec("linear:2,1")
        assert isinstance(w, LinearWeights)
        assert (w.alpha, w.beta) == (2, 1)
        t = parse_weight_spec("table:1,1/3")
        assert isinstance(t, TableWeights)
        assert t.values == (1, Fraction(1, 3))
