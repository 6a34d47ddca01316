from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypomean.positivity as positivity
from hypomean import (
    CertifyOptions,
    DegenerateFactorError,
    DeltaSequence,
    FactorableGenerators,
    FactoredSection,
    LinearWeights,
    MatrixKind,
    StructureError,
    TableWeights,
    TridiagonalForm,
    Verdict,
    certify,
    Polynomial,
    RationalFunction,
    check_delta_bounds,
    d_closed_odd,
    delta_sequence,
    elimination_multiplier,
    finite_section,
    leading_minors,
    odd_delta_floor,
    q_entry,
    s_closed_odd,
    symbolic_q,
    symbolic_tridiagonal,
    tridiagonalize,
    z_closed_odd,
)
from hypomean.matrices import ExactMatrix
from hypomean.positivity import _det_pivoted

F = Fraction

# The conftest families, the constant weights linear:0,1 and two constant
# tables (long enough for N <= 60).
EQUIVALENCE_FAMILIES = tuple(FactorableGenerators(w) for w in (
    LinearWeights(2, 1), LinearWeights(1, 1), LinearWeights(3, 1),
    LinearWeights(0, 1), TableWeights((1,) * 62), TableWeights((F(5, 2),) * 62)))


def _dense(section) -> ExactMatrix:
    return ExactMatrix(section.entries, symmetric=True)


def _tridiagonal_outcome(Q, z):
    try:
        return tridiagonalize(Q, z)
    except StructureError as exc:
        return ("StructureError", exc.position, exc.value)


@st.composite
def _sections_with_multipliers(draw):
    g = draw(st.sampled_from(EQUIVALENCE_FAMILIES))
    kind = draw(st.sampled_from((MatrixKind.Q, MatrixKind.P_CLOSED)))
    N = draw(st.integers(0, 8))
    section = finite_section(g, kind, N)
    mode = draw(st.sampled_from(("exact", "zero", "mixed")))
    z = []
    for n in range(N):
        pick = mode if mode != "mixed" else draw(
            st.sampled_from(("exact", "zero", "random")))
        if pick == "exact":
            z.append(elimination_multiplier(section, n))
        elif pick == "zero":
            z.append(F(0))
        else:
            z.append(draw(st.fractions(-3, 3, max_denominator=7)))
    return section, z


@st.composite
def _random_factors_with_multipliers(draw):
    """Arbitrary small factors with frequent zeros, so that many patterns
    of vanishing u_i and v_j reach the structure check."""
    N = draw(st.integers(0, 7))
    small = st.integers(-2, 2).map(F)
    diag, row, col, z = (tuple(draw(small) for _ in range(size))
                         for size in (N + 1, N + 1, N + 1, N))
    return FactoredSection(diag, row, col), z


@st.composite
def _symmetric_matrices(draw):
    """Small symmetric rational matrices, mostly zeros, so that leading
    pivots vanish and the pivoted fallback runs."""
    n = draw(st.integers(1, 6))
    value = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 2)))
    upper = {(i, j): draw(value) for i in range(n) for j in range(i, n)}
    return ExactMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n))
                             for i in range(n)), symmetric=True)


class TestEliminationMultiplier:
    def test_closed_values(self):
        assert z_closed_odd(0) == F(3, 4)
        assert z_closed_odd(1) == F(8, 9)

    def test_matches_closed_form_to_50(self, odd_gens):
        Q = finite_section(odd_gens, MatrixKind.Q, 51)
        for n in range(51):
            assert elimination_multiplier(Q, n) == z_closed_odd(n)

    def test_constant_weights_give_zero_multiplier(self):
        g = FactorableGenerators(TableWeights((1, 1, 1, 1)))
        Q = finite_section(g, MatrixKind.Q, 2)
        assert elimination_multiplier(Q, 0) == 0
        assert elimination_multiplier(Q, 1) == 0

    def test_natural_weights_multiplier_is_one(self, natural_gens):
        # the column factor is a constant for w_n = n+1
        Q = finite_section(natural_gens, MatrixKind.Q, 8)
        assert elimination_multiplier(Q, 0) == 1
        assert elimination_multiplier(Q, 7) == 1

    def test_p_section_gives_the_same_multipliers(self, steep_gens):
        Q = finite_section(steep_gens, MatrixKind.Q, 9)
        P = finite_section(steep_gens, MatrixKind.P_CLOSED, 9)
        for n in range(9):
            assert elimination_multiplier(P, n) == elimination_multiplier(Q, n)


class TestTridiagonalize:
    def test_n1_values(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        T = tridiagonalize(Q1, [z_closed_odd(0)])
        assert T.d == (F(197, 720), F(83, 405))
        assert T.s == (F(-7, 36),)

    def test_n1_determinant_identity(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        T = tridiagonalize(Q1, [z_closed_odd(0)])
        det_direct = Q1.entry(0, 0) * Q1.entry(1, 1) - Q1.entry(0, 1) ** 2
        assert det_direct == F(2663, 145800)
        assert T.d[0] * T.d[1] - T.s[0] ** 2 == F(2663, 145800)

    def test_n4_matches_closed_forms(self, odd_gens):
        Q4 = finite_section(odd_gens, MatrixKind.Q, 4)
        T = tridiagonalize(Q4, [z_closed_odd(n) for n in range(4)])
        assert T.d[0] == F(197, 720)
        assert T.d[1] == F(13488, 34020) == F(1124, 2835)
        for n in range(4):
            assert T.d[n] == d_closed_odd(n)
            assert T.s[n] == s_closed_odd(n)
        assert T.d[4] == q_entry(odd_gens, 4, 4)

    def test_wrong_multipliers_raise_structure_error(self, odd_gens):
        Q3 = finite_section(odd_gens, MatrixKind.Q, 3)
        with pytest.raises(StructureError) as exc:
            tridiagonalize(Q3, [F(1, 2)] * 3)
        i, j = exc.value.position
        assert abs(i - j) > 1

    def test_structure_error_names_a_value_past_the_digit_limit(self):
        value = F(10**5000 + 1, 3)
        message = str(StructureError(0, 2, value))
        assert message.startswith("entry (0, 2) = 1" + "0" * 4999 + "1/3 survived")

    def test_requires_symmetric_section(self, odd_gens):
        M1 = finite_section(odd_gens, MatrixKind.M, 1)
        with pytest.raises(ValueError):
            tridiagonalize(M1, [F(1)])

    def test_multiplier_count_checked(self, odd_gens):
        Q2 = finite_section(odd_gens, MatrixKind.Q, 2)
        with pytest.raises(ValueError):
            tridiagonalize(Q2, [F(1, 2)])


class TestFactoredTridiagonalize:
    """The O(N) route on FactoredSection against dense elimination."""

    @given(case=_sections_with_multipliers())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_elimination(self, case):
        section, z = case
        assert isinstance(section, FactoredSection)
        assert (_tridiagonal_outcome(section, z)
                == _tridiagonal_outcome(_dense(section), z))

    @given(case=_random_factors_with_multipliers())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_elimination_on_arbitrary_factors(self, case):
        section, z = case
        assert (_tridiagonal_outcome(section, z)
                == _tridiagonal_outcome(_dense(section), z))

    @pytest.mark.parametrize("N", [0, 1, 2, 7, 31, 60])
    def test_certify_deltas_match_dense_route(self, N):
        for g in EQUIVALENCE_FAMILIES:
            section = finite_section(g, MatrixKind.Q, N)
            z = [elimination_multiplier(section, n) for n in range(N)]
            dense = delta_sequence(tridiagonalize(_dense(section), z))
            report = certify(g, N)
            assert report.deltas == dense.deltas
            assert report.determinant == dense.determinant()


class TestDeltaSequence:
    def test_flagship_n1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        D = delta_sequence(tridiagonalize(Q1, [z_closed_odd(0)]))
        assert D.deltas[0] == F(197, 720)
        assert D.deltas[1] == F(83, 405) - F(245, 1773)
        assert D.all_positive and D.complete

    def test_decoupled_diagonal(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1)), s=(F(0),)))
        assert D.deltas == (F(1), F(1))
        assert D.all_positive

    def test_singular_two_by_two(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1)), s=(F(1),)))
        assert D.deltas == (F(1), F(0))
        assert D.stopped_at == 1
        assert not D.all_positive
        assert D.determinant() == 0

    def test_mid_zero_truncates(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1), F(9)), s=(F(1), F(1))))
        assert D.deltas == (F(1), F(0))
        assert D.stopped_at == 1
        assert D.truncated
        assert D.determinant() is None

    def test_negative_pivot_recorded(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1)), s=(F(2),)))
        assert D.deltas == (F(1), F(-3))
        assert D.first_nonpositive == 1
        assert D.determinant() == F(-3)


class TestLeadingMinors:
    def test_flagship_q1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        assert leading_minors(Q1) == [F(7, 72), F(2663, 145800)]

    def test_identity(self):
        eye = ExactMatrix(tuple(
            tuple(F(int(i == j)) for j in range(3)) for i in range(3)),
            symmetric=True)
        assert leading_minors(eye) == [F(1), F(1), F(1)]

    def test_zero_pivot_fallback(self):
        m = ExactMatrix(((F(0), F(1)), (F(1), F(0))), symmetric=True)
        assert leading_minors(m) == [F(0), F(-1)]

    @given(m=_symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_pivoted_determinants_of_leading_blocks(self, m):
        blocks = [_det_pivoted([list(row[:k + 1]) for row in m.entries[:k + 1]])
                  for k in range(m.n_rows)]
        assert leading_minors(m) == blocks

    def test_requires_symmetric_section(self, odd_gens):
        with pytest.raises(ValueError, match="symmetric"):
            leading_minors(finite_section(odd_gens, MatrixKind.M, 2))
        with pytest.raises(ValueError, match="symmetric"):
            leading_minors(ExactMatrix(((F(1), F(2)), (F(2), F(1)), (F(0), F(0)))))

    def test_agrees_with_pivot_products(self, odd_gens):
        minors = leading_minors(finite_section(odd_gens, MatrixKind.Q, 10))
        for N in range(11):
            QN = finite_section(odd_gens, MatrixKind.Q, N)
            T = tridiagonalize(QN, [z_closed_odd(n) for n in range(N)])
            assert delta_sequence(T).determinant() == minors[N]


def _odd_final_floor() -> RationalFunction:
    """The paper's separate floor for the last pivot of Q_N, w_n = 2n+1:
    (24N^8 + ... + 14) / (6 (N+1)^4 (N+2)^3 (2N+1)^2 (2N+3))."""
    num = Polynomial((14, 216, 1070, 2297, 2234, 1160, 432, 140, 24))
    den = (Polynomial((6,)) * Polynomial((1, 1)) ** 4 * Polynomial((2, 1)) ** 3
           * Polynomial((1, 2)) ** 2 * Polynomial((3, 2)))
    return RationalFunction(num, den)


def _tridiagonal(g, N):
    Q = finite_section(g, MatrixKind.Q, N)
    return tridiagonalize(Q, [elimination_multiplier(Q, n) for n in range(N)])


class TestDeltaBounds:
    def test_base_anchor_cross_multiplication(self):
        assert odd_delta_floor().eval(0) == F(10, 37)
        assert 197 * 37 == 7289 > 7200 == 720 * 10
        assert F(197, 720) > F(10, 37)

    def test_final_bound_at_n1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        T = tridiagonalize(Q1, [z_closed_odd(0)])
        D = delta_sequence(T)
        assert _odd_final_floor().eval(1) == F(7587, 116640)
        report = check_delta_bounds(T, D, odd_delta_floor())
        assert report.final_bound == F(7587, 116640)
        assert report.final_ok
        assert not report.lower_bound_failures

    def test_second_floor_value(self, odd_gens):
        assert odd_delta_floor().eval(1) == F(14, 61)
        Q2 = finite_section(odd_gens, MatrixKind.Q, 2)
        D = delta_sequence(tridiagonalize(Q2, [z_closed_odd(n) for n in range(2)]))
        assert D.deltas[1] > F(14, 61)

    def test_requires_complete_sequence(self):
        T = TridiagonalForm(d=(F(1), F(1), F(9)), s=(F(1), F(1)))
        with pytest.raises(ValueError):
            check_delta_bounds(T, delta_sequence(T), odd_delta_floor())

    def test_derived_final_floor_is_the_papers_polynomial(self):
        # F(N) = q_diag(N) - s(N-1)^2 / L(N-1) as rational functions, so the
        # two final floors agree at every N.
        w = LinearWeights(2, 1)
        back = Polynomial((-1, 1))
        s_back = symbolic_tridiagonal(w).s.compose(back)
        derived = (symbolic_q(w).diagonal
                   - s_back * s_back / odd_delta_floor().compose(back))
        assert derived == _odd_final_floor()

    def test_final_bound_matches_the_papers_polynomial(self, odd_gens):
        paper = _odd_final_floor()
        for N in range(61):
            report = certify(odd_gens, N, CertifyOptions(bounds=True))
            assert report.bound_report.final_bound == paper.eval(N)
            assert report.bound_report.all_ok

    def test_generic_floor_on_natural_weights(self, natural_gens):
        # 9/(10(n+2)): delta_n (n+2) is 0.9 at n = 1 and 4 and below it at
        # n = 2 and 3 for linear:1,1, and above it elsewhere up to n = 19.
        floor = RationalFunction(Polynomial((9,)), Polynomial((20, 10)))
        N = 20
        T = _tridiagonal(natural_gens, N)
        D = delta_sequence(T)
        report = check_delta_bounds(T, D, floor)
        assert report.lower_bound_failures == (1, 2, 3, 4)
        assert report.final_bound == T.d[N] - T.s[N - 1] ** 2 / floor.eval(N - 1)
        assert report.final_delta == D.deltas[N]
        assert report.final_ok and not report.all_ok

    def test_floor_not_positive_at_a_checked_index(self, odd_gens):
        # (n-2)^2 / (n^2+1) vanishes at n = 2 only.
        floor = RationalFunction(Polynomial((4, -4, 1)), Polynomial((1, 0, 1)))
        T = _tridiagonal(odd_gens, 3)
        with pytest.raises(ValueError, match="not positive at n = 2"):
            check_delta_bounds(T, delta_sequence(T), floor)
        T = _tridiagonal(odd_gens, 2)
        assert check_delta_bounds(T, delta_sequence(T), floor).checked_upto == 2
        negative = RationalFunction(Polynomial((-1, 1)), Polynomial((1, 1)))
        with pytest.raises(ValueError, match="not positive at n = 0"):
            check_delta_bounds(T, delta_sequence(T), negative)


class TestCertify:
    def test_flagship_n0(self, odd_gens):
        report = certify(odd_gens, 0)
        assert report.verdict is Verdict.CERTIFIED_POSITIVE
        assert report.determinant == F(7, 72)

    def test_flagship_n100_with_bounds_and_minors(self, odd_gens):
        report = certify(odd_gens, 100, CertifyOptions(
            bounds=True, cross_check_minors=True))
        assert report.verdict is Verdict.CERTIFIED_POSITIVE
        assert report.min_delta > 0
        assert report.bound_report is not None and report.bound_report.all_ok
        assert report.minors_agree

    def test_natural_weights_n50(self, natural_gens):
        report = certify(natural_gens, 50)
        assert report.verdict is Verdict.CERTIFIED_POSITIVE
        assert report.min_delta > 0

    def test_cesaro_weights_give_a_diagonal_q(self, cesaro_gens):
        Q = finite_section(cesaro_gens, MatrixKind.Q, 40)
        assert all(c == 0 for c in Q.col)
        assert Q.diag == tuple(F(1, k + 2) for k in range(41))
        report = certify(cesaro_gens, 40)
        assert report.verdict is Verdict.CERTIFIED_POSITIVE
        assert report.deltas == Q.diag

    def test_steep_family_n30(self, steep_gens):
        report = certify(steep_gens, 30)
        assert report.verdict is Verdict.CERTIFIED_POSITIVE

    def test_constant_weights_certify(self):
        g = FactorableGenerators(TableWeights((1, 1, 1, 1)))
        report = certify(g, 2)
        assert report.verdict is Verdict.CERTIFIED_POSITIVE
        # Q is diagonal for constant weights: 1/(j+2) on the diagonal
        assert report.determinant == F(1, 2) * F(1, 3) * F(1, 4)

    def test_refusal_without_override(self):
        g = FactorableGenerators(TableWeights((1, F(1, 100), F(1, 100))))
        report = certify(g, 0)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "refused" in report.notes
        assert report.determinant is None

    def test_override_reaches_not_positive(self):
        g = FactorableGenerators(TableWeights((1, F(1, 100), F(1, 100))))
        assert q_entry(g, 0, 0) < 0
        report = certify(g, 0, CertifyOptions(override_hypotheses=True))
        assert report.verdict is Verdict.NOT_POSITIVE
        assert "refused" not in report.notes

    def test_minors_only_route(self, odd_gens):
        default = certify(odd_gens, 10)
        minors_only = certify(odd_gens, 10, CertifyOptions(minors_only=True))
        assert minors_only.verdict is Verdict.CERTIFIED_POSITIVE
        assert minors_only.used_minors_fallback
        assert minors_only.determinant == default.determinant

    def test_degenerate_multiplier_falls_back(self, odd_gens, monkeypatch):
        def boom(Q, n):
            raise DegenerateFactorError("forced for testing")
        monkeypatch.setattr(positivity, "elimination_multiplier", boom)
        report = positivity.certify(odd_gens, 6)
        assert report.used_minors_fallback
        assert report.verdict is Verdict.CERTIFIED_POSITIVE

    def test_vanishing_column_factor_falls_back_to_dense_minors(self):
        # C_3 = 0 while C_2 != 0 for this table, so z_2 is undefined.
        g = FactorableGenerators(TableWeights((1, 2, 4, 3, 3)))
        report = certify(g, 3, CertifyOptions(override_hypotheses=True))
        assert report.used_minors_fallback
        assert "column factor vanishes at index 3" in report.notes
        dense = _dense(finite_section(g, MatrixKind.Q, 3))
        assert report.determinant == leading_minors(dense)[-1]

    def test_bounds_skipped_off_family(self, natural_gens):
        report = certify(natural_gens, 5, CertifyOptions(bounds=True))
        assert report.bound_report is None
        assert "skipped" in report.notes

    def test_bounds_apply_to_multiples_of_the_odd_family(self, odd_gens):
        scaled = certify(FactorableGenerators(LinearWeights(4, 2)), 30,
                         CertifyOptions(bounds=True))
        assert scaled.bound_report is not None and scaled.bound_report.all_ok
        assert scaled.bound_report == certify(
            odd_gens, 30, CertifyOptions(bounds=True)).bound_report

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.fractions(0, 5, max_denominator=4),
           beta=st.fractions(F(1, 4), 5, max_denominator=4),
           k=st.fractions(F(1, 4), 6, max_denominator=4),
           N=st.integers(0, 12))
    def test_scale_invariance(self, alpha, beta, k, N):
        # Q depends on the weights only through beta/alpha.
        base, scaled = (certify(FactorableGenerators(LinearWeights(a, b)), N)
                        for a, b in ((alpha, beta), (k * alpha, k * beta)))
        assert scaled.deltas == base.deltas
        assert scaled.determinant == base.determinant
        assert scaled.verdict is base.verdict

    def test_report_json_shape(self, odd_gens):
        payload = certify(odd_gens, 3).to_json_dict()
        for key in ("family", "N", "verdict", "determinant", "min_delta",
                    "bound_failures", "hypothesis", "notes"):
            assert key in payload
        assert "timings" not in payload
        assert payload["verdict"] == "CertifiedPositive"
        assert payload["hypothesis"]["all_passed"] is True

    def test_negative_n_rejected(self, odd_gens):
        with pytest.raises(ValueError):
            certify(odd_gens, -1)
