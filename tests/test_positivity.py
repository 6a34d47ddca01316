from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypomean.positivity as positivity
from hypomean import (
    BoundReport,
    CertifyOptions,
    DegenerateFactorError,
    DeltaSequence,
    FactorableGenerators,
    FactoredSection,
    LinearWeights,
    MatrixKind,
    ODD_FLOOR,
    ODD_Q,
    ODD_TRIDIAGONAL,
    TableWeights,
    TridiagonalForm,
    Verdict,
    certify,
    check_hypotheses,
    Polynomial,
    RationalFunction,
    check_delta_bounds,
    delta_sequence,
    elimination_multiplier,
    finite_section,
    leading_minors,
    parse_weight_spec,
    symbolic_q,
    symbolic_tridiagonal,
    tridiagonalize,
)
from hypomean.matrices import ExactMatrix

F = Fraction

# The conftest families, the constant weights linear:0,1 and two constant
# tables (long enough for N <= 60).
EQUIVALENCE_FAMILIES = tuple(FactorableGenerators(w) for w in (
    LinearWeights(2, 1), LinearWeights(1, 1), LinearWeights(3, 1),
    LinearWeights(0, 1), TableWeights((1,) * 62), TableWeights((F(5, 2),) * 62)))


def _dense(section) -> ExactMatrix:
    return ExactMatrix(section.entries, symmetric=True)


def _tridiagonalize_dense(Q: ExactMatrix, z) -> TridiagonalForm:
    """Dense oracle for tridiagonalize: Y = Z^T Q Z by a column pass then a
    row pass, in place, on the dense entries, then an entrywise assertion
    that Y is symmetric tridiagonal.

    Each step only reads a column or row that has not been modified yet,
    so the passes run in increasing order.
    """
    N = Q.n_rows - 1
    rows = [list(r) for r in Q.entries]
    for n in range(N):
        for i in range(N + 1):
            rows[i][n] -= z[n] * rows[i][n + 1]
    for m in range(N):
        for j in range(N + 1):
            rows[m][j] -= z[m] * rows[m + 1][j]
    assert all(rows[i][j] == 0 for i in range(N + 1) for j in range(N + 1)
               if abs(i - j) > 1)
    assert all(rows[n + 1][n] == rows[n][n + 1] for n in range(N))
    return TridiagonalForm(d=tuple(rows[k][k] for k in range(N + 1)),
                           s=tuple(rows[k + 1][k] for k in range(N)))


def _det_pivoted(rows: list[list[Fraction]]) -> Fraction:
    """Oracle for the minors: exact determinant by Fraction Gaussian
    elimination with row swaps."""
    n = len(rows)
    A = [r[:] for r in rows]
    det = F(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if A[r][k] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != k:
            A[k], A[pivot_row] = A[pivot_row], A[k]
            det = -det
        det *= A[k][k]
        for r in range(k + 1, n):
            if A[r][k] == 0:
                continue
            f = A[r][k] / A[k][k]
            for c in range(k, n):
                A[r][c] -= f * A[k][c]
    return det


def _block_minors(m) -> list[Fraction]:
    """Leading minors of m, each by its own pivoted elimination."""
    return [_det_pivoted([list(row[:k + 1]) for row in m.entries[:k + 1]])
            for k in range(m.n_rows)]


def _assert_minors_contract(m) -> list[Fraction]:
    """leading_minors(m) against the pivoted oracle.  A full list equals
    _block_minors.  A list that ends early ends at a zero minor k, equals
    the oracle up to k, and m is indefinite: an earlier minor is negative,
    or the principal minor on {0..k, j} is negative for some j > k."""
    minors, oracle = leading_minors(m), _block_minors(m)
    n, k = m.n_rows, len(minors) - 1
    if k == n - 1:
        assert minors == oracle
        return minors
    assert minors == oracle[:k + 1] and minors[k] == 0
    lead = list(range(k + 1))
    assert (any(x < 0 for x in minors[:k])
            or any(_det_pivoted([[m.entries[a][b] for b in lead + [j]] for a in lead + [j]]) < 0
                   for j in range(k + 1, n)))
    return minors


def _dense_route(section) -> TridiagonalForm:
    """The dense oracle on the multipliers of elimination_multiplier."""
    z = [elimination_multiplier(section, n) for n in range(section.n_rows - 1)]
    return _tridiagonalize_dense(_dense(section), z)


def _tridiagonal_outcome(reduce, section):
    try:
        return reduce(section)
    except DegenerateFactorError as exc:
        return ("DegenerateFactorError", str(exc))


def _pivot_oracle(T: TridiagonalForm) -> dict:
    """The plain Fraction pivot recursion delta_n = d_n - s_{n-1}^2 /
    delta_{n-1}, stopped by a zero pivot, and every field read from it."""
    deltas = [T.d[0]]
    stopped_at, truncated = None, False
    for n in range(1, T.N + 1):
        if deltas[-1] == 0:
            stopped_at, truncated = n - 1, True
            break
        deltas.append(T.d[n] - T.s[n - 1] ** 2 / deltas[-1])
    else:
        if deltas[-1] == 0:
            stopped_at = T.N
    determinant = None
    if not truncated:
        determinant = F(1)
        for x in deltas:
            determinant *= x
    return {
        "deltas": tuple(deltas),
        "determinant": determinant,
        "min_delta": min(deltas),
        "first_nonpositive": next((k for k, x in enumerate(deltas) if x <= 0), None),
        "stopped_at": stopped_at,
        "truncated": truncated,
        "all_positive": all(x > 0 for x in deltas),
    }


def _pivot_fields(D: DeltaSequence) -> dict:
    return {
        "deltas": D.deltas,
        "determinant": D.determinant(),
        "min_delta": D.min_delta,
        "first_nonpositive": D.first_nonpositive,
        "stopped_at": D.stopped_at,
        "truncated": D.truncated,
        "all_positive": D.first_nonpositive is None,
    }


def _q_oracle(weights, N: int) -> ExactMatrix:
    """Q_N = I - B*B from the definition of B in Fractions, computed from
    the weights alone."""
    w = [weights.weight(k) for k in range(N + 2)]
    W = list(accumulate(w))

    def b(i, j):
        if i > j + 1:
            return F(0)
        ratio = W[j] / W[j + 1]
        return -ratio if i == j + 1 else w[i] * (1 / w[j] - ratio / w[j + 1])

    B = [[b(i, j) for j in range(N + 1)] for i in range(N + 2)]
    return ExactMatrix(tuple(
        tuple(int(i == j) - sum(B[k][i] * B[k][j] for k in range(N + 2))
              for j in range(N + 1)) for i in range(N + 1)), symmetric=True)


@st.composite
def _family_sections(draw):
    g = draw(st.sampled_from(EQUIVALENCE_FAMILIES))
    kind = draw(st.sampled_from((MatrixKind.Q, MatrixKind.P_CLOSED)))
    return finite_section(g, kind, draw(st.integers(0, 8)))


@st.composite
def _random_factored_sections(draw):
    """Arbitrary small factors with frequent zeros, so that column factors
    vanish in every pattern: both of a pair (z_n = 0), or only the second
    (DegenerateFactorError)."""
    N = draw(st.integers(0, 7))
    small = st.integers(-2, 2).map(F)
    diag, row, col = (tuple(draw(small) for _ in range(N + 1)) for _ in range(3))
    return FactoredSection(diag, row, col)


@st.composite
def _symmetric_matrices(draw):
    """Small symmetric rational matrices, mostly zeros, so that leading
    minors vanish, with rows that couple and rows that do not."""
    n = draw(st.integers(1, 6))
    value = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 2)))
    upper = {(i, j): draw(value) for i in range(n) for j in range(i, n)}
    return ExactMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n))
                             for i in range(n)), symmetric=True)


@st.composite
def _symmetric_matrices_over_many_denominators(draw):
    """Symmetric rational matrices up to 12 x 12 whose entries have several
    denominators per row, so that the integer scales of leading_minors
    differ by index, and whose diagonal often holds zeros."""
    n = draw(st.integers(1, 12))
    value = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12)))
    diagonal = st.one_of(st.just(F(0)), value)
    upper = {(i, j): draw(diagonal if i == j else value)
             for i in range(n) for j in range(i, n)}
    return ExactMatrix(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n))
                             for i in range(n)), symmetric=True)


def _minors_by_fraction_sweep(m) -> list[Fraction]:
    """Leading minors as running products of the pivots of plain Fraction
    Gaussian elimination; every pivot must be nonzero."""
    A = [list(r) for r in m.entries]
    n, minors, running = len(A), [], F(1)
    for k in range(n):
        assert A[k][k] != 0
        running *= A[k][k]
        minors.append(running)
        for r in range(k + 1, n):
            f = A[r][k] / A[k][k]
            for c in range(k, n):
                A[r][c] -= f * A[k][c]
    return minors


_SMALL_RATIONALS = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                             st.fractions(-3, 3, max_denominator=6))
# Far apart in size, so that pivot images leave the float range.
_WIDE_RATIONALS = st.one_of(
    st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40)),
    st.builds(lambda sign, k: sign * F(2) ** k,
              st.sampled_from((1, -1)), st.integers(-1100, 1100)))


@st.composite
def _tridiagonal_forms(draw):
    """Random forms with N <= 9: mostly small rationals with zeros, so that
    pivots vanish or turn negative mid-way; some with entries of very
    different sizes; and some constant, so that pivots tie."""
    N = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(("small", "small", "wide", "constant")))
    if shape == "constant":
        return TridiagonalForm(d=(draw(_SMALL_RATIONALS),) * (N + 1), s=(F(0),) * N)
    value = _SMALL_RATIONALS if shape == "small" else st.one_of(
        _SMALL_RATIONALS, _WIDE_RATIONALS)
    return TridiagonalForm(d=tuple(draw(value) for _ in range(N + 1)),
                           s=tuple(draw(value) for _ in range(N)))


class TestEliminationMultiplier:
    def test_closed_values(self):
        assert ODD_TRIDIAGONAL.z.eval(0) == F(3, 4)
        assert ODD_TRIDIAGONAL.z.eval(1) == F(8, 9)

    def test_matches_closed_form_to_50(self, odd_gens):
        Q = finite_section(odd_gens, MatrixKind.Q, 51)
        for n in range(51):
            assert elimination_multiplier(Q, n) == ODD_TRIDIAGONAL.z.eval(n)

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
        T = tridiagonalize(Q1)
        assert T.d == (F(197, 720), F(83, 405))
        assert T.s == (F(-7, 36),)

    def test_n1_determinant_identity(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        T = tridiagonalize(Q1)
        det_direct = Q1.entry(0, 0) * Q1.entry(1, 1) - Q1.entry(0, 1) ** 2
        assert det_direct == F(2663, 145800)
        assert T.d[0] * T.d[1] - T.s[0] ** 2 == F(2663, 145800)

    def test_n4_matches_closed_forms(self, odd_gens):
        Q4 = finite_section(odd_gens, MatrixKind.Q, 4)
        T = tridiagonalize(Q4)
        assert T.d[0] == F(197, 720)
        assert T.d[1] == F(13488, 34020) == F(1124, 2835)
        for n in range(4):
            assert T.d[n] == ODD_TRIDIAGONAL.d.eval(n)
            assert T.s[n] == ODD_TRIDIAGONAL.s.eval(n)
        assert T.d[4] == ODD_Q.diagonal.eval(4)


class TestFactoredTridiagonalize:
    """The O(N) route on FactoredSection against dense elimination with the
    same multipliers; the dense oracle also asserts that the result is
    tridiagonal."""

    @given(section=_family_sections())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_elimination(self, section):
        assert isinstance(section, FactoredSection)
        assert (_tridiagonal_outcome(tridiagonalize, section)
                == _tridiagonal_outcome(_dense_route, section))

    @given(section=_random_factored_sections())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_elimination_on_arbitrary_factors(self, section):
        assert (_tridiagonal_outcome(tridiagonalize, section)
                == _tridiagonal_outcome(_dense_route, section))

    @pytest.mark.parametrize("N", [0, 1, 2, 7, 31, 60])
    def test_certify_deltas_match_dense_route(self, N):
        for g in EQUIVALENCE_FAMILIES:
            dense = _pivot_oracle(_dense_route(finite_section(g, MatrixKind.Q, N)))
            report = certify(g, N)
            assert report.deltas == dense["deltas"]
            assert report.determinant == dense["determinant"]

    def test_dense_input_is_rejected(self, odd_gens):
        with pytest.raises(TypeError, match="FactoredSection"):
            tridiagonalize(_dense(finite_section(odd_gens, MatrixKind.Q, 2)))


class TestDeltaSequence:
    def test_flagship_n1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        D = delta_sequence(tridiagonalize(Q1))
        assert D.deltas[0] == F(197, 720)
        assert D.deltas[1] == F(83, 405) - F(245, 1773)
        assert D.first_nonpositive is None and not D.truncated

    def test_decoupled_diagonal(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1)), s=(F(0),)))
        assert D.deltas == (F(1), F(1))
        assert D.first_nonpositive is None

    def test_singular_two_by_two(self):
        D = delta_sequence(TridiagonalForm(d=(F(1), F(1)), s=(F(1),)))
        assert D.deltas == (F(1), F(0))
        assert D.stopped_at == 1
        assert D.first_nonpositive == 1
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


    @given(T=_tridiagonal_forms())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_recursion(self, T):
        assert _pivot_fields(delta_sequence(T)) == _pivot_oracle(T)

    def test_single_entry(self):
        for value in (F(3, 7), F(0), F(-2)):
            T = TridiagonalForm(d=(value,), s=())
            assert _pivot_fields(delta_sequence(T)) == _pivot_oracle(T)

    def test_minimum_between_pivots_closer_than_their_images(self):
        # After the negative first pivot X_0 < 0, so the ratio of the second
        # has a negative denominator, and it is compared exactly.
        close = -1 - F(1, 2 ** 60)
        D = delta_sequence(TridiagonalForm(d=(F(-1), close, F(-1)), s=(F(0),) * 2))
        assert D.min_delta == close

    def test_minimum_far_outside_the_float_range(self):
        tiny, huge = F(1, 2 ** 1100), F(2 ** 1100)
        D = delta_sequence(TridiagonalForm(d=(huge, tiny, F(3), tiny), s=(F(0),) * 3))
        assert D.min_delta == tiny
        assert D.deltas == (huge, tiny, F(3), tiny)


class TestLeadingMinors:
    def test_flagship_q1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        assert leading_minors(Q1) == [F(7, 72), F(2663, 145800)]

    def test_identity(self):
        eye = ExactMatrix(tuple(
            tuple(F(int(i == j)) for j in range(3)) for i in range(3)),
            symmetric=True)
        assert leading_minors(eye) == [F(1), F(1), F(1)]

    def test_coupled_zero_ends_the_list(self):
        m = ExactMatrix(((F(0), F(1)), (F(1), F(0))), symmetric=True)
        minors = _assert_minors_contract(m)
        assert minors == [F(0)]
        verdict, why = positivity._verdict_from_minors(minors, m.n_rows)
        assert verdict is Verdict.NOT_POSITIVE
        assert why == "leading minor 0 vanishes and its row couples to a later index"

    def test_decoupled_zero_makes_the_later_minors_zero(self):
        m = ExactMatrix(((F(1), F(1), F(0)), (F(1), F(1), F(0)), (F(0), F(0), F(5))),
                        symmetric=True)
        minors = _assert_minors_contract(m)
        assert minors == [F(1), F(0), F(0)]
        assert positivity._verdict_from_minors(minors, m.n_rows) == (
            Verdict.INCONCLUSIVE, "leading minor 1 vanishes exactly")

    def test_decoupled_zero_after_a_negative_minor(self):
        # table:1,1,2,4,1: minor 2 of Q_3 vanishes and its row is zero
        # beyond column 2, so the list runs to N with zeros.
        g = FactorableGenerators(TableWeights((1, 1, 2, 4, 1)))
        Q = finite_section(g, MatrixKind.Q, 3)
        assert _assert_minors_contract(_dense(Q)) == [F(1, 2), F(-3, 16), F(0), F(0)]
        report = certify(g, 3, CertifyOptions(minors_only=True))
        assert report.verdict is Verdict.NOT_POSITIVE
        assert report.determinant == 0
        assert "leading minor 1 is negative" in report.notes

    @given(m=_symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_pivoted_determinants_of_leading_blocks(self, m):
        _assert_minors_contract(m)

    @given(m=_symmetric_matrices_over_many_denominators())
    @settings(max_examples=150, deadline=None)
    def test_matches_pivoted_determinants_over_many_denominators(self, m):
        _assert_minors_contract(m)

    @pytest.mark.parametrize("spec, override", [
        ("linear:7/3,5/8", False), ("linear:9/4,1/8", False),
        ("table:3/2,1/5," + ",".join(f"{k % 7 + 1}/{k % 4 + 2}" for k in range(20)), True)])
    @pytest.mark.parametrize("N", [0, 1, 2, 20])
    def test_rational_families_match_the_fraction_sweep_and_the_pivots(self, spec, override, N):
        g = FactorableGenerators(parse_weight_spec(spec))
        assert g.scale != 1
        assert check_hypotheses(g, max(N, 1)).all_passed != override
        Q = finite_section(g, MatrixKind.Q, N)
        minors = leading_minors(Q)
        assert minors == _minors_by_fraction_sweep(_dense(Q))
        for k in range(N + 1):
            Qk = finite_section(g, MatrixKind.Q, k)
            T = tridiagonalize(Qk)
            assert delta_sequence(T).determinant() == minors[k]
        report = certify(g, N, CertifyOptions(cross_check_minors=True,
                                              override_hypotheses=override))
        assert report.minors_agree and report.determinant == minors[-1]

    def test_zero_leading_entry_at_n30(self, odd_gens):
        rows = [list(r) for r in finite_section(odd_gens, MatrixKind.Q, 30).entries]
        rows[0][0] = F(0)
        m = ExactMatrix(tuple(map(tuple, rows)), symmetric=True)
        minors = _assert_minors_contract(m)
        assert minors == [F(0)]
        assert positivity._verdict_from_minors(minors, m.n_rows)[0] is Verdict.NOT_POSITIVE

    def test_requires_symmetric_section(self, odd_gens):
        with pytest.raises(ValueError, match="symmetric"):
            leading_minors(finite_section(odd_gens, MatrixKind.M, 2))
        with pytest.raises(ValueError, match="symmetric"):
            leading_minors(ExactMatrix(((F(1), F(2)), (F(2), F(1)), (F(0), F(0)))))

    def test_agrees_with_pivot_products(self, odd_gens):
        minors = leading_minors(finite_section(odd_gens, MatrixKind.Q, 10))
        for N in range(11):
            T = tridiagonalize(finite_section(odd_gens, MatrixKind.Q, N))
            assert delta_sequence(T).determinant() == minors[N]


def _odd_final_floor() -> RationalFunction:
    """The paper's separate floor for the last pivot of Q_N, w_n = 2n+1:
    (24N^8 + ... + 14) / (6 (N+1)^4 (N+2)^3 (2N+1)^2 (2N+3))."""
    num = Polynomial((14, 216, 1070, 2297, 2234, 1160, 432, 140, 24))
    den = (Polynomial((6,)) * Polynomial((1, 1)) ** 4 * Polynomial((2, 1)) ** 3
           * Polynomial((1, 2)) ** 2 * Polynomial((3, 2)))
    return RationalFunction(num, den)


def _tridiagonal(g, N):
    return tridiagonalize(finite_section(g, MatrixKind.Q, N))


class TestDeltaBounds:
    def test_base_anchor_cross_multiplication(self):
        assert ODD_FLOOR.eval(0) == F(10, 37)
        assert 197 * 37 == 7289 > 7200 == 720 * 10
        assert F(197, 720) > F(10, 37)

    def test_final_bound_at_n1(self, odd_gens):
        Q1 = finite_section(odd_gens, MatrixKind.Q, 1)
        D = delta_sequence(tridiagonalize(Q1))
        assert _odd_final_floor().eval(1) == F(7587, 116640)
        report = check_delta_bounds(D, ODD_FLOOR)
        assert report.final_bound == F(7587, 116640)
        assert report.final_ok
        assert not report.lower_bound_failures

    def test_second_floor_value(self, odd_gens):
        assert ODD_FLOOR.eval(1) == F(14, 61)
        Q2 = finite_section(odd_gens, MatrixKind.Q, 2)
        D = delta_sequence(tridiagonalize(Q2))
        assert D.deltas[1] > F(14, 61)

    def test_requires_complete_sequence(self):
        T = TridiagonalForm(d=(F(1), F(1), F(9)), s=(F(1), F(1)))
        with pytest.raises(ValueError):
            check_delta_bounds(delta_sequence(T), ODD_FLOOR)

    def test_derived_final_floor_is_the_papers_polynomial(self):
        # F(N) = q_diag(N) - s(N-1)^2 / L(N-1) as rational functions, so the
        # two final floors agree at every N.
        w = LinearWeights(2, 1)
        back = Polynomial((-1, 1))
        s_back = symbolic_tridiagonal(w).s.compose(back)
        derived = (symbolic_q(w).diagonal
                   - s_back * s_back / ODD_FLOOR.compose(back))
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
        report = check_delta_bounds(D, floor)
        assert report.lower_bound_failures == (1, 2, 3, 4)
        assert report.final_bound == T.d[N] - T.s[N - 1] ** 2 / floor.eval(N - 1)
        assert report.final_delta == D.deltas[N]
        assert report.final_ok and not report.all_ok

    def test_floor_not_positive_at_a_checked_index(self, odd_gens):
        # (n-2)^2 / (n^2+1) vanishes at n = 2 only.
        floor = RationalFunction(Polynomial((4, -4, 1)), Polynomial((1, 0, 1)))
        T = _tridiagonal(odd_gens, 3)
        with pytest.raises(ValueError, match="not positive at n = 2"):
            check_delta_bounds(delta_sequence(T), floor)
        T = _tridiagonal(odd_gens, 2)
        assert check_delta_bounds(delta_sequence(T), floor).checked_upto == 2
        negative = RationalFunction(Polynomial((-1, 1)), Polynomial((1, 1)))
        with pytest.raises(ValueError, match="not positive at n = 0"):
            check_delta_bounds(delta_sequence(T), negative)


def _bounds_oracle(T: TridiagonalForm, floor: RationalFunction) -> BoundReport:
    deltas, N = _pivot_oracle(T)["deltas"], T.N
    floors = [floor.eval(n) for n in range(N)]
    final_bound = T.d[N] - T.s[N - 1] ** 2 / floors[N - 1] if N else T.d[0]
    return BoundReport(
        checked_upto=N,
        lower_bound_failures=tuple(n for n in range(N) if not deltas[n] > floors[n]),
        final_delta=deltas[N],
        final_bound=final_bound,
        final_ok=deltas[N] >= final_bound,
    )


_NATURAL_FLOOR = RationalFunction(Polynomial((9,)), Polynomial((20, 10)))


class TestDeltaBoundsAgainstFractions:
    """check_delta_bounds cross-multiplies integers; the reference compares
    the Fraction pivots of the plain recursion."""

    @pytest.mark.parametrize("N", [0, 1, 2, 20, 60])
    @pytest.mark.parametrize("spec, floor", [
        ("linear:2,1", ODD_FLOOR),
        ("linear:1,1", _NATURAL_FLOOR),
        # Pivots turn negative, so some X_{n-1} are negative.
        ("linear:1,5", _NATURAL_FLOOR),
    ])
    def test_matches_the_fraction_reference(self, spec, floor, N):
        T = _tridiagonal(FactorableGenerators(parse_weight_spec(spec)), N)
        assert check_delta_bounds(delta_sequence(T), floor) == _bounds_oracle(T, floor)

    @given(T=_tridiagonal_forms())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_reference_on_random_forms(self, T):
        D = delta_sequence(T)
        assume(not D.truncated)
        assert check_delta_bounds(D, _NATURAL_FLOOR) == _bounds_oracle(T, _NATURAL_FLOOR)


# Integer scale 1 for none of these: the scaled generators carry lambda.
_RATIONAL_WEIGHTS = (
    "linear:3/7,5/2",
    "linear:9/4,1/8",
    "table:" + ",".join(f"{k % 7 + 1}/{k % 5 + 2}" for k in range(32)),
    "table:" + ",".join(f"{2 * k + 3}/{k % 3 + 2}" for k in range(32)),
)


class TestCertifyAgainstFractions:
    """The integer route against a slow path that shares none of it: Q from
    the definition of B in Fractions, dense elimination, and the plain
    Fraction pivot recursion."""

    @pytest.mark.parametrize("N", [0, 1, 7, 30])
    @pytest.mark.parametrize("spec", _RATIONAL_WEIGHTS)
    def test_report_matches_the_oracle(self, spec, N):
        weights = parse_weight_spec(spec)
        g = FactorableGenerators(weights)
        assert g.scale != 1
        report = certify(g, N, CertifyOptions(override_hypotheses=True))
        assert not report.used_minors_fallback
        Q = finite_section(g, MatrixKind.Q, N)
        z = [elimination_multiplier(Q, n) for n in range(N)]
        oracle = _pivot_oracle(_tridiagonalize_dense(_q_oracle(weights, N), z))
        assert report.deltas == oracle["deltas"]
        assert report.determinant == oracle["determinant"]
        assert report.min_delta == oracle["min_delta"]
        assert report.first_nonpositive_delta == oracle["first_nonpositive"]
        assert report.delta_stopped_at == oracle["stopped_at"]
        first = oracle["first_nonpositive"]
        expected = (Verdict.CERTIFIED_POSITIVE if first is None
                    else Verdict.NOT_POSITIVE if oracle["deltas"][first] < 0
                    else Verdict.INCONCLUSIVE)
        assert report.verdict is expected


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
        assert finite_section(g, MatrixKind.Q, 0).entry(0, 0) < 0
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

    def test_coupled_zero_minor_has_no_determinant(self, odd_gens, monkeypatch):
        # q_00 = 0 with q_01 != 0: minor 0 vanishes and its row couples.
        def section(g, kind, N):
            Q = finite_section(g, kind, N)
            return FactoredSection((F(0),) + Q.diag[1:], Q.row, Q.col)
        monkeypatch.setattr(positivity, "finite_section", section)
        minors = certify(odd_gens, 5, CertifyOptions(minors_only=True))
        assert minors.verdict is Verdict.NOT_POSITIVE
        assert minors.determinant is None
        assert minors.to_json_dict()["determinant"] is None
        assert ("leading minor 0 vanishes and its row couples to a later index"
                in minors.notes.split("; "))
        pivots = certify(odd_gens, 5, CertifyOptions(cross_check_minors=True))
        assert pivots.verdict is Verdict.NOT_POSITIVE
        assert pivots.determinant is not None
        assert pivots.minors_agree is True

    def test_minors_route_names_the_checks_it_skips(self):
        g = FactorableGenerators(TableWeights((1, 2, 4, 3, 3)))
        plain = certify(g, 3)
        report = certify(g, 3, CertifyOptions(bounds=True, cross_check_minors=True))
        assert report.used_minors_fallback
        assert report.bound_report is None and report.minors_agree is None
        assert report.notes.split("; ") == plain.notes.split("; ") + [
            "bound checks skipped: no pivots on the minors route",
            "minor cross-check skipped: no pivots on the minors route"]
        bounds_only = certify(g, 3, CertifyOptions(bounds=True))
        assert bounds_only.notes == report.notes.rsplit("; ", 1)[0]
        minors_only = certify(g, 3, CertifyOptions(minors_only=True))
        assert "skipped" not in minors_only.notes

    def test_bounds_skipped_off_family(self, natural_gens):
        report = certify(natural_gens, 5, CertifyOptions(bounds=True))
        assert report.bound_report is None
        assert ("bound checks skipped: no certified floor for this family"
                in report.notes.split("; "))

    def test_bounds_skipped_when_the_pivots_stop(self, monkeypatch):
        # Every family with a floor has positive pivots, so give a table whose
        # pivot 1 vanishes the odd floor to reach the truncated case.
        g = FactorableGenerators(TableWeights((1, 1, 2, 4, 1)))
        monkeypatch.setattr(positivity, "known_floor", lambda weights: ODD_FLOOR)
        report = certify(g, 3, CertifyOptions(bounds=True, override_hypotheses=True))
        assert report.delta_stopped_at == 1
        assert report.bound_report is None
        assert ("bound checks skipped: pivot sequence stopped at n = 1"
                in report.notes.split("; "))
        assert "no certified floor" not in report.notes

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

    PIVOT_STAGES = {"hypotheses_s", "build_section_s", "tridiagonal_s", "pivots_s",
                    "determinant_s", "minimum_s"}

    def test_timings_name_each_stage_that_ran(self, odd_gens):
        def stages(options=None, g=odd_gens, N=12):
            report = certify(g, N, options)
            assert all(seconds >= 0 for seconds in report.timings.values())
            return set(report.timings)

        assert stages() == self.PIVOT_STAGES
        assert stages(CertifyOptions(bounds=True, cross_check_minors=True)) == (
            self.PIVOT_STAGES | {"bounds_s", "minors_s"})
        assert stages(CertifyOptions(minors_only=True)) == {
            "hypotheses_s", "build_section_s", "minors_s"}
        # A vanishing column factor stops the multipliers: minors fallback.
        assert stages(CertifyOptions(override_hypotheses=True), N=3, g=FactorableGenerators(
            TableWeights((1, 2, 4, 3, 3)))) == {"hypotheses_s", "build_section_s", "minors_s"}
        refused = FactorableGenerators(TableWeights((1, F(1, 100), F(1, 100))))
        assert stages(g=refused, N=0) == {"hypotheses_s"}

    def test_timings_stay_out_of_the_json(self, odd_gens):
        for options in (None, CertifyOptions(bounds=True, cross_check_minors=True),
                        CertifyOptions(minors_only=True)):
            report = certify(odd_gens, 5, options)
            assert report.timings
            text = repr(report.to_json_dict())
            assert "timings" not in text
            assert not any(stage in text for stage in report.timings)

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
