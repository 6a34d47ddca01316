"""Exact positivity certification of finite sections of Q.

The route: eliminate Q_N to a symmetric tridiagonal matrix Y_N with the
multipliers z_n = C_n / C_{n+1} built from the off-diagonal column factors
(the elimination preserves the determinant exactly), run the pivot
recursion delta_0 = d_0, delta_n = d_n - s_{n-1}^2 / delta_{n-1}, and read
off det Q_N as the product of the deltas.  All leading principal minors
positive certifies positive definiteness of the section; an independent
Gaussian-elimination minor computation is available as a cross-check.

With a floor L (a RationalFunction, see symbolic.known_floor) the pivots
are checked against delta_n > L(n) for n <= N-1, and the last pivot against
the bound that one recursion step gives with L(N-1) in place of
delta_{N-1}; no floor is hand-coded here.  For the odd weights w_n = 2n+1
the module also carries the known closed forms of z_n, d_n and s_n, so a
run can confirm them exactly.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .matrices import (
    ExactMatrix,
    FactoredSection,
    MatrixKind,
    finite_section,
    fraction_str,
    require_weights,
)
from .polynomials import RationalFunction
from .symbolic import known_floor
from .weights import FactorableGenerators, HypothesisReport, check_hypotheses

_ZERO = Fraction(0)
_ONE = Fraction(1)


class StructureError(RuntimeError):
    """Elimination failed to reach tridiagonal form; carries the offender."""

    def __init__(self, i: int, j: int, value: Fraction):
        super().__init__(
            f"entry ({i}, {j}) = {fraction_str(value)} survived elimination beyond the "
            "first off-diagonal; the section lacks the product structure")
        self.position = (i, j)
        self.value = value


class DegenerateFactorError(RuntimeError):
    """A vanishing column factor makes the closed-form multiplier undefined."""


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetric tridiagonal matrix: diagonal d (length N+1), off-diagonal s."""

    d: tuple[Fraction, ...]
    s: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(Fraction(x) for x in self.d))
        object.__setattr__(self, "s", tuple(Fraction(x) for x in self.s))
        if not self.d:
            raise ValueError("tridiagonal form needs at least one diagonal entry")
        if len(self.s) != len(self.d) - 1:
            raise ValueError("off-diagonal length must be len(d) - 1")

    @property
    def N(self) -> int:
        return len(self.d) - 1


@dataclass(frozen=True)
class DeltaSequence:
    """Pivots of the tridiagonal form.

    If some delta hits exactly zero before the last index the recursion
    cannot continue (the next step divides by it); deltas then ends with
    that zero, stopped_at records its index and truncated is set.  A zero
    pivot means a vanishing leading minor, a genuinely inconclusive
    boundary case in exact arithmetic.
    """

    deltas: tuple[Fraction, ...]
    all_positive: bool
    stopped_at: int | None = None
    truncated: bool = False

    @property
    def complete(self) -> bool:
        return not self.truncated

    @property
    def min_delta(self) -> Fraction:
        return min(self.deltas)

    @property
    def first_nonpositive(self) -> int | None:
        for k, x in enumerate(self.deltas):
            if x <= 0:
                return k
        return None

    def determinant(self) -> Fraction | None:
        """Product of the deltas; None when the recursion stopped early."""
        if self.truncated:
            return None
        out = _ONE
        for x in self.deltas:
            out *= x
        return out


class Verdict(enum.Enum):
    CERTIFIED_POSITIVE = "CertifiedPositive"
    NOT_POSITIVE = "NotPositive"
    INCONCLUSIVE = "Inconclusive"


def elimination_multiplier(Q: FactoredSection, n: int) -> Fraction:
    """Multiplier z_n = C_n / C_{n+1} from the column factors of Q.

    Subtracting z_n times column n+1 from column n wipes everything below
    the first subdiagonal because all those entries share the row factor.
    If both factors vanish the column is already clear and z_n = 0 works;
    if only C_{n+1} vanishes no multiplier can do the job.  The section of
    P carries the negated factors, which give the same multipliers.
    """
    cn, cn1 = Q.col[n], Q.col[n + 1]
    if cn1 == 0:
        if cn == 0:
            return _ZERO
        raise DegenerateFactorError(
            f"column factor vanishes at index {n + 1} but not {n}")
    return cn / cn1


def z_closed_odd(n: int) -> Fraction:
    """z_n = (n+1)(n+3)/(n+2)^2, the multipliers for the odd weights."""
    return Fraction((n + 1) * (n + 3), (n + 2) ** 2)


def d_closed_odd(n: int) -> Fraction:
    """Known tridiagonal diagonal for the odd weights, valid for n <= N-1."""
    num = (16 * n**7 + 200 * n**6 + 1024 * n**5 + 2768 * n**4
           + 4226 * n**3 + 3576 * n**2 + 1481 * n + 197)
    den = (n + 2) ** 4 * (n + 3) * (2 * n + 1) * (2 * n + 3) * (2 * n + 5)
    return Fraction(num, den)


def s_closed_odd(n: int) -> Fraction:
    """Known tridiagonal off-diagonal for the odd weights."""
    return Fraction(-(n + 1) * (2 * n * n + 8 * n + 7),
                    (n + 2) ** 2 * (n + 3) * (2 * n + 3))


def tridiagonalize(Q: ExactMatrix | FactoredSection,
                   z: Sequence[Fraction]) -> TridiagonalForm:
    """Reduce Q to Y = Z^T Q Z with the given multipliers.

    Z subtracts z_n times column (row) n+1 from column (row) n, for
    n = 0..N-1.  The result is asserted to be exactly tridiagonal and
    symmetric; any nonzero entry beyond the first off-diagonal raises
    StructureError at the first such entry in row-major order.  A
    FactoredSection takes the O(N) route; a dense ExactMatrix is eliminated
    entry by entry, which is the reference the O(N) route is tested
    against.
    """
    if not Q.symmetric:
        raise ValueError("tridiagonalization expects a symmetric section")
    N = Q.n_rows - 1
    if len(z) != N:
        raise ValueError(f"need {N} multipliers, got {len(z)}")
    if isinstance(Q, FactoredSection):
        return _tridiagonalize_factored(Q, z)
    return _tridiagonalize_dense(Q, z)


def _tridiagonalize_factored(Q: FactoredSection,
                             z: Sequence[Fraction]) -> TridiagonalForm:
    """Y = Z^T Q Z in O(N) from the diagonal and the factors R, C of Q.

    With u_i = R_i - z_i R_{i+1} (u_N = R_N) and v_j = C_j - z_j C_{j+1},
    every entry of Y with i > j+1 is u_i v_j, and symmetrically above.
    The band is

        d_n = q_nn - 2 z_n q_{n+1,n} + z_n^2 q_{n+1,n+1}   (d_N = q_NN)
        s_n = q_{n+1,n} - z_n q_{n+1,n+1} - z_{n+1} R_{n+2} v_n

    and the last term of s_n is zero once the structure check has passed:
    v_n != 0 then forces u_p = 0 for every p >= n+2, and going down from
    u_N = R_N that makes R_N, ..., R_{n+2} all zero.
    """
    N = Q.n_rows - 1
    q, R, C = Q.diag, Q.row, Q.col
    u = [R[k] - z[k] * R[k + 1] for k in range(N)] + [R[N]]
    v = [C[k] - z[k] * C[k + 1] for k in range(N)]
    # A nonzero u_p v_q with p >= q+2 shows up at (q, p) above the diagonal,
    # in row q, before it shows up at (p, q) in row p.  So the first
    # offending entry in row-major order is (i, j) with i the least q that
    # has v_q != 0 and some later nonzero u_p, and j the least such p.
    last_u = next((p for p in range(N, 1, -1) if u[p]), None)
    if last_u is not None:
        for i in range(last_u - 1):
            if v[i]:
                j = next(p for p in range(i + 2, N + 1) if u[p])
                raise StructureError(i, j, u[j] * v[i])
    d, s = [], []
    for n in range(N):
        zn, q1 = z[n], q[n + 1]
        low = R[n + 1] * C[n]
        d.append(q[n] - 2 * zn * low + zn * zn * q1)
        s.append(low - zn * q1)
    d.append(q[N])
    return TridiagonalForm(d=tuple(d), s=tuple(s))


def _tridiagonalize_dense(Q: ExactMatrix,
                          z: Sequence[Fraction]) -> TridiagonalForm:
    """Column pass then row pass, in place, on the dense entries.

    Each step only reads a column or row that has not been modified yet,
    so the passes run in increasing order.
    """
    N = Q.n_rows - 1
    rows = [list(r) for r in Q.entries]
    for n in range(N):
        zn = z[n]
        if zn == 0:
            continue
        for i in range(N + 1):
            rows[i][n] -= zn * rows[i][n + 1]
    for m in range(N):
        zm = z[m]
        if zm == 0:
            continue
        row_m, row_m1 = rows[m], rows[m + 1]
        for j in range(N + 1):
            row_m[j] -= zm * row_m1[j]
    for i in range(N + 1):
        for j in range(N + 1):
            if abs(i - j) > 1 and rows[i][j] != 0:
                raise StructureError(i, j, rows[i][j])
    for n in range(N):
        if rows[n + 1][n] != rows[n][n + 1]:
            raise StructureError(n, n + 1, rows[n][n + 1] - rows[n + 1][n])
    return TridiagonalForm(
        d=tuple(rows[k][k] for k in range(N + 1)),
        s=tuple(rows[k + 1][k] for k in range(N)),
    )


def delta_sequence(T: TridiagonalForm) -> DeltaSequence:
    """Run the pivot recursion; a zero pivot stops it with a marker."""
    deltas = [T.d[0]]
    stopped_at = None
    truncated = False
    for n in range(1, T.N + 1):
        prev = deltas[-1]
        if prev == 0:
            stopped_at = n - 1
            truncated = True
            break
        deltas.append(T.d[n] - T.s[n - 1] ** 2 / prev)
    else:
        if deltas[-1] == 0:
            stopped_at = T.N
    return DeltaSequence(
        deltas=tuple(deltas),
        all_positive=all(x > 0 for x in deltas),
        stopped_at=stopped_at,
        truncated=truncated,
    )


def _det_pivoted(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = len(rows)
    A = [r[:] for r in rows]
    det = _ONE
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if A[r][k] != 0), None)
        if pivot_row is None:
            return _ZERO
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


def leading_minors(Q: ExactMatrix | FactoredSection) -> list[Fraction]:
    """Exact determinants of all leading principal sections of a symmetric Q.

    A single elimination sweep without pivoting yields every minor as a
    running product of pivots.  Each Schur complement of a symmetric matrix
    is symmetric, so the sweep keeps only the upper triangle and reads
    A[k][r] in place of A[r][k]: about n^3/6 updates instead of n^3/3.  If a
    pivot vanishes, that minor is zero and the later sections are evaluated
    independently with pivoting.
    """
    if not Q.symmetric:
        raise ValueError("leading minors expect a symmetric section")
    n = Q.n_rows
    A = [list(r) for r in Q.entries]
    minors: list[Fraction] = []
    running = _ONE
    for k in range(n):
        row_k = A[k]
        pivot = row_k[k]
        if pivot == 0:
            minors.append(_ZERO)
            minors.extend(
                _det_pivoted([list(r[:m + 1]) for r in Q.entries[:m + 1]])
                for m in range(k + 1, n))
            return minors
        running *= pivot
        minors.append(running)
        for r in range(k + 1, n):
            if row_k[r] == 0:
                continue
            f = row_k[r] / pivot
            row_r = A[r]
            for c in range(r, n):
                row_r[c] -= f * row_k[c]
    return minors


@dataclass(frozen=True)
class BoundReport:
    """Exact comparisons of the deltas against a floor and the final bound
    derived from it."""

    checked_upto: int
    lower_bound_failures: tuple[int, ...]
    final_delta: Fraction
    final_bound: Fraction
    final_ok: bool

    @property
    def all_ok(self) -> bool:
        return not self.lower_bound_failures and self.final_ok

    def to_json_dict(self) -> dict:
        return {
            "checked_upto": self.checked_upto,
            "lower_bound_failures": list(self.lower_bound_failures),
            "final_delta": fraction_str(self.final_delta),
            "final_bound": fraction_str(self.final_bound),
            "final_ok": self.final_ok,
            "all_ok": self.all_ok,
        }


def check_delta_bounds(T: TridiagonalForm, D: DeltaSequence,
                       floor: RationalFunction) -> BoundReport:
    """Compare delta_n > floor(n) for n <= N-1, and the last delta against
    d_N - s_{N-1}^2 / floor(N-1) (d_0 when N = 0).

    That final bound is one step of the pivot recursion with the floor in
    place of delta_{N-1}: 0 < floor(N-1) <= delta_{N-1} makes
    s_{N-1}^2 / delta_{N-1} <= s_{N-1}^2 / floor(N-1).  So the floor must be
    positive at every checked index, or ValueError is raised.  Every
    comparison is an exact rational one.
    """
    N = T.N
    if not D.complete or len(D.deltas) != N + 1:
        raise ValueError("bound check needs a complete delta sequence of length N+1")
    floors = [floor.eval(n) for n in range(N)]
    for n, value in enumerate(floors):
        if value <= 0:
            raise ValueError(f"floor is not positive at n = {n}")
    failures = tuple(n for n in range(N) if not D.deltas[n] > floors[n])
    final_bound = T.d[N] - T.s[N - 1] ** 2 / floors[N - 1] if N else T.d[0]
    return BoundReport(
        checked_upto=N,
        lower_bound_failures=failures,
        final_delta=D.deltas[N],
        final_bound=final_bound,
        final_ok=D.deltas[N] >= final_bound,
    )


@dataclass
class CertifyOptions:
    cross_check_minors: bool = False
    bounds: bool = False
    override_hypotheses: bool = False
    minors_only: bool = False


@dataclass(frozen=True)
class CertificationReport:
    """Everything a certification run decided, with exact values.

    The verdict is CertifiedPositive only when every pivot (and, when run,
    every cross-checked minor) is strictly positive.  A zero pivot or a
    refused hypothesis yields Inconclusive, never a silent pass.  Timings
    are diagnostics only and are excluded from the JSON form so identical
    configurations serialize byte-identically.
    """

    family: str
    N: int
    verdict: Verdict
    hypothesis: HypothesisReport
    determinant: Fraction | None
    min_delta: Fraction | None
    first_nonpositive_delta: int | None
    delta_stopped_at: int | None
    bound_report: BoundReport | None
    minors_agree: bool | None
    used_minors_fallback: bool
    notes: str
    deltas: tuple[Fraction, ...] = ()
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "N": self.N,
            "verdict": self.verdict.value,
            "determinant": None if self.determinant is None else fraction_str(self.determinant),
            "min_delta": None if self.min_delta is None else fraction_str(self.min_delta),
            "first_nonpositive_delta": self.first_nonpositive_delta,
            "delta_stopped_at": self.delta_stopped_at,
            "bound_failures": ([] if self.bound_report is None
                               else list(self.bound_report.lower_bound_failures)),
            "bounds": None if self.bound_report is None else self.bound_report.to_json_dict(),
            "minors_agree": self.minors_agree,
            "used_minors_fallback": self.used_minors_fallback,
            "hypothesis": self.hypothesis.to_json_dict(),
            "notes": self.notes,
        }


def _verdict_from_minors(minors: Sequence[Fraction]) -> tuple[Verdict, str]:
    if any(m < 0 for m in minors):
        k = next(i for i, m in enumerate(minors) if m < 0)
        return Verdict.NOT_POSITIVE, f"leading minor {k} is negative"
    if any(m == 0 for m in minors):
        k = next(i for i, m in enumerate(minors) if m == 0)
        return Verdict.INCONCLUSIVE, f"leading minor {k} vanishes exactly"
    return Verdict.CERTIFIED_POSITIVE, "all leading minors positive"


def certify(g: FactorableGenerators, N: int,
            options: CertifyOptions | None = None) -> CertificationReport:
    """Certify positive definiteness of the N-th finite section of Q.

    Refuses (Inconclusive) when the structural hypotheses fail on the
    prefix, unless overridden.  The tridiagonal route is the default; a
    degenerate multiplier or a structure failure falls back to the exact
    minor computation, which is slower but assumption-free.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    options = options or CertifyOptions()
    timings: dict[str, float] = {}
    family = g.spec_string()

    t0 = time.perf_counter()
    try:
        hypothesis = check_hypotheses(g, max(N, 1))
    except IndexError:
        # The prefix checked is within w_0..w_{N+1}; say what Q_N needs.
        require_weights(g, MatrixKind.Q, N)
        raise
    timings["hypotheses_s"] = time.perf_counter() - t0

    def build(verdict, det=None, min_delta=None, first_np=None, stopped=None,
              bound_report=None, minors_agree=None, fallback=False, notes="",
              deltas=()):
        return CertificationReport(
            family=family, N=N, verdict=verdict, hypothesis=hypothesis,
            determinant=det, min_delta=min_delta,
            first_nonpositive_delta=first_np, delta_stopped_at=stopped,
            bound_report=bound_report, minors_agree=minors_agree,
            used_minors_fallback=fallback, notes=notes, deltas=deltas,
            timings=timings)

    if not hypothesis.all_passed and not options.override_hypotheses:
        return build(Verdict.INCONCLUSIVE,
                     notes="refused: structural hypotheses violated on the "
                           "checked prefix (override to proceed)")

    t0 = time.perf_counter()
    Q = finite_section(g, MatrixKind.Q, N)
    timings["build_section_s"] = time.perf_counter() - t0

    deltas_obj = None
    fallback = False
    notes = []
    if not options.minors_only:
        try:
            t0 = time.perf_counter()
            z = [elimination_multiplier(Q, n) for n in range(N)]
            T = tridiagonalize(Q, z)
            deltas_obj = delta_sequence(T)
            timings["tridiagonal_s"] = time.perf_counter() - t0
        except (DegenerateFactorError, StructureError) as exc:
            fallback = True
            notes.append(f"tridiagonal route unavailable ({exc}); "
                         "using exact leading minors")
    else:
        fallback = True
        notes.append("minors-only certification requested")

    if fallback:
        t0 = time.perf_counter()
        minors = leading_minors(Q)
        timings["minors_s"] = time.perf_counter() - t0
        verdict, why = _verdict_from_minors(minors)
        notes.append(why)
        return build(verdict, det=minors[-1], minors_agree=None, fallback=True,
                     notes="; ".join(notes))

    assert deltas_obj is not None
    det = deltas_obj.determinant()
    min_delta = deltas_obj.min_delta
    first_np = deltas_obj.first_nonpositive

    if first_np is None:
        verdict = Verdict.CERTIFIED_POSITIVE
        notes.append("all pivots positive")
    elif deltas_obj.deltas[first_np] < 0:
        verdict = Verdict.NOT_POSITIVE
        notes.append(f"pivot {first_np} is negative")
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append(f"pivot {first_np} vanishes exactly; "
                     "a leading minor is zero")

    bound_report = None
    if options.bounds:
        floor = known_floor(g.weights)
        if floor is not None and deltas_obj.complete:
            t0 = time.perf_counter()
            bound_report = check_delta_bounds(T, deltas_obj, floor)
            timings["bounds_s"] = time.perf_counter() - t0
            notes.append("delta floors hold" if bound_report.all_ok
                         else "delta floor comparisons FAILED")
        else:
            notes.append("bound checks apply to linear:2,1 only; skipped")

    minors_agree = None
    if options.cross_check_minors:
        t0 = time.perf_counter()
        minors = leading_minors(Q)
        timings["minors_s"] = time.perf_counter() - t0
        minors_agree = (all(m > 0 for m in minors) == (verdict is Verdict.CERTIFIED_POSITIVE)
                        and (det is None or minors[-1] == det))
        if not minors_agree:
            verdict = Verdict.INCONCLUSIVE
            notes.append("cross-check disagreement between minors and pivots")
        else:
            notes.append("minor cross-check agrees")

    return build(verdict, det=det, min_delta=min_delta, first_np=first_np,
                 stopped=deltas_obj.stopped_at, bound_report=bound_report,
                 minors_agree=minors_agree, fallback=False,
                 notes="; ".join(notes), deltas=deltas_obj.deltas)
