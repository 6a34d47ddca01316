"""Exact positivity certification of finite sections of Q.

The route: eliminate Q_N to a symmetric tridiagonal matrix Y_N with the
multipliers z_n = C_n / C_{n+1} built from the off-diagonal column factors
(the elimination preserves the determinant exactly), then read the pivots
delta_0 = d_0, delta_n = d_n - s_{n-1}^2 / delta_{n-1} off an integer
continuant of Y_N: X_n = delta_n e_n X_{n-1} with positive integer scales
e_n, so the signs of the X_n give the verdict and det Q_N = X_N / prod e_n.
All leading principal minors positive certifies positive definiteness of
the section; an independent Gaussian-elimination minor computation is
available as a cross-check.

With a floor L (a RationalFunction, see symbolic.known_floor) the pivots
are checked against delta_n > L(n) for n <= N-1, and the last pivot against
the bound that one recursion step gives with L(N-1) in place of
delta_{N-1}; no floor is hand-coded here.  The paper's closed forms of
z_n, d_n and s_n for the odd weights are symbolic.ODD_TRIDIAGONAL, which
paper-check compares with the multipliers and the band computed here.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .matrices import (
    ExactMatrix,
    FactoredSection,
    MatrixKind,
    finite_section,
    require_weights,
)
from .polynomials import RationalFunction
from .symbolic import known_floor
from .weights import FactorableGenerators, HypothesisReport, check_hypotheses, fraction_str

_ZERO = Fraction(0)


class DegenerateFactorError(RuntimeError):
    """A vanishing column factor makes the closed-form multiplier undefined."""


@dataclass(frozen=True)
class TridiagonalForm:
    """Symmetric tridiagonal matrix: diagonal d (length N+1), off-diagonal s."""

    d: tuple[Fraction, ...]
    s: tuple[Fraction, ...]

    def __post_init__(self):
        for name in ("d", "s"):
            object.__setattr__(self, name, tuple(
                x if type(x) is Fraction else Fraction(x) for x in getattr(self, name)))
        if not self.d:
            raise ValueError("tridiagonal form needs at least one diagonal entry")
        if len(self.s) != len(self.d) - 1:
            raise ValueError("off-diagonal length must be len(d) - 1")

    @property
    def N(self) -> int:
        return len(self.d) - 1


def _continuant(T: TridiagonalForm) -> Iterator[tuple[int, int, int]]:
    """Yield (X_{n-1}, X_n, e_n) for n = 0, 1, ..., stopping after the first
    X_n that is zero.

    X_{-1} = 1, X_0 = d_0 e_0 with e_0 = den d_0, and for n >= 1

        X_n = (d_n e_n) X_{n-1} - (s_{n-1}^2 e_n e_{n-1}) X_{n-2}

    with e_n = lcm(den d_n, den s_{n-1}^2).  Both coefficients are integers,
    so the loop runs no big-integer gcd.  X_n is the leading minor of order
    n+1 times e_0 ... e_n, and delta_n = X_n / (X_{n-1} e_n).  A zero X_n is
    a zero pivot; the next pivot would divide by it, so the run stops there.
    """
    d, s = T.d, T.s
    e = d[0].denominator
    prev, cur = 1, d[0].numerator
    yield prev, cur, e
    for n in range(1, len(d)):
        if not cur:
            return
        dn, sn = d[n], s[n - 1]
        d_den, s2_den = dn.denominator, sn.denominator ** 2
        en = math.lcm(d_den, s2_den)
        prev, cur = cur, (dn.numerator * (en // d_den) * cur
                          - sn.numerator ** 2 * (en // s2_den) * e * prev)
        e = en
        yield prev, cur, e


def _pivot(prev: int, cur: int, e: int) -> tuple[int, int]:
    """delta_n = X_n / (X_{n-1} e_n) as (num, den) with den > 0, unreduced."""
    den = prev * e
    return (cur, den) if den > 0 else (-cur, -den)


def _top(x: int) -> tuple[float, int]:
    """x ~ m * 2^k from the top 64 bits of x, without a big division."""
    k = max(x.bit_length() - 64, 0)
    return float(x >> k), k


# Relative error allowed to the float image of a pivot.  _approx_pivot is
# accurate to about 2^-50; two pivots whose images are further apart than
# this are ordered by their images, others are compared exactly.
_APPROX_TOL = 2.0 ** -40


def _approx_pivot(prev: int, cur: int, e: int) -> float | None:
    """X_n / (X_{n-1} e_n) as a float, or None when it is far outside the
    normal float range."""
    if not cur:
        return 0.0
    shift = cur.bit_length() - prev.bit_length() - e.bit_length()
    if not -1000 < shift < 1000:
        return None
    (mc, kc), (mp, kp), (me, ke) = _top(cur), _top(prev), _top(e)
    return math.ldexp(mc / (mp * me), kc - kp - ke)


def _clearly_below(a: float | None, b: float | None) -> bool | None:
    """Whether the value with image a is below the one with image b: True
    or False when the images decide it, None when only an exact comparison
    can."""
    if a is None or b is None:
        return None
    slack = _APPROX_TOL * (abs(a) + abs(b))
    if a < b - slack:
        return True
    if a > b + slack:
        return False
    return None


@dataclass(frozen=True)
class DeltaSequence:
    """Pivots of a tridiagonal form, held as the outcome of its integer
    continuant.

    If some delta hits exactly zero before the last index the recursion
    cannot continue (the next step divides by it); deltas then ends with
    that zero, stopped_at records its index and truncated is set.  A zero
    pivot means a vanishing leading minor of the tridiagonal form; the
    congruence that makes the form does not keep the leading minors of Q,
    and certify reads the zero as Inconclusive.

    The continuant keeps only what the certificate reads: the first
    nonpositive pivot, the minimum pivot as an unreduced ratio, the last
    X_n and the scales e_n.  The deltas themselves are recomputed from the
    form when first read; storing every X_n would take O(N^2) bits.
    """

    form: TridiagonalForm
    first_nonpositive: int | None
    stopped_at: int | None
    truncated: bool
    scales: tuple[int, ...]
    last: int
    minimum: tuple[int, int]

    @cached_property
    def deltas(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(*_pivot(*step)) for step in _continuant(self.form))

    @cached_property
    def min_delta(self) -> Fraction:
        return Fraction(*self.minimum)

    def determinant(self) -> Fraction | None:
        """Product of the deltas, X_N / (e_0 ... e_N); None when the
        recursion stopped early."""
        if self.truncated:
            return None
        return Fraction(self.last, math.prod(self.scales))


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


def tridiagonalize(Q: FactoredSection) -> TridiagonalForm:
    """Reduce Q to Y = Z^T Q Z with the multipliers z_n of
    elimination_multiplier, in O(N).

    Z subtracts z_n times column (row) n+1 from column (row) n, for
    n = 0..N-1.  With u_i = R_i - z_i R_{i+1} (u_N = R_N) and
    v_j = C_j - z_j C_{j+1}, every entry of Y with i > j+1 is u_i v_j, and
    symmetrically above.  The multipliers z_n = C_n / C_{n+1} (0 where
    both factors vanish) make v_n = 0 for every n, so Y is tridiagonal by
    construction.  The band is

        d_n = q_nn - 2 z_n q_{n+1,n} + z_n^2 q_{n+1,n+1}   (d_N = q_NN)
        s_n = q_{n+1,n} - z_n q_{n+1,n+1} - z_{n+1} R_{n+2} v_n

    and v_n = 0 makes the last term of s_n zero.  Each d_n and s_n is one
    Fraction built from integers.  A column factor that vanishes where the
    one before it does not leaves z_n undefined: DegenerateFactorError.
    """
    if not isinstance(Q, FactoredSection):
        raise TypeError("tridiagonalization takes a FactoredSection")
    N = Q.n_rows - 1
    z = [elimination_multiplier(Q, n) for n in range(N)]
    q, R, C = Q.diag, Q.row, Q.col
    d, s = [], []
    for n in range(N):
        zn, zd = z[n].numerator, z[n].denominator
        a, b = q[n].numerator, q[n].denominator
        e, f = q[n + 1].numerator, q[n + 1].denominator
        r, c = R[n + 1], C[n]
        # Over K = M zd f, with q_{n+1,n} = L/M: q_{n+1,n} = A/K and
        # z_n q_{n+1,n+1} = B/K, so s_n = (A - B)/K and
        # d_n = a/b + z_n (B - 2A)/K.
        L, M = r.numerator * c.numerator, r.denominator * c.denominator
        K = M * zd * f
        A, B = L * zd * f, zn * e * M
        s.append(Fraction(A - B, K))
        d.append(Fraction(a * zd * K + b * zn * (B - 2 * A), b * zd * K))
    d.append(q[N])
    return TridiagonalForm(d=tuple(d), s=tuple(s))


def delta_sequence(T: TridiagonalForm) -> DeltaSequence:
    """Run the integer continuant of T; a zero pivot stops it.

    The first nonpositive pivot is the first X_n <= 0: every earlier X is
    positive, and so are the scales.  The minimum pivot is tracked on float
    images of X_n / (X_{n-1} e_n) taken from top bits; only pivots whose
    images lie within _APPROX_TOL of the running minimum are compared
    exactly.
    """
    scales = []
    first_np = None
    best = best_image = None
    cur = 0
    for n, step in enumerate(_continuant(T)):
        cur = step[1]
        scales.append(step[2])
        if first_np is None and cur <= 0:
            first_np = n
        image = _approx_pivot(*step)
        below = True if best is None else _clearly_below(image, best_image)
        if below is None:
            (num, den), (best_num, best_den) = _pivot(*step), _pivot(*best)
            below = num * best_den < best_num * den
        if below:
            best, best_image = step, image
    count = len(scales)
    return DeltaSequence(
        form=T,
        first_nonpositive=first_np,
        stopped_at=count - 1 if not cur else None,
        truncated=count < len(T.d),
        scales=tuple(scales),
        last=cur,
        minimum=_pivot(*best),
    )


def _integer_scales(entries: Sequence[Sequence[Fraction]]) -> list[int]:
    """Positive integers d_i that make every d_i d_j q_ij an integer.

    Greedy, one index at a time: d_i = lcm(den q_ii, den q_ij / gcd(den
    q_ij, d_j) for j < i).  The part of den q_ij that d_j already holds
    is left out of d_i, so the scales stay near the size of the diagonal
    denominators; the lcm of whole rows would be far larger.
    """
    scales: list[int] = []
    for i, row in enumerate(entries):
        d = row[i].denominator
        for j in range(i):
            den = row[j].denominator
            if den != 1:
                d = math.lcm(d, den // math.gcd(den, scales[j]))
        scales.append(d)
    return scales


def leading_minors(Q: ExactMatrix | FactoredSection) -> list[Fraction]:
    """Exact determinants of the leading principal sections of a symmetric Q.

    Q is scaled to the integer matrix A = DQD with D = diag(d_i) from
    _integer_scales, so that minor k of Q is minor k of A over
    (d_0 ... d_k)^2.  One fraction-free sweep (Bareiss, Math. Comp. 22,
    1968) then yields every minor of A:

        A_rc <- (p A_rc - A_kr A_kc) // p_prev

    where p = A_kk is minor k of A and p_prev the one before it; each
    division is exact.  The intermediate matrices stay symmetric, so the
    sweep keeps only the upper triangle, about n^3/6 updates.  Only the
    minors themselves become Fractions.

    If minor k vanishes the sweep stops there, and row k of the swept
    matrix decides the rest: it is p_prev times row k of the Schur
    complement S of the leading k x k block.  A row that is zero beyond
    column k decouples index k, and every later minor is zero.  Otherwise
    S has a principal block [[0, x], [x, y]] with x != 0, so Q is not
    positive semidefinite, and the list ends at minor k, shorter than n.
    """
    if not Q.symmetric:
        raise ValueError("leading minors expect a symmetric section")
    n = Q.n_rows
    scales = _integer_scales(Q.entries)
    A = [[x.numerator * (di * dj // x.denominator) for x, dj in zip(row, scales)]
         for row, di in zip(Q.entries, scales)]
    minors: list[Fraction] = []
    scale2 = 1
    prev = 1
    for k in range(n):
        scale2 *= scales[k] ** 2
        row_k = A[k]
        p = row_k[k]
        if not p:
            minors.append(_ZERO)
            if not any(row_k[k + 1:]):
                minors.extend([_ZERO] * (n - k - 1))
            return minors
        minors.append(Fraction(p, scale2))
        for r in range(k + 1, n):
            f = row_k[r]
            row_r = A[r]
            row_r[r:] = [(p * x - f * y) // prev for x, y in zip(row_r[r:], row_k[r:])]
        prev = p
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


def check_delta_bounds(D: DeltaSequence, floor: RationalFunction) -> BoundReport:
    """Compare delta_n > floor(n) for n <= N-1, and the last delta against
    d_N - s_{N-1}^2 / floor(N-1) (d_0 when N = 0), on the form D.form.

    That final bound is one step of the pivot recursion with the floor in
    place of delta_{N-1}: 0 < floor(N-1) <= delta_{N-1} makes
    s_{N-1}^2 / delta_{N-1} <= s_{N-1}^2 / floor(N-1).  So the floor must be
    positive at every checked index, or ValueError is raised.  Every
    comparison is an exact rational one.
    """
    if D.truncated:
        raise ValueError("bound check needs a complete delta sequence")
    T = D.form
    N = T.N
    floors = [floor.eval(n) for n in range(N)]
    for n, value in enumerate(floors):
        if value <= 0:
            raise ValueError(f"floor is not positive at n = {n}")
    # delta_n > p/q is X_n q > p X_{n-1} e_n, with the pivot's denominator
    # made positive.
    failures = []
    for n, step in enumerate(_continuant(T)):
        num, den = _pivot(*step)
        if n < N and not num * floors[n].denominator > floors[n].numerator * den:
            failures.append(n)
    final_bound = T.d[N] - T.s[N - 1] ** 2 / floors[N - 1] if N else T.d[0]
    return BoundReport(
        checked_upto=N,
        lower_bound_failures=tuple(failures),
        final_delta=Fraction(num, den),
        final_bound=final_bound,
        final_ok=num * final_bound.denominator >= final_bound.numerator * den,
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
    hold the seconds of each stage that ran (hypotheses_s, build_section_s,
    tridiagonal_s, pivots_s, determinant_s, minimum_s, bounds_s,
    minors_s); they are diagnostics only and are excluded from
    the JSON form so identical configurations serialize byte-identically.
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
    pivots: DeltaSequence | None = None
    timings: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def deltas(self) -> tuple[Fraction, ...]:
        """The pivots of the tridiagonal route, () on the minors route."""
        return () if self.pivots is None else self.pivots.deltas

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


def _verdict_from_minors(minors: Sequence[Fraction], n: int) -> tuple[Verdict, str]:
    """Verdict on the leading_minors of a section with n rows; a list
    shorter than n ends at a zero minor whose row couples."""
    if any(m < 0 for m in minors):
        k = next(i for i, m in enumerate(minors) if m < 0)
        return Verdict.NOT_POSITIVE, f"leading minor {k} is negative"
    if len(minors) < n:
        return (Verdict.NOT_POSITIVE, f"leading minor {len(minors) - 1} vanishes "
                "and its row couples to a later index")
    if any(m == 0 for m in minors):
        k = next(i for i, m in enumerate(minors) if m == 0)
        return Verdict.INCONCLUSIVE, f"leading minor {k} vanishes exactly"
    return Verdict.CERTIFIED_POSITIVE, "all leading minors positive"


def certify(g: FactorableGenerators, N: int,
            options: CertifyOptions | None = None) -> CertificationReport:
    """Certify positive definiteness of the N-th finite section of Q.

    Refuses (Inconclusive) when the structural hypotheses fail on the
    prefix, unless overridden.  The tridiagonal route is the default; a
    column factor that leaves a multiplier undefined falls back to the
    exact minor computation, which is slower but assumption-free.  The
    minors route runs neither the bound checks nor the minor cross-check,
    and its notes name each one that was requested.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    options = options or CertifyOptions()
    timings: dict[str, float] = {}
    family = g.spec_string()

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[stage] = time.perf_counter() - t0
        return out

    try:
        hypothesis = timed("hypotheses_s", check_hypotheses, g, max(N, 1))
    except IndexError:
        # The prefix checked is within w_0..w_{N+1}; say what Q_N needs.
        require_weights(g, MatrixKind.Q, N)
        raise

    def build(verdict, det=None, min_delta=None, first_np=None, stopped=None,
              bound_report=None, minors_agree=None, fallback=False, notes="",
              pivots=None):
        return CertificationReport(
            family=family, N=N, verdict=verdict, hypothesis=hypothesis,
            determinant=det, min_delta=min_delta,
            first_nonpositive_delta=first_np, delta_stopped_at=stopped,
            bound_report=bound_report, minors_agree=minors_agree,
            used_minors_fallback=fallback, notes=notes, pivots=pivots,
            timings=timings)

    if not hypothesis.all_passed and not options.override_hypotheses:
        return build(Verdict.INCONCLUSIVE,
                     notes="refused: structural hypotheses violated on the "
                           "checked prefix (override to proceed)")

    Q = timed("build_section_s", finite_section, g, MatrixKind.Q, N)

    D = None
    notes = []
    if options.minors_only:
        notes.append("minors-only certification requested")
    else:
        try:
            T = timed("tridiagonal_s", tridiagonalize, Q)
        except DegenerateFactorError as exc:
            notes.append(f"tridiagonal route unavailable ({exc}); "
                         "using exact leading minors")
        else:
            D = timed("pivots_s", delta_sequence, T)

    if D is None:
        minors = timed("minors_s", leading_minors, Q)
        verdict, why = _verdict_from_minors(minors, Q.n_rows)
        notes.append(why)
        if options.bounds:
            notes.append("bound checks skipped: no pivots on the minors route")
        if options.cross_check_minors:
            notes.append("minor cross-check skipped: no pivots on the minors route")
        return build(verdict, det=minors[-1] if len(minors) == Q.n_rows else None,
                     minors_agree=None, fallback=True, notes="; ".join(notes))

    det = timed("determinant_s", D.determinant)
    min_delta = timed("minimum_s", lambda: D.min_delta)
    first_np = D.first_nonpositive

    if first_np is None:
        verdict = Verdict.CERTIFIED_POSITIVE
        notes.append("all pivots positive")
    elif D.stopped_at != first_np:
        # A zero pivot stops the recursion where it occurs.
        verdict = Verdict.NOT_POSITIVE
        notes.append(f"pivot {first_np} is negative")
    else:
        verdict = Verdict.INCONCLUSIVE
        notes.append(f"pivot {first_np} vanishes exactly; "
                     "a leading minor of the tridiagonal form is zero")

    bound_report = None
    if options.bounds:
        floor = known_floor(g.weights)
        if floor is None:
            notes.append("bound checks skipped: no certified floor for this family")
        elif D.truncated:
            notes.append("bound checks skipped: pivot sequence stopped at "
                         f"n = {D.stopped_at}")
        else:
            bound_report = timed("bounds_s", check_delta_bounds, D, floor)
            notes.append("delta floors hold" if bound_report.all_ok
                         else "delta floor comparisons FAILED")

    minors_agree = None
    if options.cross_check_minors:
        minors = timed("minors_s", leading_minors, Q)
        minors_agree = (all(m > 0 for m in minors) == (verdict is Verdict.CERTIFIED_POSITIVE)
                        and (det is None or len(minors) < Q.n_rows or minors[-1] == det))
        if not minors_agree:
            verdict = Verdict.INCONCLUSIVE
            notes.append("cross-check disagreement between minors and pivots")
        else:
            notes.append("minor cross-check agrees")

    return build(verdict, det=det, min_delta=min_delta, first_np=first_np,
                 stopped=D.stopped_at, bound_report=bound_report,
                 minors_agree=minors_agree, fallback=False,
                 notes="; ".join(notes), pivots=D)
