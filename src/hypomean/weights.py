"""Weight sequences and the generators of the associated mean matrix.

A weighted mean matrix is built from a nonnegative weight sequence w with
w_0 > 0.  Writing W_i = w_0 + ... + w_i, the matrix has row factors
a_i = 1/W_i and column factors c_j = w_j, so its (i, j) entry is w_j / W_i
below the diagonal and 0 above.  Everything downstream needs exact sign
decisions, so weights are Fractions and all derived values stay exact.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction


def _to_fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q'."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class LinearWeights:
    """Weights w_n = alpha*n + beta with alpha >= 0 and beta > 0.

    The constraint keeps every weight strictly positive, which the
    downstream matrix entries rely on (they divide by c_j = w_j).
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", _to_fraction(self.alpha))
        object.__setattr__(self, "beta", _to_fraction(self.beta))
        if self.alpha < 0:
            raise ValueError("linear weights need alpha >= 0")
        if self.beta <= 0:
            raise ValueError("linear weights need beta > 0")

    def weight(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("weight index must be nonnegative")
        return self.alpha * n + self.beta

    def spec_string(self) -> str:
        return f"linear:{format_rational(self.alpha)},{format_rational(self.beta)}"


@dataclass(frozen=True)
class TableWeights:
    """Explicitly tabulated weights, mainly for probing hypothesis failures.

    Values must be nonnegative with values[0] > 0; indexing past the end of
    the table raises IndexError.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(_to_fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("weight table must be nonempty")
        if vals[0] <= 0:
            raise ValueError("first weight must be positive")
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")

    def weight(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("weight index must be nonnegative")
        if n >= len(self.values):
            raise IndexError(
                f"weight table has {len(self.values)} entries, index {n} requested")
        return self.values[n]

    def spec_string(self) -> str:
        return "table:" + ",".join(format_rational(v) for v in self.values)


WeightSequence = LinearWeights | TableWeights


def parse_weight_spec(spec: str) -> WeightSequence:
    """Parse 'linear:ALPHA,BETA' or 'table:v0,v1,...' with p/q rationals."""
    kind, sep, body = spec.partition(":")
    if not sep:
        raise ValueError(f"weight spec {spec!r} needs a 'linear:' or 'table:' prefix")
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if kind == "linear":
        if len(parts) != 2:
            raise ValueError("linear weights take exactly two parameters: alpha,beta")
        return LinearWeights(_to_fraction(parts[0]), _to_fraction(parts[1]))
    if kind == "table":
        if not parts:
            raise ValueError("table weights need at least one value")
        return TableWeights(tuple(_to_fraction(p) for p in parts))
    raise ValueError(f"unknown weight family {kind!r}")


class FactorableGenerators:
    """Derived sequences of a weight sequence, memoized for reuse.

    One integer scale lambda, the least common denominator of the weights
    (of alpha and beta, or of the whole table), turns the generators into
    integers: c^_k = lambda w_k, W^_k = lambda W_k and S^_k = lambda^2 S_k,
    where W_k and S_k are the prefix sums of w and of w^2.  The closed-form
    entries of Q are read from these integers, so the fast paths build a
    Fraction only for a value they keep.  The columns of the auxiliary
    factor B, which its entries and the finite-sum oracle for P read, are
    memoized as integers over one denominator per column.  The caches only
    ever grow and are extended under a lock, so concurrent readers are safe;
    they live as long as this object.
    """

    def __init__(self, weights: WeightSequence):
        self.weights = weights
        values = ((weights.alpha, weights.beta) if isinstance(weights, LinearWeights)
                  else weights.values)
        self.scale = math.lcm(*(v.denominator for v in values))
        self._hat: list[tuple[int, int, int]] = []
        self._B: dict[int, tuple[tuple[int, ...], int]] = {}
        self._lock = threading.Lock()

    def _ensure(self, upto: int) -> None:
        with self._lock:
            while len(self._hat) <= upto:
                k = len(self._hat)
                w = self.weights.weight(k)
                c = w.numerator * (self.scale // w.denominator)
                if k == 0:
                    self._hat.append((c, c, c * c))
                else:
                    _, W, S = self._hat[-1]
                    self._hat.append((c, W + c, S + c * c))

    def scaled(self, k: int) -> tuple[int, int, int]:
        """The integers (c^_k, W^_k, S^_k) = (lambda w_k, lambda W_k,
        lambda^2 S_k), memoized."""
        if k < 0:
            raise IndexError("weight index must be nonnegative")
        if k >= len(self._hat):
            self._ensure(k)
        return self._hat[k]

    def b_column_scaled(self, j: int) -> tuple[tuple[int, ...], int]:
        """Column j of the auxiliary factor B down to its last nonzero
        entry, (b_0j, ..., b_{j+1,j}), as integers over one denominator,
        computed once per index.

        With r = a_{j+1}/a_j the entries are c_i (1/c_j - r/c_{j+1}) for
        i <= j and -r for i = j+1; matrices.b_entry reads its entries from
        here, and the tests check them against that definition on
        Fractions.  In the integer generators the scale cancels: over the
        denominator c^_j c^_{j+1} W^_{j+1} the entries are
        c^_i (c^_{j+1} W^_{j+1} - c^_j W^_j) and -W^_j c^_j c^_{j+1}.
        """
        column = self._B.get(j)
        if column is None:
            c, W, _ = self.scaled(j)
            c1, W1, _ = self.scaled(j + 1)
            num = c1 * W1 - c * W
            column = (tuple(self._hat[i][0] * num for i in range(j + 1)) + (-W * c * c1,),
                      c * c1 * W1)
            with self._lock:
                column = self._B.setdefault(j, column)
        return column

    def spec_string(self) -> str:
        return self.weights.spec_string()


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    first_violation: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "first_violation": self.first_violation,
        }


@dataclass(frozen=True)
class HypothesisReport:
    """Finite-prefix status of the structural assumptions on (a_n, a_n/c_n).

    A finite prefix can only witness violations; it can never establish the
    limit behaviour, and the notes say so explicitly.
    """

    checks: tuple[HypothesisCheck, ...]
    prefix_length: int
    analytic_notes: str

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "prefix_length": self.prefix_length,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "analytic_notes": self.analytic_notes,
        }


_UNCHECKED_NOTE = (
    "Convergence of a_n and a_n/c_n to 0 is not decidable from a finite "
    "prefix. Boundedness of the mean matrix and of its auxiliary factor on "
    "the space of square-summable sequences is assumed, not checked."
)

_LINEAR_NOTE = (
    " For linear weights alpha*n+beta with beta > 0 both sequences do tend "
    "to 0 analytically: the partial sums W_n grow without bound."
)


def check_hypotheses(g: FactorableGenerators, N: int) -> HypothesisReport:
    """Check positivity of a_n for n <= N and strict decrease of a_n and
    a_n/c_n over consecutive pairs with n <= N-1.

    Pair checks stop at N-1 so a table of N+1 entries can be checked over
    its whole prefix.  A zero column factor (c_n == 0) counts as a
    violation of the ratio check at that index.  Every check is an integer
    comparison of the scaled generators: a_n > 0 is W^_n > 0, and since
    W_n > 0, a_{n+1} < a_n is W^_{n+1} > W^_n and a_{n+1}/c_{n+1} < a_n/c_n
    (with both c positive) is W^_n c^_n < W^_{n+1} c^_{n+1}.
    """
    if N < 1:
        raise ValueError("hypothesis check needs N >= 1")
    hat = [g.scaled(n) for n in range(N + 1)]

    a_pos_viol = next((n for n, (_, W, _) in enumerate(hat) if W <= 0), None)
    a_dec_viol = next((n for n in range(N) if not hat[n + 1][1] > hat[n][1]), None)
    ratio_viol = None
    for n in range(N):
        (cn, Wn, _), (cn1, Wn1, _) = hat[n], hat[n + 1]
        if cn <= 0 or cn1 <= 0 or not Wn * cn < Wn1 * cn1:
            ratio_viol = n
            break

    checks = (
        HypothesisCheck("a_positive", a_pos_viol is None, a_pos_viol),
        HypothesisCheck("a_strictly_decreasing", a_dec_viol is None, a_dec_viol),
        HypothesisCheck("a_over_c_strictly_decreasing", ratio_viol is None, ratio_viol),
    )
    notes = _UNCHECKED_NOTE
    if isinstance(g.weights, LinearWeights):
        notes += _LINEAR_NOTE
    return HypothesisReport(checks=checks, prefix_length=N, analytic_notes=notes)
