"""Exact entries and finite sections of the mean matrix family.

Four matrices matter here.  M is the weighted mean matrix itself.  B is the
upper-Hessenberg auxiliary factor whose columns have finite support, which
makes every entry of P = B*B a finite exact sum.  P also has a closed form
in the generators, and Q = I - P is the object whose finite sections get
certified positive.  The closed forms of P and Q are read only through
their factored sections (finite_section); the finite-sum oracle
p_entry_oracle is kept as an independent route on purpose, and tests
compare the two sections entrywise.  The entries here hold for any
weights; the paper's closed form of Q for the odd weights is
symbolic.ODD_Q, which paper-check compares with the Q section.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Callable

from .weights import FactorableGenerators, format_rational

_ZERO = Fraction(0)


def m_entry(g: FactorableGenerators, i: int, j: int) -> Fraction:
    """Mean matrix entry: a_i * c_j for j <= i, else 0.

    In the integer generators the scale cancels: a_i c_j = c^_j / W^_i.
    """
    if j > i:
        return _ZERO
    return Fraction(g.scaled(j)[0], g.scaled(i)[1])


def b_entry(g: FactorableGenerators, i: int, j: int) -> Fraction:
    """Auxiliary factor entry.

    c_i * (1/c_j - (1/c_{j+1}) * (a_{j+1}/a_j))  for i <= j,
    -a_{j+1}/a_j                                 for i == j + 1,
    0                                            for i > j + 1.

    Read from the memoized integer column FactorableGenerators.b_column_scaled.
    """
    if i > j + 1:
        return _ZERO
    column, den = g.b_column_scaled(j)
    return Fraction(column[i], den)


def offdiag_factors(g: FactorableGenerators, k: int) -> tuple[Fraction, Fraction]:
    """Row and column factors (R_k, C_k) of the off-diagonal entries of Q.

    For m > n the closed form of Q factors as q_mn = R_m * C_n (and the
    interrupter as p_mn = -R_m * C_n), with

        R_k = (c_{k+1} W_{k+1} - c_k W_k) / (c_k c_{k+1} W_{k+1})
        C_k = (c_k S_{k+1} W_k - c_{k+1} S_k W_{k+1}) / (c_k c_{k+1} W_{k+1})

    where S_j is the prefix sum of c^2.  This product structure is what the
    tridiagonal elimination exploits.  Both are read from the integer
    generators of scale lambda, in which R_k scales as 1/lambda and C_k as
    lambda, so each costs one normalization.
    """
    lam = g.scale
    c, W, S = g.scaled(k)
    c1, W1, S1 = g.scaled(k + 1)
    den = c * c1 * W1
    return (Fraction(lam * (c1 * W1 - c * W), den),
            Fraction(c * S1 * W - c1 * S * W1, lam * den))


def _p_diagonal(g: FactorableGenerators, j: int) -> tuple[int, int]:
    """Integers (P, D) with p_jj = P / D for the closed form of P:

        P = (c^_j c^_{j+1} W^_j)^2 + S^_j (c^_{j+1} W^_{j+1} - c^_j W^_j)^2
        D = (c^_j c^_{j+1} W^_{j+1})^2

    in the integer generators; the scale cancels.  This is the published
    a-form of p_jj with numerator and denominator cleared by W_j^2 W_{j+1}^2.
    """
    c, W, S = g.scaled(j)
    c1, W1, _ = g.scaled(j + 1)
    return (c * c1 * W) ** 2 + S * (c1 * W1 - c * W) ** 2, (c * c1 * W1) ** 2


def p_entry_oracle(g: FactorableGenerators, i: int, j: int) -> Fraction:
    """Interrupter entry as the finite sum over the shared column support.

    Column j of the auxiliary factor vanishes below row j+1, so the inner
    product of columns i and j has at most min(i, j) + 2 terms.  No
    truncation is involved; the sum is exact.  The columns are memoized on
    the generators as integers over one denominator each, so the sum is an
    integer dot product and the entry is one Fraction.
    """
    u, den_i = g.b_column_scaled(i)
    v, den_j = g.b_column_scaled(j)
    return Fraction(sum(map(mul, u, v)), den_i * den_j)


class MatrixKind(enum.Enum):
    M = "M"
    B = "B"
    P_CLOSED = "P-closed"
    P_ORACLE = "P-oracle"
    Q = "Q"


class _RowsText:
    """Text forms shared by the section types; both read the dense entries."""

    def to_string_rows(self) -> list[list[str]]:
        return [[fraction_str(x) for x in row] for row in self.entries]


@dataclass(frozen=True)
class ExactMatrix(_RowsText):
    """Dense matrix of Fractions; immutable once built.

    The symmetric flag is validated entrywise at construction, so carrying
    it is a proof that entries[i][j] == entries[j][i] exactly.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    symmetric: bool = False

    def __post_init__(self):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                     for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        if self.symmetric:
            if self.n_rows != self.n_cols:
                raise ValueError("symmetric flag on a non-square matrix")
            for i, row in enumerate(rows):
                for j in range(i):
                    if row[j] != rows[j][i]:
                        raise ValueError(
                            f"symmetric flag violated at ({i}, {j})")

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]


@dataclass(frozen=True)
class FactoredSection(_RowsText):
    """Symmetric section stored as a diagonal plus its off-diagonal factors.

    Entry (i, j) is diag[i] on the diagonal and row[max(i, j)] *
    col[min(i, j)] off it: a diagonal plus a rank-one semiseparable matrix.
    It takes O(N) values to hold; the dense (N+1) x (N+1) entries are built
    only when first read, for the minor computations and for dumps.
    """

    diag: tuple[Fraction, ...]
    row: tuple[Fraction, ...]
    col: tuple[Fraction, ...]

    # Exact by construction: an entry depends on its indices only through
    # their max and min.
    symmetric = True

    def __post_init__(self):
        if not (len(self.diag) == len(self.row) == len(self.col)):
            raise ValueError("diagonal and factors must have equal lengths")

    @property
    def n_rows(self) -> int:
        return len(self.diag)

    @property
    def n_cols(self) -> int:
        return len(self.diag)

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return self.diag[i]
        return self.row[max(i, j)] * self.col[min(i, j)]

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        size = range(self.n_rows)
        return tuple(tuple(self.entry(i, j) for j in size) for i in size)


def fraction_str(value: Fraction) -> str:
    """Like format_rational, but tolerant of very large exact integers.

    Python 3.11+ limits int-to-str conversion to a number of digits; the
    limit is raised for this one call and restored afterwards, since it is
    process-wide state.
    """
    try:
        return format_rational(value)
    except ValueError:
        if not hasattr(sys, "get_int_max_str_digits"):
            raise
    limit = sys.get_int_max_str_digits()
    needed = value.numerator.bit_length() + value.denominator.bit_length() + 16
    sys.set_int_max_str_digits(max(limit, needed))
    try:
        return format_rational(value)
    finally:
        sys.set_int_max_str_digits(limit)


# The dense kinds.  Q and P-closed come back factored before this table
# is read.
_ENTRY_FUNCS: dict[MatrixKind, Callable[[FactorableGenerators, int, int], Fraction]] = {
    MatrixKind.M: m_entry,
    MatrixKind.B: b_entry,
    MatrixKind.P_ORACLE: p_entry_oracle,
}


def require_weights(g: FactorableGenerators, kind: MatrixKind, N: int) -> None:
    """Check that the N-th section of `kind` can be built from the weights.

    Raises IndexError naming the weights the section reads when the weight
    sequence (a finite table) is shorter than that, and ZeroDivisionError
    naming the first zero weight it would divide by.
    """
    # Every kind but M reads w_{N+1}, through a_{N+1}, c_{N+1} or W_{N+1},
    # and divides by each of w_0..w_{N+1}.
    top = N if kind is MatrixKind.M else N + 1
    try:
        g.scaled(top)
    except IndexError as exc:
        raise IndexError(
            f"{kind.value}_{N} needs the weights w_0..w_{top}: {exc}") from None
    if kind is not MatrixKind.M:
        zero = next((k for k in range(top + 1) if not g.scaled(k)[0]), None)
        if zero is not None:
            raise ZeroDivisionError(f"{kind.value}_{N} divides by w_{zero} = 0")


def finite_section(g: FactorableGenerators, kind: MatrixKind,
                   N: int) -> ExactMatrix | FactoredSection:
    """The (N+1) x (N+1) top-left corner of the requested matrix.

    Sections of Q and of the closed form of P come back factored, in O(N):
    the diagonal plus the off-diagonal factors R_k and C_k (negated for P),
    computed once per index.  They are the only reader of these closed
    forms; the test suite compares the P-closed section with the P-oracle
    one entry by entry.  The other kinds are dense; the P-oracle section
    carries the symmetric flag.
    """
    if N < 0:
        raise ValueError("section size N must be nonnegative")
    require_weights(g, kind, N)
    size = N + 1
    if kind in (MatrixKind.Q, MatrixKind.P_CLOSED):
        factors = [offdiag_factors(g, k) for k in range(size)]
        row = tuple(r for r, _ in factors)
        p_diag = [_p_diagonal(g, k) for k in range(size)]
        if kind is MatrixKind.Q:
            return FactoredSection(tuple(Fraction(D - P, D) for P, D in p_diag), row,
                                   tuple(c for _, c in factors))
        return FactoredSection(tuple(Fraction(P, D) for P, D in p_diag), row,
                               tuple(-c for _, c in factors))
    f = _ENTRY_FUNCS[kind]
    entries = tuple(
        tuple(f(g, i, j) for j in range(size)) for i in range(size))
    return ExactMatrix(entries, symmetric=kind is MatrixKind.P_ORACLE)
