"""Symbolic closed forms for linear weight families.

For weights w_n = alpha*n + beta the column factors c, the partial sums W
and the prefix sums S of c^2 are all polynomials in the index, so every
entry of Q is a rational function of the indices with a row/column product
structure off the diagonal:

    q_diag(n)           on the diagonal,
    q_mn = R(m) * C(n)  for m > n (mirrored above).

This module derives those rational functions exactly, pushes them through
the tridiagonal elimination (z, d, s as rational functions), and turns the
delta induction step into a single polynomial certificate: with a
candidate floor L(n), positivity of

    E(n) = d(n) - s(n-1)^2 / L(n-1) - L(n)

for all n >= 1 propagates delta_n > L(n) from the base case delta_0 > L(0).
Once the denominator of E is certified sign-definite, nonnegativity of the
numerator is the whole story, and that is decided by coefficient tests
with a Sturm-chain fallback, never by sampling.

The closed forms the paper prints for the odd weights w_n = 2n+1 live here
and nowhere else: ODD_Q, ODD_TRIDIAGONAL, the delta floor ODD_FLOOR and the
certificate expansion ODD_CERTIFICATE_REFERENCE.  paper-check proves the
first two equal to the derived forms of linear:2,1 as identities of
rational functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .polynomials import (
    Polynomial,
    RationalFunction,
    count_roots_above,
)
from .weights import LinearWeights

# Families whose closed forms are kept per process.  Nothing in them
# depends on a floor, so a floor search derives each family once.
FAMILY_MEMO_SIZE = 64


class SymbolicStructureError(RuntimeError):
    """The derived entries do not have the expected product structure."""


class CertificateInconclusive(RuntimeError):
    """No implemented test could decide a required polynomial sign."""


@dataclass(frozen=True)
class SymbolicQ:
    """Closed form of Q: diagonal in n, off-diagonal factors R (in m) and
    C (in n) with q_mn = R(m) * C(n) for m > n."""

    diagonal: RationalFunction
    offdiag_row: RationalFunction
    offdiag_col: RationalFunction


@dataclass(frozen=True)
class SymbolicTridiagonal:
    """Elimination multiplier z and tridiagonal entries d, s, all in n.

    d covers indices 0..N-1 of a section; the last diagonal entry of the
    eliminated section is q_NN, not d(N).
    """

    z: RationalFunction
    d: RationalFunction
    s: RationalFunction


def _odd_closed_forms() -> tuple[SymbolicQ, SymbolicTridiagonal]:
    def linear(a, b, var="n"):
        return Polynomial((b, a), var)

    def quotient(num, *den_factors):
        return RationalFunction(
            num, math.prod(den_factors, start=Polynomial.constant(1, num.var)))

    three = Polynomial.constant(3)
    n1, n2, n3 = linear(1, 1), linear(1, 2), linear(1, 3)
    q = SymbolicQ(
        diagonal=quotient(Polynomial((7, 66, 104, 60, 12)),
                          three, n2 ** 3, linear(2, 1), linear(2, 3)),
        offdiag_row=quotient(Polynomial((11, 16, 6), "m"), linear(1, 2, "m") ** 2,
                             linear(2, 1, "m"), linear(2, 3, "m")),
        offdiag_col=quotient(-n1, three, n2),
    )
    tridiagonal = SymbolicTridiagonal(
        z=quotient(n1 * n3, n2 ** 2),
        d=quotient(Polynomial((197, 1481, 3576, 4226, 2768, 1024, 200, 16)),
                   n2 ** 4, n3, linear(2, 1), linear(2, 3), linear(2, 5)),
        s=quotient(-n1 * Polynomial((7, 8, 2)), n2 ** 2, n3, linear(2, 3)),
    )
    return q, tridiagonal


# The closed forms the paper prints for the odd weights w_n = 2n+1, as
# products of their factors (coefficients ascending):
#
#   q_nn = (12n^4 + 60n^3 + 104n^2 + 66n + 7) / (3 (n+2)^3 (2n+1) (2n+3))
#   R(m) = (6m^2 + 16m + 11) / ((m+2)^2 (2m+1) (2m+3))
#   C(n) = -(n+1) / (3 (n+2))
#   z(n) = (n+1)(n+3) / (n+2)^2
#   d(n) = (16n^7 + 200n^6 + 1024n^5 + 2768n^4 + 4226n^3 + 3576n^2
#           + 1481n + 197) / ((n+2)^4 (n+3) (2n+1) (2n+3) (2n+5))
#   s(n) = -(n+1)(2n^2 + 8n + 7) / ((n+2)^2 (n+3) (2n+3))
#
# with q_mn = R(m) C(n) for m > n and d valid for n <= N-1.
ODD_Q, ODD_TRIDIAGONAL = _odd_closed_forms()

# The delta floor (4n+10)/(4n^2+20n+37) of the odd weights.  Built once, so
# that checking pivots against it runs no polynomial gcd.
ODD_FLOOR = RationalFunction(Polynomial((10, 4)), Polynomial((37, 20, 4)))

# Known expansion of the induction-step certificate for the odd weights
# (ascending coefficients); kept as a regression anchor.
ODD_CERTIFICATE_REFERENCE = (
    178, 35022, 285132, 927504, 1531563, 1447767,
    824294, 282288, 54624, 4944, 96,
)


@dataclass(frozen=True)
class InductionCertificate:
    certificate: Polynomial
    nonneg_for_n_ge_1: bool
    method: str
    normalization: Fraction
    base_holds: bool


def _require_linear(weights) -> LinearWeights:
    if not isinstance(weights, LinearWeights):
        raise ValueError("symbolic derivations are implemented for the "
                         "linear weight family only")
    return weights


def _lagrange(xs: list[int], ys: list[Fraction], var: str) -> Polynomial:
    total = Polynomial.zero(var)
    for i, xi in enumerate(xs):
        basis = Polynomial.constant(1, var)
        denom = Fraction(1)
        for k, xk in enumerate(xs):
            if k == i:
                continue
            basis = basis * Polynomial((-xk, 1), var)
            denom *= xi - xk
        total = total + basis.scale(ys[i] / denom)
    return total


def _prefix_sum_poly(term: Polynomial) -> Polynomial:
    """The polynomial p with p(j) = term(0) + ... + term(j).

    Discrete summation raises the degree by one, so p is pinned down by
    interpolation on degree + 2 points; the result is then re-checked
    against direct summation on several further points.
    """
    if term.is_zero:
        return term
    npts = term.degree + 2
    ys: list[Fraction] = []
    acc = Fraction(0)
    for k in range(npts + 5):
        acc += term.eval(k)
        ys.append(acc)
    p = _lagrange(list(range(npts)), ys[:npts], term.var)
    for k in range(npts, npts + 5):
        if p.eval(k) != ys[k]:
            raise SymbolicStructureError(
                "prefix sum is not polynomial of the expected degree")
    return p


def _family_polys(alpha: Fraction, beta: Fraction):
    one_shift = Polynomial((1, 1), "n")
    c = Polynomial((beta, alpha), "n")
    W = _prefix_sum_poly(c)
    S = _prefix_sum_poly(c * c)
    return c, c.compose(one_shift), W, W.compose(one_shift), S, S.compose(one_shift)


def symbolic_q(weights) -> SymbolicQ:
    """Derive the closed form of Q for a linear family.

    The diagonal comes from clearing the generator denominators in the
    interrupter closed form:

        q_nn = 1 - (c^2 c1^2 W^2 + S (c1 W1 - c W)^2) / (c^2 c1^2 W1^2)

    with c1, W1, S1 the index-shifted polynomials.  Off the diagonal the
    entry splits into the row factor R and the column factor C of
    matrices.offdiag_factors, here as rational functions of the index.

    The result is memoized on (alpha, beta), not on beta/alpha: scaling the
    weights by k leaves the diagonal alone but scales R by 1/k and C by k.
    """
    w = _require_linear(weights)
    return _symbolic_q(w.alpha, w.beta)


@lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _symbolic_q(alpha: Fraction, beta: Fraction) -> SymbolicQ:
    c, c1, W, W1, S, S1 = _family_polys(alpha, beta)
    den = c * c * c1 * c1 * W1 * W1
    if den.is_zero:
        raise SymbolicStructureError("degenerate family: zero denominator")
    cross = c1 * W1 - c * W
    num = c * c * c1 * c1 * W * W + S * cross * cross
    diagonal = RationalFunction(den - num, den)

    # R is read in the row index m: the same function, renamed.
    factor_den = c * c1 * W1
    offdiag_row = RationalFunction(cross, factor_den).compose(Polynomial((0, 1), "m"))
    offdiag_col = RationalFunction(c * S1 * W - c1 * S * W1, factor_den)
    return SymbolicQ(diagonal=diagonal,
                     offdiag_row=offdiag_row,
                     offdiag_col=offdiag_col)


def symbolic_tridiagonal(weights) -> SymbolicTridiagonal:
    """Push the closed form of Q through the elimination.

        z(n) = C(n) / C(n+1)
        d(n) = q_nn - 2 z(n) q_{n,n+1} + z(n)^2 q_{n+1,n+1}
        s(n) = q_{n+1,n} - z(n) q_{n+1,n+1}

    with q_{n+1,n} = R(n+1) * C(n).  A family whose column factor is
    identically zero has a diagonal Q already; z = 0 then does nothing and
    d reduces to the diagonal.  The elimination is memoized on the closed
    form of Q.
    """
    return _eliminate(symbolic_q(weights))


@lru_cache(maxsize=FAMILY_MEMO_SIZE)
def _eliminate(q: SymbolicQ) -> SymbolicTridiagonal:
    n_plus_1 = Polynomial((1, 1), "n")
    C = q.offdiag_col
    R_shift = q.offdiag_row.compose(n_plus_1)
    diag = q.diagonal
    diag_shift = diag.compose(n_plus_1)

    if C.is_zero:
        z = RationalFunction.constant(0, "n")
        return SymbolicTridiagonal(z=z, d=diag, s=RationalFunction.constant(0, "n"))

    C_shift = C.compose(n_plus_1)
    if C_shift.is_zero:
        raise SymbolicStructureError(
            "shifted column factor vanishes identically; no closed-form multiplier")
    z = C / C_shift
    q_off = R_shift * C
    two = RationalFunction.constant(2, "n")
    d = diag - two * z * q_off + z * z * diag_shift
    s = q_off - z * diag_shift
    return SymbolicTridiagonal(z=z, d=d, s=s)


def _sign_name(v: Fraction) -> str:
    return "positive" if v > 0 else ("zero" if v == 0 else "negative")


def certify_positive_on_ray(p: Polynomial, a: int) -> str | None:
    """Certify p(x) > 0 for all real x >= a, or return None.

    Tried in order: nonnegative coefficients (valid for a >= 0 since p is
    then nondecreasing there), nonnegative coefficients after shifting by
    a, and a Sturm-chain count of distinct roots beyond a.  The signs are
    read from the integer coefficients, since the denominator is positive.
    """
    if p.is_zero:
        return None
    if p.eval(a) <= 0:
        return None
    if a >= 0 and all(c >= 0 for c in p.ints):
        return "coefficients"
    shifted = p.shift(a)
    if all(c >= 0 for c in shifted.ints):
        return "shifted-coefficients"
    if count_roots_above(p, a) == 0:
        return "sturm"
    return None


def certify_nonneg_on_ray(p: Polynomial, a: int) -> tuple[bool, str]:
    """Certify p(x) >= 0 for all real x >= a; (decided, how)."""
    if p.is_zero:
        return True, "zero polynomial"
    if p.eval(a) < 0:
        return False, f"value at {a} is negative"
    if p.ints[-1] < 0:
        return False, "negative leading coefficient"
    shifted = p.shift(a)
    if all(c >= 0 for c in shifted.ints):
        return True, "shifted-coefficients"
    if count_roots_above(p, a) == 0:
        return True, "sturm"
    return False, "sign not decided by coefficient tests or root counting"


def induction_certificate(weights, L: RationalFunction) -> InductionCertificate:
    """Build the polynomial certificate for the delta floor L.

    Requires L to be certifiably positive on n >= 0 (its value at n-1
    divides the induction step, so L(0) = 0 in particular is rejected).
    The canonical E = d - s(n-1)^2/L(n-1) - L has a monic denominator; its
    sign on n >= 1 must be certified before the numerator can stand alone
    as the certificate.  The numerator is rescaled to coprime integer
    coefficients, a positive rescaling that preserves its signs; the factor
    applied is reported in `normalization`.
    """
    tri = symbolic_tridiagonal(weights)
    if L.den.eval(0) == 0:
        raise ValueError("floor L has a pole at 0")
    if L.eval(0) == 0:
        raise ValueError("floor L vanishes at 0; it divides the first "
                         "induction step")
    if certify_positive_on_ray(L.num, 0) is None or \
            certify_positive_on_ray(L.den, 0) is None:
        raise CertificateInconclusive(
            "cannot certify the floor L positive on n >= 0")

    n_minus_1 = Polynomial((-1, 1), "n")
    s_back = tri.s.compose(n_minus_1)
    L_back = L.compose(n_minus_1)
    E = tri.d - (s_back * s_back) / L_back - L

    den_method = certify_positive_on_ray(E.den, 1)
    if den_method is None:
        raise CertificateInconclusive(
            "denominator sign on n >= 1 not decidable by the implemented tests")

    certificate, factor = E.num.primitive()
    nonneg, num_method = certify_nonneg_on_ray(certificate, 1)
    base_value = tri.d.eval(0)
    floor_value = L.eval(0)
    base_holds = base_value > floor_value
    method = (
        f"denominator positive on n >= 1 via {den_method}; "
        f"numerator {'nonnegative' if nonneg else 'NOT certified nonnegative'} "
        f"on n >= 1 via {num_method}; numerator rescaled by {factor}; "
        f"base case d(0) = {base_value} {_sign_name(base_value - floor_value)} "
        f"relative to L(0) = {floor_value}"
    )
    return InductionCertificate(
        certificate=certificate,
        nonneg_for_n_ge_1=nonneg,
        method=method,
        normalization=factor,
        base_holds=base_holds,
    )


def known_floor(weights) -> RationalFunction | None:
    """The certified delta floor of a family, or None when none is known.

    This is the one place that decides which family has a floor.  Q depends
    on the weights only through beta/alpha, so the floor of w_n = 2n+1
    serves every linear:2k,k.
    """
    if isinstance(weights, LinearWeights) and weights.alpha == 2 * weights.beta:
        return ODD_FLOOR
    return None


def reference_ratio_odd(certificate: Polynomial) -> Fraction | None:
    """+1 or -1 when a certificate is the known odd-weights expansion up to
    sign, else None.

    Certificates have coprime integer coefficients, and so has the
    reference, so no other ratio between the two is possible.
    """
    ref = Polynomial(ODD_CERTIFICATE_REFERENCE, certificate.var)
    if certificate == ref:
        return Fraction(1)
    if certificate == -ref:
        return Fraction(-1)
    return None
