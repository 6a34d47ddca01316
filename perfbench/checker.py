"""Independent correctness checker for the benchmark's outputs.

Nothing here imports hypomean.  For linear weights w_k = alpha*k + beta the
checker rebuilds the generators and the entries of Q from the definition
of the auxiliary factor B, then runs the O(N) pivot recursion of the
tridiagonal form.  Each check returns a list of problems; an empty list
means the output is correct.

With c_k = w_k, W_k = w_0 + ... + w_k and S_k = c_0^2 + ... + c_k^2,
column k of B holds c_i * u_k in rows i <= k and -W_k / W_{k+1} in row
k + 1, where u_k = 1/c_k - W_k / (c_{k+1} W_{k+1}).  The column inner
products of P = B*B are therefore

    p_kk = S_k u_k^2 + (W_k / W_{k+1})^2
    p_mn = -R_m C_n  (m > n),  R_m = u_m,
    C_n = W_n S_{n+1} / (c_{n+1} W_{n+1}) - S_n / c_n,

and Q = I - P.  Eliminating Q_N with z_n = C_n / C_{n+1} gives

    d_n = q_nn - 2 z_n q_{n+1,n} + z_n^2 q_{n+1,n+1}
    s_n = q_{n+1,n} - z_n q_{n+1,n+1}

for n < N, and the last diagonal entry is q_NN.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

EXIT_CODES = {"CertifiedPositive": 0, "NotPositive": 1, "Inconclusive": 2}


@contextmanager
def unlimited_int_digits():
    """Lift the int/str conversion limit while exact values are compared."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def rational_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def family_spec(alpha: Fraction, beta: Fraction) -> str:
    return f"linear:{rational_text(alpha)},{rational_text(beta)}"


class LinearFamily:
    """Generators and entries of Q for w_k = alpha*k + beta, k <= upto."""

    def __init__(self, alpha: Fraction, beta: Fraction, upto: int):
        self.c = [alpha * k + beta for k in range(upto + 1)]
        self.W, self.S = [], []
        w_sum = s_sum = _ZERO
        for ck in self.c:
            w_sum += ck
            s_sum += ck * ck
            self.W.append(w_sum)
            self.S.append(s_sum)

    def R(self, k: int) -> Fraction:
        return 1 / self.c[k] - self.W[k] / (self.c[k + 1] * self.W[k + 1])

    def C(self, k: int) -> Fraction:
        return (self.W[k] * self.S[k + 1] / (self.c[k + 1] * self.W[k + 1])
                - self.S[k] / self.c[k])

    def p(self, i: int, j: int) -> Fraction:
        if i == j:
            u = self.R(i)
            return self.S[i] * u * u + (self.W[i] / self.W[i + 1]) ** 2
        return -self.R(max(i, j)) * self.C(min(i, j))

    def q_diag(self, k: int) -> Fraction:
        return _ONE - self.p(k, k)


def tridiagonal(fam: LinearFamily, N: int) -> tuple[list[Fraction], list[Fraction]]:
    """Diagonal d_0..d_N (d_N = q_NN) and off-diagonal s_0..s_{N-1} of Q_N."""
    d, s = [], []
    q_next = fam.q_diag(0)
    for n in range(N):
        q_here, q_next = q_next, fam.q_diag(n + 1)
        cn, cn1 = fam.C(n), fam.C(n + 1)
        if cn1 == 0:
            if cn != 0:
                raise ValueError(f"no elimination multiplier at index {n}")
            z = _ZERO
        else:
            z = cn / cn1
        q_off = fam.R(n + 1) * cn
        d.append(q_here - 2 * z * q_off + z * z * q_next)
        s.append(q_off - z * q_next)
    d.append(q_next)
    return d, s


def pivots(d: list[Fraction], s: list[Fraction]) -> list[Fraction]:
    """delta_0 = d_0, delta_n = d_n - s_{n-1}^2 / delta_{n-1}; a zero pivot
    ends the list because the next step would divide by it."""
    out = [d[0]]
    for n in range(1, len(d)):
        if out[-1] == 0:
            break
        out.append(d[n] - s[n - 1] ** 2 / out[-1])
    return out


def odd_floor(n: int) -> Fraction:
    """The paper's interior floor (4n+10)/(4n^2+20n+37) for w_n = 2n+1."""
    return Fraction(4 * n + 10, 4 * n * n + 20 * n + 37)


@dataclass(frozen=True)
class ExpectedCertify:
    """What a certification of Q_N must report, from the pivot recursion."""

    family: str
    N: int
    deltas: tuple[Fraction, ...]
    verdict: str
    first_nonpositive: int | None
    determinant: Fraction | None

    @property
    def min_delta(self) -> Fraction:
        return min(self.deltas)


def expected_certify(alpha: Fraction, beta: Fraction, N: int) -> ExpectedCertify:
    d, s = tridiagonal(LinearFamily(alpha, beta, N + 1), N)
    deltas = pivots(d, s)
    first_np = next((k for k, x in enumerate(deltas) if x <= 0), None)
    if first_np is None:
        verdict = "CertifiedPositive"
    elif deltas[first_np] < 0:
        verdict = "NotPositive"
    else:
        verdict = "Inconclusive"
    det = None
    if len(deltas) == N + 1:
        det = _ONE
        for x in deltas:
            det *= x
    return ExpectedCertify(family_spec(alpha, beta), N, tuple(deltas),
                           verdict, first_np, det)


def _rational_field(report: dict, key: str, expected: Fraction | None) -> list[str]:
    text = report.get(key)
    if expected is None:
        return [] if text is None else [f"{key}: expected null, got a value"]
    if text is None or Fraction(text) != expected:
        return [f"{key}: reported value differs from the pivot recursion"]
    return []


def check_certify_report(report: dict, exp: ExpectedCertify, *,
                         exit_code: int | None = None,
                         minors_route: bool = False,
                         cross_checked: bool = False,
                         bounds: bool = False) -> list[str]:
    """Compare a certification report (the JSON form) with the recursion.

    On the tridiagonal route every pivot-derived field is checked; on the
    minors route only the verdict and the determinant exist.  A zero pivot
    leaves the minors verdict to later minors, which this checker does not
    predict, so it is reported as a problem rather than passed.
    """
    problems = []
    if report.get("family") != exp.family or report.get("N") != exp.N:
        problems.append("family or N differs from the input")
    if minors_route and exp.determinant is None:
        return problems + ["zero pivot: the minors verdict is not predicted"]
    if report.get("verdict") != exp.verdict:
        problems.append(f"verdict {report.get('verdict')} != {exp.verdict}")
    if exit_code is not None and exit_code != EXIT_CODES[exp.verdict]:
        problems.append(f"exit code {exit_code} != {EXIT_CODES[exp.verdict]}")
    with unlimited_int_digits():
        problems += _rational_field(report, "determinant", exp.determinant)
        if minors_route:
            if report.get("used_minors_fallback") is not True:
                problems.append("minors route not reported")
            return problems
        problems += _rational_field(report, "min_delta", exp.min_delta)
    if report.get("first_nonpositive_delta") != exp.first_nonpositive:
        problems.append(
            f"first_nonpositive_delta {report.get('first_nonpositive_delta')} "
            f"!= {exp.first_nonpositive}")
    if cross_checked and report.get("minors_agree") is not True:
        problems.append("minors_agree is not true")
    if bounds:
        failures = [n for n in range(exp.N) if not exp.deltas[n] > odd_floor(n)]
        if report.get("bound_failures") != failures:
            problems.append(f"bound_failures {report.get('bound_failures')} != {failures}")
    return problems


def check_p_oracle_dump(payload: dict, alpha: Fraction, beta: Fraction,
                        N: int) -> list[str]:
    """Every entry of a dumped P-oracle section against p_ij above."""
    if (payload.get("family") != family_spec(alpha, beta) or payload.get("N") != N
            or payload.get("kind") != "P-oracle"):
        return ["family, N or kind differs from the input"]
    fam = LinearFamily(alpha, beta, N + 1)
    rows = payload.get("entries")
    if not isinstance(rows, list) or len(rows) != N + 1:
        return ["section has the wrong number of rows"]
    with unlimited_int_digits():
        for i, row in enumerate(rows):
            if len(row) != N + 1:
                return [f"row {i} has the wrong length"]
            for j, text in enumerate(row):
                if Fraction(text) != fam.p(i, j):
                    return [f"P-oracle entry ({i}, {j}) is wrong"]
    return []


def interior_pivots(alpha: Fraction, beta: Fraction, count: int) -> list[Fraction]:
    """delta_0..delta_{count-1}, shared by every section Q_N with N >= count."""
    d, s = tridiagonal(LinearFamily(alpha, beta, count + 1), count)
    return pivots(d, s)[:count]


def floor_value(a: Fraction, b: Fraction, c: Fraction, n: int) -> Fraction:
    """L(n) = (n + a) / (n^2 + b n + c)."""
    return (n + a) / (n * n + b * n + c)


def check_floor_claim(certified: bool, certificate: list[Fraction] | None,
                      floor: tuple[Fraction, Fraction, Fraction],
                      deltas: list[Fraction], *, must_certify: bool = False) -> list[str]:
    """A certified floor must hold where it can be checked directly.

    For K = len(deltas) the certificate polynomial (ascending coefficients)
    must be nonnegative at n = 1..K and delta_n > L(n) must hold exactly
    for n < K.
    """
    if not certified:
        return ["the anchor floor did not certify"] if must_certify else []
    if certificate is None:
        return ["certified without a certificate"]
    problems = []
    for n in range(1, len(deltas) + 1):
        value = _ZERO
        for coeff in reversed(certificate):
            value = value * n + coeff
        if value < 0:
            problems.append(f"certificate negative at n={n}")
            break
    a, b, c = floor
    bad = next((n for n, x in enumerate(deltas) if not x > floor_value(a, b, c, n)), None)
    if bad is not None:
        problems.append(f"certified floor exceeds delta_{bad}")
    return problems
