"""Command-line front end.

Subcommands: dump (emit a finite section as JSON), certify (positivity of
Q_N with exit code 0/1/2 for certified/not/inconclusive), symbolic (closed
forms and the induction certificate; exit 2 when the certificate does not
hold), and paper-check (the full built-in regression bundle over the
flagship weight families).  Usage errors exit with 64.  JSON reports are
deterministic: rationals are 'p/q' strings and timings never enter the
payload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .matrices import MatrixKind, finite_section, fraction_str
from .polynomials import RationalFunction
from .positivity import (
    CertifyOptions,
    Verdict,
    certify,
    delta_sequence,
    elimination_multiplier,
    leading_minors,
    tridiagonalize,
)
from .symbolic import (
    ODD_CERTIFICATE_REFERENCE,
    ODD_FLOOR,
    ODD_Q,
    ODD_TRIDIAGONAL,
    induction_certificate,
    known_floor,
    reference_ratio_odd,
    symbolic_q,
    symbolic_tridiagonal,
)
from .weights import FactorableGenerators, LinearWeights, parse_weight_spec

OUT_DIR_ENV = "HYPOMEAN_OUT_DIR"

EXIT_OK = 0
EXIT_NOT_POSITIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_VERDICT_EXIT = {
    Verdict.CERTIFIED_POSITIVE: EXIT_OK,
    Verdict.NOT_POSITIVE: EXIT_NOT_POSITIVE,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = _resolve_output(path)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rf_json(rf: RationalFunction) -> dict:
    return {
        "num": [fraction_str(c) for c in rf.num.coeffs],
        "den": [fraction_str(c) for c in rf.den.coeffs],
        "num_degree": rf.num.degree,
        "den_degree": rf.den.degree,
        "var": rf.var,
    }


def _short_fraction(x: Fraction) -> str:
    s = fraction_str(x)
    if len(s) <= 60:
        return s
    # Count digits in s: a second str() of a huge int would hit the
    # int-to-str digit limit, which fraction_str lifts only for its call.
    num, _, den = s.lstrip("-").partition("/")
    nd = len(num)
    dd = len(den) or 1
    return f"<exact rational with {nd}/{dd} digits>"


# ----------------------------------------------------------------------
# subcommands

def _cmd_dump(args: argparse.Namespace) -> int:
    g = FactorableGenerators(parse_weight_spec(args.weights))
    kind = MatrixKind(args.kind)
    section = finite_section(g, kind, args.N)
    _emit_json({
        "family": g.spec_string(),
        "kind": kind.value,
        "N": args.N,
        "symmetric": section.symmetric,
        "entries": section.to_string_rows(),
    }, args.output)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    g = FactorableGenerators(parse_weight_spec(args.weights))
    options = CertifyOptions(
        cross_check_minors=args.cross_check,
        bounds=args.bounds,
        override_hypotheses=args.override,
    )
    report = certify(g, args.N, options)
    payload = report.to_json_dict()
    if args.output is not None:
        _emit_json(payload, args.output)
    if args.pretty:
        print(f"family:      {report.family}")
        print(f"N:           {report.N}")
        print(f"verdict:     {report.verdict.value}")
        det = "n/a" if report.determinant is None else _short_fraction(report.determinant)
        print(f"determinant: {det}")
        if report.min_delta is not None:
            approx = float(report.min_delta)
            print(f"min delta:   {_short_fraction(report.min_delta)} (~{approx:.6g})")
        if report.bound_report is not None:
            print(f"delta floors: {'hold' if report.bound_report.all_ok else 'FAIL'}")
        print(f"notes:       {report.notes}")
        for name, seconds in report.timings.items():
            print(f"  {name}: {seconds:.3f}")
    elif args.output is None:
        _emit_json(payload, None)
    return _VERDICT_EXIT[report.verdict]


def _cmd_symbolic(args: argparse.Namespace) -> int:
    weights = parse_weight_spec(args.weights)
    family = weights.spec_string()
    code = EXIT_OK
    if args.emit == "qdiag":
        q = symbolic_q(weights)
        num_degree, den_degree = q.diagonal.degree_pair
        payload = {
            "family": family,
            "diagonal": _rf_json(q.diagonal),
            "offdiag_row": _rf_json(q.offdiag_row),
            "offdiag_col": _rf_json(q.offdiag_col),
            "degrees": {"num": num_degree, "den": den_degree},
        }
    elif args.emit == "tridiag":
        tri = symbolic_tridiagonal(weights)
        payload = {
            "family": family,
            "z": _rf_json(tri.z),
            "d": _rf_json(tri.d),
            "s": _rf_json(tri.s),
        }
    else:  # certificate
        floor = known_floor(weights)
        if floor is None:
            raise ValueError(
                "certificate emission needs a known delta floor, which is "
                "known for linear:ALPHA,BETA with ALPHA = 2*BETA only, such as linear:2,1")
        cert = induction_certificate(weights, floor)
        ratio = reference_ratio_odd(cert.certificate)
        payload = {
            "family": family,
            "coefficients": [fraction_str(c) for c in cert.certificate.coeffs],
            "nonneg_for_n_ge_1": cert.nonneg_for_n_ge_1,
            "base_holds": cert.base_holds,
            "method": cert.method,
            "normalization": fraction_str(cert.normalization),
            "reference_ratio": None if ratio is None else fraction_str(ratio),
        }
        if ratio is None:
            payload["reference_coefficients"] = [
                str(c) for c in ODD_CERTIFICATE_REFERENCE]
        if not (cert.nonneg_for_n_ge_1 and cert.base_holds):
            code = EXIT_INCONCLUSIVE
    _emit_json(payload, args.output)
    return code


# ----------------------------------------------------------------------
# regression bundle

def _odd_generators() -> FactorableGenerators:
    return FactorableGenerators(LinearWeights(2, 1))


def _check_oracle_equivalence() -> tuple[bool, str]:
    for spec in ("linear:2,1", "linear:1,1", "linear:3,1"):
        g = FactorableGenerators(parse_weight_spec(spec))
        closed = finite_section(g, MatrixKind.P_CLOSED, 50)
        oracle = finite_section(g, MatrixKind.P_ORACLE, 50)
        if closed.entries != oracle.entries:
            return False, f"closed form and finite-sum oracle differ for {spec}"
    return True, "closed form equals finite-sum oracle, three families, indices 0..50"


def _check_q_agreement() -> tuple[bool, str]:
    if symbolic_q(LinearWeights(2, 1)) != ODD_Q:
        return False, "symbolic Q of linear:2,1 is not the odd-weights closed form"
    section = finite_section(_odd_generators(), MatrixKind.Q, 50)
    diag, row, col = ([f.eval(k) for k in range(51)]
                      for f in (ODD_Q.diagonal, ODD_Q.offdiag_row, ODD_Q.offdiag_col))

    def closed(m, n):
        return diag[m] if m == n else row[max(m, n)] * col[min(m, n)]

    anchors = (
        (0, 0, Fraction(7, 72)),
        (1, 0, Fraction(-11, 270)),
        (1, 1, Fraction(83, 405)),
    )
    for m, n, expected in anchors:
        if closed(m, n) != expected or section.entry(m, n) != expected:
            return False, f"anchor q({m},{n}) != {expected}"
    for m in range(51):
        for n in range(51):
            if section.entry(m, n) != closed(m, n):
                return False, f"derived and specialized Q disagree at ({m},{n})"
    return True, "derived Q matches the odd-weights closed form on 0..50 plus anchors"


def _check_tridiagonal_forms() -> tuple[bool, str]:
    if symbolic_tridiagonal(LinearWeights(2, 1)) != ODD_TRIDIAGONAL:
        return False, "symbolic band of linear:2,1 is not the odd-weights closed form"
    g = _odd_generators()
    N = 51
    Q = finite_section(g, MatrixKind.Q, N)
    z, d, s = ODD_TRIDIAGONAL.z, ODD_TRIDIAGONAL.d, ODD_TRIDIAGONAL.s
    for n in range(N):
        if elimination_multiplier(Q, n) != z.eval(n):
            return False, f"multiplier mismatch at {n}"
    T = tridiagonalize(Q)
    for n in range(N):
        if T.d[n] != d.eval(n) or T.s[n] != s.eval(n):
            return False, f"tridiagonal entry mismatch at {n}"
    if T.d[N] != ODD_Q.diagonal.eval(N):
        return False, "last diagonal is not q_NN"
    Q1 = finite_section(g, MatrixKind.Q, 1)
    T1 = tridiagonalize(Q1)
    det_pivots = delta_sequence(T1).determinant()
    det_minor = leading_minors(Q1)[-1]
    target = Fraction(2663, 145800)
    if det_pivots != target or det_minor != target:
        return False, "determinant identity at N=1 failed"
    return True, ("multipliers, d, s match closed forms for n <= 50; "
                  "det Q_1 = 2663/145800 via both routes")


def _check_delta_floors() -> tuple[bool, str]:
    report = certify(_odd_generators(), 500, CertifyOptions(bounds=True))
    if report.verdict is not Verdict.CERTIFIED_POSITIVE:
        return False, f"verdict {report.verdict.value} at N=500"
    if report.bound_report is None or not report.bound_report.all_ok:
        return False, "a delta floor comparison failed"
    return True, "N=500 certified; all pivots above their floors, final pivot included"


def _check_determinant_preservation() -> tuple[bool, str]:
    for spec in ("linear:2,1", "linear:1,1", "linear:3,1"):
        g = FactorableGenerators(parse_weight_spec(spec))
        minors = leading_minors(finite_section(g, MatrixKind.Q, 15))
        for N in range(16):
            T = tridiagonalize(finite_section(g, MatrixKind.Q, N))
            if delta_sequence(T).determinant() != minors[N]:
                return False, f"det mismatch for {spec} at N={N}"
    return True, "pivot products equal elimination minors, N <= 15, three families"


def _check_certificate() -> tuple[bool, str]:
    cert = induction_certificate(LinearWeights(2, 1), ODD_FLOOR)
    if not cert.nonneg_for_n_ge_1:
        return False, "certificate not certified nonnegative"
    if not cert.base_holds:
        return False, "base case failed"
    ratio = reference_ratio_odd(cert.certificate)
    if ratio is None or ratio <= 0:
        return False, "certificate not proportional to the reference expansion"
    if cert.certificate.eval(1) != Fraction(5393412) * ratio:
        return False, "evaluation cross-check at n=1 failed"
    return True, f"nonnegative for n >= 1; reference ratio {fraction_str(ratio)}"


def _check_q_diagonal_degrees() -> tuple[bool, str]:
    r21 = symbolic_q(LinearWeights(2, 1)).diagonal.degree_pair
    r31 = symbolic_q(LinearWeights(3, 1)).diagonal.degree_pair
    ok = r21 == (4, 5) and r31 == (6, 7)
    return ok, f"linear:2,1 -> ({r21[0]}, {r21[1]}); linear:3,1 -> ({r31[0]}, {r31[1]})"


_BUNDLE = (
    ("interrupter-oracle-equivalence", _check_oracle_equivalence),
    ("q-closed-form-agreement", _check_q_agreement),
    ("tridiagonal-closed-forms", _check_tridiagonal_forms),
    ("delta-floors-N500", _check_delta_floors),
    ("determinant-preservation-N15", _check_determinant_preservation),
    ("induction-certificate", _check_certificate),
    ("degree-reports", _check_q_diagonal_degrees),
)


def _cmd_paper_check(args: argparse.Namespace) -> int:
    results = []
    all_ok = True
    for name, fn in _BUNDLE:
        t0 = time.perf_counter()
        ok, detail = fn()
        seconds = time.perf_counter() - t0
        all_ok &= ok
        results.append({"name": name, "passed": ok, "detail": detail})
        tag = " ok " if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}  ({seconds:.1f}s)")
    if args.output is not None:
        _emit_json({"all_passed": all_ok, "checks": results}, args.output)
    print("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return EXIT_OK if all_ok else EXIT_NOT_POSITIVE


# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hypomean",
        description="Exact construction and positivity certification of "
                    "weighted mean matrix sections.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def add_weights(p):
        p.add_argument("--weights", default="linear:2,1",
                       help="linear:ALPHA,BETA or table:v0,v1,... "
                            "(rationals as p/q or integers)")

    p_dump = sub.add_parser("dump", help="emit a finite section as JSON")
    add_weights(p_dump)
    p_dump.add_argument("--kind", default="Q",
                        choices=[k.value for k in MatrixKind])
    p_dump.add_argument("--N", type=int, required=True)
    p_dump.add_argument("--json", dest="output", default=None,
                        help="write to this path instead of stdout "
                             f"(relative paths resolve under ${OUT_DIR_ENV})")
    p_dump.set_defaults(handler=_cmd_dump)

    p_cert = sub.add_parser("certify", help="certify Q_N positive definite")
    add_weights(p_cert)
    p_cert.add_argument("--N", type=int, required=True)
    p_cert.add_argument("--cross-check-minors", action="store_true",
                        dest="cross_check")
    p_cert.add_argument("--bounds", action="store_true",
                        help="compare pivots against the known floor "
                             "(linear:2,1 and its multiples)")
    p_cert.add_argument("--override-hypotheses", action="store_true",
                        dest="override")
    p_cert.add_argument("--json", dest="output", default=None)
    p_cert.add_argument("--pretty", action="store_true")
    p_cert.set_defaults(handler=_cmd_certify)

    p_sym = sub.add_parser("symbolic", help="closed forms for linear families")
    add_weights(p_sym)
    p_sym.add_argument("--emit", default="qdiag",
                       choices=["qdiag", "tridiag", "certificate"])
    p_sym.add_argument("--json", dest="output", default=None)
    p_sym.set_defaults(handler=_cmd_symbolic)

    p_pc = sub.add_parser("paper-check",
                          help="run the built-in regression bundle")
    p_pc.add_argument("--json", dest="output", default=None)
    p_pc.set_defaults(handler=_cmd_paper_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "N", 0) < 0:
            raise ValueError("N must be nonnegative")
        return args.handler(args)
    except (ValueError, IndexError, ZeroDivisionError, OSError) as exc:
        sys.stderr.write(f"hypomean: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
