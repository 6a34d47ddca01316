"""Seeded inputs of the three workloads, how each call reaches hypomean, and
how each output is checked.

A workload is one round of calls; the timed loop sends one call at a time
(a closed loop with one client) and goes round them again and again.  The
seed only varies the inputs.  N values and the anchor families are fixed
per workload so that runs on different seeds do comparable work; the seed
picks one extra weight family and the candidate floors.  Every call is
short (at most about a second on one core) and a round takes a few
seconds, so that a run repeats every input several times.

Why these workloads:

- certify_sections: `hypomean certify` at N = 50, 100 and 200 on the four
  anchor families (linear:2,1 with --bounds, linear:1,5, linear:1,1,
  linear:3,1) and the seeded one is the default route, where building the
  dense section and eliminating it take most of a call.  Verdicts are
  mixed (linear:1,5 and most seeded families are NotPositive) and pivot
  sizes differ by family.
- dense_oracles: the exact reference paths (minor cross-check at N = 40,
  minors-only certification and the finite-sum P oracle at N = 30) on the
  families of certify_sections consume the dense section in a different
  way, so a change that drops the section from the default route must
  show no regression here.
- floor_search: candidate floors L(n) = (n+a)/(n^2+bn+c) judged by
  `induction_certificate`, the traffic of a floor synthesiser.  It reaches
  only the symbolic and polynomial layers, and its calls are short enough
  for a tail percentile.
"""

from __future__ import annotations

import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from checker import (
    check_certify_report,
    check_floor_claim,
    check_p_oracle_dump,
    expected_certify,
    family_spec,
    interior_pivots,
    rational_text,
)

WORKLOADS = ("certify_sections", "dense_oracles", "floor_search")

F = Fraction
ODD_FLOOR = (F(5, 2), F(5), F(37, 4))  # (4n+10)/(4n^2+20n+37), made monic
FLOOR_CHECK_DEPTH = 50
# The fixed families of the certify mixes; the seed adds one more.
ANCHORS = [(F(2), F(1)), (F(1), F(5)), (F(1), F(1)), (F(3), F(1))]

# The workload on which each layer is predicted to dominate; a traced run
# of that workload must record at least one call of the layer.
HOME_WORKLOAD = {
    "weights.check_hypotheses": "certify_sections",
    "matrices.finite_section": "certify_sections",
    "matrices.offdiag_factors": "certify_sections",
    "matrices.p_entry_oracle": "dense_oracles",
    "positivity.certify": "certify_sections",
    "positivity.elimination_multiplier": "certify_sections",
    "positivity.tridiagonalize": "certify_sections",
    "positivity.delta_sequence": "certify_sections",
    "positivity.check_delta_bounds": "certify_sections",
    "positivity.leading_minors": "dense_oracles",
    "symbolic.symbolic_q": "floor_search",
    "symbolic.symbolic_tridiagonal": "floor_search",
    "symbolic.induction_certificate": "floor_search",
    "polynomials.poly_gcd": "floor_search",
    "polynomials.count_roots_above": "floor_search",
    "cli.main": "certify_sections",
}

# Modules predicted to record zero calls on a workload.
PREDICTED_IDLE = {
    "certify_sections": ("symbolic", "polynomials"),
    "dense_oracles": ("symbolic", "polynomials"),
    "floor_search": ("weights", "matrices", "positivity", "cli"),
}


@dataclass(frozen=True)
class Call:
    """One request: `kind` names the entry point, the rest are its inputs."""

    kind: str  # certify | minors_only | dump | floor
    alpha: Fraction
    beta: Fraction
    N: int = 0
    flags: tuple[str, ...] = ()
    floor: tuple[Fraction, Fraction, Fraction] | None = None
    anchor: bool = False

    @property
    def spec(self) -> str:
        return family_spec(self.alpha, self.beta)

    def describe(self) -> dict:
        out = {"kind": self.kind, "weights": self.spec}
        if self.kind == "floor":
            out["floor"] = [rational_text(x) for x in self.floor]
        else:
            out["N"] = self.N
            out["flags"] = list(self.flags)
        return out


def _seeded_families(rng: random.Random, count: int,
                     taken: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Families alpha, beta = p/q, r/s with 1 <= p, q, r, s <= 9.

    Q depends on the weights only through beta/alpha, so a draw whose ratio
    repeats a family already in the mix is drawn again.
    """
    ratios = {b / a for a, b in taken}
    out = []
    while len(out) < count:
        alpha = F(rng.randint(1, 9), rng.randint(1, 9))
        beta = F(rng.randint(1, 9), rng.randint(1, 9))
        if beta / alpha not in ratios:
            ratios.add(beta / alpha)
            out.append((alpha, beta))
    return out


def _floor_grid(rng: random.Random) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(a, b, c) of L(n) = (n+a)/(n^2+bn+c), one per stratum.

    a takes each interval {k/2, (k+1)/2} for k = 1, 3, 5, 7 and b each
    interval [lo, lo+2) of [-2, 8); the seed picks a in its interval, b on
    the half-integers of its interval and c in [1/4, 12].  Stratifying
    keeps the mix of outcomes, and so the work, alike across seeds.  A
    negative b leaves the denominator's sign to the Sturm-chain test instead
    of the coefficient tests, so part of the grid exercises root counting.
    """
    return [(F(k + rng.randint(0, 1), 2), F(lo) + F(rng.randint(0, 3), 2),
             F(rng.randint(1, 48), 4))
            for k in range(1, 9, 2) for lo in range(-2, 8, 2)]


def make_schedule(workload: str, seed: int) -> list[Call]:
    """One round of calls, each input once.  Runs go round it repeatedly,
    so every run of a workload has the same mix whatever its speed."""
    rng = random.Random(seed)
    if workload in ("certify_sections", "dense_oracles"):
        families = ANCHORS + _seeded_families(rng, 1, ANCHORS)
    if workload == "certify_sections":
        return [Call("certify", a, b, N, ("--bounds",) if (a, b) == (2, 1) else ())
                for a, b in families for N in (50, 100, 200)]
    if workload == "dense_oracles":
        return [call for a, b in families for call in (
            Call("certify", a, b, 40, ("--cross-check-minors",)),
            Call("minors_only", a, b, 30),
            Call("dump", a, b, 30))]
    if workload == "floor_search":
        families = [(F(2), F(1)), (F(1), F(1)), (F(3), F(1)), (F(0), F(1)), (F(1), F(5))]
        return [Call("floor", a, b, floor=fl, anchor=(fl == ODD_FLOOR and (a, b) == (2, 1)))
                for fl in [ODD_FLOOR] + _floor_grid(rng) for a, b in families]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(call: Call, hm, json_path: str):
    """Build a call's arguments once, before any timing starts.  `hm` is
    the hypomean package; its entry points are looked up at call time so
    that a traced run reaches the wrapped functions."""
    if call.kind == "floor":
        a, b, c = call.floor
        return (hm.LinearWeights(call.alpha, call.beta),
                hm.RationalFunction(hm.Polynomial((a, 1)), hm.Polynomial((c, b, 1))))
    if call.kind == "minors_only":
        return call.spec
    if call.kind == "dump":
        head = ["dump", "--kind", "P-oracle"]
    else:
        head = ["certify", *call.flags]
    return head + ["--weights", call.spec, "--N", str(call.N), "--json", json_path]


def run_call(call: Call, args, hm, json_path: str) -> tuple[float, dict]:
    """Send one call through a public entry point; return (seconds, output).

    Only the program call is timed.  An exception the entry point does not
    document as an outcome is caught here and becomes the output's error.
    """
    start = perf_counter()
    try:
        if call.kind == "floor":
            try:
                cert = hm.symbolic.induction_certificate(*args)
            except hm.CertificateInconclusive:
                return perf_counter() - start, {"certified": False}
            seconds = perf_counter() - start
            certified = cert.nonneg_for_n_ge_1 and cert.base_holds
            return seconds, {"certified": certified,
                             "certificate": list(cert.certificate.coeffs) if certified else None}
        if call.kind == "minors_only":
            g = hm.FactorableGenerators(hm.parse_weight_spec(args))
            report = hm.positivity.certify(g, call.N, hm.CertifyOptions(minors_only=True))
            seconds = perf_counter() - start
            return seconds, {"report": report.to_json_dict()}
        code = hm.cli.main(args)
        seconds = perf_counter() - start
        with open(json_path, encoding="utf-8") as fh:
            text = fh.read()
        return seconds, {"exit": code, "report": json.loads(text), "bytes": len(text.encode())}
    except Exception:  # a failed call is counted, never allowed to stop the run
        return perf_counter() - start, {"error": traceback.format_exc(limit=3)}


class Verifier:
    """Checks outputs with the independent checker, caching expected values
    per distinct input so repeated calls cost one comparison each."""

    def __init__(self):
        self._expected = {}
        self._pivots = {}

    def __call__(self, call: Call, output: dict) -> list[str]:
        if "error" in output:
            return [output["error"]]
        if call.kind == "floor":
            key = (call.alpha, call.beta)
            if key not in self._pivots:
                self._pivots[key] = interior_pivots(call.alpha, call.beta, FLOOR_CHECK_DEPTH)
            return check_floor_claim(output["certified"], output.get("certificate"),
                                     call.floor, self._pivots[key], must_certify=call.anchor)
        if call.kind == "dump":
            problems = [] if output["exit"] == 0 else [f"exit code {output['exit']}"]
            return problems + check_p_oracle_dump(output["report"], call.alpha, call.beta, call.N)
        key = (call.alpha, call.beta, call.N)
        if key not in self._expected:
            self._expected[key] = expected_certify(call.alpha, call.beta, call.N)
        return check_certify_report(
            output["report"], self._expected[key], exit_code=output.get("exit"),
            minors_route=call.kind == "minors_only",
            cross_checked="--cross-check-minors" in call.flags,
            bounds="--bounds" in call.flags)
