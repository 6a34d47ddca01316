"""Scaling ladders for `certify` and the symbolic layer: wall time, stage
timings, bit sizes and peak memory.

The pivot ladder runs the default route at N = 10^3, 2*10^3, 5*10^3 and
10^4 on linear:2,1 and linear:1,1.  The dense ladder runs the exact
reference paths on linear:2,1 and linear:3,1: `certify` with the minor
cross-check at N = 50, 100 and 200, and the section of the finite-sum P
oracle (`dump --kind P-oracle`) at N = 50 and 100.  The symbolic ladder
runs, for each family of the floor search (linear:2,1, 1,1, 3,1, 0,1 and
1,5), a cold `symbolic_tridiagonal` in a fresh process, and
`induction_certificate` over the fixed 21 floors of SYMBOLIC_FLOORS twice
in another: the first pass is cold, the second warm.

    python3 scripts/ladder.py [--src DIR] [--json PATH --label NAME]

Each point runs in fresh Python processes that import hypomean from DIR
(default: the src/ of this checkout), so two checkouts can be measured
with one harness.  A first process times the call plus the JSON
serialization of its output.  For a pivot point it records the report's
per-stage timings, the largest bit size of the continuant values X_n (when
the checkout has them) and the bit size of the last pivot delta_N
(numerator plus denominator); for a dense point, the report's timings
(`minors_s` among them) or the size of the dumped text; for a symbolic
point, the wall times and how many floors were certified.  A second
process repeats the call (for a symbolic point, one cold pass over the
floors) under tracemalloc for the peak of traced memory; it is skipped
when the first hit the cap.  A process that runs longer than
CAP_S = 120 seconds is stopped and its point is marked "capped".

With --json, the run is stored under NAME in that file, next to the runs
already there; otherwise it is printed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

LADDER = [("pivots", spec, N) for spec in ("linear:2,1", "linear:1,1")
          for N in (1000, 2000, 5000, 10000)]
DENSE_LADDER = [(kind, spec, N) for spec in ("linear:2,1", "linear:3,1")
                for kind, sizes in (("cross-check", (50, 100, 200)), ("P-oracle", (50, 100)))
                for N in sizes]
SYMBOLIC_FAMILIES = ("linear:2,1", "linear:1,1", "linear:3,1", "linear:0,1", "linear:1,5")
# (a, b, c) of the floors L(n) = (n+a)/(n^2+bn+c): the paper's floor and a
# 4 x 5 grid.  With b = -2 the denominator's sign is left to the Sturm test,
# and with c = 1 it vanishes at n = 1, which no test certifies.
SYMBOLIC_FLOORS = [("5/2", "5", "37/4")] + [
    (a, b, c) for a in ("1/2", "3/2", "5/2", "7/2")
    for b, c in (("-2", "1"), ("0", "3"), ("2", "6"), ("4", "37/4"), ("6", "12"))]
CAP_S = 120.0


def _measure_dense(kind: str, spec: str, N: int, memory: bool) -> dict:
    """One dense point, in this process: hypomean must be importable."""
    import tracemalloc
    from time import perf_counter

    from hypomean import (CertifyOptions, FactorableGenerators, MatrixKind, certify,
                          finite_section, parse_weight_spec)

    def run():
        g = FactorableGenerators(parse_weight_spec(spec))
        if kind == "cross-check":
            report = certify(g, N, CertifyOptions(cross_check_minors=True))
            json.dumps(report.to_json_dict(), sort_keys=True)
            return report
        return json.dumps(finite_section(g, MatrixKind.P_ORACLE, N).to_string_rows())

    if memory:
        tracemalloc.start()
        run()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"tracemalloc_peak_mb": round(peak / 2 ** 20, 2)}
    start = perf_counter()
    out = run()
    wall = perf_counter() - start
    if kind == "cross-check":
        return {"wall_s": round(wall, 4), "verdict": out.verdict.value,
                "minors_agree": out.minors_agree,
                "minors_s": round(out.timings["minors_s"], 4),
                "timings": {k: round(v, 4) for k, v in out.timings.items()}}
    return {"wall_s": round(wall, 4), "json_chars": len(out)}


def _measure_symbolic(kind: str, spec: str, memory: bool) -> dict:
    """One symbolic point, in this process: hypomean must be importable."""
    import tracemalloc
    from fractions import Fraction
    from time import perf_counter

    from hypomean import (CertificateInconclusive, Polynomial, RationalFunction,
                          induction_certificate, parse_weight_spec, symbolic_tridiagonal)

    weights = parse_weight_spec(spec)
    if kind == "symbolic-tridiagonal":
        start = perf_counter()
        symbolic_tridiagonal(weights)
        return {"tridiagonal_cold_s": round(perf_counter() - start, 4)}

    floors = [RationalFunction(Polynomial((Fraction(a), 1)),
                               Polynomial((Fraction(c), Fraction(b), 1)))
              for a, b, c in SYMBOLIC_FLOORS]

    def grid() -> int:
        certified = 0
        for floor in floors:
            try:
                cert = induction_certificate(weights, floor)
            except CertificateInconclusive:
                continue
            certified += cert.nonneg_for_n_ge_1 and cert.base_holds
        return certified

    if memory:
        tracemalloc.start()
        grid()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"tracemalloc_peak_mb": round(peak / 2 ** 20, 2)}
    start = perf_counter()
    certified = grid()
    cold = perf_counter() - start
    start = perf_counter()
    grid()
    warm = perf_counter() - start
    return {"floors": len(floors), "certified": certified,
            "grid_cold_s": round(cold, 4), "grid_warm_s": round(warm, 4)}


def _measure(spec: str, N: int, memory: bool) -> dict:
    """One point, in this process: hypomean must already be importable."""
    import tracemalloc
    from fractions import Fraction
    from time import perf_counter

    from hypomean import FactorableGenerators, certify, parse_weight_spec, positivity

    g = FactorableGenerators(parse_weight_spec(spec))
    if memory:
        tracemalloc.start()
        certify(g, N).to_json_dict()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"tracemalloc_peak_mb": round(peak / 2 ** 20, 2)}

    start = perf_counter()
    report = certify(g, N)
    json.dumps(report.to_json_dict(), sort_keys=True)
    wall = perf_counter() - start
    out = {"wall_s": round(wall, 4), "verdict": report.verdict.value,
           "timings": {k: round(v, 4) for k, v in report.timings.items()},
           "x_bits_max": None}
    pivots = getattr(report, "pivots", None)
    if pivots is not None:
        x_bits = 0
        for step in positivity._continuant(pivots.form):
            x_bits = max(x_bits, abs(step[1]).bit_length())
        out["x_bits_max"] = x_bits
        last = Fraction(*positivity._pivot(*step))
    else:
        last = report.deltas[-1]
    out["delta_N_bits"] = abs(last.numerator).bit_length() + last.denominator.bit_length()
    return out


def _run_point(src: Path, kind: str, spec: str, N: int, memory: bool) -> dict | None:
    """The point's result from a fresh process, or None past the cap."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ([sys.executable, __file__, "--point", kind, spec, str(N)]
            + (["--memory"] if memory else []))
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=CAP_S, check=True)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--json", type=Path, default=None)
    parser.add_argument("--label", default="run")
    parser.add_argument("--point", nargs=3, metavar=("KIND", "SPEC", "N"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.point:
        kind, spec, N = args.point
        if kind == "pivots":
            print(json.dumps(_measure(spec, int(N), args.memory)))
        elif kind.startswith("symbolic"):
            print(json.dumps(_measure_symbolic(kind, spec, args.memory)))
        else:
            print(json.dumps(_measure_dense(kind, spec, int(N), args.memory)))
        return

    def measure(ladder):
        points = []
        for kind, spec, N in ladder:
            point = {"weights": spec, "N": N}
            if kind != "pivots":
                point["kind"] = kind
            timed = _run_point(args.src, kind, spec, N, False)
            if timed is None:
                point["capped"] = True
            else:
                point.update(timed, capped=False)
                point.update(_run_point(args.src, kind, spec, N, True)
                             or {"tracemalloc_peak_mb": None})
            points.append(point)
            print(json.dumps(point), file=sys.stderr)
        return points

    def measure_symbolic():
        points = []
        for spec in SYMBOLIC_FAMILIES:
            point = {"weights": spec}
            for kind in ("symbolic-tridiagonal", "symbolic-grid"):
                timed = _run_point(args.src, kind, spec, 0, False)
                point.update(timed or {"capped": True})
            if "capped" not in point:
                point.update(_run_point(args.src, "symbolic-grid", spec, 0, True)
                             or {"tracemalloc_peak_mb": None})
            point.setdefault("capped", False)
            points.append(point)
            print(json.dumps(point), file=sys.stderr)
        return points

    run = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cap_s": CAP_S, "points": measure(LADDER), "dense_points": measure(DENSE_LADDER),
           "symbolic_points": measure_symbolic()}
    if args.json is None:
        print(json.dumps(run, indent=2))
        return
    data = json.loads(args.json.read_text()) if args.json.exists() else {}
    data[args.label] = run
    args.json.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
