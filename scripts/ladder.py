"""Scaling ladder for `certify`: wall time, stage timings, bit sizes and
peak memory at N = 10^3, 2*10^3, 5*10^3 and 10^4 on linear:2,1 and
linear:1,1.

    python3 scripts/ladder.py [--src DIR] [--json PATH --label NAME]

Each point runs in fresh Python processes that import hypomean from DIR
(default: the src/ of this checkout), so two checkouts can be measured
with one harness.  A first process times `certify(g, N)` plus the JSON
serialization of its report, and records the report's per-stage timings,
the largest bit size of the continuant values X_n (when the checkout has
them) and the bit size of the last pivot delta_N (numerator plus
denominator).  A second process repeats the call under tracemalloc for the
peak of traced memory; it is skipped when the first hit the cap.  A
process that runs longer than CAP_S = 120 seconds is stopped and its point
is marked "capped".

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

LADDER = [(spec, N) for spec in ("linear:2,1", "linear:1,1")
          for N in (1000, 2000, 5000, 10000)]
CAP_S = 120.0


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


def _run_point(src: Path, spec: str, N: int, memory: bool) -> dict | None:
    """The point's result from a fresh process, or None past the cap."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--point", spec, str(N)] + (["--memory"] if memory else [])
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
    parser.add_argument("--point", nargs=2, metavar=("SPEC", "N"), help=argparse.SUPPRESS)
    parser.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.point:
        spec, N = args.point
        print(json.dumps(_measure(spec, int(N), args.memory)))
        return

    points = []
    for spec, N in LADDER:
        point = {"weights": spec, "N": N}
        timed = _run_point(args.src, spec, N, False)
        if timed is None:
            point["capped"] = True
        else:
            point.update(timed, capped=False)
            point.update(_run_point(args.src, spec, N, True)
                         or {"tracemalloc_peak_mb": None})
        points.append(point)
        print(json.dumps(point), file=sys.stderr)
    run = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cap_s": CAP_S, "points": points}
    if args.json is None:
        print(json.dumps(run, indent=2))
        return
    data = json.loads(args.json.read_text()) if args.json.exists() else {}
    data[args.label] = run
    args.json.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
