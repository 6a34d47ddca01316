"""One workload in a fresh process: set up, run the timed closed loop or the
traced run, check every output, and write a result file for run.py.

Usage (run.py starts it):
    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        --t0 PERF_COUNTER_AT_SPAWN --result PATH [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    HOME_WORKLOAD,
    PREDICTED_IDLE,
    WORKLOADS,
    Verifier,
    make_schedule,
    prepare,
    run_call,
)


def _import_program():
    """Import hypomean from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "hypomean" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hypomean sources under {src}")
    sys.path.insert(0, str(src))
    import hypomean
    import hypomean.cli
    if Path(hypomean.__file__).resolve().parent != (src / "hypomean").resolve():
        raise SystemExit(f"perfbench: imported hypomean from {hypomean.__file__}")
    return hypomean


class Loop:
    """Sends calls one at a time and keeps what the result needs.

    Only the calls and the reading of their output files are timed; the
    independent checks run between calls with the clock stopped.
    """

    def __init__(self, hm, json_path: str, verify: Verifier):
        self.hm, self.json_path, self.verify = hm, json_path, verify
        self.timed_s = 0.0
        self.call_times: list[float] = []
        self.json_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def send(self, call, args) -> None:
        start = perf_counter()
        seconds, output = run_call(call, args, self.hm, self.json_path)
        self.timed_s += perf_counter() - start
        self.call_times.append(seconds)
        self.json_bytes += output.get("bytes", 0)
        self.attempted += 1
        problems = self.verify(call, output)
        if problems:
            self.failures.append(f"{call.describe()}: {'; '.join(problems)}")


def _fits_another(elapsed_s: float, rounds: int, seconds: float) -> bool:
    """Whether one more round, at the mean round time so far, ends within
    `seconds`.  The first round always runs."""
    return rounds == 0 or elapsed_s * (rounds + 1) / rounds <= seconds


def timed_run(calls, hm, json_path, seconds) -> dict:
    """Whole rounds while another round fits in `seconds`.

    Every call is short and a round takes a few seconds, so a run has five
    to ten rounds.  The timing metrics come from the run's slowest round.
    The host runs the same round at two speeds, about 1.6x apart, in
    stretches of seconds to minutes, so pooling every round would let the
    share of a run that fell in a fast stretch, which is chance, set its
    figures.  The slowest round reads the slower speed whenever a run meets
    it at all, which makes it the steadiest figure across runs.
    """
    loop = Loop(hm, json_path, Verifier())
    rounds = 0
    while _fits_another(loop.timed_s, rounds, seconds):
        for call, args in calls:
            loop.send(call, args)
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(calls)
    times = max((loop.call_times[r * n:(r + 1) * n] for r in range(rounds)), key=sum)
    return {
        "attempted": loop.attempted,
        "failures": loop.failures,
        "metrics": {
            "calls_per_s": (len(times) / sum(times), "1/s"),
            "call_p50_s": (statistics.median(times), "s"),
            "call_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        },
        "samples": {"calls": len(loop.call_times), "rounds": rounds, "inputs": n,
                    "measured_calls": len(times), "timed_s": loop.timed_s,
                    "call_times_s": [loop.call_times[i::n] for i in range(n)]},
    }


def traced_run(workload, calls, hm, json_path, seconds, spans_path) -> dict:
    """Pairs of whole rounds, one untraced and one traced, while another
    pair fits in `seconds`.  Layer figures are per round, so counts repeat
    exactly.  The order inside a pair alternates, which keeps drift and
    first-round effects out of the tracing overhead."""
    verify = Verifier()
    plain, traced = Loop(hm, json_path, verify), Loop(hm, json_path, verify)
    tracer = Tracer()
    rounds = 0
    while _fits_another(plain.timed_s + traced.timed_s, rounds, seconds):
        for loop in (plain, traced) if rounds % 2 == 0 else (traced, plain):
            if loop is traced:
                tracer.install()
            try:
                for call, args in calls:
                    loop.send(call, args)
            finally:
                tracer.uninstall()
        rounds += 1
    tracer.write_spans(spans_path)

    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"] / rounds, "s")
        metrics[f"{layer}.calls"] = (totals[layer]["calls"] / rounds, "count")
    counters = tracer.counters
    metrics["matrices.section_entries"] = (counters["matrices.section_entries"] / rounds, "count")
    for name in ("pivot_num_bits_max", "pivot_den_bits_max", "det_bits"):
        metrics[f"positivity.{name}"] = (counters[f"positivity.{name}"], "bits")
    tried = totals["symbolic.induction_certificate"]["calls"]
    metrics["symbolic.certified_share"] = (
        counters["symbolic.certified"] / tried if tried else 0.0, "ratio")
    metrics["cli.json_bytes"] = (traced.json_bytes / rounds, "bytes")
    self_sum = sum(t["self_s"] for t in totals.values())
    metrics["trace.overhead"] = (traced.timed_s / plain.timed_s, "ratio")
    metrics["trace.unattributed_s"] = ((traced.timed_s - self_sum) / rounds, "s")

    coverage = []
    for layer, home in HOME_WORKLOAD.items():
        if home == workload and totals[layer]["calls"] == 0:
            coverage.append(f"layer {layer} recorded no calls on {workload}, "
                            "where it is predicted to dominate")
    idle_but_called = [layer for layer in LAYERS
                       if layer.split(".")[0] in PREDICTED_IDLE[workload]
                       and totals[layer]["calls"]]
    return {
        "attempted": plain.attempted + traced.attempted,
        "failures": plain.failures + traced.failures,
        "coverage_failures": coverage,
        "metrics": metrics,
        "samples": {"rounds": rounds, "calls_per_round": len(calls),
                    "untraced_s": plain.timed_s, "traced_s": traced.timed_s},
        "aliases": tracer.aliases,
        "predicted_idle_but_called": idle_but_called,
        "spans_file": str(Path(spans_path).relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hm = _import_program()
    out_dir = Path(args.result).parent
    json_path = str(out_dir / f"call-{os.getpid()}.json")
    schedule = make_schedule(args.workload, args.seed)
    calls = [(call, prepare(call, hm, json_path)) for call in schedule]
    result = {"setup_s": perf_counter() - args.t0}
    if not args.setup_only:
        try:
            if args.trace:
                spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
                result.update(traced_run(args.workload, calls, hm, json_path,
                                         args.seconds, spans_path))
            else:
                result.update(timed_run(calls, hm, json_path, args.seconds))
        finally:
            if os.path.exists(json_path):
                os.remove(json_path)
        result["inputs"] = [call.describe() for call in schedule]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
