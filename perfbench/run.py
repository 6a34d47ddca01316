"""hypomean benchmark: the command that runs one workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded Python process (perfbench/worker.py) that imports hypomean
from this checkout's src/.  With --trace 0 the process runs the timed
closed loop with tracing off, and SETUP_REPEATS more processes only set
up, so that setup_s is a median.  With --trace 1 one process runs the
traced run.  Every output is checked by the independent checker.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it, also saved under .perfbench_out/, records the seed,
the generated inputs, sample counts, failures, the Python version and
the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 14
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _spawn(args, result_path: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(perf_counter())]
    # The child's stdout goes to stderr so that the result stays the last line.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} did not finish in time")
    if code != 0:
        raise SystemExit(f"perfbench: worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "hypomean" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hypomean sources under {ROOT / 'src'}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT_DIR / f"worker-{tag}-{os.getpid()}.json"

    run = _spawn(args, result_path, deadline, setup_only=False)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run.pop("metrics").items()}
    setups = [run.pop("setup_s")]
    if not args.trace:
        setups += [_spawn(args, result_path, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_REPEATS)]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    failures = run.pop("failures")
    coverage = run.pop("coverage_failures", [])
    attempted = run.pop("attempted")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "setup_runs_s": setups,
        "fail_share": len(failures) / attempted, "failures": failures[:20], "coverage_failures": coverage,
        **run,
    }
    record_text = json.dumps(record, sort_keys=True)
    (OUT_DIR / f"record-{tag}.json").write_text(record_text + "\n", encoding="utf-8")
    print(record_text)
    print(json.dumps({"correct": not failures and not coverage, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
