"""Output identity of the command line, for comparing two checkouts.

    python3 scripts/identity.py [--src DIR]

Runs a fixed list of `hypomean` commands in one process through
`hypomean.cli.main`, importing hypomean from DIR (default: the src/ of this
checkout), and prints one line per command: the command, its exit code, and
a sha256 of its stdout, its stderr and the file it wrote with --json (OUT in
the printed command).  Timing text is stripped before hashing: the
per-stage lines of `certify --pretty` and the "(...s)" suffix of each
paper-check line.  Run it on two checkouts and diff the two outputs; equal
lines mean byte-identical output apart from timings.

The list covers `symbolic --emit qdiag|tridiag|certificate` on seven linear
families, `certify --bounds` on linear:2,1 and linear:1,1 at several N (in
JSON and in --pretty), a table on the minors route, a table whose pivot 1
vanishes (with and without the minor cross-check), the five dumps of
linear:2,1 at N = 10, usage errors and paper-check.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

SYMBOLIC_FAMILIES = ("linear:2,1", "linear:1,1", "linear:3,1", "linear:0,1",
                     "linear:1,5", "linear:4,2", "linear:7/3,5/8")
OUT = "OUT"

COMMANDS = (
    [["symbolic", "--weights", w, "--emit", emit, "--json", OUT]
     for w in SYMBOLIC_FAMILIES for emit in ("qdiag", "tridiag", "certificate")]
    + [["certify", "--bounds", "--weights", w, "--N", str(N), "--json", OUT]
       for w in ("linear:2,1", "linear:1,1") for N in (0, 1, 2, 50, 200)]
    + [["certify", "--bounds", "--pretty", "--weights", w, "--N", "50"]
       for w in ("linear:2,1", "linear:1,1")]
    + [["certify", "--cross-check-minors", "--weights", "table:1,2,4,3,3", "--N", "3",
        "--json", OUT],
       ["certify", "--cross-check-minors", "--bounds", "--pretty",
        "--weights", "table:1,2,4,3,3", "--N", "3"]]
    + [["certify", *flag, "--weights", "table:1,1,2,4,1", "--N", "3", "--json", OUT]
       for flag in ([], ["--cross-check-minors"])]
    + [["dump", "--kind", kind, "--weights", "linear:2,1", "--N", "10", "--json", OUT]
       for kind in ("M", "B", "P-closed", "P-oracle", "Q")]
    + [["certify", "--N", "-1"],
       ["certify", "--weights", "linear:2,1"],
       ["symbolic", "--weights", "table:1,3,5", "--emit", "tridiag"],
       ["paper-check", "--json", OUT]]
)

# `certify --pretty` stage timings ("  pivots_s: 0.012") and paper-check's
# "  (1.3s)" suffixes.
TIMING_LINE = re.compile(r"^  \w+: \d+\.\d+$", re.MULTILINE)
TIMING_SUFFIX = re.compile(r"  \(\d+\.\d+s\)$", re.MULTILINE)


def _strip_timings(text: str) -> str:
    return TIMING_SUFFIX.sub("", TIMING_LINE.sub("", text))


def run(main, argv: list[str], out_path: str) -> tuple[int, str]:
    """(exit code, sha256 hex) of one command."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([out_path if a == OUT else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    written = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            written = fh.read()
    digest = hashlib.sha256()
    for part in (stdout.getvalue(), stderr.getvalue(), written):
        digest.update(_strip_timings(part).encode())
        digest.update(b"\0")
    return code, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from hypomean.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.json")
        for argv in COMMANDS:
            code, digest = run(cli_main, argv, out_path)
            print(f"{' '.join(argv)}\t{code}\t{digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
