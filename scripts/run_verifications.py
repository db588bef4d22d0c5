#!/usr/bin/env python3
"""Run every stated isomorphism check and the conjecture probe, print a table.

Each row names a diagram family, the alternating-sum semigroup it is compared
against, and the per-degree verdicts from the bounded congruence closure.
Exit status is 0 when every theorem row verifies (probe rows are findings and
do not affect the status).  Each row's wall time goes to stderr, so stdout is
the same on every run and can be diffed.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotgrowth.oracle import conjecture_probe, verify_family  # noqa: E402

# (family spec, max len); None takes --max-len.
THEOREM_CHECKS = [
    ("trivial", None),
    ("torus2:3", None),
    ("torus2:5", None),
    ("torus2:7", 3),
    ("torus2:2", None),
    ("torus2:4", 3),
    ("twist:2", None),
    ("twist:3", 3),
    ("dtw:2,2", None),
    ("dtw:3,2", 3),
    ("dtw:2,4", 3),
]


def row(report, elapsed):
    counts = ",".join(str(d.class_count) for d in report.degrees)
    flag = "VERIFIED" if report.all_verified else "unresolved"
    print(f"{report.description:<14} {report.semigroup:<34} "
          f"degrees 1..{report.max_len} counts [{counts}]  {flag}")
    print(f"{report.description}: {elapsed:.2f}s", file=sys.stderr)
    for w in report.warnings:
        print(f"{'':14} note: {w}")
    return report.all_verified


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=4, help="report degrees 1..N")
    parser.add_argument("--pad", type=int, default=2, help="extra closure length")
    args = parser.parse_args()

    print("== theorem checks ==")
    all_ok = True
    for spec, max_len in THEOREM_CHECKS:
        start = time.perf_counter()
        report = verify_family(spec, max_len or args.max_len, pad=args.pad)
        all_ok &= row(report, time.perf_counter() - start)

    print("\n== conjecture probe (findings, not pass/fail) ==")
    for params in ((1, 1, 2), (2, 1, 2)):
        start = time.perf_counter()
        report = conjecture_probe(*params, max_len=3, pad=args.pad)
        row(report, time.perf_counter() - start)

    print(f"\ntheorem checks: {'all verified' if all_ok else 'NOT all verified'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
