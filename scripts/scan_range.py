#!/usr/bin/env python3
"""Exhaustive convergence scan for the 3x+1 map over an initial range.

Exits 0 when every start is verified, 2 when some start is inconclusive, and
3 on a bad limit, step cap or argument; a scan never exits 1, which would
mean a violation found.
"""

from __future__ import annotations

import argparse
import json
import sys

from collatzlab.cli import INPUT_ERROR, PASS
from collatzlab.rangecheck import verify_range_collatz


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--limit", type=int, default=10**7)
    ap.add_argument("--step-cap", type=int, default=10_000)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, and 2 means inconclusive here
        return PASS if exc.code == 0 else INPUT_ERROR
    try:
        report = verify_range_collatz(args.limit, step_cap=args.step_cap)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return INPUT_ERROR
    print(json.dumps(report.to_dict(), indent=2))
    return report.status


if __name__ == "__main__":
    sys.exit(main())
