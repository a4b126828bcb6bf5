#!/usr/bin/env python3
"""CI gate: fail loudly when a committed benchmark record regresses.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json CURRENT.json \
        [--factor 2.0] [--strict]

Every committed ``BENCH_*.json`` shares one record shape, so one generic
check gates them all — see :mod:`repro.benchmarking.perfgate` for the
shape and the rules.  Exits non-zero (and prints what moved) on any
problem.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed known-good record")
    parser.add_argument("current", help="freshly benchmarked record")
    parser.add_argument("--factor", type=float, default=2.0)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate wall-clock absolutes (same-machine comparisons only)",
    )
    args = parser.parse_args(argv)

    from repro.benchmarking.perfgate import check, format_problems

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)
    problems = check(baseline, current, factor=args.factor, strict=args.strict)
    print(format_problems(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
