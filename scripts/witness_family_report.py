#!/usr/bin/env python3
"""Search for valid (q, r, t) parameter triples and verify the base one.

Usage: python scripts/witness_family_report.py [--q-max N] [--verify-all]

--verify-all runs the full check suite on every triple found.  Every triple
with q <= 43 builds; a triple whose field GF(q^r) exceeds the field cap
(2^50; (10061, 5, 41) is one) fails at the `build` check.  Exits 4 if
any verified triple does not pass every check, so it can serve as a check,
and 2 if the search cannot factor a quotient within the factoring budget
(first at q = 83).
"""

import argparse
import sys

from commgraph.diameter8 import (
    example_group_order,
    find_params,
    first_failing_check,
    run_all_checks,
)
from commgraph.errors import CapExceeded


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q-max", type=int, default=11)
    parser.add_argument("--verify-all", action="store_true")
    args = parser.parse_args()

    try:
        triples = find_params(args.q_max)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not triples:
        print(f"no valid parameter triples with q <= {args.q_max}")
        return
    print(f"{'q':>4s} {'r':>3s} {'t':>15s}  group order")
    for p in triples:
        print(f"{p.q:4d} {p.r:3d} {p.t:15d}  {example_group_order(p)}")

    targets = triples if args.verify_all else triples[:1]
    all_passed = True
    for p in targets:
        print(f"\nverifying (q, r, t) = ({p.q}, {p.r}, {p.t}) ...")
        report = run_all_checks(p.q, p.r, p.t)
        for check in report["checks"]:
            print(f"  {check['status']:4s} {check['name']:14s} {check['detail']}")
        failing = first_failing_check(report)
        print("  =>", "all checks passed" if failing is None else f"failed at {failing}")
        all_passed = all_passed and failing is None
    return 0 if all_passed else 4


if __name__ == "__main__":
    sys.exit(main())
