#!/usr/bin/env python3
"""Compare the two-pool split bound with the searched optimum, cell by cell.

Sweeps small (N1, N2, n, g1, g2) configurations, computes the split
lower bound, and compares it with an exhaustive search over two-pool
schedules; the gap column is the searched optimum minus the bound.  The
bound is not tight in general (faultsched.twopool gives a cell where it
falls one round short), but only cells within the probe's size guard
are swept (N1 + N2 <= PROBE_MAX_POOL and n <= PROBE_MAX_N in
faultsched.twopool), and every gap found so far lies outside it.  A
cell past --max-states is printed with blank brute and gap columns, and
the script then exits 3; a split bound above the searched optimum (a
negative gap) makes it exit 2, as the CLI's verify-theorem does on a
mismatch.
"""

import argparse
import csv
import sys

from faultsched import (
    BudgetExceededError,
    TwoPoolParams,
    two_pool_best_split,
    two_pool_brute_optimum,
)
from faultsched.twopool import PROBE_MAX_N, PROBE_MAX_POOL


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-pool", type=int, default=4, help="largest N1 and N2, at least 1")
    ap.add_argument("--max-states", type=int, default=10**7, help="at least 1")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    for flag, value in (("--max-pool", args.max_pool), ("--max-states", args.max_states)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return 1
    writer = csv.writer(sys.stdout)
    writer.writerow(["N1", "N2", "n", "g1", "g2", "split", "bound", "brute", "gap"])
    above = skipped = False
    for n1_pool in range(1, args.max_pool + 1):
        for n2_pool in range(1, min(args.max_pool, PROBE_MAX_POOL - n1_pool) + 1):
            for n in range(2, min(n1_pool + n2_pool, PROBE_MAX_N) + 1):
                for g1 in range(1, n):
                    for g2 in range(1, n - g1 + 1):
                        tp = TwoPoolParams(N1=n1_pool, N2=n2_pool, n=n, g1=g1, g2=g2)
                        bound, split = two_pool_best_split(tp)
                        split_text = "none" if split is None else f"{split[0]}+{split[1]}"
                        try:
                            brute = two_pool_brute_optimum(tp, args.max_states)
                        except BudgetExceededError:
                            skipped = True
                            writer.writerow(
                                [n1_pool, n2_pool, n, g1, g2, split_text, bound, "", ""]
                            )
                            continue
                        above = above or bound > brute
                        writer.writerow(
                            [
                                n1_pool,
                                n2_pool,
                                n,
                                g1,
                                g2,
                                split_text,
                                bound,
                                brute,
                                brute - bound,
                            ]
                        )
    if above:
        return 2
    if skipped:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
