#!/usr/bin/env python3
"""Probe where the two-pool split bound is tight.

Sweeps small (N1, N2, n, g1, g2) configurations, computes the split
lower bound, and compares it with an exhaustive search over two-pool
schedules whenever the search is feasible.  The gap column makes any
slack visible; the bound is never above the searched optimum.
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


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-pool", type=int, default=4, help="largest N1 and N2")
    ap.add_argument("--max-states", type=int, default=10**7)
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    writer = csv.writer(sys.stdout)
    writer.writerow(["N1", "N2", "n", "g1", "g2", "split", "bound", "brute", "gap"])
    for n1_pool in range(1, args.max_pool + 1):
        for n2_pool in range(1, args.max_pool + 1):
            for n in range(2, n1_pool + n2_pool + 1):
                for g1 in range(1, n):
                    for g2 in range(1, n - g1 + 1):
                        tp = TwoPoolParams(N1=n1_pool, N2=n2_pool, n=n, g1=g1, g2=g2)
                        bound, split = two_pool_best_split(tp)
                        split_text = "none" if split is None else f"{split[0]}+{split[1]}"
                        try:
                            brute = two_pool_brute_optimum(tp, args.max_states)
                        except BudgetExceededError:
                            writer.writerow(
                                [n1_pool, n2_pool, n, g1, g2, split_text, bound, "", ""]
                            )
                            continue
                        if bound > brute:
                            raise RuntimeError(f"split bound {bound} above optimum {brute} at {tp}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
