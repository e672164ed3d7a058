#!/usr/bin/env python3
"""Tabulate deterministic versus randomized online game values.

Covers every (N, n, f) up to --max-N and prints both values side by
side, the randomized support size, and the gain from mixing.  Values
are exact rationals.  A cell the exact solver's size guard rejects is
printed as skipped, and the script then exits 3, as the CLI does when a
search exceeds its budget.
"""

import argparse
import sys
from typing import NoReturn

from faultsched import BudgetExceededError, GameParams, online_game_value


class Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Raise for ``main`` to report, which exits 1 as the CLI does on a
        usage error, not argparse's 2."""
        raise ValueError(message)


def parse_args() -> argparse.Namespace:
    ap = Parser(description=__doc__)
    ap.add_argument("--max-N", type=int, default=4, help="largest N, at least 2")
    args = ap.parse_args()
    if args.max_N < 2:
        ap.error(f"--max-N must be at least 2, got {args.max_N}")
    return args


def main() -> int:
    try:
        args = parse_args()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("N n f deterministic randomized support gain")
    skipped = 0
    for big_n in range(2, args.max_N + 1):
        for n in range(2, big_n + 1):
            for f in range(1, n):
                params = GameParams(N=big_n, n=n, f=f)
                try:
                    det = online_game_value(params, "deterministic")
                    rnd = online_game_value(params, "randomized")
                except BudgetExceededError as exc:
                    print(f"{big_n} {n} {f} skipped ({exc})")
                    skipped += 1
                    continue
                gain = rnd.value - det.value
                print(
                    f"{big_n} {n} {f} {det.value} {rnd.value}"
                    f" {len(rnd.strategy_support)} {gain}"
                )
    return 3 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
