"""Command-line surface.

One subcommand per operation; single values print as plain text, grid
experiments as CSV with a header row, structured instances travel as
JSON files.  Exit codes: 0 success, 1 invalid input, 2 verification
mismatch, 3 budget exceeded.  The seed is echoed to stderr on every
run so captured stdout stays parseable while the invocation remains
reproducible from its logs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Callable

from .game import (
    GameParams,
    adversary_to_dict,
    load_adversary,
    load_schedule,
    save_adversary,
    save_schedule,
    survival_time,
    trivial_schedule,
)
from .oracle import BudgetExceededError, SearchBudget, brute_optimum
from .online import online_game_value
from .solver import (  # noqa: F401 - perfbench/tracer.py wraps cli.first_killable_time
    first_killable_time,
    instance_to_dict,
    load_instance,
    membership_in_P,
    minimal_adversary,
    reduce_instance,
    save_instance,
)
from .survival import h_value, optimum_survival_time
from .twopool import TwoPoolParams, two_pool_best_split, two_pool_brute_optimum

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

# gen-trivial exits 3 above this many ids (N*n) instead of building them.
MAX_TRIVIAL_IDS = 4_000_000


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract reserves 2
    for verification mismatches, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _cmd_h_eval(ns: argparse.Namespace) -> int:
    print(h_value(ns.n, ns.f, ns.k))
    return EXIT_OK


def _cmd_opt(ns: argparse.Namespace) -> int:
    print(optimum_survival_time(GameParams(N=ns.N, n=ns.n, f=ns.f)))
    return EXIT_OK


def _cmd_gen_trivial(ns: argparse.Namespace) -> int:
    params = GameParams(N=ns.N, n=ns.n, f=ns.f)
    if params.N * params.n > MAX_TRIVIAL_IDS:
        raise BudgetExceededError(
            f"schedule of N*n = {params.N * params.n} ids exceeds the cap of {MAX_TRIVIAL_IDS}"
        )
    save_schedule(trivial_schedule(params), ns.out)
    print(optimum_survival_time(params))
    return EXIT_OK


def _cmd_eval(ns: argparse.Namespace) -> int:
    print(survival_time(load_schedule(ns.schedule), load_adversary(ns.adversary)))
    return EXIT_OK


def _cmd_solve_adversary(ns: argparse.Namespace) -> int:
    s = load_schedule(ns.schedule)
    adv = minimal_adversary(s)
    T = survival_time(s, adv)  # the adversary attains the minimum, ending the run at t* - 1
    print(f"T={T}")
    print(f"t*={T + 1 if T < len(s) else 'none'}")
    if ns.out:
        save_adversary(adv, ns.out)
    else:
        print(json.dumps(adversary_to_dict(adv)))
    return EXIT_OK


def _cmd_check_p(ns: argparse.Namespace) -> int:
    report = membership_in_P(load_instance(ns.instance))
    if report.member:
        print("member")
        return EXIT_OK
    print(f"violation at t={report.violating_t}: {report.reason}")
    return EXIT_MISMATCH


def _cmd_reduce(ns: argparse.Namespace) -> int:
    inst = load_instance(ns.instance)
    reduced = reduce_instance(inst)
    if ns.out:
        save_instance(reduced, ns.out)
        print(f"L={inst.left_count} R={inst.right_count}")
        print(f"L'={reduced.left_count} R'={reduced.right_count}")
    else:
        print(json.dumps(instance_to_dict(reduced)))
    return EXIT_OK


def _cmd_verify_theorem(ns: argparse.Namespace) -> int:
    if ns.max_N < 2:
        raise ValueError(f"--max-N must be at least 2, got {ns.max_N}")
    budget = SearchBudget(max_states=ns.max_states)
    writer = csv.writer(sys.stdout)
    writer.writerow(["N", "n", "f", "h", "brute_T_opt", "match"])
    mismatched = skipped = False
    for big_n in range(2, ns.max_N + 1):
        for n in range(2, big_n + 1):
            for f in range(1, n):
                h = h_value(n, f, big_n)
                try:
                    brute = brute_optimum(GameParams(N=big_n, n=n, f=f), budget)
                except BudgetExceededError:
                    skipped = True
                    writer.writerow([big_n, n, f, h, "", "skipped"])
                    continue
                match = brute == h
                mismatched = mismatched or not match
                writer.writerow([big_n, n, f, h, brute, "true" if match else "false"])
    if mismatched:
        return EXIT_MISMATCH
    if skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_two_pool(ns: argparse.Namespace) -> int:
    tp = TwoPoolParams(N1=ns.N1, N2=ns.N2, n=ns.n, g1=ns.g1, g2=ns.g2)
    bound, split = two_pool_best_split(tp)
    print(f"bound={bound}")
    print(f"split={split[0]},{split[1]}" if split else "split=none")
    if ns.brute:
        print(f"brute_T_opt={two_pool_brute_optimum(tp)}")
    return EXIT_OK


def _cmd_online_value(ns: argparse.Namespace) -> int:
    gv = online_game_value(GameParams(N=ns.N, n=ns.n, f=ns.f), ns.mode)
    print(f"value={gv.value}")
    print("support:")
    for sched, p in gv.strategy_support:
        sets = json.dumps([list(row) for row in sched.sets], separators=(",", ":"))
        print(f"p={p} sets={sets}")
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace) -> int:
    h_value(ns.n, ns.f, ns.max_k)  # rejects bad n, f or max-k before the header
    writer = csv.writer(sys.stdout)
    writer.writerow(["k", "h"])
    for k in range(ns.max_k + 1):
        writer.writerow([k, h_value(ns.n, ns.f, k)])
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="faultsched",
        description="Fault-tolerant schedule optimization and verification tools.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed echoed to stderr (default 0)"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(
        name: str, func: Callable[[argparse.Namespace], int], text: str
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    def game_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--N", type=int, required=True, help="pool size")
        p.add_argument("--n", type=int, required=True, help="set size")
        p.add_argument("--f", type=int, required=True, help="fault tolerance")

    p = command("h-eval", _cmd_h_eval, "evaluate the survival function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    game_flags(command("opt", _cmd_opt, "optimum worst-case survival time"))

    p = command("gen-trivial", _cmd_gen_trivial, "write the batch schedule as JSON")
    game_flags(p)
    p.add_argument("--out", required=True, help="output schedule path")

    p = command("eval", _cmd_eval, "survival time of a schedule against an adversary")
    p.add_argument("--schedule", required=True)
    p.add_argument("--adversary", required=True)

    p = command("solve-adversary", _cmd_solve_adversary, "minimal adversary for a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", help="adversary output path; prints JSON when omitted")

    p = command("check-p", _cmd_check_p, "degree and matching membership test")
    p.add_argument("--instance", required=True)

    p = command("reduce", _cmd_reduce, "one-row membership-preserving reduction")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="reduced instance path; prints JSON when omitted")

    p = command("verify-theorem", _cmd_verify_theorem, "closed form vs brute force as CSV")
    p.add_argument("--max-N", dest="max_N", type=int, required=True, help="largest N, at least 2")
    p.add_argument("--max-states", dest="max_states", type=int, default=10**8,
                   help="states a cell may test before it is skipped; a state is a prefix "
                   "up to relabeling of the ids")

    p = command("two-pool", _cmd_two_pool, "two-type quorum lower bound")
    p.add_argument("--N1", type=int, required=True)
    p.add_argument("--N2", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g1", type=int, required=True)
    p.add_argument("--g2", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="also probe the exact optimum")

    p = command("online-value", _cmd_online_value, "exact on-line game value")
    game_flags(p)
    p.add_argument("--mode", choices=["deterministic", "randomized"], required=True)

    p = command("sweep", _cmd_sweep, "survival function table as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--max-k", dest="max_k", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.seed < 0:
            parser.error("--seed must be nonnegative")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    print(f"seed={ns.seed}", file=sys.stderr)
    try:
        return ns.func(ns)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
