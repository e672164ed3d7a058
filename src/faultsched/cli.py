"""Command-line surface: one handler ``_cmd_<name>`` per row of ``cliargs.COMMANDS``.
Values print as plain text, grids as CSV, instances travel as JSON files.  A handler
returns its exit code unless it is 0: 1 invalid input or usage, 2 verification
mismatch, 3 budget exceeded.  The seed is echoed to stderr, so stdout stays
parseable.  Only ``cliargs``, ``codec``, ``game`` and ``survival`` are imported here,
and ``codec`` loads ``json`` only for a command that reads or writes JSON; a command
imports the other modules it calls, and ``csv``, when it runs."""

from __future__ import annotations

import sys
from types import SimpleNamespace as Namespace

from .cliargs import _Parser
from .codec import (adversary_to_dict, instance_to_dict, load_adversary, load_instance,
                    load_schedule, save_adversary, save_instance, save_schedule, to_json)
from .game import BudgetExceededError, GameParams, survival_time, trivial_schedule
from .survival import h_value, optimum_survival_time

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3

# gen-trivial exits 3 above this many ids (N*n) instead of building them.
MAX_TRIVIAL_IDS = 4_000_000


def _cmd_h_eval(ns: Namespace) -> None:
    print(h_value(ns.n, ns.f, ns.k))


def _cmd_opt(ns: Namespace) -> None:
    print(optimum_survival_time(GameParams(N=ns.N, n=ns.n, f=ns.f)))


def _cmd_gen_trivial(ns: Namespace) -> None:
    params = GameParams(N=ns.N, n=ns.n, f=ns.f)
    if params.N * params.n > MAX_TRIVIAL_IDS:
        raise BudgetExceededError(f"schedule of N*n = {params.N * params.n} ids exceeds the "
                                  f"cap of {MAX_TRIVIAL_IDS}")
    save_schedule(trivial_schedule(params), ns.out)
    print(optimum_survival_time(params))


def _cmd_eval(ns: Namespace) -> None:
    print(survival_time(load_schedule(ns.schedule), load_adversary(ns.adversary)))


def _cmd_solve_adversary(ns: Namespace) -> None:
    from .solver import minimal_adversary

    s = load_schedule(ns.schedule)
    adv = minimal_adversary(s)
    T = survival_time(s, adv)  # the adversary attains the minimum, ending the run at t* - 1
    if ns.out:
        save_adversary(adv, ns.out)
    print(f"T={T}")
    print(f"t*={T + 1 if T < len(s) else 'none'}")
    if not ns.out:
        print(to_json(adversary_to_dict(adv)))


def _cmd_check_p(ns: Namespace) -> int | None:
    from .solver import membership_in_P

    report = membership_in_P(load_instance(ns.instance))
    if not report.member:
        print(f"violation at t={report.violating_t}: {report.reason}")
        return EXIT_MISMATCH
    print("member")


def _cmd_reduce(ns: Namespace) -> None:
    from .solver import reduce_instance

    inst = load_instance(ns.instance)
    reduced = reduce_instance(inst)
    if ns.out:
        save_instance(reduced, ns.out)
        print(f"L={inst.left_count} R={inst.right_count}")
        print(f"L'={reduced.left_count} R'={reduced.right_count}")
    else:
        print(to_json(instance_to_dict(reduced)))


def _cmd_verify_theorem(ns: Namespace) -> int | None:
    import csv

    from .oracle import brute_optimum

    if ns.max_N < 2:
        raise ValueError(f"--max-N must be at least 2, got {ns.max_N}")
    if ns.max_states < 1:
        raise ValueError(f"--max-states must be at least 1, got {ns.max_states}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["N", "n", "f", "h", "brute_T_opt", "match"])
    mismatched = skipped = False
    for big_n in range(2, ns.max_N + 1):
        for n in range(2, big_n + 1):
            for f in range(1, n):
                h = h_value(n, f, big_n)
                try:
                    brute = brute_optimum(GameParams(N=big_n, n=n, f=f), ns.max_states)
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


def _cmd_two_pool(ns: Namespace) -> None:
    from .twopool import TwoPoolParams, two_pool_best_split, two_pool_brute_optimum

    tp = TwoPoolParams(N1=ns.N1, N2=ns.N2, n=ns.n, g1=ns.g1, g2=ns.g2)
    bound, split = two_pool_best_split(tp)
    # The probe runs before any print, so that its size guard leaves stdout empty.
    brute = [f"brute_T_opt={two_pool_brute_optimum(tp)}"] if ns.brute else []
    print(f"bound={bound}", f"split={split[0]},{split[1]}" if split else "split=none", *brute,
          sep="\n")


def _cmd_online_value(ns: Namespace) -> None:
    from .online import online_game_value

    gv = online_game_value(GameParams(N=ns.N, n=ns.n, f=ns.f), ns.mode)
    print(f"value={gv.value}")
    print("support:")
    for sched, p in gv.strategy_support:
        sets = repr([list(row) for row in sched.sets]).replace(" ", "")
        print(f"p={p} sets={sets}")


def _cmd_sweep(ns: Namespace) -> None:
    import csv

    h_value(ns.n, ns.f, ns.max_k)  # rejects bad n, f or max-k before the header
    writer = csv.writer(sys.stdout)
    writer.writerow(["k", "h"])
    for k in range(ns.max_k + 1):
        writer.writerow([k, h_value(ns.n, ns.f, k)])


def build_parser() -> _Parser:
    """perfbench/tracer.py times this call and ``_Parser.parse_args``."""
    return _Parser()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.seed < 0:
            parser.error("--seed must be nonnegative")
    except SystemExit as exc:
        return exc.code
    print(f"seed={ns.seed}", file=sys.stderr)
    try:
        return globals()["_cmd_" + ns.command.replace("-", "_")](ns) or EXIT_OK
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_INVALID


def __getattr__(name: str) -> object:
    """perfbench/tracer.py wraps library names on this module, such as
    ``cli.membership_in_P``; resolve those not imported above lazily."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)

