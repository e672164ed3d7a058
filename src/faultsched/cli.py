"""Command-line surface: one subcommand per operation, each a row of ``COMMANDS``.
Values print as plain text, grids as CSV, instances travel as JSON files.  A handler
returns its exit code unless it is 0: 1 invalid input or usage, 2 verification
mismatch, 3 budget exceeded.  The seed is echoed to stderr, so stdout stays
parseable.  Only ``codec``, ``game`` and ``survival`` are imported here, and ``codec``
loads ``json`` only for a command that reads or writes JSON; a command imports the
other modules it calls, and ``csv``, when it runs."""

from __future__ import annotations

import sys
from types import SimpleNamespace as Namespace

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


# The tables --help prints.  A command row gives the command (run by _cmd_<name>),
# its flags (one in brackets may be left out and takes its default) and what it
# does; a flag row, the flag, its kind and what it is.  INT is read with int(),
# PATH is any text, {a,b} one of the words, and - marks a switch, storing True.
COMMANDS = """\
  h-eval           --n --f --k                        evaluate the survival function
  opt              --N --n --f                        optimum worst-case survival time
  gen-trivial      --N --n --f --out                  write the batch schedule as JSON
  eval             --schedule --adversary             survival time against a kill sequence
  solve-adversary  --schedule [--out]                 minimal adversary for a schedule
  check-p          --instance                         degree and matching membership test
  reduce           --instance [--out]                 one-row membership-preserving reduction
  verify-theorem   --max-N [--max-states]             closed form vs brute force as CSV
  two-pool         --N1 --N2 --n --g1 --g2 [--brute]  two-type quorum lower bound
  online-value     --N --n --f --mode                 exact on-line game value
  sweep            --n --f --max-k                    survival function table as CSV"""
FLAGS = """\
  --seed        INT   seed echoed to stderr (default 0)
  --N           INT   pool size
  --n           INT   set size
  --f           INT   fault tolerance
  --k           INT   pool size
  --max-k       INT   largest pool size
  --max-N       INT   largest N, at least 2
  --max-states  INT   states (prefixes up to relabeling) a cell may test before it is skipped
  --N1          INT   type-1 pool size
  --N2          INT   type-2 pool size
  --g1          INT   type-1 quorum
  --g2          INT   type-2 quorum
  --schedule    PATH  schedule file
  --adversary   PATH  adversary file
  --instance    PATH  instance file
  --out         PATH  output file; where it is optional, JSON goes to stdout without it
  --mode        {deterministic,randomized}  game to solve
  --brute       -     also probe the exact optimum"""
DEFAULTS = {"--max-states": 10**8, "--out": None, "--brute": False}


def _row(table: str, name: str | None) -> str:
    """The row of ``table`` that starts with ``name``, or ''."""
    return next((row for row in table.splitlines() if row.split()[0] == name), "")


def _flags(command: str | None) -> list[str]:
    """The flags in the row of ``command``, such as ``[--out]``."""
    return [word for word in _row(COMMANDS, command).split() if "--" in word]


class _Parser:
    """Reads ``[--seed INT] <command> <flags>``; a value follows its flag's ``=``, or
    is the next argument unless that starts with ``-`` and is no negative integer.
    A usage error prints ``faultsched[ <command>]: error: ...`` and exits 1."""

    def parse_args(self, argv: list[str] | None = None) -> Namespace:
        args = iter(sys.argv[1:] if argv is None else argv)
        ns, extras, command, flags = Namespace(seed=0), [], None, ["[--seed]"]
        for arg in args:
            name, eq, value = arg.partition("=")
            kind = _row(FLAGS, name).split()[1] if f"[{name}]" in flags or name in flags else ""
            if arg in ("-h", "--help"):
                self.print_help(command)
            elif kind == "-" and not eq:
                setattr(ns, name[2:], True)
            elif kind and kind != "-":
                if not eq:  # a missing value reads as "-", which is none
                    value = next(args, "-")
                try:
                    if not eq and value[:1] == "-" and not value[1:].isdigit() or (
                            kind[0] == "{" and value not in kind[1:-1].split(",")):
                        raise ValueError
                    setattr(ns, name[2:].replace("-", "_"), int(value) if kind == "INT" else value)
                except ValueError:
                    self.error(f"argument {name}: expected {kind}", command)
            elif command is None and arg[:1] != "-":
                if not _row(COMMANDS, arg):
                    self.error(f"invalid command {arg!r}; faultsched --help lists them")
                ns.command = command = arg
                ns.func, flags = globals()["_cmd_" + arg.replace("-", "_")], _flags(arg)
                for flag in flags:
                    if flag[0] == "[":
                        setattr(ns, flag[3:-1].replace("-", "_"), DEFAULTS[flag[1:-1]])
            else:
                extras.append(arg)
        if command is None:
            self.error("a command is required")
        missing = [f for f in flags if not hasattr(ns, f.strip("[]")[2:].replace("-", "_"))]
        if missing or extras:
            self.error(f"the following arguments are required: {', '.join(missing)}" if missing
                       else f"unrecognized arguments: {' '.join(extras)}", command)
        return ns

    def usage(self, command: str | None) -> str:
        return (f"usage: faultsched {command} [-h] {' '.join(_flags(command))}" if command
                else "usage: faultsched [-h] [--seed INT] <command> ...")

    def error(self, message: str, command: str | None = None) -> None:
        print(self.usage(command), f"faultsched{' ' + command if command else ''}: error: "
              f"{message}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)

    def print_help(self, command: str | None) -> None:
        print(self.usage(command), "", _row(COMMANDS, command) or "Fault-tolerant schedule "
              "optimization and verification tools; commands:\n" + COMMANDS, "", sep="\n")
        for flag in _flags(command) or ["--seed"]:
            print(_row(FLAGS, flag.strip("[]")))
        raise SystemExit(EXIT_OK)


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
        return ns.func(ns) or EXIT_OK
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

