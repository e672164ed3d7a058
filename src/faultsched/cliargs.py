"""The command-line grammar: the tables ``--help`` prints and the parser that reads
them.  Only the standard library is imported here, and no handler is named:
``cli.main`` runs ``_cmd_<name>`` for the command that the parser reads."""

from __future__ import annotations

import sys
from types import SimpleNamespace as Namespace

# The tables --help prints.  A command row gives the command (run by cli._cmd_<name>),
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
    A usage error prints ``faultsched[ <command>]: error: ...`` and exits 1; help exits 0."""

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
                flags = _flags(arg)
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
        raise SystemExit(1)

    def print_help(self, command: str | None) -> None:
        print(self.usage(command), "", _row(COMMANDS, command) or "Fault-tolerant schedule "
              "optimization and verification tools; commands:\n" + COMMANDS, "", sep="\n")
        for flag in _flags(command) or ["--seed"]:
            print(_row(FLAGS, flag.strip("[]")))
        raise SystemExit(0)
