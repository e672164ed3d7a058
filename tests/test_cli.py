import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

import faultsched
from faultsched import (
    GameParams,
    load_adversary,
    load_instance,
    load_schedule,
    membership_in_P,
    save_instance,
    save_schedule,
    surviving_prefix_instance,
    trivial_schedule,
)
from faultsched import cli, cliargs, matrixgame, tableau
from faultsched.cli import (
    EXIT_INVALID,
    _cmd_check_p,
    _cmd_eval,
    _cmd_gen_trivial,
    _cmd_h_eval,
    _cmd_online_value,
    _cmd_opt,
    _cmd_reduce,
    _cmd_solve_adversary,
    _cmd_sweep,
    _cmd_two_pool,
    _cmd_verify_theorem,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h_eval(capsys):
    code, out, err = run_cli(capsys, "h-eval", "--n", "4", "--f", "3", "--k", "7")
    assert code == 0
    assert out == "5\n"
    assert "seed=0" in err


def test_h_eval_second_example(capsys):
    code, out, _ = run_cli(capsys, "h-eval", "--n", "2", "--f", "1", "--k", "4")
    assert (code, out) == (0, "2\n")


def test_h_eval_zero_pool(capsys):
    code, out, _ = run_cli(capsys, "h-eval", "--n", "3", "--f", "2", "--k", "0")
    assert (code, out) == (0, "0\n")


def test_h_eval_invalid_params(capsys):
    code, _, err = run_cli(capsys, "h-eval", "--n", "2", "--f", "2", "--k", "4")
    assert code == 1
    assert "error" in err


def test_missing_flag_exits_one(capsys):
    code = main(["h-eval", "--n", "2", "--f", "1"])
    assert code == 1


def test_unknown_command_exits_one():
    assert main(["no-such-command"]) == 1


def test_seed_echo_and_validation(capsys):
    code, _, err = run_cli(capsys, "--seed", "7", "opt", "--N", "4", "--n", "2", "--f", "1")
    assert code == 0
    assert "seed=7" in err
    assert main(["--seed", "-1", "opt", "--N", "4", "--n", "2", "--f", "1"]) == 1


def test_opt(capsys):
    code, out, _ = run_cli(capsys, "opt", "--N", "7", "--n", "4", "--f", "3")
    assert (code, out) == (0, "5\n")


def test_gen_trivial_round_trip(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, out, _ = run_cli(
        capsys, "gen-trivial", "--N", "4", "--n", "2", "--f", "1", "--out", str(path)
    )
    assert code == 0
    assert out == "2\n"
    doc = json.loads(path.read_text())
    assert doc == {"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4], [3, 4], [3, 4]]}
    assert load_schedule(path) == trivial_schedule(GameParams(4, 2, 1))


def test_gen_trivial_size_guard(tmp_path, capsys):
    # N*n = 2e9 ids is far above the cap, which is checked before any set exists.
    path = tmp_path / "s.json"
    code, out, err = run_cli(
        capsys, "gen-trivial", "--N", str(10**9), "--n", "2", "--f", "1", "--out", str(path)
    )
    assert (code, out) == (3, "")
    assert "error:" in err
    assert not path.exists()


def test_gen_trivial_partial_batch_length(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, out, _ = run_cli(
        capsys, "gen-trivial", "--N", "7", "--n", "4", "--f", "3", "--out", str(path)
    )
    assert (code, out) == (0, "5\n")


def test_eval(tmp_path, capsys):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    a_path.write_text('{"kills": [1, 3, 4, 4]}\n')
    code, out, _ = run_cli(
        capsys, "eval", "--schedule", str(s_path), "--adversary", str(a_path)
    )
    assert (code, out) == (0, "2\n")


def test_eval_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "eval",
        "--schedule",
        str(tmp_path / "missing.json"),
        "--adversary",
        str(tmp_path / "missing.json"),
    )
    assert code == 1
    assert "error" in err


def test_eval_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kills": 3}')
    s_path = tmp_path / "s.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    code, _, err = run_cli(
        capsys, "eval", "--schedule", str(s_path), "--adversary", str(bad)
    )
    assert code == 1


def test_eval_duplicate_field(tmp_path, capsys):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    a_path.write_text('{"kills": [9, 9], "kills": [1, 3, 4, 4]}')
    code, out, err = run_cli(
        capsys, "eval", "--schedule", str(s_path), "--adversary", str(a_path)
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: {a_path}: duplicate field 'kills'"


def test_solve_adversary(tmp_path, capsys):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    code, out, _ = run_cli(
        capsys, "solve-adversary", "--schedule", str(s_path), "--out", str(a_path)
    )
    assert code == 0
    assert out.splitlines() == ["T=2", "t*=3"]
    assert load_adversary(a_path).kills == (1, 3, 4, 3)


def test_solve_adversary_unwritable_out_prints_nothing(tmp_path, capsys):
    s_path, a_path = tmp_path / "s.json", tmp_path / "missing" / "a.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    code, out, err = run_cli(
        capsys, "solve-adversary", "--schedule", str(s_path), "--out", str(a_path)
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: ")
    assert not a_path.exists()


def test_solve_adversary_stdout_json(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    code, out, _ = run_cli(capsys, "solve-adversary", "--schedule", str(s_path))
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["T=2", "t*=3"]
    assert json.loads(lines[2]) == {"kills": [1, 3, 4, 3]}


def test_solve_adversary_unkillable(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    s_path.write_text('{"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 4]]}\n')
    code, out, _ = run_cli(capsys, "solve-adversary", "--schedule", str(s_path))
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["T=2", "t*=none"]
    assert json.loads(lines[2]) == {"kills": [1, 3]}


def test_solve_adversary_rejects_non_integers(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    s_path.write_text('{"N": 4, "n": 2, "f": 1.9, "sets": [["1", 2], [3, 4.7], [true, 4]]}\n')
    code, out, err = run_cli(capsys, "solve-adversary", "--schedule", str(s_path))
    assert (code, out) == (1, "")
    assert "f must be an integer" in err


def test_overflowing_number_is_invalid_input(tmp_path):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    s_path.write_text('{"N": 4, "n": 2, "f": 1, "sets": [[1, 2], [3, 1e400]]}\n')
    a_path.write_text('{"kills": [1, 3]}\n')
    proc = subprocess.run(
        [sys.executable, "-m", "faultsched", "eval", "--schedule", str(s_path),
         "--adversary", str(a_path)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "error:" in proc.stderr and "sets[1][1] must be an integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_p_member(tmp_path, capsys):
    inst = surviving_prefix_instance(trivial_schedule(GameParams(4, 2, 1)))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    code, out, _ = run_cli(capsys, "check-p", "--instance", str(path))
    assert (code, out) == (0, "member\n")


def test_check_p_violation(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        '{"n": 2, "f": 1, "right_ids": [1, 2, 3, 4], "rows": [[1, 2], [1, 2]]}\n'
    )
    code, out, _ = run_cli(capsys, "check-p", "--instance", str(path))
    assert code == 2
    assert "violation at t=2" in out


def test_reduce(tmp_path, capsys):
    inst = surviving_prefix_instance(trivial_schedule(GameParams(4, 2, 1)))
    path, out_path = tmp_path / "inst.json", tmp_path / "reduced.json"
    save_instance(inst, path)
    code, out, _ = run_cli(
        capsys, "reduce", "--instance", str(path), "--out", str(out_path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "L=2 R=4"
    assert lines[1].startswith("L'=")
    reduced = load_instance(out_path)
    assert membership_in_P(reduced).member


def test_reduce_stdout(tmp_path, capsys):
    inst = surviving_prefix_instance(trivial_schedule(GameParams(4, 2, 1)))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    code, out, _ = run_cli(capsys, "reduce", "--instance", str(path))
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"n", "f", "right_ids", "rows"}


def test_reduce_rejects_non_member(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        '{"n": 2, "f": 1, "right_ids": [1, 2, 3, 4], "rows": [[1, 2], [1, 2]]}\n'
    )
    code, _, err = run_cli(capsys, "reduce", "--instance", str(path))
    assert code == 1
    assert "error" in err


def test_verify_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem", "--max-N", "4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["match"] for r in rows] == ["true"] * len(rows)
    assert rows[0]["N"] == "2" and rows[0]["h"] == "1"
    by_key = {(r["N"], r["n"], r["f"]): r for r in rows}
    assert by_key[("4", "2", "1")]["brute_T_opt"] == "2"
    diag = [r for r in rows if r["N"] == r["n"]]
    assert all(r["h"] == r["f"] for r in diag)


def test_verify_theorem_budget_skip(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem", "--max-N", "4", "--max-states", "2"
    )
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["match"] == "skipped" for r in rows)
    skipped = [r for r in rows if r["match"] == "skipped"]
    assert all(r["brute_T_opt"] == "" for r in skipped)


def test_verify_theorem_mismatch_exits_two(capsys, monkeypatch):
    """A cell where the brute force disagrees with h prints ``false`` and
    the run exits 2, the code that marks a failed check."""
    from faultsched import oracle

    real = oracle.brute_optimum
    monkeypatch.setattr(oracle, "brute_optimum",
                        lambda p, max_states: real(p, max_states) + (p == GameParams(3, 2, 1)))
    code, out, _ = run_cli(capsys, "verify-theorem", "--max-N", "3")
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert [r for r in rows if r["match"] != "true"] == [
        {"N": "3", "n": "2", "f": "1", "h": "1", "brute_T_opt": "2", "match": "false"}]


def test_verify_theorem_has_no_plain_search_flag(capsys):
    # brute_optimum has one search; the plain one is a test reference.
    code, out, err = run_cli(capsys, "verify-theorem", "--max-N", "3", "--no-symmetry")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --no-symmetry" in err


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_verify_theorem_rejects_small_max_n(capsys, max_n):
    code, out, err = run_cli(capsys, "verify-theorem", "--max-N", max_n)
    assert (code, out) == (1, "")
    assert "--max-N must be at least 2" in err


@pytest.mark.parametrize("max_states", ["0", "-1"])
def test_verify_theorem_rejects_nonpositive_max_states(capsys, max_states):
    # Checked before the CSV header is written.
    code, out, err = run_cli(capsys, "verify-theorem", "--max-N", "4", "--max-states", max_states)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: --max-states must be at least 1, got {max_states}"


def test_two_pool(capsys):
    code, out, _ = run_cli(
        capsys, "two-pool", "--N1", "4", "--N2", "4", "--n", "4", "--g1", "1", "--g2", "1"
    )
    assert code == 0
    assert out.splitlines() == ["bound=2", "split=2,2"]


def test_two_pool_brute(capsys):
    code, out, _ = run_cli(
        capsys,
        "two-pool",
        "--N1", "4", "--N2", "4", "--n", "4", "--g1", "1", "--g2", "1", "--brute",
    )
    assert code == 0
    assert out.splitlines() == ["bound=2", "split=2,2", "brute_T_opt=2"]


def test_two_pool_brute_guard(capsys):
    """Past the probe's size guard: exit 3, and the bound and split that
    were computed before it are not printed either."""
    code, out, err = run_cli(
        capsys,
        "two-pool",
        "--N1", "8", "--N2", "8", "--n", "4", "--g1", "1", "--g2", "1", "--brute",
    )
    assert (code, out) == (3, "")
    assert "probe limited to N1+N2 <= 8 and n <= 4, got 16 and 4" in err


def test_two_pool_split_cap(capsys):
    """Past the cap on admissible splits the bound is not computed: exit 3,
    nothing on stdout."""
    code, out, err = run_cli(capsys, "two-pool", "--N1", "1000000", "--N2", "1000000",
                             "--n", "1000000", "--g1", "1", "--g2", "1")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == "error: 999999 admissible splits exceed the cap of 100000"


def test_two_pool_invalid(capsys):
    code, _, err = run_cli(
        capsys, "two-pool", "--N1", "4", "--N2", "4", "--n", "2", "--g1", "2", "--g2", "1"
    )
    assert code == 1


def test_online_value_deterministic(capsys):
    code, out, _ = run_cli(
        capsys, "online-value", "--N", "4", "--n", "2", "--f", "1", "--mode", "deterministic"
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "value=2"
    assert lines[1] == "support:"
    assert lines[2] == "p=1 sets=[[1,2],[3,4],[3,4],[3,4]]"


def test_online_value_randomized_tiny(capsys):
    code, out, _ = run_cli(
        capsys, "online-value", "--N", "3", "--n", "3", "--f", "2", "--mode", "randomized"
    )
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "value=2"


def test_online_value_guard(capsys):
    code, _, err = run_cli(
        capsys, "online-value", "--N", "5", "--n", "2", "--f", "1", "--mode", "randomized"
    )
    assert code == 3


def test_online_value_guard_huge_pool(capsys):
    """The guard tests N before it computes C(N, n), which here has about
    30,000 digits, more than ``str`` converts by default."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "online-value", "--N", "100000", "--n", "50000", "--f", "1", "--mode",
        "deterministic"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == (
        "error: online game guard: need C(N,n) <= 6 and N <= 5, got N=100000")


def test_online_value_cell_budget(capsys, monkeypatch):
    """(3,2,1) solves payoff matrices of 93 cells in all; a smaller
    budget on that work exits 3 before the next LP."""
    monkeypatch.setattr(matrixgame, "_MAX_PAYOFF_CELLS", 50)
    assert main(["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "randomized"]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: double oracle exceeded its budget of 50 payoff-matrix cells")


def test_online_value_pivot_budget(capsys, monkeypatch):
    """(3,2,1)'s LP solves make 10 pivots in all; a smaller bound stops
    the run inside a solve, which exits 3 with the LP's own message."""
    monkeypatch.setattr(tableau, "_MAX_PIVOTS", 5)
    assert main(["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "randomized"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: exact LP exceeded its budget of 5 pivots"


def test_sweep(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--f", "1", "--max-k", "5")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "h"]
    assert [r[1] for r in rows[1:]] == ["0", "0", "1", "1", "2", "2"]


def test_sweep_invalid(capsys):
    assert main(["sweep", "--n", "2", "--f", "1", "--max-k", "-1"]) == 1
    assert main(["sweep", "--n", "2", "--f", "3", "--max-k", "4"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "faultsched", "h-eval", "--n", "4", "--f", "3", "--k", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5\n"
    assert "seed=0" in proc.stderr


LOADED_BY_ALL = ["faultsched", "faultsched.cli", "faultsched.cliargs", "faultsched.codec",
                 "faultsched.game", "faultsched.survival"]
SOLVER = ["faultsched.matching", "faultsched.solver"]


IMPORT_CASES = [
    (["opt", "--N", "4", "--n", "2", "--f", "1"], []),
    (["h-eval", "--n", "4", "--f", "3", "--k", "7"], []),
    (["sweep", "--n", "2", "--f", "1", "--max-k", "3"], []),
    (["gen-trivial", "--N", "4", "--n", "2", "--f", "1", "--out", "out.json"], []),
    (["eval", "--schedule", "s.json", "--adversary", "a.json"], []),
    (["solve-adversary", "--schedule", "s.json"], SOLVER),
    (["check-p", "--instance", "inst.json"], SOLVER),
    (["reduce", "--instance", "inst.json"], SOLVER),
    (["verify-theorem", "--max-N", "3"], ["faultsched.matching", "faultsched.oracle"]),
    (["two-pool", "--N1", "2", "--N2", "2", "--n", "2", "--g1", "1", "--g2", "1"],
     ["faultsched.matching", "faultsched.oracle", "faultsched.twopool"]),
    (["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "deterministic"],
     ["faultsched.matrixgame", "faultsched.online", "faultsched.tableau"]),
]


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter has loaded, as for ``python -S -c pass``.

    ``-S`` here and in the child keeps ``.pth`` files in site-packages from
    preloading modules (``typing``, ``re``, ``pathlib``, ...) that would hide
    an import of the command from the comparison."""
    proc = subprocess.run([sys.executable, "-S", "-c", "import sys; print(*sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    return set(proc.stdout.split())


JSON_COMMANDS = ("gen-trivial", "eval", "solve-adversary", "check-p", "reduce")


@pytest.mark.parametrize("argv,extra", IMPORT_CASES, ids=[argv[0] for argv, _ in IMPORT_CASES])
def test_command_imports_only_its_modules(tmp_path, argv, extra, bare_modules):
    """A fresh interpreter running one command loads only the modules
    that command calls.  No command loads ``dataclasses``, ``inspect``,
    ``pathlib``, ``typing``, ``random`` or an argument parser's
    ``argparse``, ``gettext`` and ``locale``; only the two that write CSV
    load ``csv``, and only the five that read or write JSON files load
    ``json``."""
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), tmp_path / "s.json")
    (tmp_path / "a.json").write_text('{"kills": [1, 3, 4, 4]}\n')
    save_instance(surviving_prefix_instance(trivial_schedule(GameParams(4, 2, 1))),
                  tmp_path / "inst.json")
    child = ("import io, sys\n"
             "from faultsched.cli import main\n"
             "sys.stdout = io.StringIO()\n"
             "code = main(sys.argv[1:])\n"
             "sys.stdout = sys.__stdout__\n"
             "print(code, *sorted(sys.modules))\n")
    src = str(Path(faultsched.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", child, *argv], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert [m for m in loaded if m.split(".")[0] == "faultsched"] == sorted(LOADED_BY_ALL + extra)
    added = set(loaded) - bare_modules
    assert not added & {"dataclasses", "inspect", "pathlib", "typing", "random", "argparse",
                        "gettext", "locale"}
    assert ("csv" in added) == (argv[0] in ("verify-theorem", "sweep"))
    assert ("json" in added) == (argv[0] in JSON_COMMANDS)


# ---------------------------------------------------------------------------
# The argument parser, against the argparse parser it replaced.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract reserves 2
    for verification mismatches, so usage errors exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """The argparse parser the command table replaced, kept verbatim as the
    reference of ``test_parser_matches_argparse``."""
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


def parse_outcome(parser, argv):
    """``("exit", code)`` when parsing exits, else the namespace's fields but
    the argparse reference's handler ``func``, which ``main`` looks up by
    the command instead (``test_main_runs_each_commands_handler``)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return ("exit", exc.code)
    fields.pop("func", None)
    return fields


@pytest.mark.parametrize("row", cliargs.COMMANDS.splitlines(), ids=lambda row: row.split()[0])
def test_main_runs_each_commands_handler(monkeypatch, row):
    """For each command row, ``main`` runs ``cli._cmd_<name>``, the handler
    the argparse reference gave that command, and returns its exit code."""
    name, *words = row.split()
    argv = [name]
    for flag in (word for word in words if word[:2] == "--"):  # the required ones
        kind = cliargs._row(cliargs.FLAGS, flag).split()[1]
        argv += [flag, "1" if kind == "INT" else kind.strip("{}").split(",")[0]]
    handler = "_cmd_" + name.replace("-", "_")
    assert build_parser().parse_args(argv).func is getattr(cli, handler)
    ran = []
    monkeypatch.setattr(cli, handler, lambda ns: ran.append(ns.command) or 7)
    assert main(argv) == 7 and ran == [name]


GAME = ["--N", "7", "--n", "4", "--f", "3"]
POOLS = ["--N1", "4", "--N2", "4", "--n", "4", "--g1", "1", "--g2", "1"]
DETERMINISTIC = ["--N", "3", "--n", "2", "--f", "1", "--mode", "deterministic"]
PARSER_CASES = [
    # Every command shape the benchmark's cli-roundtrip runs.
    ["opt", "--N", "4000", "--n", "40", "--f", "10"],
    ["h-eval", "--n", "4", "--f", "3", "--k", "7"],
    ["sweep", "--n", "2", "--f", "1", "--max-k", "30"],
    ["gen-trivial", *GAME, "--out", "s.json"],
    ["eval", "--schedule", "s.json", "--adversary", "a.json"],
    ["solve-adversary", "--schedule", "s.json"],
    ["check-p", "--instance", "inst.json"],
    ["reduce", "--instance", "inst.json"],
    ["verify-theorem", "--max-N", "4"],
    ["two-pool", *POOLS, "--brute"],
    ["two-pool", "--N1", "7", "--N2", "0", "--n", "4", "--g1", "1", "--g2", "0"],
    ["online-value", *DETERMINISTIC],
    ["--seed", "123456", "opt", *GAME],
    # Optional flags given, and their defaults.
    ["solve-adversary", "--schedule", "s.json", "--out", "a.json"],
    ["reduce", "--out", "r.json", "--instance", "inst.json"],
    ["verify-theorem", "--max-N", "4", "--max-states", "2"],
    # --flag=value, and a repeated flag, where the last one wins.
    ["opt", "--N=7", "--n=4", "--f=3"],
    ["--seed=5", "online-value", "--N", "3", "--n", "2", "--f", "1", "--mode=randomized"],
    ["gen-trivial", *GAME, "--out=x.json"],
    ["reduce", "--instance", "inst.json", "--out="],
    ["opt", "--N", "4", "--N", "9", "--n", "2", "--f", "1"],
    ["--seed", "1", "--seed", "2", "h-eval", "--n", "2", "--f", "1", "--k", "4"],
    ["two-pool", "--brute", *POOLS, "--brute"],
    # Values int() reads, negative ones included.
    ["opt", "--N", " 7", "--n", "+4", "--f", "3"],
    ["opt", "--N", "1_000", "--n", "-4", "--f", "3"],
    ["--seed", "3", "sweep", "--n", "2", "--f", "1", "--max-k", "5"],
    ["--seed=-1", "opt", *GAME],
    ["--seed", "-1", "opt", *GAME],
    # --seed after the command is not a flag of the command.
    ["opt", *GAME, "--seed", "3"],
    ["opt", "--seed=3", *GAME],
    # Missing flags and values.
    ["h-eval", "--n", "4", "--f", "1"],
    ["gen-trivial", *GAME],
    ["eval", "--schedule", "s.json"],
    ["online-value", "--N", "3", "--n", "2", "--f", "1"],
    ["opt", "--N", "4", "--n", "2", "--f"],
    ["opt", "--N", "--n", "2", "--f", "1"],
    ["solve-adversary", "--schedule", "--out", "a.json"],
    ["gen-trivial", *GAME, "--out", "-x"],
    ["gen-trivial", *GAME, "--out=-x"],
    # Unknown flags, a flag of another command, an ambiguous prefix.
    ["verify-theorem", "--max-N", "3", "--no-symmetry"],
    ["opt", *GAME, "--k", "3"],
    ["--verbose", "opt", *GAME],
    ["verify-theorem", "--max", "4"],
    # Bad ints and bad choices.
    ["opt", "--N", "x", "--n", "2", "--f", "1"],
    ["opt", "--N", "4.0", "--n", "2", "--f", "1"],
    ["h-eval", "--n", "", "--f", "1", "--k", "3"],
    ["--seed", "abc", "opt", *GAME],
    ["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "random"],
    ["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "Deterministic"],
    ["two-pool", *POOLS, "--brute=yes"],
    # Stray positionals, unknown commands, no command.
    ["opt", *GAME, "extra"],
    ["opt", "4", *GAME],
    ["no-such-command"],
    ["-5", "opt", *GAME],
    [],
    ["--seed", "3"],
    # Help, at either level and after other flags.
    ["--help"],
    ["-h", "opt"],
    ["opt", "-h"],
    ["opt", "--N", "4", "--help"],
    ["opt", "--bad", "--help"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=[" ".join(a) or "<empty>" for a in PARSER_CASES])
def test_parser_matches_argparse(argv):
    """The command table's parser exits 1 or 0 where argparse did, and
    otherwise fills the same namespace fields with the same values."""
    want = parse_outcome(build_parser(), argv)
    assert parse_outcome(cli.build_parser(), argv) == want
    assert want != ("exit", 2)


def test_parser_takes_no_abbreviations():
    """The one intended difference: argparse took a unique prefix of a flag."""
    argv = ["verify-theorem", "--max-N", "4", "--max-st", "5"]
    assert parse_outcome(build_parser(), argv)["max_states"] == 5
    assert parse_outcome(cli.build_parser(), argv) == ("exit", 1)


def test_help_names_every_command_and_flag(capsys):
    """``--help`` lists every command row of the table, and ``<command>
    --help`` that command's row and the row of each of its flags, so every
    command, flag and help string shows; help exits 0 with stdout only."""
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: faultsched [-h] [--seed INT] <command> ...\n")
    assert cliargs.COMMANDS in out and cliargs._row(cliargs.FLAGS, "--seed") in out
    shown = set()
    for row in cliargs.COMMANDS.splitlines():
        name, *words = row.split()
        code, out, err = run_cli(capsys, name, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: faultsched {name} [-h] --") and row in out.splitlines()
        for flag in (word.strip("[]") for word in words if "--" in word):
            assert f"\n{cliargs._row(cliargs.FLAGS, flag)}\n" in out
            shown.add(flag)
    assert shown | {"--seed"} == {row.split()[0] for row in cliargs.FLAGS.splitlines()}


@pytest.mark.parametrize("argv", [
    ["opt", "--N", "3"],
    ["opt", "--N", "x", "--n", "2", "--f", "1"],
    ["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "random"],
    ["verify-theorem", "--max-N", "4", "--max-st", "5"],
    ["two-pool", *POOLS, "--brute=1"],
    ["sweep", "--n", "2", "--f", "1", "--max-k"],
])
def test_usage_error_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: faultsched {argv[0]} ")
    assert lines[-1].startswith(f"faultsched {argv[0]}: error: ")


@pytest.mark.parametrize("argv", [[], ["no-such-command"], ["--seed", "-1", "opt", *GAME]])
def test_top_level_usage_error_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[0].startswith("usage: faultsched [-h]")
    assert err.splitlines()[-1].startswith("faultsched: error: ")
