import csv
import io
import json
import subprocess
import sys

import pytest

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
from faultsched import online
from faultsched.cli import main


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


def test_solve_adversary(tmp_path, capsys):
    s_path, a_path = tmp_path / "s.json", tmp_path / "a.json"
    save_schedule(trivial_schedule(GameParams(4, 2, 1)), s_path)
    code, out, _ = run_cli(
        capsys, "solve-adversary", "--schedule", str(s_path), "--out", str(a_path)
    )
    assert code == 0
    assert out.splitlines() == ["T=2", "t*=3"]
    assert load_adversary(a_path).kills == (1, 3, 4, 3)


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
    code, _, err = run_cli(
        capsys,
        "two-pool",
        "--N1", "8", "--N2", "8", "--n", "4", "--g1", "1", "--g2", "1", "--brute",
    )
    assert code == 3
    assert "error" in err


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


def test_online_value_cell_budget(capsys, monkeypatch):
    """(3,2,1) solves payoff matrices of 143 cells in all; a smaller
    budget on that work exits 3 before the next LP."""
    monkeypatch.setattr(online, "_MAX_PAYOFF_CELLS", 50)
    assert main(["online-value", "--N", "3", "--n", "2", "--f", "1", "--mode", "randomized"]) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: double oracle exceeded its budget of 50 payoff-matrix cells")


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
