"""Mutation gate: the tests must keep killing faults that were once found.

    python3 scripts/mutants.py

Each entry of ``MUTANTS`` edits one module of src/faultsched, replacing
an exact old text, which must occur there once, with a new one, and
names the tests that must catch the edit and a wall bound in seconds.
The script copies src/ and tests/ to a temporary directory.  For each
entry it first runs the named tests on the unedited copy, where they
must pass (once per set of tests), then applies the edit and runs them
again, where they must fail within the bound; a run still going at the
bound counts as the mutant surviving.  An entry whose old text is gone
from its module fails too: a refactor must update the entry, not drop
it.  Prints one line per entry and exits 0 when every mutant is killed,
else 1.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONLINE = "tests/test_online.py"
ORACLE = "tests/test_oracle.py"
BORN = "tests/test_born_checked.py"
TWOPOOL = "tests/test_twopool.py"

# (name, module, old text, new text, tests, wall bound in seconds)
MUTANTS = [
    # The warm-started LP: each fault was found to fail its test within 2 s.
    ("column-objective-entry", "matrixgame", "                a[m][k] -= d\n", "",
     [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 30),
    ("new-row-elimination", "matrixgame", "if b < k:\n                        line = [x -",
     "if b < 0:\n                        line = [x -",
     [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 30),
    ("rebuild-on-new-scale", "matrixgame", "if self.scale % den or min(ints) < self.scale:",
     "if min(ints) < self.scale:", [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 30),
    ("rebuild-on-new-minimum", "matrixgame", "if self.scale % den or min(ints) < self.scale:",
     "if self.scale % den:", [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 30),
    ("dual-step-skipped", "matrixgame",
     "if dual := [(b, i) for i, b in enumerate(basis) if a[i][w] < 0]:", "if dual := []:",
     [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 30),
    ("always-a-new-tableau", "matrixgame", "if not isinstance(game, _Tableau):", "if True:",
     [f"{ONLINE}::TestOnlineGameValue::test_randomized_support_pinned"], 30),
    ("never-grown", "matrixgame", "    game.grow()\n", "",
     [f"{ONLINE}::TestDoubleOracle"], 30),
    # Without the negation the pivot loop never ends; the pivot bound must
    # stop it, or at worst the tests' wall-clock guard.
    ("negative-pivot-row-kept", "matrixgame", "pivot_row = a[leave] = [-x for x in pivot_row]",
     "pivot_row = a[leave]", [f"{ONLINE}::test_grown_tableau_matches_cold_solve"], 90),
    # The LP certificate: reversed duals still lie between floor and ceil.
    ("certificate-as-bounds", "matrixgame", "if not floor == d == ceil:",
     "if not floor <= d <= ceil:",
     [f"{ONLINE}::TestMatrixGame::test_certificate_rejects_wrong_value"], 30),
    # The Ore witness: a matched neighbour's mate not reached, caught by the
    # acceptance test that also compares tests/reference.py's brute_deficiency,
    # which has no matching code; and only first neighbours explored, which
    # keeps the value equal to the matching size, so the witness's own count
    # check passes, and the test that recomputes gamma(C) must catch it.
    ("ore-witness-mate-unreached", "matching", "if l in mate:", "if l not in mate:",
     ["tests/test_acceptance.py::test_criterion_5_matching_deficiency_duality"], 30),
    ("ore-witness-first-neighbour", "matching", "for l in lefts[stack.pop()]:",
     "for l in lefts[stack.pop()][:1]:", ["tests/test_matching.py::test_witness_attains_formula"],
     30),
    ("h-leftover-slack", "survival", "max(r + f - n, 0)", "max(r + f - n + 1, 0)",
     ["tests/test_survival.py"], 30),
    # The scan's prefilter: f members with earlier steps can be killable.
    ("scan-prefilter-strict", "solver", "n - lists.count([]) >= f", "n - lists.count([]) > f",
     ["tests/test_solver.py::test_scan_agrees_with_per_step_reference"], 30),
    # The on-line adversary's fallback kills the lowest live member.
    ("kill-fallback-ignores-dead", "online", "live = row & ~killed or row", "live = row",
     [f"{ONLINE}::TestAdversaryPolicy"], 30),
    # The class search's transposition table: a dead state recorded as
    # expanded hides its live isomorphs (rows in another order), and a key
    # must be a relabeling of its state, not a coarser summary of it.
    ("dead-state-recorded", "oracle", "            if not dead(child):\n",
     "            if dead(child):\n                expanded.add(key(child))\n            else:\n",
     ["tests/test_oracle.py::test_dead_states_do_not_hide_their_live_isomorphs"], 30),
    ("key-without-relabeling", "oracle", "    return tuple(sorted((sum(",
     "    return tuple(sorted(c for v, c in state))\n    return tuple(sorted((sum(",
     ["tests/test_oracle.py::TestBruteOptimum::test_class_key_is_a_relabeling"], 30),
    # The class search's dead test: the two counts bound nu from above, so
    # a state where either equals f can still be dead.  The exact test
    # matches every member of the row, k of them per class, not one per
    # class.
    ("seen-bound-not-strict", "oracle", "seen < f", "seen <= f",
     [f"{ORACLE}::TestBruteOptimum::test_class_dead_agrees_with_ore_on_every_tested_state"], 30),
    ("union-bound-not-strict", "oracle", "union.bit_count() < f", "union.bit_count() <= f",
     [f"{ORACLE}::TestBruteOptimum::test_class_dead_agrees_with_ore_on_every_tested_state"], 30),
    ("one-member-per-class", "oracle", "v >> u & 1]] * k", "v >> u & 1]]",
     [f"{ORACLE}::TestBruteOptimum::test_class_dead_agrees_with_ore_on_every_tested_state"], 30),
    # The children drawn with f leave out exactly the children whose greedy
    # holds more than f steps: stopping at f steps loses live children, and
    # a greedy that reuses taken steps keeps dead ones.
    ("prune-at-f-steps", "oracle", "if steps.bit_count() > f:", "if steps.bit_count() >= f:",
     [f"{ORACLE}::TestBruteOptimum::test_pruned_children_are_the_children_the_greedy_keeps"], 30),
    ("prune-greedy-reuses-a-step", "oracle", "free = v & ~steps", "free = v",
     [f"{ORACLE}::TestBruteOptimum::test_pruned_children_are_the_children_the_greedy_keeps"], 30),
    # The two-pool probe draws each pool's part of the row at its own need
    # and sets pool 2's type bit again on its part: a need one too high
    # keeps rows the greedy calls dead, and a part without its type bit
    # puts pool-2 ids in pool 1.
    ("probe-need-off-by-one", "twopool", "k - tp.g2, bit)", "k - tp.g2 + 1, bit)",
     [f"{TWOPOOL}::TestBruteProbe::test_draw_leaves_out_only_greedy_dead_rows"], 30),
    ("probe-merge-drops-type-bit", "twopool", "(v | 1, c)", "(v, c)",
     [f"{TWOPOOL}::TestBruteProbe::test_draw_leaves_out_only_greedy_dead_rows"], 30),
    # The row reader shares only a tuple object's sorted copy, never an
    # equal row's or a generator's, and an instance checks every row.
    ("rows-shared-by-equality", "game", "done, out = {}, []",
     "done, out = {}, []\n    id = lambda row: row if type(row) is tuple else object()",
     ["tests/test_solver.py::test_equal_rows_are_each_checked"], 30),
    ("generator-rows-shared", "game", "if type(row) is tuple:", "if True:",
     ["tests/test_game.py::test_repeated_generator_row_is_read_twice"], 30),
    # Values built from checked values skip the checking constructors, so
    # the tests that rebuild them through those constructors must catch a
    # fault in the building: a batch row that repeats an id or leaves 1..N,
    # a reduction that keeps a row of gamma(C) (the row count still right)
    # or an id of C, and a randomized support that lost a probability.
    ("batch-row-repeats-an-id", "game", "batch = tuple(range(i * n + 1, (i + 1) * n + 1))",
     "batch = tuple(range(i * n + 1, (i + 1) * n)) + (i * n + 1,)",
     [f"{BORN}::test_batch_schedules_up_to_40_are_born_valid"], 30),
    ("batch-leftover-beyond-N", "game", "tuple(range(N - p + 1, N + 1))",
     "tuple(range(N - p + 2, N + 2))", [f"{BORN}::test_batch_schedules_up_to_40_are_born_valid"],
     30),
    ("reduce-keeps-a-gamma-row", "solver", "enumerate(earlier, start=1) if u not in wit.gamma",
     "enumerate(earlier, start=2) if u not in wit.gamma",
     [f"{BORN}::test_batch_reduce_chain_is_born_checked"], 30),
    ("reduce-keeps-an-id-of-C", "solver", "if p not in wit.C)",
     "if p not in wit.C or p == min(wit.C))", [f"{BORN}::test_batch_reduce_chain_is_born_checked"],
     30),
    ("support-probability-dropped", "online", "for (sets, _), p in support))",
     "for (sets, _), p in support[1:]))", [f"{BORN}::test_game_values_are_born_checked"], 30),
    # A schedule born checked is marked valid, and the batch schedule checks
    # its own params, as no constructor does it for it.
    ("born-schedule-not-marked", "game", "(*fields, True)", "(*fields, False)",
     ["tests/test_solver.py::test_schedule_validated_once"], 30),
    ("batch-params-unchecked", "game", "    _check_params(params)\n    return _batch_schedule",
     "    return _batch_schedule",
     ["tests/test_game.py::test_schedule_params_must_be_game_params"], 30),
]


def run_tests(copy: Path, tests: list[str], seconds: float) -> str:
    """'pass', 'fail' or 'timeout' for pytest on ``tests`` in ``copy``;
    any other pytest outcome (a test id not found, say) is its exit code."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return {0: "pass", 1: "fail"}.get(code, f"pytest exit {code}")


def check(copy: Path, passed: set, module: str, old: str, new: str, tests: list[str],
          seconds: float) -> str:
    """What became of one entry: 'killed', or why the gate fails on it.
    ``passed`` holds the sets of tests already seen to pass unedited."""
    path = copy / "src" / "faultsched" / f"{module}.py"
    text = path.read_text()
    if text.count(old) != 1:
        return f"old text found {text.count(old)} times in {module}.py, not once"
    if tuple(tests) not in passed:
        outcome = run_tests(copy, tests, seconds)
        if outcome != "pass":
            return f"unedited tests: {outcome}"
        passed.add(tuple(tests))
    path.write_text(text.replace(old, new))
    try:
        outcome = run_tests(copy, tests, seconds)
    finally:
        path.write_text(text)
    return "killed" if outcome == "fail" else f"survived: {outcome}"


def main() -> int:
    failed, passed = 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, copy / folder,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for entry in MUTANTS:
            start = time.perf_counter()
            result = check(copy, passed, *entry[1:])
            failed += result != "killed"
            print(f"{entry[0]:<30} {result} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
