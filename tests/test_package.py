import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import faultsched
from faultsched import game, online, oracle, twopool

PUBLIC = [
    "Adversary", "BipartiteGraph", "BudgetExceededError",
    "DeficiencyWitness", "GameParams", "GameValue", "Matching", "MatrixGameSolution",
    "MembershipReport", "PInstance", "Schedule", "TwoPoolParams", "Violation",
    "adversary_best_response", "adversary_to_dict", "brute_adversary_min", "brute_optimum",
    "deficiency_witness", "first_killable_time", "h_value", "instance_to_dict",
    "load_adversary", "load_instance", "load_schedule", "max_matching", "membership_in_P",
    "minimal_adversary", "minimal_survival_time", "online_game_value",
    "optimum_survival_time", "reduce_instance", "save_adversary",
    "save_instance", "save_schedule", "schedule_to_dict",
    "solve_zero_sum", "survival_time", "surviving_prefix_instance", "time_graph",
    "trivial_schedule", "two_pool_best_split", "two_pool_brute_optimum",
    "two_pool_lower_bound", "validate_adversary", "validate_schedule",
]

# Public names that no command, library function, script or benchmark
# uses yet, each with why it stays.
UNCALLED = {
    "surviving_prefix_instance": "ROADMAP item 5's replayable upper bound gives it a caller",
    "adversary_best_response": "the published check of on-line values, which items 10 and 12 "
                               "build on",
}


def test_all_is_unchanged():
    assert faultsched.__all__ == PUBLIC


def test_each_name_is_its_home_modules_object():
    for name in PUBLIC:
        value = getattr(faultsched, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_dir_and_unknown_name():
    assert set(PUBLIC) <= set(dir(faultsched))
    with pytest.raises(AttributeError, match="no_such_name"):
        faultsched.no_such_name  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from faultsched import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(faultsched, name) for name in PUBLIC)


def test_submodule_attribute_in_fresh_process():
    code = ("import faultsched, sys\n"
            "assert 'faultsched.solver' not in sys.modules\n"
            "print(faultsched.solver.__name__)")
    src = str(Path(faultsched.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "faultsched.solver\n", "")


def test_one_budget_error_class():
    assert faultsched.BudgetExceededError is game.BudgetExceededError
    assert oracle.BudgetExceededError is game.BudgetExceededError
    assert twopool.BudgetExceededError is game.BudgetExceededError
    assert online.BudgetExceededError is game.BudgetExceededError


def test_readme_example():
    """The README's example prints 2, and the sets and kills its comments
    show are the ones the code returns (which kills is
    implementation-defined, so a change there must update the README)."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, namespace)
    assert out.getvalue() == "2\n"
    sets = re.search(r"# sets (.*)", code).group(1)
    kills = re.search(r"# kills (.*)", code).group(1)
    assert ast.literal_eval(f"({sets},)") == namespace["s"].sets
    assert ast.literal_eval(kills) == namespace["adv"].kills


def test_modules_stay_below_the_parser_token_threshold():
    """Each module has fewer than 2,048 tokens, comments and blank-line NL
    tokens aside.  Past about that count CPython 3.11's parser doubles a
    token buffer, and the compile peak of the module jumps by about
    110 KB; without bytecode caches every process that imports the module
    pays it, and the benchmark's ``peak_rss_mb`` showed it when the CLI
    module once crossed the line."""
    for path in sorted(Path(faultsched.__file__).parent.glob("*.py")):
        with tokenize.open(path) as fh:
            count = sum(1 for tok in tokenize.generate_tokens(fh.readline)
                        if tok.type not in (tokenize.COMMENT, tokenize.NL))
        assert count < 2048, f"{path.name} has {count} tokens"


def code_names(path):
    """How often each name occurs as code in ``path`` (comments and
    strings aside), less the name of each ``def`` and ``class``."""
    with tokenize.open(path) as fh:
        names = [tok.string for tok in tokenize.generate_tokens(fh.readline)
                 if tok.type == tokenize.NAME]
    return Counter(names) - Counter(b for a, b in zip(names, names[1:]) if a in ("def", "class"))


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public name is used as code by a library module other than the
    package's ``__init__`` (its own module counts when another function
    there uses it), or named in ``scripts/`` or ``perfbench/``, whose
    tracer names what it wraps as strings.  A name only the tests use
    belongs in tests/reference.py; ``UNCALLED`` lists the exceptions."""
    package = Path(faultsched.__file__).parent
    used = Counter()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used += code_names(path)
    root = package.parents[1]
    outside = "\n".join(path.read_text() for folder in ("scripts", "perfbench")
                        for path in sorted((root / folder).rglob("*"))
                        if path.suffix in (".py", ".sh"))
    uncalled = {name for name in faultsched.__all__
                if not used[name] and not re.search(rf"\b{name}\b", outside)}
    assert uncalled == set(UNCALLED)
