import csv
import importlib.util
import io
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import faultsched

from faultsched import (
    Adversary,
    BudgetExceededError,
    GameParams,
    GameValue,
    MatrixGameSolution,
    Schedule,
    adversary_best_response,
    online_game_value,
    solve_zero_sum,
    survival_time,
    trivial_schedule,
    two_pool_brute_optimum,
)
from faultsched import game, matrixgame, online
from faultsched.matrixgame import double_oracle, over_common_denominator
from faultsched.online import _best_response, _kill, _policy_survival, _scheduler_best_response
from reference import apriori_upper_bound


class TestMatrixGame:
    def test_single_entry(self):
        sol = solve_zero_sum([[5]])
        assert sol.value == 5
        assert sol.row_strategy == (Fraction(1),)
        assert sol.col_strategy == (Fraction(1),)

    def test_matching_pennies(self):
        sol = solve_zero_sum([[1, -1], [-1, 1]])
        assert sol.value == 0
        assert sol.row_strategy == (Fraction(1, 2), Fraction(1, 2))
        assert sol.col_strategy == (Fraction(1, 2), Fraction(1, 2))

    def test_rock_paper_scissors(self):
        m = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
        sol = solve_zero_sum(m)
        assert sol.value == 0
        assert sol.row_strategy == (Fraction(1, 3),) * 3
        assert sol.col_strategy == (Fraction(1, 3),) * 3

    def test_column_player_minimizes(self):
        sol = solve_zero_sum([[1, 3]])
        assert sol.value == 1
        assert sol.col_strategy == (Fraction(1), Fraction(0))

    def test_row_player_maximizes(self):
        sol = solve_zero_sum([[1], [3]])
        assert sol.value == 3
        assert sol.row_strategy == (Fraction(0), Fraction(1))

    def test_fraction_entries(self):
        sol = solve_zero_sum([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 4)]])
        lo = min(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))
        hi = max(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))
        assert lo <= sol.value <= hi
        assert isinstance(sol, MatrixGameSolution)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_zero_sum([])
        with pytest.raises(ValueError):
            solve_zero_sum([[]])
        with pytest.raises(ValueError):
            solve_zero_sum([[1], [2, 3]])
        with pytest.raises(ValueError):
            solve_zero_sum([["1/2"]])
        with pytest.raises(ValueError):
            solve_zero_sum([[0.5]])
        with pytest.raises(ValueError):
            solve_zero_sum([[True]])

    @pytest.mark.parametrize("matrix,message", [
        (5, "matrix must be iterable, got int"),
        (None, "matrix must be iterable, got NoneType"),
        ([[1, 2], 3], "matrix row 2 must be iterable, got int"),
    ])
    def test_non_iterable_named(self, matrix, message):
        # These raised a bare TypeError from len().
        with pytest.raises(ValueError) as e:
            solve_zero_sum(matrix)
        assert str(e.value) == message

    def test_rows_are_read_once(self):
        # A one-shot row raised a bare TypeError from len(); it is read as a list.
        assert solve_zero_sum([iter([1, 2])]) == solve_zero_sum([[1, 2]])

    @pytest.mark.parametrize("matrix,row,col", [
        ([[1, 1], [1, 1]], (1, 0), (1, 0)),
        ([[0, 1, 1], [1, 0, 1]], (Fraction(1, 2),) * 2, (Fraction(1, 2),) * 2 + (0,)),
    ])
    def test_degenerate_strategies_pinned(self, matrix, row, col):
        """Several strategies are optimal here; Bland's rule picks these."""
        sol = solve_zero_sum(matrix)
        assert (sol.row_strategy, sol.col_strategy) == (row, col)

    def test_certificate_checked_under_optimize_flag(self):
        """The value certificate must not be an ``assert``: ``python -O``
        strips those, and a corrupted simplex would go unnoticed."""
        script = textwrap.dedent("""
            from faultsched import matrixgame
            pivot = matrixgame._Tableau.pivot

            def doubled(tableau):
                z, u, d = pivot(tableau)
                return [2 * x for x in z], u, d

            matrixgame._Tableau.pivot = doubled
            try:
                matrixgame.solve_zero_sum([[1, 0], [0, 1]])
            except ArithmeticError:
                raise SystemExit(0)
            raise SystemExit("corrupted simplex result was returned")
        """)
        src = str(Path(faultsched.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("corrupt", [
        lambda z, u, d: (z, u, d + 1),
        lambda z, u, d: (z, u[::-1], d),
        lambda z, u, d: (z[::-1], u, d),
    ], ids=["pivot", "duals", "primal"])
    def test_certificate_rejects_wrong_value(self, monkeypatch, corrupt):
        """Distributions that do not attain the value fail the integer
        certificate: here a pivot off by one, or either strategy reversed
        on a game whose optimal strategies are not symmetric."""
        pivot = matrixgame._Tableau.pivot
        monkeypatch.setattr(matrixgame._Tableau, "pivot", lambda t: corrupt(*pivot(t)))
        with pytest.raises(ArithmeticError, match="certificate failed"):
            solve_zero_sum([[3, 0], [0, 1]])

    def test_certificate_checks_strong_duality(self, monkeypatch):
        """On a game of value 0 doubled duals still attain the value, so only
        sum(u) = sum(z) rejects them."""
        pivot = matrixgame._Tableau.pivot

        def doubled_duals(tableau):
            z, u, d = pivot(tableau)
            return z, [2 * x for x in u], d

        monkeypatch.setattr(matrixgame._Tableau, "pivot", doubled_duals)
        with pytest.raises(ArithmeticError, match="not distributions"):
            solve_zero_sum([[1, -1], [-1, 1]])

    def test_matches_fraction_simplex(self):
        """The integer pivots make every pivot the Fraction simplex made,
        so the strategies, not only the value, are the same."""
        rng = random.Random(17)
        matrices = []
        for lo, hi in ((0, 3), (0, 7), (-5, 5), (-20, 20)):
            for _ in range(110):
                m, k = rng.randint(1, 7), rng.randint(1, 7)
                matrices.append([[rng.randint(lo, hi) for _ in range(k)] for _ in range(m)])
        for _ in range(120):
            m, k = rng.randint(1, 7), rng.randint(1, 7)
            matrices.append([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
                             for _ in range(m)])
        for matrix in matrices:
            sol = solve_zero_sum(matrix)
            got = (sol.value, sol.row_strategy, sol.col_strategy)
            assert repr(got) == repr(fraction_solve(matrix)), matrix


# A stand-in game for the double oracle: an explicit 7x7 matrix whose
# optimal row mix has five rows, behind oracles that scan every row or
# column and return the first best one.
STAND_IN = [
    [-1, 2, 7, -9, 5, -2, -8],
    [-4, -6, 2, 6, -2, 3, 8],
    [-6, 9, -2, -9, -3, 4, -1],
    [-4, 3, -4, -7, -5, 5, -5],
    [-5, -9, -9, -3, -3, -4, -4],
    [0, 1, -3, 8, -3, -4, -3],
    [3, 0, -9, 2, 4, -4, -5],
]


def stand_in_oracle(counts=None):
    """``double_oracle``'s arguments for STAND_IN, rows and columns being
    indices; ``counts``, if given, counts the column responses."""
    size = range(len(STAND_IN))

    def row_response(mix):
        gains = [sum(p * STAND_IN[i][j] for j, p in mix) for i in size]
        return max(gains), gains.index(max(gains))

    def col_response(mix):
        if counts is not None:
            counts["col_response"] += 1
        losses = [sum(p * STAND_IN[i][j] for i, p in mix) for j in size]
        return min(losses), losses.index(min(losses))

    return 0, lambda i, j: STAND_IN[i][j], row_response, col_response


class TestDoubleOracle:
    def test_value_is_the_full_games(self):
        value, _ = double_oracle(*stand_in_oracle())
        assert value == solve_zero_sum(STAND_IN).value == Fraction(-931, 983)

    def test_row_mix_guarantees_the_value(self):
        value, mix = double_oracle(*stand_in_oracle())
        assert sum(p for _, p in mix) == 1 and min(p for _, p in mix) > 0
        for j in range(len(STAND_IN)):
            assert sum(p * STAND_IN[i][j] for i, p in mix) >= value

    def test_column_response_runs_once_per_lp_solve(self, monkeypatch):
        """The opening column response also serves round 1."""
        counts = {"col_response": 0, "solve_zero_sum": 0}

        def counted(matrix, solve=matrixgame.solve_zero_sum):
            counts["solve_zero_sum"] += 1
            return solve(matrix)

        monkeypatch.setattr(matrixgame, "solve_zero_sum", counted)
        double_oracle(*stand_in_oracle(counts))
        assert counts["col_response"] == counts["solve_zero_sum"] > 3

    def test_cell_budget(self, monkeypatch):
        monkeypatch.setattr(matrixgame, "_MAX_PAYOFF_CELLS", 20)
        with pytest.raises(BudgetExceededError) as e:
            double_oracle(*stand_in_oracle())
        assert str(e.value) == (
            "double oracle exceeded its budget of 20 payoff-matrix cells over all LP solves")

    def test_pivot_budget_counts_a_tableaus_whole_life(self, monkeypatch):
        """The bound holds over all of a tableau's solves: the double
        oracle's pivots pass a bound of exactly their number, and one
        fewer stops the solve that would make the last pivot."""
        tableaus = []
        init = matrixgame._Tableau.__init__

        def kept(tableau, matrix):
            init(tableau, matrix)
            tableaus.append(tableau)

        monkeypatch.setattr(matrixgame._Tableau, "__init__", kept)
        double_oracle(*stand_in_oracle())
        (tableau,) = tableaus
        used = tableau.pivots
        assert used > len(STAND_IN)
        monkeypatch.setattr(matrixgame, "_MAX_PIVOTS", used)
        assert double_oracle(*stand_in_oracle())[0] == Fraction(-931, 983)
        monkeypatch.setattr(matrixgame, "_MAX_PIVOTS", used - 1)
        with pytest.raises(BudgetExceededError) as e:
            double_oracle(*stand_in_oracle())
        assert str(e.value) == f"exact LP exceeded its budget of {used - 1} pivots"


def test_grown_tableau_matches_cold_solve(monkeypatch):
    """A tableau grown one row or one column at a time, in random order,
    to 1-8 rows and columns of ints and Fractions of either sign, has
    after every step the value ``solve_zero_sum`` gives the same matrix,
    and passes its certificate.  The games reach dual steps, whose
    pivots are negative, and rebuilds for a new minimum or denominator."""
    seen = {"dual": 0, "rebuild": 0}
    pivot, rebuild = matrixgame._Tableau.pivot, matrixgame._Tableau.rebuild

    def spied_pivot(tableau):
        seen["dual"] += any(row[-1] < 0 for row in tableau.a[:-1])
        return pivot(tableau)

    def spied_rebuild(tableau):
        seen["rebuild"] += hasattr(tableau, "a")
        rebuild(tableau)

    monkeypatch.setattr(matrixgame._Tableau, "pivot", spied_pivot)
    monkeypatch.setattr(matrixgame._Tableau, "rebuild", spied_rebuild)
    rng = random.Random(35)

    def entry():
        x = rng.randint(-9, 9)
        return Fraction(x, rng.randint(2, 4)) if rng.random() < 0.1 else x

    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        tableau = matrixgame._Tableau([[entry()]])
        while len(tableau) < rows or len(tableau[0]) < cols:
            if len(tableau[0]) == cols or (len(tableau) < rows and rng.random() < 0.5):
                tableau.append([entry() for _ in tableau[0]])
            else:
                for row in tableau:
                    row.append(entry())
            matrix = [row[:] for row in tableau]
            assert solve_zero_sum(tableau).value == solve_zero_sum(matrix).value, matrix
            assert tableau.d > 0
    assert seen["dual"] > 0 and seen["rebuild"] > 0, seen


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
                max_size=12))
def test_over_common_denominator_matches_fraction_arithmetic(xs):
    """The numerators over the least common denominator are the values,
    for ints and Fractions of either sign, zero and the empty list."""
    nums, den = over_common_denominator(xs)
    assert type(den) is int and den == math.lcm(*(Fraction(x).denominator for x in xs))
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, den) for n in nums] == xs


def test_over_common_denominator_of_nothing():
    assert over_common_denominator([]) == ([], 1)


@pytest.mark.parametrize("xs,name", [([True], "bool"), ([Fraction(1, 2), 0.5], "float"),
                                     ([1, "2"], "str"), ([2.0, "x", False], "bool")])
def test_over_common_denominator_names_the_first_bad_type(xs, name):
    """Of the types that are not int or Fraction, the message names the
    alphabetically first."""
    with pytest.raises(ValueError) as e:
        over_common_denominator(xs)
    assert str(e.value) == f"values must be int or Fraction, got {name}"


def fraction_simplex_max(a, k):
    """The simplex over Fraction that the integer pivots replaced: Bland's
    rule, each pivot row divided through by its pivot."""
    m = len(a)
    width = k + m
    basis = [k + i for i in range(m)]
    objective = [Fraction(-1)] * k + [Fraction(0)] * (m + 1)
    a.append(objective)
    while True:
        enter = next((j for j in range(width) if objective[j] < 0), -1)
        if enter == -1:
            break
        best_ratio, leave = None, -1
        for i in range(m):
            if a[i][enter] > 0:
                ratio = a[i][width] / a[i][enter]
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        piv = a[leave][enter]
        a[leave] = [x / piv for x in a[leave]]
        for i in range(m + 1):
            if i != leave and a[i][enter] != 0:
                factor = a[i][enter]
                a[i] = [x - factor * y for x, y in zip(a[i], a[leave])]
        objective = a[m]
        basis[leave] = enter
    z = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            z[b] = a[i][width]
    return z, objective[k:width]


def fraction_solve(matrix):
    """(value, row strategy, column strategy) from ``fraction_simplex_max``."""
    m, k = len(matrix), len(matrix[0])
    low = min(min(row) for row in matrix)
    shift = Fraction(1) - low if low < 1 else Fraction(0)
    tableau = [[matrix[i][j] + shift for j in range(k)]
               + [Fraction(int(i == r)) for r in range(m)] + [Fraction(1)] for i in range(m)]
    z, duals = fraction_simplex_max(tableau, k)
    inv = Fraction(1) / sum(z)
    return inv - shift, tuple(u * inv for u in duals), tuple(zj * inv for zj in z)


class TestGameValue:
    def test_probabilities_must_sum_to_one(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(
                value=Fraction(2),
                strategy_support=((s, Fraction(1, 2)),),
            )

    def test_probabilities_nonnegative(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(
                value=Fraction(2),
                strategy_support=((s, Fraction(2)), (s, Fraction(-1))),
            )

    def test_empty_support_does_not_sum_to_one(self):
        with pytest.raises(ValueError, match="must sum to 1"):
            GameValue(value=Fraction(2), strategy_support=())

    @pytest.mark.parametrize("weight,name", [(1.0, "float"), (True, "bool")])
    def test_probabilities_must_be_int_or_fraction(self, weight, name):
        # A float weight used to die with a bare AttributeError, and True
        # passed as 1.
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError) as e:
            GameValue(value=Fraction(1), strategy_support=((s, weight),))
        assert str(e.value) == f"values must be int or Fraction, got {name}"

    @pytest.mark.parametrize("value,name", [(1.5, "float"), (True, "bool"), ("x", "str"),
                                            (None, "NoneType")])
    def test_value_must_be_int_or_fraction(self, value, name):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError) as e:
            GameValue(value=value, strategy_support=((s, Fraction(1)),))
        assert str(e.value) == f"values must be int or Fraction, got {name}"

    def test_iterator_support_is_read_once(self):
        """The check and the stored field read the support once; an
        iterator used to be used up by the check and stored empty."""
        s = trivial_schedule(GameParams(4, 2, 1))
        gv = GameValue(Fraction(2), iter([(s, Fraction(1, 2)), (s, Fraction(1, 2))]))
        assert gv.strategy_support == ((s, Fraction(1, 2)), (s, Fraction(1, 2)))

    def test_list_support_is_stored_as_a_tuple_of_pairs(self):
        """A list of lists is stored as the tuple of pairs, so the value
        hashes and equals the one built from tuples."""
        s = trivial_schedule(GameParams(4, 2, 1))
        gv = GameValue(Fraction(2), [[s, Fraction(1)]])
        twin = GameValue(Fraction(2), ((s, Fraction(1)),))
        assert type(gv.strategy_support) is tuple and gv.strategy_support == ((s, Fraction(1)),)
        assert gv == twin and hash(gv) == hash(twin) and repr(gv) == repr(twin)

    @pytest.mark.parametrize("support,name", [(None, "NoneType"), (1, "int")])
    def test_support_that_is_not_iterable_is_named(self, support, name):
        with pytest.raises(ValueError, match=f"^strategy_support must be iterable, got {name}$"):
            GameValue(Fraction(2), support)

    def test_entry_that_is_not_a_schedule_is_named(self):
        # This used to construct.
        with pytest.raises(ValueError) as e:
            GameValue(Fraction(1), [("x", Fraction(1))])
        assert str(e.value) == (
            "strategy_support must hold (Schedule, probability) pairs, got ('x', Fraction(1, 1))")

    def test_bare_schedule_entry_is_named(self):
        # This used to raise a bare TypeError.
        s = trivial_schedule(GameParams(3, 2, 1))
        with pytest.raises(ValueError) as e:
            GameValue(Fraction(1), [s])
        assert str(e.value) == f"strategy_support must hold (Schedule, probability) pairs, got {s!r}"


def mask(ids):
    """The bit mask of a set of processor ids."""
    return sum(1 << p for p in ids)


def masks(sets):
    """The bit masks of a schedule's sets, as ``_policy_survival`` takes them."""
    return tuple(map(mask, sets))


def tree(table):
    """The policy tree that holds the kills of ``table``, a dict from
    (sets revealed so far, kill set) to a kill."""
    root = {}
    for (prefix, killed), kill in table.items():
        nodes = root
        for row in prefix:
            node = nodes.setdefault(mask(row), [row, 0, {}, 0, {}])
            nodes = node[4]
        node[2][mask(killed)] = (None, kill)
    return root


def table(policy):
    """Every kill a policy tree holds, as a dict from (sets revealed so
    far, kill set) to the kill."""
    out, stack = {}, [((), policy)]
    while stack:
        prefix, nodes = stack.pop()
        for node in nodes.values():
            sets = prefix + (node[0],)
            for killed, (_, kill) in node[2].items():
                dead = frozenset(p for p in range(killed.bit_length()) if killed >> p & 1)
                out[sets, dead] = kill
            stack.append((sets, node[4]))
    return out


def play(policy, sets):
    """The kills of ``policy`` against ``sets``, walking its tree."""
    kills, killed, nodes = [], 0, policy
    for row in sets:
        node = nodes.get(mask(row))
        kills.append(_kill(node, mask(row), killed))
        killed |= 1 << kills[-1]
        nodes = node[4] if node else {}
    return kills


class TestAdversaryPolicy:
    """An adversary policy is a prefix tree whose nodes hold kills by
    kill mask, applied by ``_kill``."""

    def test_default_rule(self):
        assert _kill(None, mask((1, 2)), 0) == 1
        assert _kill(None, mask((1, 2)), mask({1})) == 2
        assert _kill(None, mask((1, 2)), mask({1, 2})) == 1

    def test_default_rule_ignores_row_order(self):
        """The fallback is the least live member, else the least member,
        however the current row is ordered, off the tree or at a node
        without the observation."""
        for row in itertools.permutations((3, 1, 4, 2)):
            for killed in ((), (1,), (1, 2), (2, 3, 4), (1, 2, 3, 4)):
                alive = sorted(set(row) - set(killed))
                expected = alive[0] if alive else 1
                for node in (None, [row, 0, {mask((5,)): (None, 5)}, 0, {}]):
                    assert _kill(node, mask(row), mask(killed)) == expected

    def test_table_lookup(self):
        policy = tree({(((1, 2),), frozenset()): 2})
        node = policy[mask((1, 2))]
        assert _kill(node, mask((1, 2)), 0) == 2
        assert _kill(node[4].get(mask((1, 2))), mask((1, 2)), mask({2})) == 1


def simple_best_response(params: GameParams, support) -> Fraction:
    """Plain recursive expectimin over the support, written without any
    of the solver's machinery; used to certify reported values."""
    f, last = params.f, params.N

    def val(t, killed, weighted):
        groups = {}
        for sets, w in weighted:
            groups.setdefault(sets[t - 1], []).append((sets, w))
        total = sum(w for _, w in weighted)
        out = Fraction(0)
        for row, member in sorted(groups.items()):
            mass = sum(w for _, w in member)
            best = None
            for s in row:
                nk = killed | {s}
                if len(nk & set(row)) > f:
                    cand = Fraction(t - 1)
                elif t == last:
                    cand = Fraction(last)
                else:
                    cand = val(t + 1, nk, member)
                if best is None or cand < best:
                    best = cand
            out += (mass / total) * best
        return out

    return val(1, frozenset(), [(s.sets, w) for s, w in support])


class TestOnlineGameValue:
    def test_deterministic_known_value(self):
        gv = online_game_value(GameParams(4, 2, 1), "deterministic")
        assert gv.value == Fraction(2)
        assert len(gv.strategy_support) == 1
        sched, p = gv.strategy_support[0]
        assert p == 1
        assert sched == trivial_schedule(GameParams(4, 2, 1))

    def test_deterministic_solve_checks_params_and_computes_h_once(self, monkeypatch):
        calls = []
        for mod in (game, online):
            for name in ("_check_params", "h_value"):
                if hasattr(mod, name):
                    fn = getattr(mod, name)
                    monkeypatch.setattr(mod, name,
                                        lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        first = online_game_value(GameParams(5, 5, 3), "deterministic")
        assert sorted(calls) == ["_check_params", "h_value"]
        assert first.value == 3
        second = online_game_value(GameParams(4, 2, 1), "deterministic")
        assert first.strategy_support[0][1] is second.strategy_support[0][1] == 1

    @pytest.mark.parametrize("n,f", [(3, 1), (3, 2), (4, 2)])
    def test_single_set_pool_randomized(self, n, f):
        gv = online_game_value(GameParams(N=n, n=n, f=f), "randomized")
        assert gv.value == Fraction(f)

    def test_small_randomized_instance(self):
        params = GameParams(3, 2, 1)
        det = online_game_value(params, "deterministic")
        rand = online_game_value(params, "randomized")
        assert det.value <= rand.value <= Fraction(apriori_upper_bound(params))
        assert rand.value >= Fraction(params.f)
        assert sum(p for _, p in rand.strategy_support) == 1
        assert adversary_best_response(params, rand.strategy_support) == rand.value
        assert simple_best_response(params, rand.strategy_support) == rand.value

    @pytest.mark.parametrize("params,value,support", [
        (GameParams(3, 2, 1), Fraction(3, 2), [
            (((1, 2), (2, 3), (1, 2)), Fraction(1, 2)),
            (((1, 2), (1, 3), (1, 2)), Fraction(1, 2)),
        ]),
        (GameParams(4, 3, 1), Fraction(4, 3), [
            (((1, 2, 3), (2, 3, 4), (1, 2, 3), (1, 2, 3)), Fraction(1, 3)),
            (((1, 2, 3), (1, 3, 4), (1, 2, 3), (1, 2, 3)), Fraction(1, 3)),
            (((1, 2, 3), (1, 2, 4), (1, 2, 3), (1, 2, 3)), Fraction(1, 3)),
        ]),
        (GameParams(4, 2, 1), Fraction(9, 4), [
            (((2, 3), (1, 4), (3, 4), (1, 2)), Fraction(1, 4)),
            (((2, 3), (1, 4), (2, 4), (1, 2)), Fraction(1, 4)),
            (((2, 3), (1, 4), (1, 3), (1, 2)), Fraction(1, 4)),
            (((2, 3), (1, 4), (1, 2), (1, 2)), Fraction(1, 4)),
        ]),
        (GameParams(5, 4, 1), Fraction(5, 4), [
            (((2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)),
             Fraction(1, 4)),
            (((2, 3, 4, 5), (1, 2, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)),
             Fraction(1, 4)),
            (((2, 3, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)),
             Fraction(1, 4)),
            (((2, 3, 4, 5), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)),
             Fraction(1, 4)),
        ]),
        (GameParams(4, 3, 2), Fraction(8, 3), [
            (((1, 2, 3), (1, 2, 3), (2, 3, 4), (1, 3, 4)), Fraction(1, 3)),
            (((1, 2, 3), (1, 2, 3), (1, 3, 4), (1, 3, 4)), Fraction(1, 3)),
            (((1, 2, 3), (1, 2, 3), (1, 2, 4), (2, 3, 4)), Fraction(1, 3)),
        ]),
    ] + [(GameParams(N, N, f), Fraction(f), [((tuple(range(1, N + 1)),) * N, Fraction(1))])
          for N in range(2, 6) for f in range(1, N)])
    def test_randomized_support_pinned(self, params, value, support):
        """Sets, weights and order of the double oracle's support on all 15
        guarded cells it solves: a single set is played as the batch
        schedule."""
        gv = online_game_value(params, "randomized")
        assert gv.value == value
        assert [(s.sets, p) for s, p in gv.strategy_support] == support

    def test_opening_best_response_runs_once(self, monkeypatch):
        """Round 1's LP plays the opening schedule alone, whose best
        response is already known, so each LP solve is followed by at
        most one adversary best response, and the opening one stands in
        for round 1's."""
        calls = {"_best_response": 0, "solve_zero_sum": 0}
        for module, name in ((online, "_best_response"), (matrixgame, "solve_zero_sum")):
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, counted)
        for params in (GameParams(3, 2, 1), GameParams(4, 3, 1), GameParams(5, 5, 4)):
            online_game_value(params, "randomized")
        assert calls["_best_response"] == calls["solve_zero_sum"] > 3

    def test_randomized_validates_no_schedule(self, validations):
        """Every schedule the double oracle plays is built in the module, so
        none needs validating."""
        online_game_value(GameParams(3, 2, 1), "randomized")
        assert validations == []

    def test_guard_too_many_sets(self):
        with pytest.raises(BudgetExceededError):
            online_game_value(GameParams(5, 2, 1), "randomized")

    def test_guard_pool_too_large(self):
        with pytest.raises(BudgetExceededError):
            online_game_value(GameParams(6, 5, 1), "deterministic")

    def test_guard_tests_pool_before_binomial(self):
        """C(100000, 50000) has about 30,000 digits; the guard rejects N
        first and never computes or prints it."""
        params = GameParams(100_000, 50_000, 1)
        with pytest.raises(BudgetExceededError, match=r"got N=100000$"):
            online_game_value(params, "deterministic")
        with pytest.raises(BudgetExceededError, match=r"got N=100000$"):
            adversary_best_response(params, ())

    def test_params_that_are_not_game_params(self):
        # Both used to raise AttributeError on params.N.
        s = trivial_schedule(GameParams(3, 2, 1))
        for call in (lambda: online_game_value((3, 2, 1), "randomized"),
                     lambda: adversary_best_response((3, 2, 1), ((s, Fraction(1)),))):
            with pytest.raises(ValueError) as e:
                call()
            assert str(e.value) == "params must be a GameParams, got tuple"

    def test_guard_names_binomial_within_pool(self):
        with pytest.raises(BudgetExceededError, match=r"got C=10, N=5$"):
            online_game_value(GameParams(5, 2, 1), "deterministic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            online_game_value(GameParams(4, 2, 1), "stochastic")


def load_script(name):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("max_n,code", [(4, 0), (6, 3)])
def test_online_value_table_exit_code(monkeypatch, capsys, max_n, code):
    """Cells past the size guard are printed as skipped and make the
    script exit 3.  Both columns are the closed form here, which keeps
    the sweep fast and goes through the same guard."""
    script = load_script("online_value_table")
    monkeypatch.setattr(script, "online_game_value",
                        lambda params, mode: online_game_value(params, "deterministic"))
    monkeypatch.setattr(sys, "argv", ["online_value_table.py", "--max-N", str(max_n)])
    assert script.main() == code
    lines = capsys.readouterr().out.splitlines()
    cells = sum(n - 1 for big_n in range(2, max_n + 1) for n in range(2, big_n + 1))
    assert len(lines) == 1 + cells
    skipped = {line.split(" skipped")[0] for line in lines if " skipped " in line}
    assert ("6 5 1" in skipped) == (max_n == 6)
    assert "4 2 1" not in skipped


@pytest.mark.parametrize("script_name,argv", [
    ("online_value_table", ["--max-N", "1"]),
    ("two_pool_tightness", ["--max-pool", "0"]),
    ("two_pool_tightness", ["--max-pool", "2", "--max-states", "0"]),
    ("online_value_table", ["--max-N", "x"]),
    ("online_value_table", ["--bogus"]),
    ("two_pool_tightness", ["--max-pool", "x"]),
    ("two_pool_tightness", ["--max-states", "1.5"]),
    ("two_pool_tightness", ["--bogus"]),
])
def test_scripts_reject_out_of_range_arguments(monkeypatch, capsys, script_name, argv):
    """A bad argument, out of range or malformed or unknown, exits 1 with
    one line on stderr, never argparse's 2: two_pool_tightness.py exits 2
    on a mismatch."""
    script = load_script(script_name)
    monkeypatch.setattr(sys, "argv", [f"{script_name}.py", *argv])
    assert script.main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,code,blank", [
    (["--max-pool", "2"], 0, 0),
    (["--max-pool", "4", "--max-states", "1"], 3, 1),
    (["--max-pool", "3"], 0, 0),
])
def test_two_pool_tightness_exit_code(monkeypatch, capsys, argv, code, blank):
    """A cell whose search exceeds --max-states keeps its row, with blank
    brute and gap columns, and makes the script exit 3.  Cells past the
    probe's size guard (n > 4 at --max-pool 3) are not swept."""
    script = load_script("two_pool_tightness")
    monkeypatch.setattr(sys, "argv", ["two_pool_tightness.py", *argv])
    assert script.main() == code
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == {"2": 19, "3": 69, "4": 139}[argv[1]]
    assert sum(r["brute"] == "" for r in rows) == blank


def test_two_pool_tightness_bound_above_optimum(monkeypatch, capsys):
    script = load_script("two_pool_tightness")
    monkeypatch.setattr(script, "two_pool_best_split",
                        lambda tp: (two_pool_brute_optimum(tp) + 1, None))
    monkeypatch.setattr(sys, "argv", ["two_pool_tightness.py", "--max-pool", "2"])
    assert script.main() == 2
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 19
    assert {r["gap"] for r in rows} == {"-1"}


def replayed_survival(params, sets, policy):
    """The policy's kills, then the validated public ``survival_time``."""
    kills = tuple(play(policy, sets))
    return survival_time(Schedule(params=params, sets=sets), Adversary(kills=kills))


def lazy_policy(params):
    """The table of the adversary that always kills the lowest id in the
    set, dead or not, so some schedules survive to the end: one entry for
    each observation its own play reaches on a pure schedule."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    policy = {}
    for sets in itertools.product(candidates, repeat=params.N):
        killed = frozenset()
        for t, row in enumerate(sets, start=1):
            policy[sets[:t], killed] = row[0]
            killed |= {row[0]}
    return tree(policy)


def test_policy_survival_matches_replay():
    params = GameParams(3, 2, 1)
    pure = list(itertools.product(itertools.combinations(range(1, 4), 2), repeat=3))
    rng = random.Random(5)
    policies = [{}, lazy_policy(params)]
    for _ in range(20):
        chosen = rng.sample(pure, rng.randint(1, 4))
        weights = [rng.randint(1, 5) for _ in chosen]
        support = [(sets, Fraction(w, sum(weights))) for sets, w in zip(chosen, weights)]
        policies.append(_best_response(params, support)[1])
    seen = set()
    for policy in policies:
        for sets in pure:
            got = _policy_survival(params, masks(sets), policy)
            assert got == replayed_survival(params, sets, policy)
            seen.add(got)
    assert seen == {1, 2, 3}


def fraction_best_response(params, support):
    """The adversary best response over Fraction that the integer one
    replaced: posterior weights normalized at every prefix."""
    f, length = params.f, params.N
    table, memo = {}, {}

    def continuations(prefix):
        t = len(prefix)
        agg = {}
        for sets, w in support:
            if sets[:t] == prefix:
                agg[sets[t]] = agg.get(sets[t], Fraction(0)) + w
        total = sum(agg.values())
        return [(prefix + (a,), w / total) for a, w in sorted(agg.items())]

    def decide(prefix, killed):
        key = (prefix, killed)
        if key in memo:
            return memo[key]
        t, current = len(prefix), prefix[-1]
        conts = continuations(prefix) if t < length else []
        best, best_kill = None, current[0]
        for s in current:
            nxt = killed | {s}
            if len(nxt & set(current)) > f:
                val = Fraction(t - 1)
            elif t == length:
                val = Fraction(length)
            else:
                val = sum((w * decide(child, nxt) for child, w in conts), Fraction(0))
            if best is None or val < best:
                best, best_kill = val, s
        table[key] = best_kill
        memo[key] = best
        return best

    value = sum((w * decide(child, frozenset()) for child, w in continuations(())), Fraction(0))
    return value, table


@pytest.mark.parametrize("params", [GameParams(3, 2, 1), GameParams(4, 3, 1),
                                    GameParams(4, 2, 1), GameParams(5, 4, 2),
                                    GameParams(5, 5, 3)])
def test_best_response_matches_fraction_dp(params):
    """Integer masses over one member per symmetry class give the value
    of normalized Fraction posteriors over every member, and the same
    kill in every state they decide.  The states they skip are ones the
    policy never reaches in its own play: every state it reaches along a
    support schedule is held.  With a single set every state after the
    first kill offers re-kills of dead members."""
    for support in random_supports(params, 25):
        value, policy = _best_response(params, support)
        ref_value, ref_table = fraction_best_response(params, support)
        assert repr(value) == repr(ref_value)
        held = table(policy)
        assert all(ref_table[state] == kill for state, kill in held.items())
        for sets, _ in support:
            killed = frozenset()
            for t, row in enumerate(sets, start=1):
                assert (sets[:t], killed) in held
                killed |= {held[sets[:t], killed]}
                if len(killed.intersection(row)) > params.f:
                    break


def random_supports(params, count):
    """``count`` seeded supports of 1 to 8 distinct random schedules with
    random positive weights."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    rng = random.Random(params.N * 100 + params.n * 10 + params.f)
    for _ in range(count):
        chosen = list(dict.fromkeys(tuple(rng.choice(candidates) for _ in range(params.N))
                                    for _ in range(rng.randint(1, 8))))
        weights = [rng.randint(1, 9) for _ in chosen]
        yield [(sets, Fraction(w, sum(weights))) for sets, w in zip(chosen, weights)]


@pytest.mark.parametrize("params", [GameParams(3, 2, 1), GameParams(4, 3, 1), GameParams(4, 2, 1)])
def test_reduced_policy_plays_as_the_full_table(params):
    """As a policy, the full Fraction table kills as the reduced one does
    against every pure schedule, so both survive equally long: the
    states the reduction skips are never consulted in play."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    pure = list(itertools.product(candidates, repeat=params.N))
    for support in random_supports(params, 8):
        policy = _best_response(params, support)[1]
        full = fraction_best_response(params, support)[1]
        assert len(table(policy)) <= len(full)
        full = tree(full)
        for sets in pure:
            assert play(policy, sets) == play(full, sets)
            assert _policy_survival(params, masks(sets), policy) == _policy_survival(
                params, masks(sets), full)


@pytest.mark.parametrize("params,states", [(GameParams(5, 5, 4), 11), (GameParams(5, 5, 2), 8)])
def test_best_response_tries_one_member_per_class(params, states):
    """Against the single-set batch support every fresh member has the
    same future, so each state tries one fresh kill and one re-kill; the
    full dynamic program holds 76 states at (5, 5, 4)."""
    support = [(trivial_schedule(params).sets, Fraction(1))]
    value, policy = _best_response(params, support)
    assert len(table(policy)) == states
    assert value == fraction_best_response(params, support)[0]


def enumerated_scheduler_best_response(params, policies):
    """Every pure schedule in ``itertools.product`` order against the
    mix, keeping the first maximizer."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    best, best_sets = None, ()
    for sets in itertools.product(candidates, repeat=params.N):
        ev = sum(w * _policy_survival(params, masks(sets), pol) for pol, w in policies)
        if best is None or ev > best:
            best, best_sets = ev, sets
    return best, best_sets


@pytest.mark.parametrize("params", [GameParams(3, 2, 1), GameParams(4, 3, 1), GameParams(4, 2, 1)])
def test_scheduler_best_response_matches_enumeration(params):
    """The pruned prefix search returns the value and the first maximizer
    of full enumeration; the default and lazy policies add ties and
    schedules that survive all N rounds."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    pure = list(itertools.product(candidates, repeat=params.N))
    rng = random.Random(params.N * 100 + params.n * 10 + params.f)
    lazy = lazy_policy(params)
    for _ in range(8):
        policies = [{}, lazy][:rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3)):
            chosen = rng.sample(pure, rng.randint(1, 5))
            weights = [rng.randint(1, 5) for _ in chosen]
            support = [(sets, Fraction(w, sum(weights))) for sets, w in zip(chosen, weights)]
            policies.append(_best_response(params, support)[1])
        weights = [rng.randint(1, 7) for _ in policies]
        mix = [(pol, Fraction(w, sum(weights))) for pol, w in zip(policies, weights)]
        value, (sets, set_masks) = _scheduler_best_response(params, mix)
        assert repr((value, sets)) == repr(enumerated_scheduler_best_response(params, mix))
        assert set_masks == masks(sets)


class TestAdversaryBestResponse:
    def test_bare_schedule_entry_is_named(self):
        # This used to raise a bare TypeError.
        params = GameParams(3, 2, 1)
        s = trivial_schedule(params)
        with pytest.raises(ValueError) as e:
            adversary_best_response(params, [s])
        assert str(e.value) == f"support must hold (Schedule, probability) pairs, got {s!r}"

    def test_entry_that_is_not_a_schedule_is_named(self):
        # This used to raise AttributeError.
        with pytest.raises(ValueError) as e:
            adversary_best_response(GameParams(3, 2, 1), [("x", Fraction(1))])
        assert str(e.value) == (
            "support must hold (Schedule, probability) pairs, got ('x', Fraction(1, 1))")

    def test_zero_weight_entry_changes_nothing(self):
        """The support is read as GameValue reads it, so a schedule of
        probability 0 may stand in it and does not move the value."""
        params = GameParams(3, 2, 1)
        rand = online_game_value(params, "randomized")
        swapped = Schedule(params, ((1, 3), (1, 2), (2, 3)))
        padded = rand.strategy_support + ((swapped, Fraction(0)),)
        assert adversary_best_response(params, padded) == rand.value

    def test_point_mass_on_trivial(self):
        params = GameParams(4, 2, 1)
        support = ((trivial_schedule(params), Fraction(1)),)
        br = adversary_best_response(params, support)
        assert br == Fraction(2)
        assert br == simple_best_response(params, support)

    def test_mixing_beats_any_pure_schedule(self):
        params = GameParams(3, 2, 1)
        rand = online_game_value(params, "randomized")
        pure = ((trivial_schedule(params), Fraction(1)),)
        assert adversary_best_response(params, pure) <= rand.value

    def test_weights_validated(self):
        params = GameParams(4, 2, 1)
        s = trivial_schedule(params)
        with pytest.raises(ValueError):
            adversary_best_response(params, ((s, Fraction(1, 2)),))
        with pytest.raises(ValueError):
            adversary_best_response(params, ())
        short = Schedule(params=params, sets=((1, 2), (3, 4)))
        with pytest.raises(ValueError):
            adversary_best_response(params, ((short, Fraction(1)),))
        other = trivial_schedule(GameParams(3, 2, 1))
        with pytest.raises(ValueError):
            adversary_best_response(params, ((other, Fraction(1)),))
        small = GameParams(3, 2, 1)
        swapped = Schedule(params=small, sets=((1, 3), (1, 2), (2, 3)))
        for support in (((other, 0.5), (swapped, 0.5)), ((other, True),), ((other, "1"),),
                        ((other, None),)):
            with pytest.raises(ValueError, match="values must be int or Fraction, got "):
                adversary_best_response(small, support)
        for sets in (((1, 2), (1, 2, 3), (7, 9)), ((1, 1), (2, 3), (1, 3))):
            bad = Schedule(params=small, sets=sets)
            with pytest.raises(ValueError, match="invalid schedule"):
                adversary_best_response(small, ((bad, Fraction(1)),))
