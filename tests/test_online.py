import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import faultsched

from faultsched import (
    AdversaryPolicy,
    BudgetExceededError,
    GameParams,
    GameValue,
    MatrixGameSolution,
    Schedule,
    adversary_best_response,
    apriori_upper_bound,
    online_game_value,
    solve_zero_sum,
    trivial_schedule,
)


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

    def test_certificate_checked_under_optimize_flag(self):
        """The value certificate must not be an ``assert``: ``python -O``
        strips those, and a corrupted simplex would go unnoticed."""
        script = textwrap.dedent("""
            from faultsched import matrixgame
            simplex = matrixgame._simplex_max

            def doubled(a, k):
                z, duals = simplex(a, k)
                return [2 * x for x in z], duals

            matrixgame._simplex_max = doubled
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


class TestGameValue:
    def test_probabilities_must_sum_to_one(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(
                value=Fraction(2),
                mode="randomized",
                strategy_support=((s, Fraction(1, 2)),),
            )

    def test_probabilities_nonnegative(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(
                value=Fraction(2),
                mode="randomized",
                strategy_support=((s, Fraction(2)), (s, Fraction(-1))),
            )

    def test_deterministic_singleton(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(
                value=Fraction(2),
                mode="deterministic",
                strategy_support=((s, Fraction(1, 2)), (s, Fraction(1, 2))),
            )

    def test_unknown_mode(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(ValueError):
            GameValue(value=Fraction(2), mode="mixed", strategy_support=((s, Fraction(1)),))


class TestAdversaryPolicy:
    def test_default_rule(self):
        pol = AdversaryPolicy()
        assert pol.kill(((1, 2),), frozenset()) == 1
        assert pol.kill(((1, 2),), frozenset({1})) == 2
        assert pol.kill(((1, 2),), frozenset({1, 2})) == 1

    def test_table_lookup(self):
        key = (((1, 2),), frozenset())
        pol = AdversaryPolicy(table={key: 2})
        assert pol.kill(((1, 2),), frozenset()) == 2
        assert pol.kill(((1, 2), (1, 2)), frozenset({2})) == 1


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
        assert gv.mode == "deterministic"
        assert len(gv.strategy_support) == 1
        sched, p = gv.strategy_support[0]
        assert p == 1
        assert sched == trivial_schedule(GameParams(4, 2, 1))

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

    def test_guard_too_many_sets(self):
        with pytest.raises(BudgetExceededError):
            online_game_value(GameParams(5, 2, 1), "randomized")

    def test_guard_pool_too_large(self):
        with pytest.raises(BudgetExceededError):
            online_game_value(GameParams(6, 5, 1), "deterministic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            online_game_value(GameParams(4, 2, 1), "stochastic")


class TestAdversaryBestResponse:
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
