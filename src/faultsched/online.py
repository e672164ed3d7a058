"""Randomized scheduling against an on-line adversary, solved exactly.

The scheduler commits to a probability distribution over full pure
schedules before play; the adversary observes the sets revealed so far
and its own past kills, nothing else, and picks each kill to minimize
the expected survival time.  The value of this zero-sum game is found
by a double oracle: keep finite supports of pure schedules and pure
adversary policies, solve the restricted matrix game exactly, and grow
whichever support admits a strictly improving best response.  The
adversary best response is a posterior-belief dynamic program; the
scheduler best response is a branch-and-bound search over schedule
prefixes that carries every policy of the mix at once.  A size guard
and a budget on LP work keep instances tiny.  All values are exact:
rationals, with integer pivots and integer weights inside.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .game import BudgetExceededError, GameParams, Schedule, _Frozen, _require_valid, trivial_schedule
from .game import survival_time  # noqa: F401 - perfbench/tracer.py wraps online.survival_time
from .matrixgame import over_common_denominator, solve_zero_sum
from .survival import h_value

Sets = tuple[tuple[int, ...], ...]
# What an on-line adversary has seen: the sets revealed so far, its kills.
Observation = tuple[Sets, frozenset[int]]

_MAX_DISTINCT_SETS = 6
_MAX_POOL = 5
# Payoff-matrix cells summed over all LP solves of one double oracle; it
# bounds the rounds too, since a round that goes on adds a row or column.
_MAX_PAYOFF_CELLS = 100_000


class GameValue(_Frozen):
    """Exact game value with the scheduler strategy attaining it: a
    probability distribution over schedules, one schedule with
    probability 1 in deterministic mode."""

    __slots__ = __match_args__ = ("value", "strategy_support")
    value: Fraction
    strategy_support: tuple[tuple[Schedule, Fraction], ...]

    def __init__(
        self, value: Fraction, strategy_support: tuple[tuple[Schedule, Fraction], ...]
    ) -> None:
        probs, scale = over_common_denominator([p for _, p in strategy_support])
        if min(probs, default=0) < 0:
            raise ValueError("strategy probabilities must be nonnegative")
        if sum(probs) != scale:
            raise ValueError("strategy probabilities must sum to 1")
        _Frozen.__init__(self, value, strategy_support)


class AdversaryPolicy(_Frozen):
    """Deterministic on-line kill rule, equal only to itself.

    ``table`` maps an observation (sets revealed through the current
    round, set of past kills) to the kill; observations outside the
    table fall back to the lowest-id not-yet-killed member of the
    current set, or its minimum when all members are dead.  Each policy
    built without a table gets an empty one of its own.
    """

    __slots__ = __match_args__ = ("table",)
    table: dict[Observation, int]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, table: dict[Observation, int] | None = None) -> None:
        _Frozen.__init__(self, {} if table is None else table)

    def kill(self, revealed: Sets, killed: frozenset[int]) -> int:
        current = revealed[-1]
        choice = self.table.get((revealed, killed))
        if choice is not None:
            return choice
        return min((p for p in current if p not in killed), default=min(current))


def _policy_survival(params: GameParams, sets: Sets, policy: AdversaryPolicy) -> int:
    """Survival time of ``sets`` against ``policy``.  Both come from this
    module, so they are well formed and the replay stops at the first
    round with more than f dead members."""
    killed: frozenset[int] = frozenset()
    for t, row in enumerate(sets, start=1):
        killed |= {policy.kill(sets[:t], killed)}
        if len(killed.intersection(row)) > params.f:
            return t - 1
    return len(sets)


def _best_response(
    params: GameParams, support: list[tuple[Sets, Fraction]]
) -> tuple[Fraction, AdversaryPolicy]:
    """Exact on-line best response to a schedule distribution.

    States are (revealed prefix, kill set); the posterior over the next
    revealed set is the support conditioned on the prefix.  Ties in the
    kill choice break toward the smallest id, so the policy and value
    are deterministic.  The prefixes form a tree, built once per call;
    each node keeps the values of its states by kill set, so a state's
    lookup hashes the kill set alone.
    """
    f, length = params.f, params.N
    masses, _ = over_common_denominator([w for _, w in support])
    weighted = [(sets, w) for (sets, _), w in zip(support, masses)]
    table: dict[Observation, int] = {}

    def children(prefix: Sets) -> list[tuple]:
        """Nodes (prefix, mass, memo, children) one round below ``prefix``,
        in order of the revealed set."""
        t = len(prefix)
        if t == length:
            return []
        agg: dict[tuple[int, ...], int] = {}
        for sets, w in weighted:
            if sets[:t] == prefix:
                agg[sets[t]] = agg.get(sets[t], 0) + w
        return [(prefix + (a,), w, {}, children(prefix + (a,))) for a, w in sorted(agg.items())]

    def decide(prefix: Sets, mass: int, memo: dict, nodes: list, killed: frozenset[int]) -> int:
        """``mass``, the weight of the support behind ``prefix``, times the
        least expected survival time; a positive factor leaves the choice
        of kill as it is, and every term stays an int."""
        best = memo.get(killed)
        if best is not None:
            return best
        t = len(prefix)
        current = prefix[-1]
        dead = len(killed.intersection(current))
        rekilled = False
        for s in current:
            fresh = s not in killed
            if not fresh:
                if rekilled:  # a re-kill leaves the kill set as it is, as the first did
                    continue
                rekilled = True
            if dead + fresh > f:
                val = mass * (t - 1)
            elif t == length:
                val = mass * length
            else:
                nxt = killed | {s}
                val = 0
                for node in nodes:
                    val += decide(*node, nxt)
            if best is None or val < best:
                best, best_kill = val, s
        table[prefix, killed] = best_kill
        memo[killed] = best
        return best

    total = sum(decide(*node, frozenset()) for node in children(()))
    value = Fraction(total, sum(masses))
    return value, AdversaryPolicy(table=table)


def adversary_best_response(
    params: GameParams, support: tuple[tuple[Schedule, Fraction], ...]
) -> Fraction:
    """Value of the exact on-line best response against ``support``;
    recomputing this against a solver's output certifies its value."""
    _check_guard(params)
    weights = [w for _, w in support]
    if not support or any(w <= 0 for w in weights) or sum(weights) != 1:
        raise ValueError("support must carry positive weights summing to 1")
    for s, _ in support:
        if s.params != params:
            raise ValueError("support schedule parameters disagree")
        if len(s) != params.N:
            raise ValueError("support schedules must have full length N")
        _require_valid(s)
    return _best_response(params, [(s.sets, w) for s, w in support])[0]


def _scheduler_best_response(
    params: GameParams, policies: list[tuple[AdversaryPolicy, Fraction]]
) -> tuple[Fraction, Sets]:
    """Best pure schedule against a policy mix: the first maximizer of the
    expected survival time in ``itertools.product`` order.

    A depth-first search over schedule prefixes in that order carries each
    policy's kill set down the tree and fixes a policy's payoff at the
    round where it kills.  Weights are ints over their common
    denominator.  A branch whose fixed payoff plus N times its live weight
    cannot beat the best so far is cut, and a branch that can gain nothing
    more is settled by its first leaf; ties never replace the best, so the
    answer is the one full enumeration finds."""
    length, f = params.N, params.f
    candidates = list(itertools.combinations(range(1, length + 1), params.n))
    best = -1
    best_sets: Sets = ()

    def descend(prefix: Sets, live: list, fixed: int, live_weight: int) -> None:
        nonlocal best, best_sets
        t = len(prefix)
        for row in candidates:
            revealed = prefix + (row,)
            gain, weight, still = fixed, live_weight, []
            for policy, w, killed in live:
                killed = killed | {policy.kill(revealed, killed)}
                if len(killed.intersection(row)) > f:
                    gain += w * t
                    weight -= w
                else:
                    still.append((policy, w, killed))
            bound = gain + weight * length
            if bound <= best:
                continue
            if not still or t + 1 == length:
                best, best_sets = bound, revealed + (candidates[0],) * (length - t - 1)
            else:
                descend(revealed, still, gain, weight)

    weights, scale = over_common_denominator([w for _, w in policies])
    descend((), [(policy, w, frozenset()) for (policy, _), w in zip(policies, weights)],
            0, sum(weights))
    return Fraction(best, scale), best_sets


def _check_guard(params: GameParams) -> None:
    # N first, so that a huge N never computes its binomial.
    if params.N > _MAX_POOL or comb(params.N, params.n) > _MAX_DISTINCT_SETS:
        got = f"C={comb(params.N, params.n)}, " if params.N <= _MAX_POOL else ""
        raise BudgetExceededError(
            f"online game guard: need C(N,n) <= {_MAX_DISTINCT_SETS} and "
            f"N <= {_MAX_POOL}, got {got}N={params.N}"
        )


def _randomized_value(params: GameParams) -> GameValue:
    start = trivial_schedule(params).sets
    rows: list[Sets] = [start]
    _, first_policy = _best_response(params, [(start, Fraction(1))])
    cols: list[AdversaryPolicy] = [first_policy]
    # matrix[i][j] is the survival time of rows[i] against cols[j]; it
    # grows by a column or a row as the supports do.
    matrix = [[_policy_survival(params, start, first_policy)]]
    cells = 0

    while True:
        cells += len(matrix) * len(matrix[0])
        if cells > _MAX_PAYOFF_CELLS:
            raise BudgetExceededError(
                f"double oracle exceeded its budget of {_MAX_PAYOFF_CELLS} "
                "payoff-matrix cells over all LP solves"
            )
        sol = solve_zero_sum(matrix)
        v = sol.value
        x_support = [(sets, p) for sets, p in zip(rows, sol.row_strategy) if p > 0]
        y_support = [(policy, p) for policy, p in zip(cols, sol.col_strategy) if p > 0]
        br_adv, br_policy = _best_response(params, x_support)
        br_sch, br_sets = _scheduler_best_response(params, y_support)

        improved = False
        if br_adv < v:
            cols.append(br_policy)
            for sets, payoffs in zip(rows, matrix):
                payoffs.append(_policy_survival(params, sets, br_policy))
            improved = True
        if br_sch > v:
            rows.append(br_sets)
            matrix.append([_policy_survival(params, br_sets, pol) for pol in cols])
            improved = True
        if not improved:
            return GameValue(value=v, strategy_support=tuple(
                (Schedule(params, sets), p) for sets, p in x_support))


def online_game_value(params: GameParams, mode: str) -> GameValue:
    """Exact value of the scheduling game on a guarded-tiny instance.

    Deterministic mode: pure schedules gain nothing from the adversary
    being on-line, so the value is the closed-form optimum and the
    support is the batch schedule.  Randomized mode: double oracle as
    described in the module docstring.  Raises ``BudgetExceededError``
    beyond the size guard, or when the double oracle runs out of
    payoff-matrix cells to solve.
    """
    if mode not in ("deterministic", "randomized"):
        raise ValueError(f"mode must be deterministic or randomized, got {mode!r}")
    _check_guard(params)
    if mode == "deterministic":
        return GameValue(
            value=Fraction(h_value(params.n, params.f, params.N)),
            strategy_support=((trivial_schedule(params), Fraction(1)),),
        )
    return _randomized_value(params)
