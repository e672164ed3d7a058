"""Randomized scheduling against an on-line adversary, solved exactly.

The scheduler commits to a probability distribution over full pure
schedules before play; the adversary observes the sets revealed so far
and its own past kills, nothing else, and picks each kill to minimize
the expected survival time.  The value of this zero-sum game is found
by a double oracle: keep finite supports of pure schedules and pure
adversary policies, solve the restricted matrix game exactly, and grow
whichever support admits a strictly improving best response.  The
adversary best response is a posterior-belief dynamic program; the
scheduler best response enumerates all pure schedules, which the size
guard keeps tiny.  All values are rationals end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .game import GameParams, Schedule, trivial_schedule
from .game import survival_time  # noqa: F401 - perfbench/tracer.py wraps online.survival_time
from .matrixgame import solve_zero_sum
from .oracle import BudgetExceededError
from .survival import h_value

Sets = tuple[tuple[int, ...], ...]

_MAX_DISTINCT_SETS = 6
_MAX_POOL = 5
_MAX_ROUNDS_OF_ORACLE = 500


@dataclass(frozen=True)
class GameValue:
    """Exact game value with the scheduler strategy attaining it."""

    value: Fraction
    mode: str
    strategy_support: tuple[tuple[Schedule, Fraction], ...]

    def __post_init__(self) -> None:
        if self.mode not in ("deterministic", "randomized"):
            raise ValueError(f"unknown mode {self.mode!r}")
        probs = [p for _, p in self.strategy_support]
        if any(p < 0 for p in probs):
            raise ValueError("strategy probabilities must be nonnegative")
        if sum(probs) != 1:
            raise ValueError("strategy probabilities must sum to 1")
        if self.mode == "deterministic" and len(probs) != 1:
            raise ValueError("deterministic mode carries a singleton support")


@dataclass(frozen=True, eq=False)
class AdversaryPolicy:
    """Deterministic on-line kill rule.

    ``table`` maps an observation (sets revealed through the current
    round, set of past kills) to the kill; observations outside the
    table fall back to the lowest-id not-yet-killed member of the
    current set, or its minimum when all members are dead.
    """

    table: Mapping[tuple[Sets, frozenset[int]], int] = field(default_factory=dict)

    def kill(self, revealed: Sets, killed: frozenset[int]) -> int:
        current = revealed[-1]
        choice = self.table.get((revealed, killed))
        if choice is not None:
            return choice
        alive = [p for p in current if p not in killed]
        return min(alive) if alive else min(current)


def _policy_survival(params: GameParams, sets: Sets, policy: AdversaryPolicy) -> int:
    """Survival time of ``sets`` against ``policy``.  Both come from this
    module, so they are well formed and the replay stops at the first
    round with more than f dead members."""
    killed: frozenset[int] = frozenset()
    for t, row in enumerate(sets, start=1):
        killed |= {policy.kill(sets[:t], killed)}
        if sum(1 for p in row if p in killed) > params.f:
            return t - 1
    return len(sets)


def _best_response(
    params: GameParams, support: Sequence[tuple[Sets, Fraction]]
) -> tuple[Fraction, AdversaryPolicy]:
    """Exact on-line best response to a schedule distribution.

    States are (revealed prefix, kill set); the posterior over the next
    revealed set is the support conditioned on the prefix.  Ties in the
    kill choice break toward the smallest id, so the policy and value
    are deterministic.
    """
    f, length = params.f, params.N
    table: dict[tuple[Sets, frozenset[int]], int] = {}
    memo: dict[tuple[Sets, frozenset[int]], Fraction] = {}

    def continuations(prefix: Sets) -> list[tuple[Sets, Fraction]]:
        t = len(prefix)
        agg: dict[tuple[int, ...], Fraction] = {}
        for sets, w in support:
            if sets[:t] == prefix:
                agg[sets[t]] = agg.get(sets[t], Fraction(0)) + w
        total = sum(agg.values())
        return [(prefix + (a,), w / total) for a, w in sorted(agg.items())]

    def decide(prefix: Sets, killed: frozenset[int]) -> Fraction:
        key = (prefix, killed)
        if key in memo:
            return memo[key]
        t = len(prefix)
        current = prefix[-1]
        conts = continuations(prefix) if t < length else []
        best: Fraction | None = None
        best_kill = current[0]
        for s in current:
            nxt = killed | {s}
            if len(nxt & set(current)) > f:
                val = Fraction(t - 1)
            elif t == length:
                val = Fraction(length)
            else:
                val = sum(
                    (w * decide(child, nxt) for child, w in conts),
                    Fraction(0),
                )
            if best is None or val < best:
                best, best_kill = val, s
        table[key] = best_kill
        memo[key] = best
        return best

    openings = continuations(())
    value = sum((w * decide(child, frozenset()) for child, w in openings), Fraction(0))
    return value, AdversaryPolicy(table=table)


def adversary_best_response(
    params: GameParams, support: Sequence[tuple[Schedule, Fraction]]
) -> Fraction:
    """Value of the exact on-line best response against ``support``;
    recomputing this against a solver's output certifies its value."""
    _check_guard(params)
    weights = [w for _, w in support]
    if not support or any(w <= 0 for w in weights) or sum(weights) != 1:
        raise ValueError("support must carry positive weights summing to 1")
    flat = [(s.sets, w) for s, w in support]
    for s, _ in support:
        if s.params != params:
            raise ValueError("support schedule parameters disagree")
        if len(s) != params.N:
            raise ValueError("support schedules must have full length N")
    return _best_response(params, flat)[0]


def _scheduler_best_response(
    params: GameParams, policies: Sequence[tuple[AdversaryPolicy, Fraction]]
) -> tuple[Fraction, Sets]:
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))
    best: Fraction | None = None
    best_sets: Sets = ()
    for sets in itertools.product(candidates, repeat=params.N):
        ev = sum(w * _policy_survival(params, sets, pol) for pol, w in policies)
        if best is None or ev > best:
            best, best_sets = ev, sets
    return best, best_sets


def _check_guard(params: GameParams) -> None:
    distinct = comb(params.N, params.n)
    if distinct > _MAX_DISTINCT_SETS or params.N > _MAX_POOL:
        raise BudgetExceededError(
            f"online game guard: need C(N,n) <= {_MAX_DISTINCT_SETS} and "
            f"N <= {_MAX_POOL}, got C={distinct}, N={params.N}"
        )


def _randomized_value(params: GameParams) -> tuple[Fraction, tuple[tuple[Sets, Fraction], ...]]:
    start = trivial_schedule(params).sets
    rows: list[Sets] = [start]
    _, first_policy = _best_response(params, [(start, Fraction(1))])
    cols: list[AdversaryPolicy] = [first_policy]
    # matrix[i][j] is the survival time of rows[i] against cols[j]; it
    # grows by a column or a row as the supports do.
    matrix = [[_policy_survival(params, start, first_policy)]]

    for _ in range(_MAX_ROUNDS_OF_ORACLE):
        sol = solve_zero_sum(matrix)
        v = sol.value
        x_support = [
            (rows[i], p) for i, p in enumerate(sol.row_strategy) if p > 0
        ]
        y_support = [
            (cols[j], p) for j, p in enumerate(sol.col_strategy) if p > 0
        ]
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
            return v, tuple(x_support)
    raise RuntimeError("double oracle did not converge within the iteration cap")


def online_game_value(params: GameParams, mode: str) -> GameValue:
    """Exact value of the scheduling game on a guarded-tiny instance.

    Deterministic mode: pure schedules gain nothing from the adversary
    being on-line, so the value is the closed-form optimum and the
    support is the batch schedule.  Randomized mode: double oracle as
    described in the module docstring.
    """
    if mode not in ("deterministic", "randomized"):
        raise ValueError(f"mode must be deterministic or randomized, got {mode!r}")
    _check_guard(params)
    if mode == "deterministic":
        return GameValue(
            value=Fraction(h_value(params.n, params.f, params.N)),
            mode=mode,
            strategy_support=((trivial_schedule(params), Fraction(1)),),
        )
    value, flat = _randomized_value(params)
    support = tuple(
        (Schedule(params=params, sets=sets), p) for sets, p in flat
    )
    return GameValue(value=value, mode=mode, strategy_support=support)
