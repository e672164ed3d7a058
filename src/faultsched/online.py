"""Randomized scheduling against an on-line adversary, solved exactly.

The scheduler commits to a probability distribution over full pure
schedules before play; the adversary observes the sets revealed so far
and its own past kills, nothing else, and picks each kill to minimize
the expected survival time.  The value of this zero-sum game is found
by a double oracle: keep finite supports of pure schedules and pure
adversary policies, solve the restricted matrix game exactly, and grow
whichever support admits a strictly improving best response.  Sets of
processors, kill sets among them, are int bit masks.  A pure policy is
the prefix tree of the schedules it was built against, each node
holding its kills by kill mask; ``_kill`` applies a node and holds the
one fallback rule for observations off the tree.  The adversary best
response is a posterior-belief dynamic program over that tree that
tries one kill per symmetry class: two live members that every set
revealed later holds alike swap onto each other below, so killing
either is worth the same, and ties still go to the smallest id.  The
scheduler best response is a branch-and-bound search over schedule
prefixes that carries every policy of the mix, and its node, at once.
A size guard and a budget on LP work keep instances tiny.  All values
are exact: rationals, with integer pivots and integer weights inside.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .game import BudgetExceededError, GameParams, Schedule, _Frozen, _listed, _require_valid, _set
from .game import survival_time, trivial_schedule  # noqa: F401 - perfbench wraps survival_time
from .matrixgame import over_common_denominator, solve_zero_sum
from .survival import h_value

Ints = tuple[int, ...]  # a set's ids, or a schedule's set masks
Sets = tuple[Ints, ...]
# A deterministic on-line adversary: the prefix tree of the sets it may
# see, each node keyed by its set's bit mask and holding the kill for
# each mask of past kills; ``_kill`` applies it.
Policy = dict[int, list]

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

    def __init__(self, value: Fraction,
                 strategy_support: tuple[tuple[Schedule, Fraction], ...]) -> None:
        # The support is read once, into pairs.  The value shares the one type check; the
        # probabilities' numerators sum to the common denominator exactly when they sum to 1.
        support = tuple(map(tuple, _listed(strategy_support, "strategy_support")))
        probs, scale = over_common_denominator([value] + [p for _, p in support])
        del probs[0]
        if min(probs, default=0) < 0:
            raise ValueError("strategy probabilities must be nonnegative")
        if sum(probs) != scale:
            raise ValueError("strategy probabilities must sum to 1")
        _set(self, "value", value)
        _set(self, "strategy_support", support)


def _kill(node: list | None, row: int, killed: int) -> int:
    """The kill of a policy at ``node``, its node of the sets revealed so
    far (None off its tree), on the set of bit mask ``row`` with past
    kills ``killed``: the node's entry, else the lowest-id live member of
    the set, else its lowest id."""
    hit = node and node[2].get(killed)
    if hit:
        return hit[1]
    live = row & ~killed or row
    return (live & -live).bit_length() - 1


def _policy_survival(params: GameParams, masks: Ints, policy: Policy) -> int:
    """Survival time of the sets of bit masks ``masks`` against ``policy``;
    both come from this module, so the replay checks nothing."""
    killed, nodes = 0, policy
    for t, mask in enumerate(masks, start=1):
        node = nodes.get(mask)
        killed |= 1 << _kill(node, mask, killed)
        if (killed & mask).bit_count() > params.f:
            return t - 1
        nodes = node[4] if node else {}
    return len(masks)


def _best_response(
    params: GameParams, support: list[tuple[Sets, Fraction]]
) -> tuple[Fraction, Policy]:
    """Exact on-line best response to a schedule distribution: its value
    and its policy, the prefix tree of the support with the kill it
    picks in each state.

    States are (revealed prefix, kill mask); the posterior over the next
    revealed set is the support conditioned on the prefix.  Ties in the
    kill choice break toward the smallest id, so the policy and value
    are deterministic.  The prefixes form a tree, built in one pass over
    the support; each node keeps the value and kill of its states by
    kill mask, which is both the memo and the policy's table.

    A state tries one re-kill, and one fresh member per key, a member's
    key being the sets below the node that hold it.  Fresh members with
    one key swap onto each other in every set of the subtree, so their
    kills have one value; members are tried in ascending order and only a strictly
    smaller value replaces the best, so the kill chosen is still the
    smallest minimizer.  The tree then holds every state the policy
    reaches in its own play, with the kill the full program picks, and
    only skips states it never reaches; its play, its value and the
    double oracle built on it are those of the full program.
    """
    f, length = params.f, params.N
    masses, _ = over_common_denominator([w for _, w in support])
    # Node: [row, mass, {kill mask: (value, kill)}, below, children by
    # row mask].  Each distinct set of the support has a bit; ``below``
    # has the bits of the sets revealed after the node, and holds[p]
    # those that hold p.
    root: Policy = {}
    bits: dict = {}
    for (sets, _), w in zip(support, masses):
        later = [0]  # later[k]: the bits of the last k sets
        for row in reversed(sets):
            later.append(later[-1] | bits.setdefault(row, 1 << len(bits)))
        nodes = root
        for t, row in enumerate(sets, start=1):
            node = nodes.setdefault(sum(1 << p for p in row), [row, 0, {}, 0, {}])
            node[1] += w
            node[3] |= later[length - t]
            nodes = node[4]
    holds = [0] * (length + 1)
    for row, bit in bits.items():
        for p in row:
            holds[p] |= bit

    def decide(t: int, mask: int, row: Ints, mass: int, memo: dict, below: int,
               nodes: Policy, killed: int) -> int:
        """``mass``, the weight of the support behind the node, times the
        least expected survival time; a positive factor leaves the choice
        of kill as it is, and every term stays an int."""
        hit = memo.get(killed)
        if hit:
            return hit[0]
        dead = (killed & mask).bit_count()
        best = None
        tried = {}  # key -> the first member with it
        for s in row:
            fresh = not killed >> s & 1
            # Kills with one key have one value, so only the first is tried:
            # a re-kill leaves the kill set as it is, as the first did, and
            # swapping two fresh members that the same sets below hold maps
            # the subtree onto itself.
            key = below & holds[s] if fresh else None
            if tried.setdefault(key, s) != s:
                continue
            if dead + fresh > f:
                val = mass * (t - 1)
            elif t == length:
                val = mass * length
            else:
                nxt = killed | 1 << s
                val = 0
                for child_mask, child in nodes.items():
                    val += decide(t + 1, child_mask, *child, nxt)
            if best is None or val < best:
                best, best_kill = val, s
        memo[killed] = best, best_kill
        return best

    total = sum(decide(1, mask, *node, 0) for mask, node in root.items())
    return Fraction(total, sum(masses)), root


def adversary_best_response(
    params: GameParams, support: tuple[tuple[Schedule, Fraction], ...]
) -> Fraction:
    """Value of the exact on-line best response against ``support``;
    recomputing this against a solver's output certifies its value."""
    _check_guard(params)
    masses, scale = over_common_denominator([w for _, w in support])
    if not support or min(masses) <= 0 or sum(masses) != scale:
        raise ValueError("support must carry positive weights summing to 1")
    for s, _ in support:
        if s.params != params:
            raise ValueError("support schedule parameters disagree")
        if len(s) != params.N:
            raise ValueError("support schedules must have full length N")
        _require_valid(s)
    return _best_response(params, [(s.sets, w) for s, w in support])[0]


def _scheduler_best_response(
    params: GameParams, policies: list[tuple[Policy, Fraction]]
) -> tuple[Fraction, Sets, Ints]:
    """Best pure schedule against a policy mix, and its sets' bit masks:
    the first maximizer of expected survival in ``itertools.product`` order.

    A depth-first search over schedule prefixes in that order carries each
    policy's kill mask and node down the tree and fixes a policy's payoff
    at the round where it kills.  Weights are ints over their common
    denominator.  A branch whose fixed payoff plus N times its live weight
    cannot beat the best so far is cut, and a branch that can gain nothing
    more is settled by its first leaf; ties never replace the best, so the
    answer is the one full enumeration finds."""
    length, f = params.N, params.f
    candidates = tuple((row, sum(1 << p for p in row))
                       for row in combinations(range(1, length + 1), params.n))
    best, best_sets = -1, ()

    def descend(prefix: tuple, live: list, fixed: int, live_weight: int) -> None:
        nonlocal best, best_sets
        t = len(prefix)  # the (set, mask) candidates picked so far
        for pick in candidates:
            mask = pick[1]
            gain, weight, still = fixed, live_weight, []
            for w, killed, nodes in live:
                node = nodes.get(mask)
                killed |= 1 << _kill(node, mask, killed)
                if (killed & mask).bit_count() > f:
                    gain += w * t
                    weight -= w
                else:
                    still.append((w, killed, node[4] if node else {}))
            bound = gain + weight * length
            if bound <= best:
                continue
            if not still or t + 1 == length:
                best, best_sets = bound, prefix + (pick,) + candidates[:1] * (length - t - 1)
            else:
                descend(prefix + (pick,), still, gain, weight)

    weights, scale = over_common_denominator([w for _, w in policies])
    descend((), [(w, 0, policy) for (policy, _), w in zip(policies, weights)], 0, sum(weights))
    return Fraction(best, scale), *zip(*best_sets)


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
    rows = [start]
    masks = [tuple(sum(1 << p for p in row) for row in start)]  # the set masks of each row
    br_adv, br_policy = _best_response(params, [(start, Fraction(1))])
    cols = [br_policy]
    # matrix[i][j] is the survival time of rows[i] against cols[j]; it
    # grows by a column or a row as the supports do.
    matrix = [[_policy_survival(params, masks[0], br_policy)]]
    cells = 0

    while True:
        cells += len(rows) * len(cols)
        if cells > _MAX_PAYOFF_CELLS:
            raise BudgetExceededError(
                f"double oracle exceeded its budget of {_MAX_PAYOFF_CELLS} "
                "payoff-matrix cells over all LP solves"
            )
        sol = solve_zero_sum(matrix)
        v = sol.value
        x_support = [(sets, p) for sets, p in zip(rows, sol.row_strategy) if p > 0]
        y_support = [(policy, p) for policy, p in zip(cols, sol.col_strategy) if p > 0]
        if cells > 1:  # round 1's row strategy is the opening support
            br_adv, br_policy = _best_response(params, x_support)
        br_sch, br_sets, br_masks = _scheduler_best_response(params, y_support)
        if br_adv >= v >= br_sch:
            return GameValue(v, ((Schedule(params, sets), p) for sets, p in x_support))

        if br_adv < v:
            cols.append(br_policy)
            for row_masks, payoffs in zip(masks, matrix):
                payoffs.append(_policy_survival(params, row_masks, br_policy))
        if br_sch > v:
            rows.append(br_sets)
            masks.append(br_masks)
            matrix.append([_policy_survival(params, br_masks, pol) for pol in cols])


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
        return GameValue(Fraction(h_value(params.n, params.f, params.N)),
                         ((trivial_schedule(params), Fraction(1)),))
    return _randomized_value(params)
