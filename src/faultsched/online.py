"""Randomized scheduling against an on-line adversary, solved exactly.

The scheduler commits to a probability distribution over full pure
schedules before play; the adversary observes the sets revealed so far
and its own past kills, nothing else, and picks each kill to minimize
the expected survival time.  The value of this zero-sum game is found
by ``matrixgame.double_oracle``, which owns the loop, the LP and its
budget; this module supplies the payoff, the opening schedule and the
two exact best responses.  A pure schedule is its sets and their int
bit masks, and kill sets are bit masks too.  A pure policy is
the prefix tree of the schedules it was built against, each node
holding its kills by kill mask; ``_kill`` applies a node and holds the
one fallback rule for observations off the tree.  The adversary best
response is a posterior-belief dynamic program over that tree that
tries one kill per symmetry class: two live members that every set
revealed later holds alike swap onto each other below, so killing
either is worth the same, and ties still go to the smallest id.  The
scheduler best response is a branch-and-bound search over schedule
prefixes that carries every policy of the mix, and its node, at once.
A size guard keeps instances tiny.  All values are exact: rationals,
with integer weights inside.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .game import BudgetExceededError, GameParams, Schedule, _Frozen, _listed, _require_valid
from .game import _batch_schedule, _check_params
from .game import survival_time  # noqa: F401 - perfbench wraps survival_time
from .matrixgame import _ONE, double_oracle, over_common_denominator
from .matrixgame import solve_zero_sum  # noqa: F401 - perfbench wraps online.solve_zero_sum

Ints = tuple[int, ...]  # a set's ids, or a schedule's set masks
Sets = tuple[Ints, ...]
Support = tuple[tuple[Schedule, Fraction], ...]
# A deterministic on-line adversary: the prefix tree of the sets it may
# see, each node keyed by its set's bit mask and holding the kill for
# each mask of past kills; ``_kill`` applies it.
Policy = dict[int, list]

_MAX_DISTINCT_SETS = 6
_MAX_POOL = 5


class GameValue(_Frozen):
    """Exact game value with the scheduler strategy attaining it: a
    probability distribution over schedules, one schedule with
    probability 1 in deterministic mode."""

    __slots__ = __match_args__ = ("value", "strategy_support")
    value: Fraction
    strategy_support: Support

    def __init__(self, value: Fraction, strategy_support: Support) -> None:
        _Frozen.__init__(self, value, _distribution(strategy_support, "strategy_support", value))


def _distribution(items: Support, name: str, value: Fraction = 0) -> Support:
    """``items`` read once as (Schedule, probability) pairs whose
    probabilities are nonnegative and sum to 1, else a ValueError that
    names an entry that is not such a pair; ``value`` shares the one type
    check of the probabilities."""
    support = []
    for entry in _listed(items, name):
        match entry:
            case (Schedule() as s, p):
                support.append((s, p))
            case _:
                raise ValueError(f"{name} must hold (Schedule, probability) pairs, got {entry!r}")
    # The numerators sum to the common denominator exactly when the probabilities sum to 1.
    (_, *probs), scale = over_common_denominator([value] + [p for _, p in support])
    if min(probs, default=0) < 0:
        raise ValueError("strategy probabilities must be nonnegative")
    if sum(probs) != scale:
        raise ValueError("strategy probabilities must sum to 1")
    return tuple(support)


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


def adversary_best_response(params: GameParams, support: Support) -> Fraction:
    """Value of the exact on-line best response against ``support``;
    recomputing this against a solver's output certifies its value."""
    _check_guard(params)
    support = _distribution(support, "support")
    for s, _ in support:
        if s.params != params:
            raise ValueError("support schedule parameters disagree")
        if len(s) != params.N:
            raise ValueError("support schedules must have full length N")
        _require_valid(s)
    return _best_response(params, [(s.sets, w) for s, w in support])[0]


def _scheduler_best_response(
    params: GameParams, policies: list[tuple[Policy, Fraction]]
) -> tuple[Fraction, tuple[Sets, Ints]]:
    """Expected survival of the best pure schedule against a policy mix,
    and that schedule as its sets and their bit masks: the first maximizer of expected survival in ``itertools.product`` order.

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
    return Fraction(best, scale), tuple(zip(*best_sets))


def _check_guard(params: GameParams) -> None:
    _check_params(params)
    # N first, so that a huge N never computes its binomial.
    if params.N > _MAX_POOL or comb(params.N, params.n) > _MAX_DISTINCT_SETS:
        got = f"C={comb(params.N, params.n)}, " if params.N <= _MAX_POOL else ""
        raise BudgetExceededError(
            f"online game guard: need C(N,n) <= {_MAX_DISTINCT_SETS} and "
            f"N <= {_MAX_POOL}, got {got}N={params.N}"
        )


def online_game_value(params: GameParams, mode: str) -> GameValue:
    """Exact value of the scheduling game on a guarded-tiny instance.

    Deterministic mode: pure schedules gain nothing from the adversary
    being on-line, so the value is the closed-form optimum and the
    support is the batch schedule.  Randomized mode: the double oracle
    over pure schedules and pure policies, opening with the batch
    schedule.  Raises ``BudgetExceededError`` beyond the size guard, or
    when the double oracle runs out of payoff-matrix cells to solve.

    ``params`` and ``mode`` are the input, checked here; the result is
    built from checked values and checks nothing again: each support
    schedule is the batch schedule or a best response, N sets of n
    sorted ids in 1..N, and the LP certificate has proved the
    probabilities nonnegative with sum 1.
    """
    if mode not in ("deterministic", "randomized"):
        raise ValueError(f"mode must be deterministic or randomized, got {mode!r}")
    _check_guard(params)
    batch, h = _batch_schedule(params)
    if mode == "deterministic":
        return GameValue._from_checked(Fraction(h), ((batch, _ONE),))
    start = batch.sets
    value, support = double_oracle(
        (start, tuple(sum(1 << p for p in row) for row in start)),
        lambda schedule, policy: _policy_survival(params, schedule[1], policy),
        lambda mix: _scheduler_best_response(params, mix),
        lambda mix: _best_response(params, [(sets, p) for (sets, _), p in mix]))
    return GameValue._from_checked(
        value, tuple((Schedule._from_checked(params, sets), p) for (sets, _), p in support))
