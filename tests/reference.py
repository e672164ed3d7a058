"""Test-only references: independent recomputations and input generators
that no command runs, kept beside the tests that use them.

``brute_deficiency`` checks the matching number and ``_ore_witness`` by
enumerating subsets, with no matching code; ``greedy_matching_size`` is
the greedy that the class searches run while they draw a row, over
plain lists of earlier steps; ``random_schedule`` and
``random_cases`` draw seeded schedules for the property tests;
``apriori_upper_bound`` is the counting bound the on-line values must
stay below.  The tests import this module as ``reference``: pytest puts
this directory on ``sys.path``.
"""

from __future__ import annotations

from faultsched.game import BudgetExceededError, GameParams, Schedule
from faultsched.matching import BipartiteGraph, DeficiencyWitness


def brute_deficiency(g: BipartiteGraph) -> DeficiencyWitness:
    """Exact deficiency minimum by enumerating all subsets of the right
    side B.

    Matching-free on purpose: the value doubles as an independent check
    of the matching number.  Ties break toward the smallest subset,
    then lexicographically.
    """
    b_count = g.right_count
    if b_count > 20:
        raise BudgetExceededError(f"right side of size {b_count} exceeds the 2^20 subset cap")
    rows = [[l for l, nbrs in enumerate(g.adj, 1) if b in nbrs] for b in range(1, b_count + 1)]

    best_value = b_count + 1 + sum(len(r) for r in rows)
    best_c: tuple[int, ...] = ()
    best_gamma: set[int] = set()
    for mask in range(1 << b_count):
        members = tuple(b for b in range(1, b_count + 1) if mask >> (b - 1) & 1)
        gamma: set[int] = set()
        for b in members:
            gamma.update(rows[b - 1])
        value = (b_count - len(members)) + len(gamma)
        key = (value, len(members), members)
        if key < (best_value, len(best_c), best_c):
            best_value, best_c, best_gamma = value, members, gamma
    return DeficiencyWitness(C=frozenset(best_c), gamma=frozenset(best_gamma), value=best_value)


def greedy_matching_size(members: list[list[int]]) -> int:
    """Size of the greedy matching of a row's members to distinct earlier
    steps, given each member's list of earlier steps: the members in
    ascending order of their incidence vectors (bit u for step u), each
    taking its lowest step that no member before it took."""
    taken: set[int] = set()
    for steps in sorted(members, key=lambda us: sum(1 << u for u in us)):
        taken.update([u for u in steps if u not in taken][:1])
    return len(taken)


def random_schedule(params: GameParams, length: int, seed: int) -> Schedule:
    """Schedule of independent uniform size-n subsets, reproducible by seed."""
    if not (type(length) is type(seed) is int and 1 <= length <= params.N):
        raise ValueError(f"length must be an int in 1..{params.N} and seed an int, "
                         f"got length={length!r}, seed={seed!r}")
    import random
    rng = random.Random(seed)
    pool = range(1, params.N + 1)
    sets = tuple(
        tuple(sorted(rng.sample(pool, params.n))) for _ in range(length)
    )
    return Schedule(params=params, sets=sets)


def random_cases(count: int, seed: int, max_pool: int = 8, max_n: int = 3):
    """``count`` seeded schedules of random parameters (n <= ``max_n``,
    N <= ``max_pool``) and length, drawn by ``random_schedule``."""
    import random
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, max_n)
        f = rng.randint(1, n - 1)
        big_n = rng.randint(n, max_pool)
        length = rng.randint(1, big_n)
        yield random_schedule(GameParams(N=big_n, n=n, f=f), length, seed=1000 + i)


def apriori_upper_bound(params: GameParams) -> int:
    """Counting bound N - n + f + 1: once only n - f - 1 processors are
    left alive no set can meet its quorum of n - f non-faulty members."""
    return params.N - params.n + params.f + 1
