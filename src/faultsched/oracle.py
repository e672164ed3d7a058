"""Brute-force reference implementations.

Everything here recomputes a quantity the fast modules obtain through
matchings or closed forms, by direct enumeration and independently of
those modules wherever feasible.  ``brute_deficiency`` touches no
matching code at all; ``brute_adversary_min`` replays raw kill
sequences; ``brute_optimum`` searches schedule prefixes up to
relabeling, with Ore's formula on classes of ids as its dead test.  Budgets are
hard caps, not hints: exceeding one raises instead of degrading.
"""

from __future__ import annotations

from operator import add

from .game import BudgetExceededError, GameParams, Schedule, _require_valid
from .matching import BipartiteGraph, DeficiencyWitness
from .matching import max_matching  # noqa: F401 - perfbench/tracer.py wraps oracle.max_matching

Prefix = tuple[tuple[int, ...], ...]
# (incidence vector, number of ids with it), sorted by vector
Classes = tuple[tuple[int, int], ...]
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing (see survival.py)
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from typing import TypeVar
    Node = TypeVar("Node")


def brute_adversary_min(s: Schedule, max_states: int = 10**8) -> int:
    """Exact minimum of ``survival_time`` over all kill sequences.

    Depth-first over choices s_t in S_t with two cutoffs: a branch stops
    as soon as its kill set overlaps the current set in more than f
    places, and a branch that has already survived past the best known
    minimum cannot improve it.  Raises ``ValueError`` when ``max_states``
    is below 1 and ``BudgetExceededError`` when the n^len(s) kill
    sequences exceed it.
    """
    _require_valid(s)
    if max_states < 1:
        raise ValueError("max_states must be positive")
    n, f, length = s.params.n, s.params.f, len(s)
    if n**length > max_states:
        raise BudgetExceededError(
            f"{n}^{length} kill sequences exceed max_states={max_states}"
        )

    best = length

    def descend(u: int, killed: frozenset[int]) -> None:
        nonlocal best
        if u - 1 >= best:
            return
        if u > length:
            return
        current = set(s.sets[u - 1])
        for p in s.sets[u - 1]:
            nxt = killed | {p}
            if len(nxt & current) > f:
                best = u - 1
                return
            descend(u + 1, nxt)

    descend(1, frozenset())
    return best


def _canonical(prefix: Prefix) -> Prefix:
    """Relabel ids by order of first appearance, rows scanned ascending.

    No search calls it any more: it stays only as a target that
    perfbench/tracer.py wraps, and ROADMAP item 1 deletes it.
    """
    label: dict[int, int] = {}
    out = []
    for row in prefix:
        for p in row:
            label.setdefault(p, len(label) + 1)
        out.append(tuple(sorted(label[p] for p in row)))
    return tuple(out)


def prefix_search(
    root: Node,
    children: Callable[[Node], Iterable[Node]],
    dead: Callable[[Node], bool],
    depth: int,
    max_states: int,
    label: str = "prefix search",
) -> int:
    """Length of the longest chain of at most ``depth`` extensions of
    ``root``, each one of ``children`` of the one before, none of them
    ``dead``.

    Depth first, in the order ``children`` gives.  Only the open
    iterators of the current path are kept.  Every child that is tested
    counts as a state; more than ``max_states`` of them raises
    ``BudgetExceededError``, and ``max_states`` below 1 raises
    ``ValueError``.  ``brute_optimum`` and the two-pool probe both run
    it.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    states = 0
    best = 0
    stack = [iter(children(root))]
    while stack:
        for child in stack[-1]:
            states += 1
            if states > max_states:
                raise BudgetExceededError(f"{label} exceeded max_states={max_states}")
            if not dead(child):
                best = max(best, len(stack))
                if len(stack) < depth:
                    stack.append(iter(children(child)))
                    break
        else:
            stack.pop()
    return best


def _class_children(state: Classes, n: int) -> list[Classes]:
    """Every way to draw the next row's n ids from the classes of
    ``state``: k_v of class v, 0 <= k_v <= count_v.  The row's bit sits
    above every bit set so far, so the children stay sorted by vector
    and distinct compositions give distinct children."""
    bit = 1 << state[-1][0].bit_length()
    room = sum(c for _, c in state)  # ids in the classes not yet drawn from
    partial = [(n, (), ())]  # (ids left to draw, classes kept, classes drawn)
    for v, c in state:
        room -= c
        partial = [
            (rest - k, kept + ((v, c - k),) if k < c else kept,
             drawn + ((v | bit, k),) if k else drawn)
            for rest, kept, drawn in partial
            for k in range(max(0, rest - room), min(c, rest) + 1)
        ]
    return [kept + drawn for _, kept, drawn in partial]


def _class_matching_number(state: Classes) -> int:
    """Matching number of the newest row's time graph, by Ore's formula
    on whole classes: the row's members drawn from one class have the
    same earlier steps as neighbours, so nu is the minimum over sets Q of
    the classes the row meets of (n - sum of k_v over Q) + |union of
    the supports of Q|."""
    top = 1 << (state[-1][0].bit_length() - 1)
    taken, unions = [0], [0]  # over Q: minus the sum of k_v, the union
    for v, k in state:
        if v & top:
            taken += [t - k for t in taken]
            unions += [u | (v ^ top) for u in unions]
    return min(map(add, taken, map(int.bit_count, unions))) - taken[-1]


def brute_optimum(params: GameParams, max_states: int = 10**8) -> int:
    """Exact optimum worst-case survival by prefix search up to
    relabeling of the ids.

    A schedule survives t rounds iff its first t sets form a prefix
    whose every time graph has matching number below f, so the optimum
    equals the deepest such prefix (never deeper than N).  A state is
    the multiset of the ids' incidence vectors (bit u set iff the id is
    in S_{u+1}), as ``(vector, count)`` pairs sorted by vector; its
    children are ``_class_children`` and it is dead, and pruned, when
    ``_class_matching_number`` reaches f.  ``prefix_search`` enforces
    ``max_states``.
    """
    return prefix_search(
        ((0, params.N),),
        lambda state: _class_children(state, params.n),
        lambda state: _class_matching_number(state) >= params.f,
        params.N,
        max_states,
    )


def brute_deficiency(g: BipartiteGraph) -> DeficiencyWitness:
    """Exact deficiency minimum by enumerating all subsets of the right
    side B.

    Matching-free on purpose: the value doubles as an independent check
    of the matching number.  Ties break toward the smallest subset,
    then lexicographically.
    """
    b_count = g.right_count
    rows = g.right_adj()
    if b_count > 20:
        raise BudgetExceededError(f"right side of size {b_count} exceeds the 2^20 subset cap")

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


def random_schedule(params: GameParams, length: int, seed: int) -> Schedule:
    """Schedule of independent uniform size-n subsets, reproducible by seed."""
    if not (1 <= length <= params.N):
        raise ValueError(f"length must be in 1..{params.N}, got {length}")
    import random  # here, so that the searches above never load it
    rng = random.Random(seed)
    pool = range(1, params.N + 1)
    sets = tuple(
        tuple(sorted(rng.sample(pool, params.n))) for _ in range(length)
    )
    return Schedule(params=params, sets=sets)
