"""Brute-force reference implementations.

Everything here recomputes a quantity the fast modules obtain through
matchings or closed forms, by direct enumeration and independently of
those modules wherever feasible.  ``brute_deficiency`` touches no
matching code at all; ``brute_adversary_min`` replays raw kill
sequences; ``brute_optimum`` searches schedule prefixes.  Budgets are
hard caps, not hints: exceeding one raises instead of degrading.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .game import GameParams, Schedule, _require_valid
from .matching import BipartiteGraph, DeficiencyWitness, max_matching

Prefix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchBudget:
    """Enumeration cap; ``symmetry_pruning`` toggles prefix
    canonicalization in ``brute_optimum``."""

    max_states: int = 10**8
    symmetry_pruning: bool = True

    def __post_init__(self) -> None:
        if self.max_states <= 0:
            raise ValueError("max_states must be positive")


class BudgetExceededError(RuntimeError):
    """Search would (or did) enumerate more states than the budget allows."""


def brute_adversary_min(s: Schedule, budget: SearchBudget | None = None) -> int:
    """Exact minimum of ``survival_time`` over all kill sequences.

    Depth-first over choices s_t in S_t with two cutoffs: a branch stops
    as soon as its kill set overlaps the current set in more than f
    places, and a branch that has already survived past the best known
    minimum cannot improve it.
    """
    _require_valid(s)
    budget = budget or SearchBudget()
    n, f, length = s.params.n, s.params.f, len(s)
    if n**length > budget.max_states:
        raise BudgetExceededError(
            f"{n}^{length} kill sequences exceed max_states={budget.max_states}"
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


def _canonical(prefix: Prefix, split: int = 0) -> Prefix:
    """Relabel ids by order of first appearance, rows scanned ascending:
    ids up to ``split`` are labelled from 1, the others from
    ``split + 1``, so with two processor types each keeps its own."""
    label: dict[int, int] = {}
    low = 0  # ids up to split labelled so far
    out = []
    for row in prefix:
        for p in row:
            if p not in label:
                if p <= split:
                    low += 1
                    label[p] = low
                else:
                    label[p] = split + len(label) - low + 1
        out.append(tuple(sorted(label[p] for p in row)))
    return tuple(out)


def prefix_search(
    candidates: Sequence[tuple[int, ...]],
    depth: int,
    dead: Callable[[Prefix], bool],
    max_states: int,
    canonical: Callable[[Prefix], Prefix] | None = None,
    label: str = "prefix search",
) -> int:
    """Length of the longest prefix of at most ``depth`` candidate sets
    none of whose nonempty prefixes is ``dead``.

    Depth first, extending with the candidates in order.  With
    ``canonical`` each extension is relabeled and skipped when a sibling
    already gave it.  A canonical child keeps its parent as its earlier
    rows, so two parents never share a child and each frame of the
    stack keeps only the children of its own prefix.  Every extension
    that is tested counts as a state; more than ``max_states`` of them
    raises ``BudgetExceededError``.
    """
    states = 0
    best = 0
    stack: list[tuple[Prefix, Iterator[tuple[int, ...]], set[Prefix]]]
    stack = [((), iter(candidates), set())]
    while stack:
        prefix, it, seen = stack[-1]
        for cand in it:
            child = prefix + (cand,)
            if canonical is not None:
                child = canonical(child)
                if child in seen:
                    continue
                seen.add(child)
            states += 1
            if states > max_states:
                raise BudgetExceededError(f"{label} exceeded max_states={max_states}")
            if not dead(child):
                best = max(best, len(child))
                if len(child) < depth:
                    stack.append((child, iter(candidates), set()))
                    break
        else:
            stack.pop()
    return best


def brute_optimum(params: GameParams, budget: SearchBudget | None = None) -> int:
    """Exact optimum worst-case survival by prefix search.

    A schedule survives t rounds iff its first t sets form a prefix
    whose every time graph has matching number below f, so the optimum
    equals the deepest such prefix (never deeper than N).  Extensions
    whose newest time graph reaches f are dead and pruned; with
    ``symmetry_pruning`` prefixes are deduplicated up to relabeling.
    """
    budget = budget or SearchBudget()

    def dead(prefix: Prefix) -> bool:
        g = BipartiteGraph.from_rows(prefix[:-1], prefix[-1])
        return max_matching(g).size >= params.f

    return prefix_search(
        list(itertools.combinations(range(1, params.N + 1), params.n)),
        params.N,
        dead,
        budget.max_states,
        _canonical if budget.symmetry_pruning else None,
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
    rng = random.Random(seed)
    pool = range(1, params.N + 1)
    sets = tuple(
        tuple(sorted(rng.sample(pool, params.n))) for _ in range(length)
    )
    return Schedule(params=params, sets=sets)
