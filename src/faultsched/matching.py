"""Bipartite graphs, maximum matching, and deficiency witnesses.

There is one matcher, Kuhn's augmenting-path search ``_grow_matching``:
``max_matching`` runs it from a graph's left vertices, the solver's
killability scan from the members of S_t and the class search's exact
dead test from the newest row's members, on their lists of earlier steps.

The matching size nu of a bipartite graph equals, by Ore's deficiency
formula, the minimum over subsets C of the right side B of
|B - C| + |gamma(C)|, where gamma(C) is the set of left neighbours of C.
``_ore_witness``, over right vertices that are any ids, each given with
its list of left neighbours (the scan's layout), returns a minimizing C
and its gamma(C) constructively from a maximum matching (the
Koenig-style alternating-reachability argument) and checks that the
attained value equals the matching size, a same-size certificate of
optimality; ``deficiency_witness`` and ``reduce_instance`` both run it.

Vertices are 1-based on both sides.  Graphs are immutable; all functions
are pure and deterministic (the matcher tries vertices in order).
"""

from __future__ import annotations

from operator import lt
from collections.abc import Iterable, Sequence

from .game import _Frozen, _listed


class BipartiteGraph(_Frozen):
    """Left-ordered bipartite graph; ``adj[i - 1]`` lists the sorted right
    neighbors of left vertex i.  Left indices carry the total order of
    their labels.  Counts and neighbours are ``int`` only, and ``adj`` is
    stored as tuples before the checks, so a graph hashes and stays checked."""

    __slots__ = __match_args__ = ("left_count", "right_count", "adj")
    left_count: int
    right_count: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(
        self, left_count: int, right_count: int, adj: Iterable[Iterable[int]]
    ) -> None:
        rows = enumerate(_listed(adj, "adj"), start=1)
        _Frozen.__init__(self, left_count, right_count, tuple(
            tuple(_listed(nbrs, f"neighbors of left vertex {i}")) for i, nbrs in rows))
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (type(self.left_count) is type(self.right_count) is int):
            raise ValueError("vertex counts must be integers")
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        if len(self.adj) != self.left_count:
            raise ValueError(
                f"adjacency has {len(self.adj)} rows for {self.left_count} left vertices"
            )
        for i, nbrs in enumerate(self.adj, start=1):
            if {*map(type, nbrs)} - {int}:  # before any comparison of a neighbour with an int
                raise ValueError(f"neighbors of left vertex {i} must be integers")
            if not all(map(lt, nbrs, nbrs[1:])):
                raise ValueError(f"neighbors of left vertex {i} must be sorted and duplicate-free")
            if nbrs and (nbrs[0] < 1 or nbrs[-1] > self.right_count):
                raise ValueError(f"edge endpoint out of range at left vertex {i}")

    @classmethod
    def from_rows(
        cls, rows: tuple[tuple[int, ...], ...], right: tuple[int, ...]
    ) -> BipartiteGraph:
        """Time graph of ``rows`` over ``right``: left vertex u is adjacent
        to j iff ``right[j - 1]`` is in ``rows[u - 1]``.  ``right`` and every
        row are ascending ids; ids outside ``right`` are ignored."""
        col = {p: j for j, p in enumerate(right, start=1)}
        return cls(len(rows), len(right), ([col[p] for p in row if p in col] for row in rows))


class Matching(_Frozen):
    """Vertex-disjoint edge set of a host graph; ``size`` is nu."""

    __slots__ = __match_args__ = ("pairs",)
    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        pairs = frozenset(pairs)
        if len({l for l, _ in pairs}) != len(pairs) or len({r for _, r in pairs}) != len(pairs):
            raise ValueError("matching pairs must be vertex-disjoint")
        _Frozen.__init__(self, pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)


class DeficiencyWitness(_Frozen):
    """Subset C of the right side B attaining the deficiency minimum
    |B - C| + |gamma(C)|, with gamma(C) its left neighbourhood; the
    attained value equals the matching size."""

    __slots__ = __match_args__ = ("C", "gamma", "value")
    C: frozenset[int]
    gamma: frozenset[int]
    value: int


def _grow_matching(adj: Sequence[Sequence[int]], cap: int | None = None) -> dict[int, int]:
    """Kuhn's augmenting-path search: match vertex j = 0, 1, ... to a
    neighbour in ``adj[j]``, searching once from each vertex in turn;
    returns the maximum matching as a neighbour -> vertex map; a vertex
    without neighbours changes nothing.  ``cap``, when given, must be an
    upper bound on the matching number, and the search stops once the
    matching reaches it: the matching is maximum then, so every later
    search would fail and leave the map unchanged, and the map returned,
    in its insertion order too, is the one the search run to the end
    returns.  The scan passes its prefilter's bound; the other callers
    pass none.  Depth first without recursion:
    ``stack`` holds the vertices on the path with their neighbour
    iterators, ``path[i]`` the neighbour taken from ``stack[i]``.  A
    failed search leaves its visited neighbours marked until the next
    augmentation, since no augmenting path runs through them before the
    matching changes."""
    mate: dict[int, int] = {}
    visited: set[int] = set()
    for j in range(len(adj)):
        if len(mate) == cap:
            break
        stack, path = [(j, iter(adj[j]))], []
        while stack:
            for u in stack[-1][1]:
                if u not in visited:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(u)
            path.append(u)
            if u in mate:
                stack.append((mate[u], iter(adj[mate[u]])))
                continue
            for (k, _), u in zip(stack, path):
                mate[u] = k
            visited.clear()
            break
    return mate


def max_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by ``_grow_matching`` from the left
    side, left vertices tried in ascending order, so the returned pair
    set is deterministic."""
    return Matching(frozenset((l + 1, r) for r, l in _grow_matching(g.adj).items()))


def deficiency_witness(g: BipartiteGraph) -> DeficiencyWitness:
    """Minimizing subset C of the right side B for |B - C| + |gamma(C)|,
    from the lists of left neighbours of B inverted from ``g.adj``."""
    right = range(1, g.right_count + 1)
    lefts = [[l for l, nbrs in enumerate(g.adj, start=1) if r in nbrs] for r in right]
    return _ore_witness(lefts, right)


def _ore_witness(lefts: Sequence[Sequence[int]], right: Sequence[int]) -> DeficiencyWitness:
    """Ore witness of the graph whose right vertex ``right[k]`` is
    adjacent to the left vertices that ``lefts[k]`` lists.

    Construction: from the maximum matching of ``_grow_matching`` on
    ``lefts``, grow alternating-path reachability from the unmatched
    members of ``right`` (non-matching edges to the left, matching edges
    back); C is the reached members and gamma(C) the reached left
    vertices, as every neighbour of C is.  Raises ArithmeticError unless
    gamma(C) is the whole neighbourhood of C and the attained value
    equals the matching size, the certificate that both are optimal.
    """
    mate = _grow_matching(lefts)
    reached = set(range(len(right))).difference(mate.values())
    gamma: set[int] = set()
    stack = list(reached)
    while stack:
        for l in lefts[stack.pop()]:
            if l not in gamma:
                gamma.add(l)
                if l in mate:  # its mate is reached through l alone
                    reached.add(mate[l])
                    stack.append(mate[l])

    if gamma != set().union(*(lefts[k] for k in reached)):
        raise ArithmeticError("gamma(C) is not the neighbourhood of the reached members")
    value = (len(right) - len(reached)) + len(gamma)
    if value != len(mate):
        raise ArithmeticError(f"deficiency value {value} is not the matching size {len(mate)}")
    return DeficiencyWitness(frozenset(right[k] for k in reached), frozenset(gamma), value)
