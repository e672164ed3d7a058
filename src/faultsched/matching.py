"""Bipartite graphs, maximum matching, and deficiency witnesses.

There is one matcher, Kuhn's augmenting-path search ``_grow_matching``:
``max_matching`` runs it on a graph's adjacency, and the solver's
killability scan on the same adjacency inverted from its step lists.

The matching size nu of a bipartite graph equals, by Ore's deficiency
formula, the minimum over subsets C of the right side B of
|B - C| + |gamma(C)|, where gamma(C) is the set of left neighbours of C.
``deficiency_witness`` returns a minimizing C and its gamma(C)
constructively from a maximum matching (the Koenig-style
alternating-reachability argument) and checks that the attained value
equals the matching size, a same-size certificate of optimality.

Vertices are 1-based on both sides.  Graphs are immutable; all functions
are pure and deterministic (searches visit vertices in ascending order).
"""

from __future__ import annotations

from collections import deque
from operator import lt
from collections.abc import Iterable, Sequence

from .game import _Frozen


class BipartiteGraph(_Frozen):
    """Left-ordered bipartite graph; ``adj[i - 1]`` lists the sorted right
    neighbors of left vertex i.  Left indices carry the total order of
    their labels."""

    __slots__ = __match_args__ = ("left_count", "right_count", "adj")
    left_count: int
    right_count: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(
        self, left_count: int, right_count: int, adj: tuple[tuple[int, ...], ...]
    ) -> None:
        _Frozen.__init__(self, left_count, right_count, adj)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        if len(self.adj) != self.left_count:
            raise ValueError(
                f"adjacency has {len(self.adj)} rows for {self.left_count} left vertices"
            )
        for i, nbrs in enumerate(self.adj, start=1):
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
        adj = tuple(tuple(col[p] for p in row if p in col) for row in rows)
        return cls(left_count=len(rows), right_count=len(right), adj=adj)

    def right_adj(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in range(self.right_count)]
        for l, nbrs in enumerate(self.adj, start=1):
            for r in nbrs:
                rows[r - 1].append(l)
        return tuple(tuple(row) for row in rows)


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


def _grow_matching(adj: Sequence[Sequence[int]], target: int) -> dict[int, int]:
    """Kuhn's augmenting-path search: match vertex j = 0, 1, ... to a
    neighbour in ``adj[j]``, searching from each vertex in turn, until
    the matching has ``target`` pairs or every vertex was tried; returns
    it as a neighbour -> vertex map; a vertex without neighbours changes
    nothing.  Depth first without recursion: ``stack`` holds the vertices
    on the path with their neighbour iterators, ``path[i]`` the neighbour
    taken from ``stack[i]``.  A failed search leaves its visited
    neighbours marked until the next augmentation, since no augmenting
    path runs through them before the matching changes."""
    mate: dict[int, int] = {}
    visited: set[int] = set()
    for j in range(len(adj)):
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
            for (k, _), step in zip(stack, path):
                mate[step] = k
            if len(mate) == target:
                return mate
            visited.clear()
            break
    return mate


def max_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by ``_grow_matching`` from the left
    side, left vertices tried in ascending order, so the returned pair
    set is deterministic."""
    mate = _grow_matching(g.adj, min(g.left_count, g.right_count))
    return Matching(frozenset((l + 1, r) for r, l in mate.items()))


def deficiency_witness(g: BipartiteGraph) -> DeficiencyWitness:
    """Minimizing subset C of the right side B for |B - C| + |gamma(C)|.

    Construction: from a maximum matching, grow alternating-path
    reachability from the unmatched right vertices (non-matching edges
    to the left, matching edges back); C is the reached part of B.
    Raises ArithmeticError unless the attained value equals the size of
    the matching, the certificate that both are optimal.
    """
    m = max_matching(g)
    right_adj = g.right_adj()
    mate_of_left = dict(m.pairs)
    reached = set(range(1, g.right_count + 1)).difference(mate_of_left.values())
    reached_left: set[int] = set()
    q = deque(sorted(reached))
    while q:
        for l in right_adj[q.popleft() - 1]:
            if l in reached_left:
                continue
            reached_left.add(l)
            r2 = mate_of_left.get(l)
            if r2 is not None and r2 not in reached:
                reached.add(r2)
                q.append(r2)

    gamma = frozenset(l for r in reached for l in right_adj[r - 1])
    value = (g.right_count - len(reached)) + len(gamma)
    if value != m.size:
        raise ArithmeticError(
            f"deficiency value {value} differs from the matching size {m.size}"
        )
    return DeficiencyWitness(C=frozenset(reached), gamma=gamma, value=value)
