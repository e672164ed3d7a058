"""Killability analysis of schedules via bipartite time graphs.

For a schedule S_1, ..., S_T the time graph at t pairs earlier times
u < t (left) with the members of S_t (right); (u, p) is an edge iff
p is in both S_u and S_t.  A maximum matching of size at least f in
that graph is exactly a plan for the adversary to have f members of
S_t already dead by time t, one killed per earlier round.  The first
such t, written t* here, pins down the minimal survival time, and a
truncated matching converts into an explicit kill sequence.

The scan for t* never builds a time graph.  It keeps, for each
processor, the steps where it appeared so far, and tests step t on the
lists of the members of S_t alone: fewer than f members seen before, or
fewer than f distinct earlier steps among them, settles the step.
Otherwise the lists are inverted into the time graph's adjacency and
the augmenting-path search behind ``max_matching`` runs once; at t* its
maximum matching is returned as sorted (step, member index) pairs.

``PInstance`` packages the abstract form of a surviving prefix: rows of
degree n whose time graphs all have matching number at most f - 1.  Its
constructor is the one check of instance input, one pass per row, and
``surviving_prefix_instance`` is one scan plus one instance of t* - 1
rows.  ``reduce_instance`` shrinks a member by one row, trading rows
against right vertices at the rate the survival function prescribes.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import lt
from os import PathLike

from .game import Adversary, Schedule, _Frozen, _require_valid, read_document, write_document
from .matching import BipartiteGraph, _grow_matching, deficiency_witness
from .matching import max_matching  # noqa: F401 - perfbench/tracer.py wraps solver.max_matching


class PInstance(_Frozen):
    """Left-ordered bipartite graph with parameters (n, f): ``rows[i]``
    lists the right ids used by left vertex i + 1.  Right ids are an
    arbitrary ascending subset of the positive integers."""

    __slots__ = __match_args__ = ("n", "f", "right_ids", "rows")
    n: int
    f: int
    right_ids: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(
        self, n: int, f: int, right_ids: Iterable[int], rows: Iterable[Iterable[int]]
    ) -> None:
        if not (type(n) is type(f) is int):
            raise ValueError(f"parameters must be integers, got n={n!r}, f={f!r}")
        if not (1 <= f < n):
            raise ValueError(f"need 1 <= f < n, got n={n} f={f}")
        right_ids = tuple(right_ids)
        if {*map(type, right_ids)} - {int}:
            raise ValueError("right ids must be integers")
        if not all(map(lt, right_ids, right_ids[1:])):
            raise ValueError("right_ids must be strictly ascending")
        if right_ids and right_ids[0] < 1:
            raise ValueError("right ids must be positive")
        universe = set(right_ids)
        norm = []
        for i, row in enumerate(rows, start=1):
            if {*map(type, row)} - {int} or not universe.issuperset(row):  # True and 1.0 hash as 1
                raise ValueError(f"row {i} uses ids outside right_ids")
            norm.append(tuple(sorted(row)))
            if not all(map(lt, norm[-1], norm[-1][1:])):
                raise ValueError(f"row {i} repeats an id")
        _Frozen.__init__(self, n, f, right_ids, tuple(norm))

    @property
    def left_count(self) -> int:
        return len(self.rows)

    @property
    def right_count(self) -> int:
        return len(self.right_ids)


class MembershipReport(_Frozen):
    """Outcome of the degree-and-matching membership test; ``violating_t``
    is the first left index that fails, 0 when the instance belongs."""

    __slots__ = __match_args__ = ("member", "violating_t", "reason")
    member: bool
    violating_t: int
    reason: str


def time_graph(s: Schedule, t: int) -> BipartiteGraph:
    """Time graph of ``s`` at round t, 1 <= t <= len(s): left vertex u is
    the earlier round u < t, right vertex j is the j-th smallest member
    of S_t, and (u, j) is an edge iff that member is in S_u."""
    _require_valid(s)
    if not (1 <= t <= len(s)):
        raise ValueError(f"t={t} outside schedule of length {len(s)}")
    return BipartiteGraph.from_rows(s.sets[: t - 1], s.sets[t - 1])


def _scan(
    rows: tuple[tuple[int, ...], ...], n: int, f: int
) -> tuple[int, list[tuple[int, int]] | None]:
    """First t at which row t has a degree other than n, or its time
    graph over the earlier rows has matching number at least f.  Returns
    t with that maximum matching as sorted (step, member index) pairs
    (None on a degree failure), or (0, None) when every row passes.
    Callers validate their input first.  A searched step's adjacency
    lists the earlier steps ascending, each with the ascending indices of
    its members there: the search runs as in
    ``max_matching(BipartiteGraph.from_rows(rows[: t - 1], row))``."""
    steps: dict[int, list[int]] = {}
    for t, row in enumerate(rows, start=1):
        if len(row) != n:
            return t, None
        lists = [steps.get(p, ()) for p in row]
        if n - lists.count(()) >= f and len(set().union(*lists)) >= f:
            adj: dict[int, list[int]] = {}
            for j, seen in enumerate(lists, start=1):
                for u in seen:
                    adj.setdefault(u, []).append(j)
            order = sorted(adj)
            mate = _grow_matching([adj[u] for u in order], n)
            if len(mate) >= f:
                return t, sorted((order[k], j) for j, k in mate.items())
        for p in row:
            steps.setdefault(p, []).append(t)
    return 0, None


def first_killable_time(s: Schedule) -> int:
    """Smallest t with matching number of the time graph at least f,
    or 0 when no round of ``s`` is killable."""
    _require_valid(s)
    return _scan(s.sets, s.params.n, s.params.f)[0]


def minimal_survival_time(s: Schedule) -> int:
    """Worst-case survival of ``s`` over all adversaries: t* - 1 when a
    killable round t* exists, else the full length."""
    t_star = first_killable_time(s)
    return t_star - 1 if t_star else len(s)


def minimal_adversary(s: Schedule) -> Adversary:
    """A kill sequence attaining ``minimal_survival_time(s)``.

    At the first killable round t* a maximum matching of the time graph
    is truncated to its f earliest-time pairs (the matching number may
    exceed f); each pair (u, p) schedules the kill of p at round u, the
    remaining rounds default to the first member of their set, which is
    its least since sets are kept sorted, and the kill at t* is the
    least member of S_t* outside the truncated matching, which exists
    because f < n.  Which maximum matching the scan finds, the one
    ``max_matching`` finds, is implementation-defined, and so are the
    kills; any replays to exactly the minimal survival time.
    """
    _require_valid(s)
    t_star, pairs = _scan(s.sets, s.params.n, s.params.f)
    kills = [st[0] for st in s.sets]
    if pairs is None:
        return Adversary(kills=tuple(kills))
    right_ids = s.sets[t_star - 1]
    hit = set()
    for u, j in pairs[: s.params.f]:
        kills[u - 1] = right_ids[j - 1]
        hit.add(right_ids[j - 1])
    kills[t_star - 1] = min(p for p in right_ids if p not in hit)
    return Adversary(kills=tuple(kills))


def schedule_instance(s: Schedule) -> PInstance:
    """The schedule itself as a left-ordered instance over pool {1..N}."""
    _require_valid(s)
    p = s.params
    return PInstance(n=p.n, f=p.f, right_ids=range(1, p.N + 1), rows=s.sets)


def surviving_prefix_instance(s: Schedule) -> PInstance:
    """Instance formed by the rounds strictly before the first killable
    one (the whole schedule when none is killable)."""
    end = (first_killable_time(s) or len(s) + 1) - 1
    p = s.params
    return PInstance(n=p.n, f=p.f, right_ids=range(1, p.N + 1), rows=s.sets[:end])


def membership_in_P(inst: PInstance) -> MembershipReport:
    """Degree-and-matching membership test.

    An instance belongs iff every row has exactly n entries and every
    time graph has matching number at most f - 1.  The report names the
    first left index violating either condition.
    """
    t, pairs = _scan(inst.rows, inst.n, inst.f)
    if t == 0:
        return MembershipReport(member=True, violating_t=0, reason="")
    if pairs is None:
        reason = f"row {t} has degree {len(inst.rows[t - 1])}, expected {inst.n}"
    else:
        reason = f"time graph at t={t} has matching number {len(pairs)} >= f={inst.f}"
    return MembershipReport(member=False, violating_t=t, reason=reason)


def instance_to_dict(inst: PInstance) -> dict:
    return {
        "n": inst.n,
        "f": inst.f,
        "right_ids": list(inst.right_ids),
        "rows": [list(row) for row in inst.rows],
    }


def load_instance(path: str | PathLike[str]) -> PInstance:
    return PInstance(**read_document(path, n=0, f=0, right_ids=1, rows=2))


def save_instance(inst: PInstance, path: str | PathLike[str]) -> None:
    write_document(instance_to_dict(inst), path)


def reduce_instance(inst: PInstance) -> PInstance:
    """One-row reduction preserving membership.

    Let L be the row count and B the last row.  A deficiency witness C
    of the time graph at L (over its right side B) satisfies
    |B - C| + |gamma(C)| = nu <= f - 1.  Dropping row L, every earlier
    row meeting C, and the right vertices of C yields an instance with
    L' = L - 1 - |gamma_{I_L}(C)| rows over |R| - |C| right ids that
    still belongs.  Raises on non-members and on empty instances.
    """
    report = membership_in_P(inst)
    if not report.member:
        raise ValueError(f"instance is not reducible: {report.reason}")
    if inst.left_count == 0:
        raise ValueError("cannot reduce an instance with no rows")

    big_l = inst.left_count
    last_row = inst.rows[big_l - 1]
    g = BipartiteGraph.from_rows(inst.rows[:-1], last_row)
    wit = deficiency_witness(g)
    c_ids = frozenset(last_row[j - 1] for j in wit.C)
    gamma = wit.gamma
    keep_rows = tuple(row for u, row in enumerate(inst.rows[:-1], start=1) if u not in gamma)
    keep_ids = tuple(p for p in inst.right_ids if p not in c_ids)
    reduced = PInstance(n=inst.n, f=inst.f, right_ids=keep_ids, rows=keep_rows)

    if reduced.left_count != big_l - 1 - len(gamma):
        raise RuntimeError(
            f"reduced instance has {reduced.left_count} rows, "
            f"expected L - 1 - |gamma(C)| = {big_l - 1 - len(gamma)}"
        )
    return reduced
