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
lists of the members of S_t alone.  A step t <= f is settled unread: its
time graph has only t - 1 < f earlier steps.  Later steps have an upper
bound on the matching number, the fewer of the members seen before and
the distinct earlier steps among them (one list's length when all are
equal, as in the batch schedule), and a bound below f settles the step.
Otherwise the augmenting-path search behind ``max_matching`` runs once,
from the members over their own lists, and stops when its matching
reaches the bound; at t* its maximum matching is returned as sorted
(step, member index) pairs.  A row equal to the row before keeps that
row's lists, to which the earlier step is already appended, and whether
they are all equal, which appending one step to each cannot change; so
the batch schedule, which uses each batch for f rows in a row and pads
with its last set, looks its members up and compares their lists once
per run of equal rows.

``PInstance`` packages the abstract form of a surviving prefix: rows of
degree n whose time graphs all have matching number at most f - 1.  Its
constructor, the one check of instance input (``codec.load_instance``
passes it the fields of a JSON file), reads the rows through
``Schedule``'s reader, which leaves ids that do not compare unsorted
for the check to reject.  ``reduce_instance`` shrinks a member by one
row, trading rows against right vertices at the rate the survival
function prescribes; its one scan gives its Ore lists or a non-member's
reason.  The instances and kill sequences built here come from a
checked instance or a validated schedule, and are born checked.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import lt

from .codec import instance_to_dict, load_instance  # noqa: F401 - perfbench/workloads.py calls them
from .game import Adversary, Schedule, _Frozen, _listed, _require_valid, _rows
from .matching import BipartiteGraph, _grow_matching, _ore_witness
from .matching import deficiency_witness, max_matching  # noqa: F401 - perfbench's tracer wraps them


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
        right_ids = tuple(_listed(right_ids, "right_ids"))
        if {*map(type, right_ids)} - {int}:
            raise ValueError("right ids must be integers")
        if not all(map(lt, right_ids, right_ids[1:])):
            raise ValueError("right_ids must be strictly ascending")
        if right_ids and right_ids[0] < 1:
            raise ValueError("right ids must be positive")
        universe = set(right_ids)
        rows = _rows(rows, "row")
        for i, row in enumerate(rows, start=1):
            if {*map(type, row)} - {int} or not universe.issuperset(row):  # True and 1.0 hash as 1
                raise ValueError(f"row {i} uses ids outside right_ids")
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"row {i} repeats an id")
        _Frozen.__init__(self, n, f, right_ids, rows)

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
    if type(t) is not int or not (1 <= t <= len(s)):
        raise ValueError(f"t={t!r} outside schedule of length {len(s)}")
    return BipartiteGraph.from_rows(s.sets[: t - 1], s.sets[t - 1])


def _scan(
    rows: tuple[tuple[int, ...], ...], n: int, f: int
) -> tuple[int, list | None]:
    """First t at which row t has a degree other than n, or its time
    graph over the earlier rows has matching number at least f.  Returns
    t with that maximum matching as sorted (step, member index) pairs
    (None on a degree failure), or, when every row passes, 0 with the
    last row's members' step lists, each ending with the last step (None
    with no rows), from which ``reduce_instance`` reads its Ore lists.
    Callers validate their input first.  The module docstring says how a
    step is settled.  At a searched step the search runs from its members
    in order, each over its ascending earlier steps, as ``max_matching``
    does on ``from_rows`` of those lists over ``range(1, t)``, with each
    pair flipped.  It stops at the step's bound, where its matching is
    already maximum, so it returns the pairs of the search run to the end."""
    steps: dict[int, list[int]] = {}
    prev = lists = None
    for t, row in enumerate(rows, start=1):
        if len(row) != n:
            return t, None
        if row != prev:
            prev, lists = row, [steps.get(p) or steps.setdefault(p, []) for p in row]
            uniform = lists.count(lists[0]) == n
        if t > f:
            cap = len(lists[0]) if uniform else n - lists.count([])
            if not uniform and cap >= f:
                cap = min(cap, len(set().union(*lists)))
            if cap >= f:
                mate = _grow_matching(lists, cap)
                if len(mate) >= f:
                    return t, sorted((u, j + 1) for u, j in mate.items())
        for seen in lists:
            seen.append(t)
    return 0, lists


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
    because f < n.  Which maximum matching the scan finds (its search
    runs from the members of S_t*) is implementation-defined, and so are
    the kills; any replays to exactly the minimal survival time.
    """
    _require_valid(s)
    t_star, pairs = _scan(s.sets, s.params.n, s.params.f)
    kills = [st[0] for st in s.sets]
    if not t_star:
        return Adversary._from_checked(tuple(kills))
    right_ids = s.sets[t_star - 1]
    hit = set()
    for u, j in pairs[: s.params.f]:
        kills[u - 1] = right_ids[j - 1]
        hit.add(right_ids[j - 1])
    kills[t_star - 1] = min(p for p in right_ids if p not in hit)
    return Adversary._from_checked(tuple(kills))


def surviving_prefix_instance(s: Schedule) -> PInstance:
    """Instance formed by the rounds strictly before the first killable
    one (the whole schedule when none is killable): rows of the validated
    schedule, over right ids 1..N."""
    p = s.params
    rows = s.sets[: minimal_survival_time(s)]
    return PInstance._from_checked(p.n, p.f, tuple(range(1, p.N + 1)), rows)


def membership_in_P(inst: PInstance) -> MembershipReport:
    """Degree-and-matching membership test: an instance belongs iff every
    row has exactly n entries and every time graph has matching number at
    most f - 1.  The report names the first left index violating either."""
    t, pairs = _scan(inst.rows, inst.n, inst.f)
    if t == 0:
        return MembershipReport(member=True, violating_t=0, reason="")
    return MembershipReport(member=False, violating_t=t, reason=_reason(inst, t, pairs))


def _reason(inst: PInstance, t: int, pairs: list | None) -> str:
    """Why ``inst`` fails at row t, from ``_scan``'s return (t, pairs)."""
    return (f"row {t} has degree {len(inst.rows[t - 1])}, expected {inst.n}" if pairs is None
            else f"time graph at t={t} has matching number {len(pairs)} >= f={inst.f}")


def reduce_instance(inst: PInstance) -> PInstance:
    """One-row reduction preserving membership.

    Let L be the row count and B the last row.  A deficiency witness C
    of the time graph at L, over its right side B, read off the scan's
    lists of the members' earlier rows by ``_ore_witness`` with no graph
    built, satisfies |B - C| + |gamma(C)| = nu <= f - 1.  Dropping row L,
    every earlier row meeting C, and the right vertices of C yields an
    instance with L' = L - 1 - |gamma_{I_L}(C)| rows over |R| - |C| right
    ids that still belongs; its rows and ids are those of ``inst`` that
    are kept, so it is not checked again.  Raises on non-members and on
    empty instances.
    """
    t, lists = _scan(inst.rows, inst.n, inst.f)  # on a failure, lists holds the pairs
    if t:
        raise ValueError(f"instance is not reducible: {_reason(inst, t, lists)}")
    if inst.left_count == 0:
        raise ValueError("cannot reduce an instance with no rows")

    *earlier, last_row = inst.rows
    wit = _ore_witness([seen[:-1] for seen in lists], last_row)
    keep_rows = tuple(row for u, row in enumerate(earlier, start=1) if u not in wit.gamma)
    keep_ids = tuple(p for p in inst.right_ids if p not in wit.C)
    reduced = PInstance._from_checked(inst.n, inst.f, keep_ids, keep_rows)

    if reduced.left_count != len(earlier) - len(wit.gamma):
        raise RuntimeError(
            f"reduced instance has {reduced.left_count} rows, "
            f"expected L - 1 - |gamma(C)| = {len(earlier) - len(wit.gamma)}"
        )
    return reduced
