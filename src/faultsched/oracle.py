"""Brute-force reference implementations.

Everything here recomputes by direct enumeration what the fast modules
obtain through matchings or closed forms: ``brute_adversary_min`` plays
out every kill sequence, round by round over the distinct sets of kills,
with no matching code; ``brute_optimum`` searches schedule prefixes up to
relabeling: it runs a greedy matching while it draws each row, so that
it never builds a row the greedy calls dead, settles most of the rows it
builds by two counts on classes of ids and the few they leave open by
the library's one matcher, ``_grow_matching``, and skips most prefixes
that it has expanded in another order of their rows.  The two-pool probe
runs the same draw and dead test.  Budgets are hard caps: exceeding one
raises.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_

from .game import BudgetExceededError, GameParams, Schedule, _require_valid
from .matching import _grow_matching
from .matching import max_matching  # noqa: F401 - perfbench/tracer.py wraps oracle.max_matching

Prefix = tuple[tuple[int, ...], ...]
# (incidence vector, number of ids with it), sorted by vector
Classes = tuple[tuple[int, int], ...]
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without loading typing (see survival.py)
if TYPE_CHECKING:
    from collections.abc import Callable, Hashable, Iterable
    from typing import TypeVar
    Node = TypeVar("Node")


# RSS per kill set on a 10^6-set frontier: 66 bytes at 60-bit masks, 98 at 200 (CPython 3.11).
_MAX_KILL_SETS = 10**6


def brute_adversary_min(s: Schedule) -> int:
    """Exact minimum of ``survival_time`` over all kill sequences.

    Breadth first over the distinct kill sets, one round at a time, in
    one loop, so a long schedule needs no deep recursion.  The run can
    end at the first round whose set already holds f dead members of
    some kill set (one more kill, which exists since f < n, makes f + 1);
    the minimum is the number of rounds before it, or ``len(s)`` when no
    round has one.  A kill set is a bit mask (bit p for processor p) of
    the dead processors that some later set holds: one that no later set
    holds cannot end the run, and dropping it merges kill sets, so a
    schedule of disjoint sets keeps one.  A round makes n kill sets per
    kill set before it; ``BudgetExceededError`` is raised before the
    total made would pass ``_MAX_KILL_SETS``, which also caps memory.
    """
    _require_valid(s)
    f = s.params.f
    rows = [[1 << p for p in row] for row in s.sets]
    # later[t]: the processors of the sets after round t + 1
    later = [*accumulate(map(sum, rows[:0:-1]), or_, initial=0)][::-1]
    frontier, made = {0}, 0
    for survived, (row, alive) in enumerate(zip(rows, later)):
        used = sum(row)
        if any((killed & used).bit_count() >= f for killed in frontier):
            return survived
        made += len(frontier) * len(row)
        if made > _MAX_KILL_SETS:
            raise BudgetExceededError(f"over {_MAX_KILL_SETS} kill sets by round {survived + 1}")
        frontier = {(killed | p) & alive for killed in frontier for p in row}
    return len(s)


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
    key: Callable[[Node], Hashable],
    depth: int,
    max_states: int,
    label: str = "prefix search",
) -> int:
    """Length of the longest chain of at most ``depth`` extensions of
    ``root``, each one of ``children`` of the one before, none of them
    ``dead``.

    Depth first, in the order ``children`` gives, with a transposition
    table of the keys of the states it has expanded: a live child whose
    ``key`` is among them is not expanded again.  Two states with equal
    keys must have the same depth and the same subtrees up to that
    equality, children and dead tests alike; the class searches' key is
    a relabeling of the state (``_class_key``), so equal keys are
    isomorphic states, and the subtree of the one expanded first holds
    a chain as deep as any below the other (isomorph rejection, McKay
    1998).  ``key`` is read only on live children: a dead test may read
    what a key leaves out (the class searches' reads which row is the
    newest), and a dead state recorded as expanded would hide its live
    isomorphs.  Besides the table, only the open iterators of the
    current path are kept.  Every child that ``children`` gives is
    tested and counts as a state (one it leaves out is neither);
    more than ``max_states`` of them raises
    ``BudgetExceededError``, so the table, one key per expanded state,
    holds fewer; a ``max_states`` that is not an int of at least 1
    raises ``ValueError``.  ``brute_optimum`` and the two-pool probe
    both run it.
    """
    if type(max_states) is not int or max_states < 1:
        raise ValueError(f"max_states must be positive and an int, got {max_states!r}")
    states = 0
    best = 0
    expanded: set[Hashable] = set()
    stack = [iter(children(root))]
    while stack:
        for child in stack[-1]:
            states += 1
            if states > max_states:
                raise BudgetExceededError(f"{label} exceeded max_states={max_states}")
            if not dead(child):
                best = max(best, len(stack))
                if len(stack) < depth and (k := key(child)) not in expanded:
                    expanded.add(k)
                    stack.append(iter(children(child)))
                    break
        else:
            stack.pop()
    return best


def _class_children(state: Classes, n: int, f: int, bit: int) -> list[Classes]:
    """Every way to draw the next row's n ids from the classes of
    ``state``, k_v of class v, 0 <= k_v <= count_v, but those that a
    greedy matching already calls dead: ``bit`` is the row's, above
    every bit set so far, so the children stay sorted by vector and
    distinct compositions give distinct children.

    The greedy matches the row's ids to distinct earlier steps while it
    draws, in class order, each id taking the lowest free step of its
    class; the row's own bit counts as one step (the kill at the row
    itself).  Once it holds more than f steps, its matching number is
    at least f, so the row is dead, and it stops raising k_v; later
    classes only add steps, so the children it keeps are the others, in
    the same order.  The class searches' dead test runs no greedy: this
    draw is its only copy.  The two-pool probe draws each pool's part of
    a row from that pool's classes alone, whose top class need not hold
    the newest row, so the caller gives the bit."""
    room = sum(c for _, c in state)  # ids in the classes not yet drawn from
    partial = [(n, (), (), bit)]  # (ids left to draw, classes kept, classes drawn, greedy's steps)
    for v, c in state:
        room -= c
        grown = []
        for rest, kept, drawn, steps in partial:
            free = v & ~steps
            for k in range(min(c, rest) + 1):
                if steps.bit_count() > f:
                    break
                if k >= rest - room:
                    grown.append((rest - k, kept + ((v, c - k),) if k < c else kept,
                                  drawn + ((v | bit, k),) if k else drawn, steps))
                steps |= free & -free
                free &= free - 1
        partial = grown
    return [kept + drawn for _, kept, drawn, _ in partial]


def _class_matching_number(state: Classes) -> int:
    """Matching number of the newest row's time graph, by
    ``_grow_matching`` on the row's members: the k of them drawn from
    class v share one list, the earlier steps (bits) of v."""
    top = state[-1][0].bit_length() - 1
    members = []
    for v, k in state:
        if v >> top:
            members += [[u for u in range(top) if v >> u & 1]] * k
    return len(_grow_matching(members))


def _class_dead(state: Classes, f: int) -> bool:
    """Whether the newest row's time graph has matching number at least
    ``f``.  Two counts over the classes the row meets are upper bounds
    on nu, so each settles only live states: the number of the row's ids
    that meet an earlier row, and the size of the union of their earlier
    steps (the fresh class, ids in no earlier row, has no steps and is
    skipped).  A state neither settles, every dead one among them, runs
    ``_class_matching_number``.  No greedy runs here: ``_class_children``
    builds no row that a greedy matching calls dead."""
    top = 1 << (state[-1][0].bit_length() - 1)
    seen = union = 0
    for v, k in state:
        if v > top:
            seen += k
            union |= v ^ top
    if seen < f or union.bit_count() < f:
        return False
    return _class_matching_number(state) >= f


def _class_key(state: Classes, low: int = 0) -> Classes:
    """``state`` with its row bits, those from bit ``low`` up, put in
    descending order of a signature that relabeling keeps, ties broken
    by bit: the sorted ``(count, popcount)`` of the classes holding the
    row.  Descending relabels fewer states than ascending (1,132 and
    1,271 of the 1,640 keys built on the cells up to N=8); a state left
    in its own order needs no copy.

    The key is a relabeled copy of the state, rows and ids alike, so
    states with equal keys are isomorphic, and a miss only costs time;
    bits below ``low`` stay in place.  A dead test that reads only the
    newest row against the set of the rows before it gives isomorphic
    states the same subtrees.  A state of one class (all its rows are
    equal) or of fewer than 3 rows, and one whose rows are in order, is
    its own key."""
    if len(state) < 2 or state[-1][0] >> low < 4:
        return state
    rows = range(low, state[-1][0].bit_length())
    order = sorted(rows, key=lambda u: sorted((c, v.bit_count()) for v, c in state if v >> u & 1),
                   reverse=True)
    if order == [*rows]:
        return state
    fixed = (1 << low) - 1
    return tuple(sorted((sum(1 << i for i, u in enumerate(order, low) if v >> u & 1) | v & fixed, c)
                        for v, c in state))


def brute_optimum(params: GameParams, max_states: int = 10**8) -> int:
    """Exact optimum worst-case survival by prefix search up to
    relabeling of the ids.

    A schedule survives t rounds iff its first t sets form a prefix
    whose every time graph has matching number below f, so the optimum
    equals the deepest such prefix (never deeper than N).  A state is
    the multiset of the ids' incidence vectors (bit u set iff the id is
    in S_{u+1}), as ``(vector, count)`` pairs sorted by vector; its
    children are ``_class_children`` drawn with f, which builds none
    that its greedy matching calls dead, it is dead, and pruned, when
    ``_class_dead`` finds its matching number at least f, and its key is
    ``_class_key``.  ``prefix_search`` enforces ``max_states``, which
    counts only the children built: up to N=7, 8 and 9 they are 439,
    1,934 and 13,563 states, of which 11, 127 and 2,019 run the exact
    test, where drawing every row builds 1,940, 14,897 and 189,474.
    """
    return prefix_search(
        ((0, params.N),),
        lambda state: _class_children(state, params.n, params.f, 1 << state[-1][0].bit_length()),
        lambda state: _class_dead(state, params.f),
        _class_key,
        params.N,
        max_states,
    )
