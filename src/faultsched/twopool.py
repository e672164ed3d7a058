"""Heterogeneous pools: two processor types with separate quorums.

Each round now draws its n operating processors from two disjoint pools
and must keep at least g1 non-faulty of type 1 and g2 of type 2.
Dedicating n1 processors to type 1 and n2 = n - n1 to type 2 and
running the two single-pool batch constructions side by side survives
min(h_{n1,n1-g1}(N1), h_{n2,n2-g2}(N2)) rounds, so the best split gives
a lower bound on the two-pool optimum.  It is not tight: at N1 = N2 = 5,
n = 5, g1 = g2 = 1 (pool 1 is ids 1-5) it is 2, and (1,2,3,6,7),
(1,2,3,8,9), (4,5,6,7,10) survives 3 rounds.  ``two_pool_brute_optimum``
searches tiny pools by the class search of ``oracle.brute_optimum`` with
the pool type in the class key, drawing each pool's part of a row on its
own, at that pool's need, with the same pruned draw and dead test; its
optimum is reported beside the bound, never equated.
"""

from __future__ import annotations

from .game import BudgetExceededError, _Frozen
from .matching import max_matching  # noqa: F401 - perfbench/tracer.py wraps twopool.max_matching
from .oracle import Classes, _class_children, _class_dead, _class_key, prefix_search
from .survival import h_value

# Size guard of two_pool_brute_optimum: N1 + N2 <= PROBE_MAX_POOL, n <= PROBE_MAX_N.
PROBE_MAX_POOL = 8
PROBE_MAX_N = 4
# Size cap of two_pool_best_split, which evaluates every admissible split:
# a few microseconds apiece, about 0.3 s at the cap.
MAX_SPLITS = 100_000


class TwoPoolParams(_Frozen):
    """Pool sizes N1, N2, per-round set size n, quorums g1, g2.

    The degenerate configuration N2 = 0, g2 = 0 is accepted and makes
    the bound collapse to the single-pool value h_{n,n-g1}(N1); apart
    from that case both pools and both quorums must be positive.
    """

    __slots__ = __match_args__ = ("N1", "N2", "n", "g1", "g2")
    N1: int
    N2: int
    n: int
    g1: int
    g2: int

    def __init__(self, N1: int, N2: int, n: int, g1: int, g2: int) -> None:
        if not (type(N1) is type(N2) is type(n) is type(g1) is type(g2) is int):
            raise ValueError(f"parameters must be integers, got N1={N1!r}, N2={N2!r}, "
                             f"n={n!r}, g1={g1!r}, g2={g2!r}")
        if N1 < 1 or g1 < 1:
            raise ValueError("pool 1 needs N1 >= 1 and g1 >= 1")
        if N2 == 0:
            if g2 != 0:
                raise ValueError("empty pool 2 requires g2 = 0")
        elif N2 < 0 or g2 < 1:
            raise ValueError("pool 2 needs N2 >= 1 and g2 >= 1, or N2 = g2 = 0")
        if n < 1:
            raise ValueError("n must be positive")
        if g1 + g2 > n:
            raise ValueError("quorums exceed the operating set size")
        _Frozen.__init__(self, N1, N2, n, g1, g2)


def two_pool_best_split(tp: TwoPoolParams) -> tuple[int, tuple[int, int] | None]:
    """Best lower bound and a maximizing split (n1, n2); bound 0 with
    split None when no split is admissible.

    A split is admissible when g_i <= n_i <= N_i for both types.  Its
    value is the min of the per-type batch survivals; a type with zero
    dedicated processors (admissible only when its quorum is zero)
    constrains nothing, and with no terms the value is 0.  Raises
    ``BudgetExceededError`` beyond ``MAX_SPLITS`` admissible splits.
    """
    low, high = max(tp.g1, tp.n - tp.N2), min(tp.N1, tp.n - tp.g2)
    if high - low >= MAX_SPLITS:
        raise BudgetExceededError(f"{high - low + 1} admissible splits exceed the cap of "
                                  f"{MAX_SPLITS}")
    best = 0
    best_split: tuple[int, int] | None = None
    for n1 in range(low, high + 1):
        n2 = tp.n - n1
        value = min((h_value(n_i, n_i - g_i, big_n)
                     for n_i, g_i, big_n in ((n1, tp.g1, tp.N1), (n2, tp.g2, tp.N2))
                     if n_i), default=0)
        if best_split is None or value > best:
            best, best_split = value, (n1, n2)
    return best, best_split


def two_pool_lower_bound(tp: TwoPoolParams) -> int:
    """max over splits n1 + n2 = n, g_i <= n_i <= N_i of
    min(h_{n1,n1-g1}(N1), h_{n2,n2-g2}(N2))."""
    return two_pool_best_split(tp)[0]


def _killable(state: Classes, tp: TwoPoolParams) -> bool:
    """Whether some kill sequence breaks a quorum at the newest row.

    Breaking quorum i at round t takes count_i - g_i + 1 dead type-i
    members of S_t.  One kill lands at t itself (a live type-i member
    always remains at that point, since g_i >= 1); the rest, the need
    count_i - g_i, must come from earlier rounds, one per round, each a
    member of that round's set, which is a matching of the row's type-i
    members into the earlier rows: ``_class_dead`` on the type-i classes
    with the type bit cleared says whether one that large exists.  A row
    at its quorum (a need of 0) is dead at once; the probe never draws
    one, as its draw counts the kill at the row itself as one step,
    already more than the need.  A zero quorum demands nothing and
    cannot break.
    """
    top = 1 << (state[-1][0].bit_length() - 1)
    for kind, quorum in ((0, tp.g1), (1, tp.g2)):
        if quorum == 0:
            continue
        classes = tuple((v ^ kind, c) for v, c in state if v & 1 == kind)
        need = sum(c for v, c in classes if v & top) - quorum
        if _class_dead(classes, need):
            return True
    return False


def two_pool_brute_optimum(tp: TwoPoolParams, max_states: int = 10**7) -> int:
    """Exact two-pool optimum on tiny instances, by prefix search up to
    relabeling within each type.

    Experimental probe only: N1 + N2 > PROBE_MAX_POOL or n > PROBE_MAX_N
    raises ``BudgetExceededError``.  It runs the class search of
    ``brute_optimum`` with the pool type in the class key: bit 0 of an
    id's incidence vector is its type, so row bits start at bit 1, no
    class mixes the types, and ``_class_key`` keeps bit 0 in place.
    Only rows already meeting both quorums with zero faults are drawn:
    for each count k of pool-2 ids with g2 <= k <= n - g1, each pool's
    part is drawn by ``_class_children`` from that pool's classes, at
    that pool's need (k - g2 and n - k - g1), so no row is built that a
    greedy matching within one pool calls dead, and the parts are
    merged.  A state is dead when ``_killable`` says so.
    ``prefix_search`` enforces ``max_states``, which must be an int of
    at least 1.
    """
    total = tp.N1 + tp.N2
    if total > PROBE_MAX_POOL or tp.n > PROBE_MAX_N:
        raise BudgetExceededError(
            f"probe limited to N1+N2 <= {PROBE_MAX_POOL} and n <= {PROBE_MAX_N}, "
            f"got {total} and {tp.n}"
        )

    def children(state: Classes) -> list[Classes]:
        # An empty pool 2 leaves out its root class of 0 ids, so that its
        # part, of k = 0 ids (k <= N2), is drawn from no class and never
        # pruned.
        bit = 1 << state[-1][0].bit_length()
        pool1 = tuple((v, c) for v, c in state if not v & 1)
        pool2 = tuple((v ^ 1, c) for v, c in state if v & 1 and c)
        out = []
        for k in range(tp.g2, min(tp.n - tp.g1, tp.N2) + 1):
            twos = [tuple((v | 1, c) for v, c in two)
                    for two in _class_children(pool2, k, k - tp.g2, bit)]
            for ones in _class_children(pool1, tp.n - k, tp.n - k - tp.g1, bit) if twos else ():
                out += [tuple(sorted(ones + two)) for two in twos]
        return out

    return prefix_search(
        ((0, tp.N1), (1, tp.N2)),
        children,
        lambda state: _killable(state, tp),
        lambda state: _class_key(state, 1),
        total,
        max_states,
        label="two-pool probe",
    )
