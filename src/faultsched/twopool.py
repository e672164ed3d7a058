"""Heterogeneous pools: two processor types with separate quorums.

Each round now draws its n operating processors from two disjoint pools
and must keep at least g1 non-faulty of type 1 and g2 of type 2.
Dedicating n1 processors to type 1 and n2 = n - n1 to type 2 and
running the two single-pool batch constructions side by side survives
min(h_{n1,n1-g1}(N1), h_{n2,n2-g2}(N2)) rounds, so the best split gives
a lower bound on the two-pool optimum.  Whether that bound is tight is
unknown; ``two_pool_brute_optimum`` probes it by exhaustive search on
tiny pools and is reported side by side with the bound, never asserted
equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .game import BudgetExceededError
from .matching import BipartiteGraph, max_matching
from .oracle import Prefix, _canonical, prefix_search
from .survival import h_value

# Size guard of two_pool_brute_optimum: N1 + N2 <= PROBE_MAX_POOL, n <= PROBE_MAX_N.
PROBE_MAX_POOL = 8
PROBE_MAX_N = 4


@dataclass(frozen=True)
class TwoPoolParams:
    """Pool sizes N1, N2, per-round set size n, quorums g1, g2.

    The degenerate configuration N2 = 0, g2 = 0 is accepted and makes
    the bound collapse to the single-pool value h_{n,n-g1}(N1); apart
    from that case both pools and both quorums must be positive.
    """

    N1: int
    N2: int
    n: int
    g1: int
    g2: int

    def __post_init__(self) -> None:
        if self.N1 < 1 or self.g1 < 1:
            raise ValueError("pool 1 needs N1 >= 1 and g1 >= 1")
        if self.N2 == 0:
            if self.g2 != 0:
                raise ValueError("empty pool 2 requires g2 = 0")
        elif self.N2 < 0 or self.g2 < 1:
            raise ValueError("pool 2 needs N2 >= 1 and g2 >= 1, or N2 = g2 = 0")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.g1 + self.g2 > self.n:
            raise ValueError("quorums exceed the operating set size")


def _split_value(tp: TwoPoolParams, n1: int) -> int:
    """min of the two per-type batch survivals for the split (n1, n - n1);
    a type with zero dedicated processors is admissible only when its
    quorum is zero, and then constrains nothing."""
    n2 = tp.n - n1
    terms = []
    for n_i, g_i, big_n in ((n1, tp.g1, tp.N1), (n2, tp.g2, tp.N2)):
        if n_i == 0:
            continue
        terms.append(h_value(n_i, n_i - g_i, big_n))
    return min(terms) if terms else 0


def _admissible_splits(tp: TwoPoolParams) -> list[int]:
    return [
        n1
        for n1 in range(tp.n + 1)
        if tp.g1 <= n1 <= tp.N1 and tp.g2 <= tp.n - n1 <= tp.N2
    ]


def two_pool_best_split(tp: TwoPoolParams) -> tuple[int, tuple[int, int] | None]:
    """Best lower bound and a maximizing split (n1, n2); bound 0 with
    split None when no split is admissible."""
    best = 0
    best_split: tuple[int, int] | None = None
    for n1 in _admissible_splits(tp):
        value = _split_value(tp, n1)
        if best_split is None or value > best:
            best, best_split = value, (n1, tp.n - n1)
    return best, best_split


def two_pool_lower_bound(tp: TwoPoolParams) -> int:
    """max over splits n1 + n2 = n, g_i <= n_i <= N_i of
    min(h_{n1,n1-g1}(N1), h_{n2,n2-g2}(N2))."""
    return two_pool_best_split(tp)[0]


def _type_counts(members: tuple[int, ...], n1_pool: int) -> tuple[int, int]:
    a = sum(1 for p in members if p <= n1_pool)
    return a, len(members) - a


def _killable(prefix: Prefix, tp: TwoPoolParams) -> bool:
    """Whether some kill sequence breaks a quorum at the last round.

    Breaking quorum i at round t takes count_i - g_i + 1 dead type-i
    members of S_t.  One kill lands at t itself (a live type-i member
    always remains at that point, since g_i >= 1); the rest must come
    from earlier rounds, one per round, each a member of that round's
    set, which is a per-type maximum matching question on the last
    time graph.  A zero quorum demands nothing and cannot break.
    """
    last = prefix[-1]
    a, b = _type_counts(last, tp.N1)
    for is_type1, count, quorum in ((True, a, tp.g1), (False, b, tp.g2)):
        if quorum == 0:
            continue
        need_earlier = count - quorum
        if need_earlier <= 0:
            return True
        rights = tuple(p for p in last if (p <= tp.N1) == is_type1)
        if max_matching(BipartiteGraph.from_rows(prefix[:-1], rights)).size >= need_earlier:
            return True
    return False


def two_pool_brute_optimum(tp: TwoPoolParams, max_states: int = 10**7) -> int:
    """Exact two-pool optimum on tiny instances, by prefix search.

    Experimental probe only: N1 + N2 > PROBE_MAX_POOL or n > PROBE_MAX_N
    raises ``BudgetExceededError``.  Candidate sets already meeting a
    quorum with zero faults are the only ones considered; prefixes are deduplicated up to
    relabeling within each type.  ``max_states`` must be positive, as
    in ``SearchBudget``.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    total = tp.N1 + tp.N2
    if total > PROBE_MAX_POOL or tp.n > PROBE_MAX_N:
        raise BudgetExceededError(
            f"probe limited to N1+N2 <= {PROBE_MAX_POOL} and n <= {PROBE_MAX_N}, "
            f"got {total} and {tp.n}"
        )
    candidates = []
    for c in itertools.combinations(range(1, total + 1), tp.n):
        a, b = _type_counts(c, tp.N1)
        if a >= tp.g1 and b >= tp.g2:
            candidates.append(c)

    def children(prefix: Prefix) -> Iterator[Prefix]:
        # Relabeling keeps a child's earlier rows, its parent, so only
        # siblings can coincide.
        return iter(dict.fromkeys(_canonical(prefix + (c,), tp.N1) for c in candidates))

    return prefix_search(
        (),
        children,
        lambda prefix: _killable(prefix, tp),
        total,
        max_states,
        label="two-pool probe",
    )
