import itertools

import pytest

from faultsched import (
    BipartiteGraph,
    BudgetExceededError,
    GameParams,
    TwoPoolParams,
    brute_optimum,
    h_value,
    max_matching,
    two_pool_best_split,
    two_pool_brute_optimum,
    two_pool_lower_bound,
)


def guarded_cells():
    """Every configuration within the probe's size guard,
    N1 + N2 <= 8 and n <= 4, the degenerate N2 = 0 ones included."""
    return [
        TwoPoolParams(N1, N2, n, g1, g2)
        for N1 in range(1, 9)
        for N2 in range(0, 9 - N1)
        for n in range(1, 5)
        for g1 in range(1, n + 1)
        for g2 in ([0] if N2 == 0 else range(1, n - g1 + 1))
    ]


def plain_two_pool_search(tp):
    """The plain two-pool prefix search, the reference for
    ``two_pool_brute_optimum``: yields every prefix it tests, each
    extension of a live prefix by one of the n-subsets that meet both
    quorums with zero faults, up to length N1 + N2, with whether it is
    live.  No relabeling; the dead test is a maximum matching per type
    of the newest row's type-i members into the earlier rows, which
    breaks quorum i when it reaches count_i - g_i."""
    total = tp.N1 + tp.N2
    candidates = [
        c for c in itertools.combinations(range(1, total + 1), tp.n)
        if sum(p <= tp.N1 for p in c) >= tp.g1 and sum(p > tp.N1 for p in c) >= tp.g2
    ]

    def live(prefix, c):
        for is_type1, quorum in ((True, tp.g1), (False, tp.g2)):
            rights = tuple(p for p in c if (p <= tp.N1) == is_type1)
            if quorum and max_matching(
                BipartiteGraph.from_rows(prefix, rights)
            ).size >= len(rights) - quorum:
                return False
        return True

    def grow(prefix):
        for c in candidates:
            ok = live(prefix, c)
            yield prefix + (c,), ok
            if ok and len(prefix) + 1 < total:
                yield from grow(prefix + (c,))

    return grow(())


def deepest_live(tested):
    return max((len(prefix) for prefix, ok in tested if ok), default=0)


def enumerate_bound(tp: TwoPoolParams) -> int:
    """Independent re-derivation: scan every split by hand."""
    best = 0
    for n1 in range(tp.g1, tp.n + 1):
        n2 = tp.n - n1
        if n1 > tp.N1 or not (tp.g2 <= n2 <= tp.N2):
            continue
        term1 = h_value(n1, n1 - tp.g1, tp.N1)
        if n2 == 0:
            best = max(best, term1)
        else:
            best = max(best, min(term1, h_value(n2, n2 - tp.g2, tp.N2)))
    return best


def test_symmetric_example():
    tp = TwoPoolParams(N1=4, N2=4, n=4, g1=1, g2=1)
    assert two_pool_lower_bound(tp) == 2
    assert two_pool_best_split(tp) == (2, (2, 2))
    assert enumerate_bound(tp) == 2


def test_split_bound_is_not_tight():
    """At N1 = N2 = 5, n = 5, g1 = g2 = 1 the best split (2 + 3) gives 2,
    but a schedule whose split changes from row to row (3 + 2, 3 + 2,
    2 + 3) survives 3 rounds against each of its 125 kill sequences,
    replayed here with no matching or class code.  Pool 1 is ids 1-5."""
    tp = TwoPoolParams(N1=5, N2=5, n=5, g1=1, g2=1)
    assert two_pool_best_split(tp) == (2, (2, 3)) and enumerate_bound(tp) == 2
    sets = ((1, 2, 3, 6, 7), (1, 2, 3, 8, 9), (4, 5, 6, 7, 10))
    survivals = []
    for kills in itertools.product(*sets):
        dead: set[int] = set()
        for t, (row, kill) in enumerate(zip(sets, kills), start=1):
            dead.add(kill)
            alive = [p for p in row if p not in dead]
            if sum(p <= tp.N1 for p in alive) < tp.g1 or sum(p > tp.N1 for p in alive) < tp.g2:
                survivals.append(t - 1)
                break
        else:
            survivals.append(len(sets))
    assert len(survivals) == 125 and min(survivals) == 3


def test_quorums_fill_the_set():
    tp = TwoPoolParams(N1=3, N2=3, n=2, g1=1, g2=1)
    assert two_pool_lower_bound(tp) == 0
    tp = TwoPoolParams(N1=5, N2=5, n=4, g1=2, g2=2)
    assert two_pool_lower_bound(tp) == 0


def test_degenerate_single_pool():
    tp = TwoPoolParams(N1=7, N2=0, n=4, g1=1, g2=0)
    assert two_pool_lower_bound(tp) == h_value(4, 3, 7) == 5
    assert two_pool_best_split(tp) == (5, (4, 0))


def test_no_admissible_split():
    tp = TwoPoolParams(N1=1, N2=1, n=4, g1=1, g2=1)
    assert two_pool_best_split(tp) == (0, None)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N1=0, N2=4, n=2, g1=1, g2=1),
        dict(N1=4, N2=4, n=2, g1=0, g2=1),
        dict(N1=4, N2=0, n=2, g1=1, g2=1),
        dict(N1=4, N2=4, n=2, g1=2, g2=1),
        dict(N1=4, N2=-1, n=2, g1=1, g2=1),
        dict(N1=4, N2=4, n=0, g1=0, g2=0),
    ],
)
def test_invalid_params(kwargs):
    with pytest.raises(ValueError):
        TwoPoolParams(**kwargs)


@pytest.mark.parametrize("field", ["N1", "N2", "n", "g1", "g2"])
@pytest.mark.parametrize("convert", [float, bool])
def test_non_int_params_rejected(field, convert):
    """The type check runs first, so a float or a bool is rejected for its
    type, even where it equals a valid value."""
    kwargs = dict(N1=1, N2=1, n=2, g1=1, g2=1)
    TwoPoolParams(**kwargs)
    kwargs[field] = convert(kwargs[field])
    with pytest.raises(ValueError, match="must be integers"):
        TwoPoolParams(**kwargs)


def test_min_dominance_large_second_pool():
    for n1_cap in (2, 3, 4):
        tp = TwoPoolParams(N1=4, N2=10**6, n=n1_cap + 1, g1=1, g2=1)
        bound = two_pool_lower_bound(tp)
        best_type1 = max(
            h_value(n1, n1 - 1, 4) for n1 in range(1, min(n1_cap, 4) + 1)
        )
        assert bound <= best_type1
        assert bound == enumerate_bound(tp)


def test_bound_matches_enumeration_sweep():
    for N1, N2, n, g1, g2 in itertools.product(
        range(1, 6), range(0, 6), range(1, 6), range(1, 4), range(0, 4)
    ):
        if g1 + g2 > n:
            continue
        if (N2 == 0) != (g2 == 0):
            continue
        tp = TwoPoolParams(N1=N1, N2=N2, n=n, g1=g1, g2=g2)
        assert two_pool_lower_bound(tp) == enumerate_bound(tp)


def per_split_best(tp: TwoPoolParams) -> tuple[int, tuple[int, int] | None]:
    """The split rule written one split at a time: every n1 in 0..n
    passes the admissibility test g_i <= n_i <= N_i, its value is the
    min over the types with n_i > 0 (0 when none), and the first
    maximizing split wins."""
    best, best_split = 0, None
    for n1 in range(tp.n + 1):
        n2 = tp.n - n1
        if not (tp.g1 <= n1 <= tp.N1 and tp.g2 <= n2 <= tp.N2):
            continue
        terms = [h_value(n_i, n_i - g_i, big_n)
                 for n_i, g_i, big_n in ((n1, tp.g1, tp.N1), (n2, tp.g2, tp.N2)) if n_i > 0]
        value = min(terms) if terms else 0
        if best_split is None or value > best:
            best, best_split = value, (n1, n2)
    return best, best_split


def test_best_split_matches_per_split_rule():
    cells = [
        TwoPoolParams(N1, N2, n, g1, g2)
        for N1, N2, n in itertools.product(range(1, 9), range(0, 9), range(1, 10))
        for g1 in range(1, n + 1)
        for g2 in ([0] if N2 == 0 else range(1, n - g1 + 1))
    ]
    assert len(cells) == 8040
    for tp in cells:
        assert two_pool_best_split(tp) == per_split_best(tp), tp


class TestBruteProbe:
    def test_symmetric_example_is_tight(self):
        tp = TwoPoolParams(N1=4, N2=4, n=4, g1=1, g2=1)
        assert two_pool_brute_optimum(tp) == 2

    def test_quorums_fill_the_set(self):
        tp = TwoPoolParams(N1=3, N2=3, n=2, g1=1, g2=1)
        assert two_pool_brute_optimum(tp) == 0

    def test_degenerate_matches_single_pool_brute(self):
        cells = [tp for tp in guarded_cells() if tp.N2 == 0 and tp.g1 < tp.n <= tp.N1]
        assert len(cells) == 34
        for tp in cells:
            assert two_pool_brute_optimum(tp) == brute_optimum(
                GameParams(N=tp.N1, n=tp.n, f=tp.n - tp.g1)
            )

    def test_matches_plain_search(self):
        cells = [tp for tp in guarded_cells() if tp.N2 > 0 or tp.N1 <= 5]
        assert len(cells) == 280 + 50
        for tp in cells:
            assert two_pool_brute_optimum(tp) == deepest_live(plain_two_pool_search(tp))

    @pytest.mark.parametrize(
        "tp",
        [tp for tp in guarded_cells() if tp.N1 + tp.N2 <= 5],
        ids=lambda tp: f"{tp.N1}-{tp.N2}-{tp.n}-{tp.g1}-{tp.g2}",
    )
    def test_states_are_orbits(self, tp):
        # The probe tests one state per orbit of the prefixes the plain
        # search tests, under every relabeling that keeps each pool's
        # ids in that pool, the orbit's representative being its least
        # relabeling.
        total = tp.N1 + tp.N2
        relabelings = [
            dict(zip(range(1, total + 1), q1 + q2))
            for q1 in itertools.permutations(range(1, tp.N1 + 1))
            for q2 in itertools.permutations(range(tp.N1 + 1, total + 1))
        ]
        tested = list(plain_two_pool_search(tp))
        orbits = {
            min(tuple(tuple(sorted(m[p] for p in row)) for row in prefix) for m in relabelings)
            for prefix, _ in tested
        }
        value = deepest_live(tested)
        assert two_pool_brute_optimum(tp, max_states=max(len(orbits), 1)) == value
        if len(orbits) > 1:
            with pytest.raises(BudgetExceededError):
                two_pool_brute_optimum(tp, max_states=len(orbits) - 1)

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            two_pool_brute_optimum(TwoPoolParams(N1=6, N2=3, n=2, g1=1, g2=1))
        with pytest.raises(BudgetExceededError):
            two_pool_brute_optimum(TwoPoolParams(N1=4, N2=4, n=5, g1=1, g2=1))

    def test_max_states_must_be_positive(self):
        tp = TwoPoolParams(N1=2, N2=2, n=2, g1=1, g2=1)
        for max_states in (0, -5):
            with pytest.raises(ValueError):
                two_pool_brute_optimum(tp, max_states)

    def test_probe_matches_direct_game_enumeration(self):
        configs = [
            TwoPoolParams(N1=2, N2=2, n=2, g1=1, g2=1),
            TwoPoolParams(N1=3, N2=1, n=2, g1=1, g2=1),
            TwoPoolParams(N1=2, N2=2, n=3, g1=1, g2=1),
            TwoPoolParams(N1=2, N2=2, n=4, g1=1, g2=1),
        ]
        for tp in configs:
            assert two_pool_brute_optimum(tp) == direct_two_pool_optimum(tp)


def direct_two_pool_optimum(tp: TwoPoolParams) -> int:
    """Fully independent oracle: enumerate every full-length schedule over
    all size-n sets and every kill sequence, simulating the two-quorum
    survival rule directly."""
    total = tp.N1 + tp.N2
    pool = range(1, total + 1)
    all_sets = list(itertools.combinations(pool, tp.n))

    def survival(sets, kills) -> int:
        dead = set()
        for t, (row, kill) in enumerate(zip(sets, kills), start=1):
            dead.add(kill)
            alive1 = sum(1 for p in row if p <= tp.N1 and p not in dead)
            alive2 = sum(1 for p in row if p > tp.N1 and p not in dead)
            if alive1 < tp.g1 or alive2 < tp.g2:
                return t - 1
        return len(sets)

    def min_survival(sets) -> int:
        return min(
            survival(sets, kills)
            for kills in itertools.product(*sets)
        )

    return max(min_survival(sets) for sets in itertools.product(all_sets, repeat=total))
