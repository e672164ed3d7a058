import itertools

import pytest

from faultsched import (
    BudgetExceededError,
    GameParams,
    TwoPoolParams,
    brute_optimum,
    h_value,
    two_pool_best_split,
    two_pool_brute_optimum,
    two_pool_lower_bound,
)


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


class TestBruteProbe:
    def test_symmetric_example_is_tight(self):
        tp = TwoPoolParams(N1=4, N2=4, n=4, g1=1, g2=1)
        assert two_pool_brute_optimum(tp) == 2

    def test_quorums_fill_the_set(self):
        tp = TwoPoolParams(N1=3, N2=3, n=2, g1=1, g2=1)
        assert two_pool_brute_optimum(tp) == 0

    def test_degenerate_matches_single_pool_brute(self):
        for big_n, n, g1 in ((5, 2, 1), (4, 3, 1), (6, 3, 2), (4, 2, 1)):
            tp = TwoPoolParams(N1=big_n, N2=0, n=n, g1=g1, g2=0)
            assert two_pool_brute_optimum(tp) == brute_optimum(
                GameParams(N=big_n, n=n, f=n - g1)
            )

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
