import itertools
import tracemalloc
from collections import Counter

import pytest

from faultsched import (
    BipartiteGraph,
    BudgetExceededError,
    GameParams,
    Schedule,
    SearchBudget,
    brute_adversary_min,
    brute_deficiency,
    brute_optimum,
    h_value,
    max_matching,
    minimal_survival_time,
    random_schedule,
    trivial_schedule,
)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)
    assert SearchBudget().max_states == 10**8
    assert SearchBudget().symmetry_pruning


class TestBruteAdversaryMin:
    def test_constant_schedule(self):
        s = Schedule(params=GameParams(4, 2, 1), sets=((1, 2),) * 4)
        assert brute_adversary_min(s) == 1

    def test_padded_trivial(self):
        assert brute_adversary_min(trivial_schedule(GameParams(4, 2, 1))) == 2

    def test_unkillable(self):
        s = Schedule(params=GameParams(6, 2, 1), sets=((1, 2), (3, 4), (5, 6)))
        assert brute_adversary_min(s) == 3

    def test_matches_solver(self):
        import random

        rng = random.Random(21)
        for i in range(40):
            n = rng.randint(2, 3)
            f = rng.randint(1, n - 1)
            big_n = rng.randint(n, 8)
            length = rng.randint(1, big_n)
            s = random_schedule(GameParams(big_n, n, f), length, seed=i)
            assert brute_adversary_min(s) == minimal_survival_time(s)

    def test_budget_guard(self):
        s = trivial_schedule(GameParams(4, 2, 1))
        with pytest.raises(BudgetExceededError):
            brute_adversary_min(s, SearchBudget(max_states=15))


class TestBruteOptimum:
    def test_known_value(self):
        assert brute_optimum(GameParams(4, 2, 1)) == 2

    @pytest.mark.parametrize("n,f", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_single_candidate_pool(self, n, f):
        assert brute_optimum(GameParams(N=n, n=n, f=f)) == f

    def test_five_two_one(self):
        assert brute_optimum(GameParams(5, 2, 1)) == 2

    def test_symmetry_pruning_neutral(self):
        for big_n in range(2, 5):
            for n in range(2, big_n + 1):
                for f in range(1, n):
                    p = GameParams(big_n, n, f)
                    with_sym = brute_optimum(p, SearchBudget(symmetry_pruning=True))
                    without = brute_optimum(p, SearchBudget(symmetry_pruning=False))
                    assert with_sym == without == h_value(n, f, big_n)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            brute_optimum(GameParams(5, 2, 1), SearchBudget(max_states=3))

    def test_memory_is_bounded_by_the_path(self):
        # Only the siblings of the prefixes on the current path are kept,
        # not every state the search has visited (1.26 MB here when they were).
        tracemalloc.start()
        try:
            assert brute_optimum(GameParams(6, 4, 3)) == h_value(4, 3, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


class TestBruteDeficiency:
    def test_edgeless(self):
        g = BipartiteGraph(left_count=2, right_count=3, adj=((), ()))
        w = brute_deficiency(g)
        assert w.value == 0
        assert w.C == frozenset({1, 2, 3})
        assert w.gamma == frozenset()

    def test_perfect(self):
        g = BipartiteGraph(left_count=2, right_count=2, adj=((1,), (2,)))
        w = brute_deficiency(g)
        assert w.value == 2
        assert w.C == frozenset()
        assert w.gamma == frozenset()

    def test_tie_breaks_prefer_smaller_subset(self):
        g = BipartiteGraph(left_count=1, right_count=2, adj=((1,),))
        w = brute_deficiency(g)
        assert w.value == 1
        assert w.C == frozenset({2})
        assert w.gamma == frozenset()

    def test_unique_minimizer(self):
        g = BipartiteGraph(left_count=1, right_count=2, adj=((1, 2),))
        w = brute_deficiency(g)
        assert w.value == 1
        assert w.C == frozenset({1, 2})
        assert w.gamma == frozenset({1})

    def test_matches_matching_size(self):
        import random

        rng = random.Random(31)
        for _ in range(60):
            lc, rc = rng.randint(0, 5), rng.randint(0, 5)
            adj = tuple(
                tuple(r for r in range(1, rc + 1) if rng.random() < 0.45) for _ in range(lc)
            )
            g = BipartiteGraph(left_count=lc, right_count=rc, adj=adj)
            w = brute_deficiency(g)
            assert w.value == max_matching(g).size
            assert w.gamma == {l for l, nbrs in enumerate(adj, start=1) if set(nbrs) & w.C}

    def test_side_too_large(self):
        g = BipartiteGraph(left_count=0, right_count=21, adj=())
        with pytest.raises(BudgetExceededError):
            brute_deficiency(g)


class TestRandomSchedule:
    def test_deterministic(self):
        p = GameParams(6, 3, 1)
        a = random_schedule(p, 5, seed=42)
        b = random_schedule(p, 5, seed=42)
        assert a == b
        c = random_schedule(p, 5, seed=43)
        assert a != c

    def test_shape(self):
        p = GameParams(7, 3, 2)
        s = random_schedule(p, 7, seed=0)
        assert len(s) == 7
        for row in s.sets:
            assert len(row) == 3
            assert len(set(row)) == 3
            assert all(1 <= x <= 7 for x in row)
            assert row == tuple(sorted(row))

    def test_invalid_length(self):
        p = GameParams(4, 2, 1)
        with pytest.raises(ValueError):
            random_schedule(p, 0, seed=0)
        with pytest.raises(ValueError):
            random_schedule(p, 5, seed=0)

    def test_frequencies_roughly_uniform(self):
        p = GameParams(4, 2, 1)
        counts = Counter()
        draws = 10_000
        for i in range(draws // 4):
            counts.update(random_schedule(p, 4, seed=i).sets)
        pairs = list(itertools.combinations(range(1, 5), 2))
        assert set(counts) == set(pairs)
        for pair in pairs:
            assert abs(counts[pair] / draws - 1 / 6) < 0.02
