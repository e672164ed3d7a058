import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

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
from faultsched.oracle import _class_matching_number


def grid(max_n):
    return [GameParams(big_n, n, f)
            for big_n in range(2, max_n + 1) for n in range(2, big_n + 1) for f in range(1, n)]


def classes(prefix, big_n):
    """The class state of a prefix: how many ids have each incidence
    vector, bit u set iff the id is in row u."""
    vectors = Counter(sum(1 << u for u, row in enumerate(prefix) if p in row)
                      for p in range(1, big_n + 1))
    return tuple(sorted(vectors.items()))


def plain_search(params):
    """The plain prefix search, the reference for ``brute_optimum``:
    yields every prefix it tests, each extension of a live prefix by
    one of the n-subsets up to length N, with whether it is live (its
    newest time graph has matching number below f)."""
    candidates = list(itertools.combinations(range(1, params.N + 1), params.n))

    def grow(prefix):
        for c in candidates:
            live = max_matching(BipartiteGraph.from_rows(prefix, c)).size < params.f
            yield prefix + (c,), live
            if live and len(prefix) + 1 < params.N:
                yield from grow(prefix + (c,))

    return grow(())


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_states=0)
    assert SearchBudget().max_states == 10**8


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

    def test_matches_plain_search_to_six(self):
        cells = grid(6)
        assert len(cells) == 35
        for p in cells:
            plain = max(len(prefix) for prefix, live in plain_search(p) if live)
            assert plain == brute_optimum(p) == h_value(p.n, p.f, p.N)

    def test_matches_closed_form_to_seven(self):
        cells = grid(7)
        assert GameParams(7, 5, 4) in cells
        for p in cells:
            assert brute_optimum(p) == h_value(p.n, p.f, p.N)

    @pytest.mark.parametrize("params", grid(5), ids=str)
    def test_states_are_orbits(self, params):
        # The search up to relabeling tests one state per orbit of the
        # prefixes the plain search tests, the orbit's representative
        # being its least relabeling over all N! permutations of the ids.
        relabelings = [dict(zip(range(1, params.N + 1), q))
                       for q in itertools.permutations(range(1, params.N + 1))]
        orbits = {min(tuple(tuple(sorted(m[p] for p in row)) for row in prefix)
                      for m in relabelings)
                  for prefix, _ in plain_search(params)}
        value = h_value(params.n, params.f, params.N)
        assert brute_optimum(params, SearchBudget(max_states=len(orbits))) == value
        with pytest.raises(BudgetExceededError):
            brute_optimum(params, SearchBudget(max_states=len(orbits) - 1))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_class_dead_test_is_the_matching_number(self, data):
        big_n = data.draw(st.integers(2, 7))
        n = data.draw(st.integers(1, big_n))
        row = st.sets(st.integers(1, big_n), min_size=n, max_size=n).map(sorted).map(tuple)
        prefix = tuple(data.draw(st.lists(row, min_size=1, max_size=big_n)))
        g = BipartiteGraph.from_rows(prefix[:-1], prefix[-1])
        nu = _class_matching_number(classes(prefix, big_n))
        assert nu == max_matching(g).size == brute_deficiency(g).value

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
