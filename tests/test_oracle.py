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
    brute_adversary_min,
    brute_optimum,
    h_value,
    max_matching,
    minimal_survival_time,
    trivial_schedule,
)
from faultsched import oracle
from faultsched.oracle import (
    _class_children,
    _class_dead,
    _class_key,
    _class_matching_number,
    prefix_search,
)
from reference import brute_deficiency, greedy_matching_size, random_schedule


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


def class_state(data, sizes):
    """A drawn class state with rows of the given sizes, its ``low`` (1
    when bit 0 is a two-pool type bit below the row bits) and its row
    bits.  The key reads no row size, so the sizes may differ."""
    big_n = max(sizes)
    low = data.draw(st.integers(0, 1))
    kinds = data.draw(st.lists(st.integers(0, low), min_size=big_n, max_size=big_n))
    prefix = [data.draw(st.sets(st.integers(1, big_n), min_size=n, max_size=n)) for n in sizes]
    vectors = Counter(kinds[p - 1] | sum(1 << u for u, row in enumerate(prefix, low) if p in row)
                      for p in range(1, big_n + 1))
    return tuple(sorted(vectors.items())), low, range(low, low + len(prefix))


def relabel(state, moved):
    """``state`` with each row bit u moved to ``moved[u]``, other bits in place."""
    return tuple(sorted((sum(1 << moved.get(u, u) for u in range(v.bit_length()) if v >> u & 1), c)
                        for v, c in state))


def new_bit(state):
    """The bit of the row drawn next from ``state``, above every bit set."""
    return 1 << state[-1][0].bit_length()


def newest_members(state):
    """Each member of the newest row of a class state, as its list of
    earlier steps: the k drawn from class v share the earlier bits of v."""
    top = state[-1][0].bit_length() - 1
    return [[u for u in range(top) if v >> u & 1] for v, k in state if v >> top for _ in range(k)]


def unmerged_search(params, max_states, prune=False):
    """``brute_optimum``'s class search with a key that never merges two
    states, so that it tests every class state it reaches; its children
    are pruned by the greedy only when ``prune`` is set, and drawn with a
    cap of n + 1 steps, which no greedy passes, when it is not."""
    cap = params.f if prune else params.n + 1
    return prefix_search(((0, params.N),),
                         lambda state: _class_children(state, params.n, cap, new_bit(state)),
                         lambda state: _class_matching_number(state) >= params.f,
                         lambda state: state, params.N, max_states)


def searched_states(monkeypatch, max_n, prune=True):
    """Every state ``brute_optimum`` tests on the grid up to ``max_n``,
    as (state, n, f), and those of them that ran the exact test.  Without
    ``prune`` its children are drawn with a cap of n + 1 steps, which no
    greedy passes, so it also tests the children that the greedy calls
    dead."""
    tested, exact_tested = [], []
    children, dead, exact = _class_children, oracle._class_dead, oracle._class_matching_number
    with monkeypatch.context() as m:
        m.setattr(oracle, "_class_matching_number",
                  lambda state: exact_tested.append(state) or exact(state))
        if not prune:
            m.setattr(oracle, "_class_children",
                      lambda state, n, f, bit: children(state, n, n + 1, bit))
        for p in grid(max_n):
            m.setattr(oracle, "_class_dead",
                      lambda state, f, n=p.n: tested.append((state, n, f)) or dead(state, f))
            brute_optimum(p)
    return tested, exact_tested


def deficiency_of(state):
    """Matching number of the newest row's time graph of a class state,
    by ``brute_deficiency``, which has no matching code, on the graph of
    the state's ids and rows: class (v, c) stands for c ids, each in the
    rows u with bit u of v set."""
    ids = [v for v, c in state for _ in range(c)]
    rows = [tuple(p for p, v in enumerate(ids, 1) if v >> u & 1)
            for u in range(state[-1][0].bit_length())]
    return brute_deficiency(BipartiteGraph.from_rows(rows[:-1], rows[-1])).value


def test_budget_validation():
    for max_states in (0, -5):
        with pytest.raises(ValueError, match="max_states must be positive"):
            brute_optimum(GameParams(4, 2, 1), max_states)


@pytest.mark.parametrize("max_states", [20.5, 1e9, True, "100"])
def test_brute_optimum_rejects_non_int_budget(max_states):
    with pytest.raises(ValueError, match=f"must be positive and an int, got {max_states!r}"):
        brute_optimum(GameParams(4, 2, 1), max_states=max_states)


def test_brute_adversary_min_takes_only_a_schedule():
    with pytest.raises(TypeError):
        brute_adversary_min(trivial_schedule(GameParams(4, 2, 1)), 15)


def test_dead_states_do_not_hide_their_live_isomorphs():
    # Rows x and y; a state is dead by its newest row against the set of
    # the rows before it, and its key forgets the rows' order.  "yx" is
    # dead and tested before "xy", which has the same key and is the
    # only way to depth 3 ("xyy").
    dead_pairs = {("y", frozenset("y")), ("x", frozenset("y")), ("x", frozenset("x"))}
    assert prefix_search("", lambda s: (s + "y", s + "x"),
                         lambda s: (s[-1], frozenset(s[:-1])) in dead_pairs,
                         lambda s: "".join(sorted(s)), 3, 100) == 3


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

    def test_budget_guard(self, monkeypatch):
        """Rounds 1 and 2 of the padded batch schedule each make two kill
        sets from one, and round 3 ends the run: four kill sets in all."""
        s = trivial_schedule(GameParams(4, 2, 1))
        monkeypatch.setattr(oracle, "_MAX_KILL_SETS", 4)
        assert brute_adversary_min(s) == 2
        monkeypatch.setattr(oracle, "_MAX_KILL_SETS", 3)
        with pytest.raises(BudgetExceededError, match="^over 3 kill sets by round 2$"):
            brute_adversary_min(s)

    def test_budget_counts_kill_sets_not_sequences(self):
        """2^30 kill sequences, far past the budget, but disjoint sets
        keep one kill set in each round, which makes two."""
        s = Schedule(GameParams(60, 2, 1), [(2 * i + 1, 2 * i + 2) for i in range(30)])
        assert 2**30 > oracle._MAX_KILL_SETS
        assert brute_adversary_min(s) == minimal_survival_time(s) == 30

    def test_disjoint_sets(self):
        """No processor is used twice, so no kill set outlives its round:
        2^20 kill sequences, and one kill set in each round."""
        s = Schedule(GameParams(40, 2, 1), tuple((2 * t - 1, 2 * t) for t in range(1, 21)))
        assert brute_adversary_min(s) == minimal_survival_time(s) == 20

    def test_long_chain_needs_no_recursion(self):
        """1,500 rounds, far past the interpreter's recursion limit: every
        set pairs processor 1 with a new one, so killing 1 and then the
        new member of round 2 ends the run after one round."""
        s = Schedule(GameParams(1501, 2, 1), tuple((1, t + 1) for t in range(1, 1501)))
        assert brute_adversary_min(s) == minimal_survival_time(s) == 1


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
        # The class search tests one state per orbit of the prefixes the
        # plain search tests, the orbit's representative being its least
        # relabeling over all N! permutations of the ids, when its key
        # never merges states; the transposition table only removes some.
        relabelings = [dict(zip(range(1, params.N + 1), q))
                       for q in itertools.permutations(range(1, params.N + 1))]
        orbits = {min(tuple(tuple(sorted(m[p] for p in row)) for row in prefix)
                      for m in relabelings)
                  for prefix, _ in plain_search(params)}
        value = h_value(params.n, params.f, params.N)
        assert brute_optimum(params, len(orbits)) == value
        assert unmerged_search(params, len(orbits)) == value
        with pytest.raises(BudgetExceededError):
            unmerged_search(params, len(orbits) - 1)

    def test_matches_closed_form_to_eight(self):
        cells = grid(8)
        assert len(cells) == 84
        for p in cells:
            assert brute_optimum(p) == h_value(p.n, p.f, p.N)

    def test_transposition_table_merges_isomorphs(self):
        # (8,6,5) tests 394 states, where the search that never merges
        # tests 1,899 (30,336 when its children are not pruned).
        params = GameParams(8, 6, 5)
        assert brute_optimum(params, 394) == h_value(6, 5, 8) == 6
        with pytest.raises(BudgetExceededError):
            brute_optimum(params, 393)
        assert unmerged_search(params, 1899, prune=True) == 6
        with pytest.raises(BudgetExceededError):
            unmerged_search(params, 1898, prune=True)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_class_key_is_a_relabeling(self, data):
        # Some order of the row bits maps the state onto its key, so equal
        # keys are isomorphic states, and the counts, the multiset of
        # (popcount, count) and the type bit below ``low`` are kept.
        sizes = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
        state, low, bits = class_state(data, sizes)
        key = _class_key(state, low)
        assert sorted((v.bit_count(), c) for v, c in key) == sorted(
            (v.bit_count(), c) for v, c in state)
        assert sorted((v & low, c) for v, c in key) == sorted((v & low, c) for v, c in state)
        assert any(relabel(state, dict(zip(bits, q))) == key for q in itertools.permutations(bits))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_class_key_forgets_row_order_when_signatures_differ(self, data):
        # The signature of a row is the sorted (count, popcount) of the
        # classes holding it; when no two rows share one, every order of
        # the rows has the same key.  Its counts sum to the row's size, so
        # rows of distinct sizes have distinct signatures.
        sizes = data.draw(st.lists(st.integers(1, 7), min_size=3, max_size=6, unique=True))
        state, low, bits = class_state(data, sizes)
        order = data.draw(st.permutations(bits))
        assert _class_key(relabel(state, dict(zip(bits, order))), low) == _class_key(state, low)

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

    def test_class_dead_agrees_with_ore_on_every_tested_state(self, monkeypatch):
        # Ore's deficiency formula by subset enumeration is the reference
        # of both the exact test and the dead test that it backs, on the
        # states tested when the children are drawn with a cap that no
        # greedy passes, so that the dead states, which the draw with f
        # never builds, are checked too.
        tested, _ = searched_states(monkeypatch, 7, prune=False)
        assert len(tested) == 1940
        for state, n, _ in tested:
            nu = deficiency_of(state)
            assert _class_matching_number(state) == nu, state
            for f in range(-1, n + 2):
                assert _class_dead(state, f) == (nu >= f), (state, f)

    def test_exact_test_agrees_with_ore_on_every_state_it_settles_to_eight(self, monkeypatch):
        _, exact_tested = searched_states(monkeypatch, 8)
        assert len(exact_tested) == 127
        for state in exact_tested:
            assert _class_matching_number(state) == deficiency_of(state), state

    def test_class_dead_rarely_needs_ore(self, monkeypatch):
        # Drawn with f, the greedy leaves out 1,501 of the 1,940 states
        # that the draw with a cap no greedy passes tests up to N=7, all
        # dead, and the two counts settle all but 11 of the other 439; a
        # dropped bound raises the count.  The counts bound the matching
        # number from above, so they settle only live states: every dead
        # state runs the exact test, the 1,504 of the 1,940 as the 3 of
        # the 439, and the same 8 live states are left open in both.
        for prune, pinned in ((False, (1512, 1940, 1504)), (True, (11, 439, 3))):
            tested, exact_tested = searched_states(monkeypatch, 7, prune)
            dead = sum(_class_matching_number(s) >= f for s, _, f in tested)
            assert (len(exact_tested), len(tested), dead) == pinned

    def test_pruned_children_are_the_children_the_greedy_keeps(self, monkeypatch):
        # For every state brute_optimum expands up to N=7 and every f, the
        # children drawn with f are those drawn with a cap that no greedy
        # passes less the ones whose greedy matching, recomputed on plain
        # lists by tests/reference.py, is at least f, in the same order.
        expanded = []
        with monkeypatch.context() as m:
            m.setattr(oracle, "_class_children",
                      lambda state, n, f, bit: expanded.append((state, n, bit))
                      or _class_children(state, n, f, bit))
            for p in grid(7):
                brute_optimum(p)
        assert len(expanded) == 354  # the 56 roots among them
        for state, n, bit in expanded:
            assert bit == new_bit(state)
            drawn = _class_children(state, n, n + 1, bit)
            greedy = [greedy_matching_size(newest_members(c)) for c in drawn]
            for f in range(-1, n + 2):
                assert _class_children(state, n, f, bit) == [
                    c for c, size in zip(drawn, greedy) if size < f]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_class_dead_is_the_matching_number_at_least_f(self, data):
        big_n = data.draw(st.integers(2, 7))
        n = data.draw(st.integers(1, big_n))
        row = st.sets(st.integers(1, big_n), min_size=n, max_size=n)
        state = classes(data.draw(st.lists(row, min_size=1, max_size=big_n)), big_n)
        nu = _class_matching_number(state)
        for f in range(-1, n + 2):
            assert _class_dead(state, f) == (nu >= f)

    def test_budget_guard(self):
        # (5,2,1) tests 2 states: only rows that meet no earlier row are
        # drawn, {1,2} and then {3,4}.
        assert brute_optimum(GameParams(5, 2, 1), 2) == 2
        with pytest.raises(BudgetExceededError):
            brute_optimum(GameParams(5, 2, 1), 1)

    def test_memory_is_bounded_by_the_path(self):
        # Only the siblings of the prefixes on the current path and the
        # keys of the expanded states are kept, not every state the search
        # has tested (1.26 MB here when they were; about 4.6 kB now).
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

    @pytest.mark.parametrize("length,seed", [
        (2.0, 7), (True, 7), (2, None), (2, 1.5), (2, "abc"), (2, True),
    ])
    def test_non_int_length_or_seed(self, length, seed):
        # A float length used to die inside range(), length=True gave one
        # row, and seed=None a new schedule on every call.
        with pytest.raises(ValueError, match="must be an int") as e:
            random_schedule(GameParams(4, 2, 1), length, seed)
        assert str(e.value).endswith(f"got length={length!r}, seed={seed!r}")

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
