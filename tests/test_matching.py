import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from faultsched import (
    BipartiteGraph,
    DeficiencyWitness,
    Matching,
    deficiency_witness,
    max_matching,
)
from faultsched import matching


def brute_max_matching_size(g: BipartiteGraph) -> int:
    """Independent oracle: maximum over all ways of matching each left
    vertex to an unused neighbor or skipping it."""

    def grow(l: int, used: frozenset[int]) -> int:
        if l > g.left_count:
            return 0
        best = grow(l + 1, used)
        for r in g.adj[l - 1]:
            if r not in used:
                best = max(best, 1 + grow(l + 1, used | {r}))
        return best

    return grow(1, frozenset())


def random_graph(rng: random.Random, max_left: int = 6, max_right: int = 6) -> BipartiteGraph:
    lc = rng.randint(0, max_left)
    rc = rng.randint(0, max_right)
    adj = tuple(tuple(r for r in range(1, rc + 1) if rng.random() < 0.4) for _ in range(lc))
    return BipartiteGraph(left_count=lc, right_count=rc, adj=adj)


def gamma_of(g: BipartiteGraph, c) -> frozenset[int]:
    """Left neighbours of the right vertices ``c``, read off ``g.adj``."""
    return frozenset(l for l, nbrs in enumerate(g.adj, start=1) if set(nbrs) & set(c))


def is_matching_of(m: Matching, g: BipartiteGraph) -> bool:
    return all(r in g.adj[l - 1] for l, r in m.pairs)


def test_adjacency_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=1, right_count=2, adj=((2, 1),))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=1, right_count=3, adj=((1, 3, 2),))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=1, right_count=3, adj=((1, 2, 2, 3),))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=2, right_count=2, adj=((1,),))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=-1, right_count=2, adj=())


def test_list_adjacency_is_stored_as_tuples():
    """A graph built from lists hashes, equals the one built from tuples,
    and gives no handle to change its edges after the checks."""
    rows = [[1]]
    g = BipartiteGraph(1, 1, rows)
    assert g.adj == ((1,),) and g == BipartiteGraph(1, 1, ((1,),))
    assert hash(g) == hash(BipartiteGraph(1, 1, ((1,),)))
    rows[0].append(5)
    assert g.adj == ((1,),)


@pytest.mark.parametrize("adj,message", [
    (5, "adj must be iterable, got int"),
    ([5], "neighbors of left vertex 1 must be iterable, got int"),
    (None, "adj must be iterable, got NoneType"),
])
def test_non_iterable_adjacency_named(adj, message):
    """An adjacency, or a row of it, that is not iterable raises a
    ValueError that names it, not a bare TypeError."""
    with pytest.raises(ValueError) as e:
        BipartiteGraph(1, 1, adj)
    assert str(e.value) == message


def test_non_int_counts_rejected():
    with pytest.raises(ValueError, match="vertex counts must be integers"):
        BipartiteGraph(2, 2.0, ((1.5,), (True,)))


def test_non_int_neighbours_rejected():
    # Once built, this graph made deficiency_witness index a list by 1.5.
    with pytest.raises(ValueError, match="neighbors of left vertex 1 must be integers"):
        BipartiteGraph(2, 3, ((1.5,), (True, 2)))


def test_from_edges_validation():
    """An edge to a right vertex out of range, or a repeated edge, is rejected."""
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=2, right_count=2, adj=((3,), ()))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=2, right_count=2, adj=((0,), ()))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=2, right_count=2, adj=((1, 1), ()))


def test_from_rows_over_a_subset_of_ids():
    # The two-pool case: with N1 = 5 the right side is the type-1 part
    # (3, 5) of the last set (3, 5, 6, 8); ids outside it drop out.
    g = BipartiteGraph.from_rows(((1, 3, 6, 7), (5, 6, 7, 8), (2, 4, 6, 8)), (3, 5))
    assert (g.left_count, g.right_count) == (3, 2)
    assert g.adj == ((1,), (2,), ())
    assert max_matching(g).size == 2


def test_from_rows_without_rows():
    g = BipartiteGraph.from_rows((), (2, 4, 6))
    assert (g.left_count, g.right_count, g.adj) == (0, 3, ())
    assert max_matching(g).size == 0
    assert BipartiteGraph.from_rows((), ()) == BipartiteGraph(left_count=0, right_count=0, adj=())


def test_matching_disjointness_enforced():
    with pytest.raises(ValueError):
        Matching(pairs=frozenset({(1, 1), (1, 2)}))
    with pytest.raises(ValueError):
        Matching(pairs=frozenset({(1, 1), (2, 1)}))


def test_perfect_matching():
    g = BipartiteGraph(left_count=2, right_count=2, adj=((1,), (2,)))
    m = max_matching(g)
    assert m.size == 2
    assert m.pairs == frozenset({(1, 1), (2, 2)})


def test_star_graph():
    g = BipartiteGraph(left_count=1, right_count=3, adj=((1, 2, 3),))
    assert max_matching(g).size == 1
    w = deficiency_witness(g)
    assert w.value == 1
    assert (w.C, w.gamma) == (frozenset({1, 2, 3}), frozenset({1}))


def test_edgeless():
    g = BipartiteGraph(left_count=3, right_count=3, adj=((), (), ()))
    assert max_matching(g).size == 0
    w = deficiency_witness(g)
    assert w.value == 0
    assert w.C == frozenset({1, 2, 3})
    assert w.gamma == frozenset()


def test_augmenting_path_needed():
    g = BipartiteGraph(left_count=3, right_count=3, adj=((1,), (1, 2), (2, 3)))
    assert max_matching(g).size == 3


def test_empty_graph():
    g = BipartiteGraph(left_count=0, right_count=0, adj=())
    assert max_matching(g).size == 0
    assert deficiency_witness(g) == DeficiencyWitness(C=frozenset(), gamma=frozenset(), value=0)


def test_matching_deterministic():
    g = BipartiteGraph(left_count=3, right_count=3, adj=((1, 2), (1, 2), (3,)))
    first = max_matching(g)
    assert all(max_matching(g).pairs == first.pairs for _ in range(5))


def test_matching_pairs_are_edges():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        assert is_matching_of(max_matching(g), g)


def test_matching_size_against_brute():
    rng = random.Random(5)
    # Stopping once the untried vertices cannot reach min(3, 5) pairs
    # would end this one at size 1.
    cut_short = BipartiteGraph(left_count=3, right_count=5, adj=((1, 2, 5), (), (1, 3, 4)))
    for g in [cut_short, *(random_graph(rng) for _ in range(100))]:
        assert max_matching(g).size == brute_max_matching_size(g)


class ReadCounter(list):
    """A list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


def test_capped_search_returns_the_unbounded_map():
    # Any bound at or above the matching number stops the search only
    # once the matching is maximum, where every later search would fail
    # and leave the map as it is: the same pairs in the same order.
    # Up to 12 members over 6 steps, so that about half the searches
    # stop before their last member, and the uniform lists of K_{f,n}.
    rng = random.Random(45)
    graphs = [[sorted(rng.sample(range(1, 7), rng.randint(0, 6)))
               for _ in range(rng.randint(0, 12))] for _ in range(2000)]
    graphs += [[list(range(1, f + 1)) for _ in range(n)] for n in range(2, 9) for f in range(1, n)]
    stopped = 0
    for adj in graphs:
        mate = matching._grow_matching(adj)
        for cap in range(len(mate), len(adj) + 2):
            assert list(matching._grow_matching(adj, cap).items()) == list(mate.items())
        matching._grow_matching(read := ReadCounter(adj), len(mate))
        stopped += len(read.read) < len(adj)
    assert stopped >= 900


def test_capped_search_stops_at_its_bound():
    # At the batch schedule's t* for n = 40, f = 10 the n members share
    # one history of f steps.  With the bound f the search reads the
    # first f members' lists and no other; without it, all n.
    n, f = 40, 10
    adj = ReadCounter([list(range(1, f + 1)) for _ in range(n)])
    mate = matching._grow_matching(adj, f)
    assert len(mate) == f and adj.read == set(range(f))
    adj.read.clear()
    assert matching._grow_matching(adj) == mate and adj.read == set(range(n))


def test_witness_attains_formula():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng)
        w = deficiency_witness(g)
        assert w.gamma == gamma_of(g, w.C)
        assert w.value == (g.right_count - len(w.C)) + len(w.gamma)
        assert w.value == max_matching(g).size


def test_witness_checks_its_matching(monkeypatch):
    # Against a matching that is not maximum, the witness value exceeds
    # the matching size, and the witness must refuse to certify it.
    g = BipartiteGraph(left_count=1, right_count=1, adj=((1,),))
    monkeypatch.setattr(matching, "_grow_matching", lambda adj: {})
    with pytest.raises(ArithmeticError, match="deficiency value 1 is not the matching size 0"):
        deficiency_witness(g)


def all_maximum_matchings(g: BipartiteGraph) -> list[frozenset[tuple[int, int]]]:
    """Every maximum matching of ``g``, by brute force."""
    found: list[frozenset[tuple[int, int]]] = []

    def grow(l: int, pairs: tuple[tuple[int, int], ...]) -> None:
        if l > g.left_count:
            found.append(frozenset(pairs))
            return
        grow(l + 1, pairs)
        used = {r for _, r in pairs}
        for r in g.adj[l - 1]:
            if r not in used:
                grow(l + 1, pairs + ((l, r),))

    grow(1, ())
    nu = max(len(m) for m in found)
    return [m for m in found if len(m) == nu]


def member_side(g: BipartiteGraph) -> BipartiteGraph:
    """``g`` with its sides swapped: left vertex r of the result lists
    the left neighbours of right vertex r of ``g``, as the witness
    routine's lists do."""
    lefts = [[] for _ in range(g.right_count)]
    for l, nbrs in enumerate(g.adj, start=1):
        for r in nbrs:
            lefts[r - 1].append(l)
    return BipartiteGraph(g.right_count, g.left_count, tuple(map(tuple, lefts)))


def test_witness_does_not_depend_on_the_maximum_matching(monkeypatch):
    # C is the set of right vertices that some maximum matching leaves
    # free, so any maximum matching gives the same witness.  The search,
    # which runs from the right vertices, is replaced by the
    # lexicographically last maximum matching in that orientation, which
    # differs from the one it finds on many of these graphs.
    rng = random.Random(19)
    graphs = [random_graph(rng) for _ in range(300)]
    expected = [deficiency_witness(g) for g in graphs]
    sides = [member_side(g) for g in graphs]
    found = [max_matching(h).pairs for h in sides]
    last = {h.adj: max(all_maximum_matchings(h), key=sorted) for h in sides}
    assert sum(last[h.adj] != pairs for h, pairs in zip(sides, found)) >= 30
    monkeypatch.setattr(
        matching,
        "_grow_matching",
        lambda adj: {l: r - 1 for r, l in last[tuple(map(tuple, adj))]},
    )
    assert [deficiency_witness(g) for g in graphs] == expected


def step_side_witness(g: BipartiteGraph) -> DeficiencyWitness:
    """The witness as built from the left side: the maximum matching
    that ``max_matching`` finds, ``g.adj`` inverted for the right
    vertices' neighbours, and the alternating reach from the free right
    vertices (non-matching edges to the left, matching edges back)."""
    mate_of_left = dict(max_matching(g).pairs)
    lefts = member_side(g).adj
    reached = set(range(1, g.right_count + 1)).difference(mate_of_left.values())
    gamma = set()
    stack = list(reached)
    while stack:
        for l in lefts[stack.pop() - 1]:
            if l not in gamma:
                gamma.add(l)
                if l in mate_of_left:
                    reached.add(mate_of_left[l])
                    stack.append(mate_of_left[l])
    value = (g.right_count - len(reached)) + len(gamma)
    assert value == len(mate_of_left)
    return DeficiencyWitness(C=frozenset(reached), gamma=frozenset(gamma), value=value)


def test_witness_matches_step_side_reference():
    # The witness matches from the right vertices and the reference from
    # the left; on graphs of every density the two must agree.
    rng = random.Random(29)
    for _ in range(20_000):
        lc, rc, density = rng.randint(0, 8), rng.randint(0, 8), rng.random()
        rows = (tuple(r for r in range(1, rc + 1) if rng.random() < density) for _ in range(lc))
        g = BipartiteGraph(lc, rc, tuple(rows))
        assert deficiency_witness(g) == step_side_witness(g)


def test_witness_is_minimum_over_all_subsets():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, max_left=5, max_right=5)
        w = deficiency_witness(g)
        b = range(1, g.right_count + 1)
        for k in range(g.right_count + 1):
            for c in itertools.combinations(b, k):
                assert w.value <= (g.right_count - len(c)) + len(gamma_of(g, c))


@settings(max_examples=60)
@given(st.data())
def test_hypothesis_matching_duality(data):
    lc = data.draw(st.integers(0, 5))
    rc = data.draw(st.integers(0, 5))
    row = st.sets(st.integers(1, rc)) if rc else st.just(set())
    adj = tuple(tuple(sorted(data.draw(row))) for _ in range(lc))
    g = BipartiteGraph(left_count=lc, right_count=rc, adj=adj)
    nu = max_matching(g).size
    assert nu == brute_max_matching_size(g)
    assert deficiency_witness(g).value == nu


def test_long_augmenting_path_needs_no_recursion():
    # The second phase augments along a 1,501-step path: 1501 -> 1 -> 2 ...
    adj = tuple((i, i + 1) for i in range(1, 1501)) + ((1,),)
    g = BipartiteGraph(left_count=1501, right_count=1501, adj=adj)
    m = max_matching(g)
    assert m.size == 1501
    assert is_matching_of(m, g)
