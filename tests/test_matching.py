import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from faultsched import (
    BipartiteGraph,
    Matching,
    deficiency_witness,
    max_matching,
    neighborhood,
)


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
    edges = [
        (l, r)
        for l in range(1, lc + 1)
        for r in range(1, rc + 1)
        if rng.random() < 0.4
    ]
    return BipartiteGraph.from_edges(lc, rc, edges)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 2, [(1, 3)])
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(2, 2, [(1, 1), (1, 1)])


def test_adjacency_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=1, right_count=2, adj=((2, 1),))
    with pytest.raises(ValueError):
        BipartiteGraph(left_count=2, right_count=2, adj=((1,),))


def test_edges_round_trip():
    g = BipartiteGraph.from_edges(2, 3, [(1, 2), (2, 1), (2, 3)])
    assert g.edges == ((1, 2), (2, 1), (2, 3))


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
    assert BipartiteGraph.from_rows((), ()) == BipartiteGraph.from_edges(0, 0, [])


def test_matching_disjointness_enforced():
    with pytest.raises(ValueError):
        Matching(pairs=frozenset({(1, 1), (1, 2)}))
    with pytest.raises(ValueError):
        Matching(pairs=frozenset({(1, 1), (2, 1)}))


def test_neighborhood():
    g = BipartiteGraph.from_edges(3, 3, [(1, 1), (1, 2), (2, 2), (3, 3)])
    assert neighborhood(g, [1], side="left") == frozenset({1, 2})
    assert neighborhood(g, [2], side="right") == frozenset({1, 2})
    assert neighborhood(g, [], side="left") == frozenset()
    with pytest.raises(ValueError):
        neighborhood(g, [4], side="left")
    with pytest.raises(ValueError):
        neighborhood(g, [1], side="middle")


def test_perfect_matching():
    g = BipartiteGraph.from_edges(2, 2, [(1, 1), (2, 2)])
    m = max_matching(g)
    assert m.size == 2
    assert m.pairs == frozenset({(1, 1), (2, 2)})


def test_star_graph():
    g = BipartiteGraph.from_edges(1, 3, [(1, 1), (1, 2), (1, 3)])
    assert max_matching(g).size == 1
    w = deficiency_witness(g, side="right")
    assert w.value == 1


def test_edgeless():
    g = BipartiteGraph.from_edges(3, 3, [])
    assert max_matching(g).size == 0
    w = deficiency_witness(g, side="right")
    assert w.value == 0
    assert w.C == frozenset({1, 2, 3})


def test_augmenting_path_needed():
    g = BipartiteGraph.from_edges(3, 3, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    assert max_matching(g).size == 3


def test_empty_graph():
    g = BipartiteGraph.from_edges(0, 0, [])
    assert max_matching(g).size == 0
    assert deficiency_witness(g, side="left").value == 0


def test_matching_deterministic():
    g = BipartiteGraph.from_edges(3, 3, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    first = max_matching(g)
    assert all(max_matching(g).pairs == first.pairs for _ in range(5))


def test_matching_pairs_are_edges():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng)
        m = max_matching(g)
        assert m.pairs <= set(g.edges)


def test_matching_size_against_brute():
    rng = random.Random(5)
    for _ in range(100):
        g = random_graph(rng)
        assert max_matching(g).size == brute_max_matching_size(g)


@pytest.mark.parametrize("side", ["left", "right"])
def test_witness_attains_formula(side):
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng)
        w = deficiency_witness(g, side=side)
        b_count = g.right_count if side == "right" else g.left_count
        gamma = neighborhood(g, w.C, side=side)
        assert w.side == side
        assert w.value == (b_count - len(w.C)) + len(gamma)
        assert w.value == max_matching(g).size


def test_witness_is_minimum_over_all_subsets():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, max_left=5, max_right=5)
        w = deficiency_witness(g, side="right")
        b = range(1, g.right_count + 1)
        for k in range(g.right_count + 1):
            for c in itertools.combinations(b, k):
                gamma = neighborhood(g, c, side="right")
                assert w.value <= (g.right_count - len(c)) + len(gamma)


def test_witness_bad_side():
    g = BipartiteGraph.from_edges(1, 1, [(1, 1)])
    with pytest.raises(ValueError):
        deficiency_witness(g, side="top")


@settings(max_examples=60)
@given(st.data())
def test_hypothesis_matching_duality(data):
    lc = data.draw(st.integers(0, 5))
    rc = data.draw(st.integers(0, 5))
    possible = [(l, r) for l in range(1, lc + 1) for r in range(1, rc + 1)]
    edges = data.draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    g = BipartiteGraph.from_edges(lc, rc, edges)
    nu = max_matching(g).size
    assert nu == brute_max_matching_size(g)
    assert deficiency_witness(g, side="left").value == nu
    assert deficiency_witness(g, side="right").value == nu


def test_long_augmenting_path_needs_no_recursion():
    # The second phase augments along a 1,501-step path: 1501 -> 1 -> 2 ...
    adj = tuple((i, i + 1) for i in range(1, 1501)) + ((1,),)
    g = BipartiteGraph(left_count=1501, right_count=1501, adj=adj)
    m = max_matching(g)
    assert m.size == 1501
    assert m.pairs <= set(g.edges)
