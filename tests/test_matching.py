import itertools
import random

import pytest

from tabgrid.matching import Matching, WeightedBipartiteGraph, max_weight_matching


def ref_best_matching(n_left, n_right, edges):
    """Exhaustive maximum-weight matching over all injective maps."""
    weight = {(l, r): w for l, r, w in edges}
    right = list(range(n_right))
    best = 0.0
    k = min(n_left, n_right)
    for lefts in itertools.combinations(range(n_left), k):
        for perm in itertools.permutations(right, k):
            total = sum(weight.get((l, r), 0.0) for l, r in zip(lefts, perm))
            best = max(best, total)
    return best


def test_single_edge():
    g = WeightedBipartiteGraph(n_left=1, n_right=2, edges=((0, 0, 0.5),))
    m = max_weight_matching(g)
    assert m.pairs == ((0, 0),)
    assert m.total_weight == pytest.approx(0.5)


def test_prefers_two_good_edges_over_one_great():
    g = WeightedBipartiteGraph(
        n_left=2, n_right=2, edges=((0, 1, 0.9), (1, 0, 0.9), (0, 0, 1.0))
    )
    m = max_weight_matching(g)
    assert set(m.pairs) == {(0, 1), (1, 0)}
    assert m.total_weight == pytest.approx(1.8)


def test_empty_graph():
    g = WeightedBipartiteGraph(n_left=0, n_right=3, edges=())
    assert max_weight_matching(g) == Matching(pairs=(), total_weight=0.0)
    g = WeightedBipartiteGraph(n_left=2, n_right=2, edges=())
    assert max_weight_matching(g).pairs == ()


def test_zero_weight_edge_can_still_match():
    g = WeightedBipartiteGraph(n_left=1, n_right=1, edges=((0, 0, 0.0),))
    m = max_weight_matching(g)
    assert m.pairs == ((0, 0),)
    assert m.total_weight == 0.0


def test_unmatched_pairs_not_invented():
    # only one real edge: the other left vertex must stay unmatched even
    # though the cost matrix is square
    g = WeightedBipartiteGraph(n_left=2, n_right=2, edges=((0, 0, 0.7),))
    m = max_weight_matching(g)
    assert m.pairs == ((0, 0),)


def test_rectangular_sides():
    g = WeightedBipartiteGraph(
        n_left=3, n_right=1, edges=((0, 0, 0.2), (1, 0, 0.8), (2, 0, 0.5))
    )
    m = max_weight_matching(g)
    assert m.pairs == ((1, 0),)
    assert m.total_weight == pytest.approx(0.8)


def test_validation():
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(n_left=1, n_right=1, edges=((0, 1, 0.5),))
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(n_left=1, n_right=1, edges=((0, 0, -0.1),))
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(n_left=1, n_right=1, edges=((0, 0, float("nan")),))
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(
            n_left=1, n_right=1, edges=((0, 0, 0.5), (0, 0, 0.6))
        )
    with pytest.raises(ValueError):
        WeightedBipartiteGraph(n_left=-1, n_right=0, edges=())


def test_matches_bruteforce_on_random_graphs():
    rng = random.Random(77)
    for _ in range(150):
        nl = rng.randint(0, 5)
        nr = rng.randint(0, 5)
        edges = []
        for l in range(nl):
            for r in range(nr):
                if rng.random() < 0.55:
                    edges.append((l, r, round(rng.random(), 3)))
        g = WeightedBipartiteGraph(n_left=nl, n_right=nr, edges=tuple(edges))
        m = max_weight_matching(g)
        # pairs are valid, disjoint, and only over declared edges
        seen_l, seen_r = set(), set()
        weight = {(l, r): w for l, r, w in edges}
        total = 0.0
        for l, r in m.pairs:
            assert (l, r) in weight
            assert l not in seen_l and r not in seen_r
            seen_l.add(l)
            seen_r.add(r)
            total += weight[(l, r)]
        assert m.total_weight == pytest.approx(total)
        assert m.total_weight == pytest.approx(ref_best_matching(nl, nr, edges), abs=1e-9)


def test_scaling_invariance():
    rng = random.Random(78)
    for _ in range(50):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        edges = tuple(
            (l, r, round(rng.random(), 3))
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.7
        )
        if not edges:
            continue
        base = max_weight_matching(WeightedBipartiteGraph(nl, nr, edges))
        scaled = max_weight_matching(
            WeightedBipartiteGraph(nl, nr, tuple((l, r, w * 7.5) for l, r, w in edges))
        )
        assert base.total_weight * 7.5 == pytest.approx(scaled.total_weight)


def test_deterministic_under_ties():
    edges = tuple((l, r, 0.5) for l in range(3) for r in range(3))
    g = WeightedBipartiteGraph(3, 3, edges)
    assert max_weight_matching(g).pairs == ((0, 0), (1, 1), (2, 2))
