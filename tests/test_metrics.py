import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from kfx.errors import EngineMismatchError, NotConnectedError
from kfx.families import make_cycle, make_p_n_l, make_path, make_s_n_l
from kfx.graph import Graph, wiener
from kfx.metrics import (
    det_bareiss,
    kf_decomposition,
    kf_vertex,
    kirchhoff_index,
    resistance_oracle,
    resistance_structural,
    resistance_table,
    spanning_tree_count,
)
from kfx.search import enumerate_unicyclic, random_unicyclic, tree_classes
from kfx.unicyclic import decompose_unicyclic

F = Fraction


def naive_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # parity via inversion count
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def test_bareiss_against_cofactor_expansion():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert det_bareiss(m) == naive_det(m)
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0], [0, 0]]) == 0


def test_spanning_tree_counts():
    assert spanning_tree_count(make_cycle(5)) == 5
    assert spanning_tree_count(make_path(4)) == 1
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert spanning_tree_count(k4) == 16  # Cayley: 4^2


def test_resistance_oracle_examples():
    assert resistance_oracle(make_cycle(3), 0, 1) == F(2, 3)
    assert resistance_oracle(make_path(4), 0, 3) == 3
    assert resistance_oracle(make_cycle(4), 0, 2) == 1


def test_resistance_oracle_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        resistance_oracle(g, 0, 2)


def test_resistance_structural_examples():
    u3 = decompose_unicyclic(make_cycle(3))
    assert resistance_structural(u3, 0, 1) == F(2, 3)
    u5 = decompose_unicyclic(make_cycle(5))
    assert resistance_structural(u5, 0, 2) == F(6, 5)
    # triangle + 2-edge tail at vertex 0: tail end 4 to cycle vertex 1
    u = decompose_unicyclic(make_p_n_l(5, 3))
    assert resistance_structural(u, 4, 1) == F(8, 3) == resistance_oracle(make_p_n_l(5, 3), 4, 1)


def test_resistance_rejects_equal_vertices():
    u = decompose_unicyclic(make_cycle(4))
    with pytest.raises(ValueError):
        resistance_structural(u, 1, 1)
    with pytest.raises(ValueError):
        resistance_oracle(make_cycle(4), 2, 2)


def test_kirchhoff_examples():
    assert kirchhoff_index(make_cycle(3), "oracle") == 2
    assert kirchhoff_index(make_cycle(4), "oracle") == 5
    p53 = make_p_n_l(5, 3)
    assert kirchhoff_index(p53, "oracle") == F(44, 3)
    assert kirchhoff_index(p53, "structural") == F(44, 3)


def test_kf_vertex_examples():
    assert kf_vertex(make_cycle(3), 0) == F(4, 3)
    assert kf_vertex(make_cycle(5), 2) == 4  # (l^2-1)/6 at l=5
    assert kf_vertex(make_path(3), 1) == 2


def test_kf_decomposition_examples():
    for l in range(3, 9):
        u = decompose_unicyclic(make_cycle(l))
        assert kf_decomposition(u) == F(l**3 - l, 12)
    assert kf_decomposition(decompose_unicyclic(make_s_n_l(4, 3))) == F(19, 3)
    assert kf_decomposition(decompose_unicyclic(make_p_n_l(5, 3))) == F(44, 3)


def test_structural_engine_rejects_multicyclic():
    k4 = Graph(4, list(combinations(range(4), 2)))
    with pytest.raises(EngineMismatchError):
        kirchhoff_index(k4, "structural")
    # the oracle engine still handles it
    assert kirchhoff_index(k4, "oracle") == 6 * F(1, 2)


def test_tree_degeneration_resistance_equals_distance():
    for n in range(2, 10):
        for t in tree_classes(n).values():
            kf = kirchhoff_index(t, "oracle")
            assert kf == wiener(t)
            dist0 = t.bfs_distances(0)
            for b in range(1, t.n):
                assert resistance_oracle(t, 0, b) == dist0[b]


def test_engine_equivalence_small_exhaustive():
    for n in range(3, 8):
        for rep in enumerate_unicyclic(n):
            g, _ = rep.to_graph()
            u = decompose_unicyclic(g)  # align labels with g
            for a, b in combinations(range(n), 2):
                assert resistance_structural(u, a, b) == resistance_oracle(g, a, b)
            assert kf_decomposition(u) == kirchhoff_index(g, "oracle")


def test_triangle_inequality_and_distance_bound():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(5, 10)
        g = random_unicyclic(n, rng)
        table = resistance_table(g, "oracle")
        dists = [g.bfs_distances(v) for v in range(n)]
        for a, b in combinations(range(n), 2):
            r = table.get(a, b)
            assert r <= dists[a][b] <= n - 1
        for a, b, c in combinations(range(n), 3):
            assert table.get(a, c) <= table.get(a, b) + table.get(b, c)


def test_pair_table_contract():
    table = resistance_table(make_cycle(4))
    assert len(table) == 6
    assert table.get(2, 0) == table.get(0, 2) == 1
    with pytest.raises(KeyError):
        table.get(1, 1)


def test_cycle_sum_matches_pairwise_sum_at_large_l():
    rng = random.Random(60)
    shapes = [(60, 120), (60, 60), (3, 120)]
    shapes += [(l, rng.randrange(l, 121)) for l in (rng.randrange(3, 61) for _ in range(12))]
    for l, n in shapes:
        # l-cycle, then each further vertex hangs off a random earlier one
        edges = [(i, (i + 1) % l) for i in range(l)]
        edges += [(v, rng.randrange(v)) for v in range(l, n)]
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, edges).relabel(perm)
        u = decompose_unicyclic(g)
        assert u.l == l
        pairwise = sum(
            (resistance_structural(u, a, b) for a, b in combinations(range(n), 2)), F(0)
        )
        assert kf_decomposition(u) == pairwise == kirchhoff_index(g)
