import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from kfx.errors import EngineMismatchError, NotConnectedError
from kfx.families import make_cycle, make_p_n_l, make_path, make_s_n_l
from kfx.graph import Graph, wiener
from kfx.metrics import (
    det_bareiss,
    engine_input,
    kf_vertex,
    kirchhoff_index,
    resistance_oracle,
    resistance_structural,
    resistance_table,
    spanning_tree_count,
    wiener_index,
)
from kfx.suites import random_unicyclic
from kfx.unicyclic import UnicyclicRepr, decompose_unicyclic, unicyclic_from_shapes
from oracles import tree_classes, unicyclic_classes

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


def cofactor_adjugate(m):
    """adj(M)[i][j] = (-1)^(i+j) det of M without row j and column i."""
    n = len(m)
    return [
        [(-1) ** (i + j) * naive_det([[x for c, x in enumerate(row) if c != i]
                                      for r, row in enumerate(m) if r != j])
         for j in range(n)]
        for i in range(n)
    ]


def test_bareiss_adjugate_through_row_swaps():
    from kfx.metrics import _grounded_laplacian

    rng = random.Random(17)
    cases = [[[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2], [3, 0]]]
    # zeros in the pivot column: the row is rescaled when pivot != prev
    # (block diagonal, path) and left alone when they are equal (unit
    # pivots, permutations, a star grounded at its centre: L0 = I); then a
    # star grounded at a leaf and K_6
    cases += [
        [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 4, 1], [0, 0, 1, 2]],
        [[1, 2, 0], [3, 1, 0], [0, 0, 5]],
        [[0, 0, 2, 0], [0, 3, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1]],
        [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
        _grounded_laplacian(make_path(6)),
        _grounded_laplacian(Graph(6, [(0, v) for v in range(1, 6)])),
        _grounded_laplacian(Graph(6, [(1, v) for v in (0, 2, 3, 4, 5)])),
        _grounded_laplacian(Graph(6, list(combinations(range(6), 2)))),
    ]
    for _ in range(40):
        n = rng.randrange(2, 6)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        zeros = rng.randrange(1, n)  # zero leading pivots force row swaps
        for i in range(zeros):
            m[i][0] = 0
        for i in range(rng.randrange(zeros)):
            m[i][1] = 0
        m[-1][0] = rng.choice([-3, -1, 2, 5])
        cases.append(m)
    checked = 0
    for m in cases:
        n = len(m)
        det = naive_det(m)
        if det == 0:
            continue
        checked += 1
        adj = cofactor_adjugate(m)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert det_bareiss(m, eye) == det
        assert eye == adj
        width = rng.randrange(1, 4)
        b = [[rng.randrange(-3, 4) for _ in range(width)] for _ in range(n)]
        b[0] = [0] * width  # the pivot on M's row 0 brings in no column
        product = [[sum(adj[i][k] * b[k][j] for k in range(n)) for j in range(width)]
                   for i in range(n)]
        assert det_bareiss(m, b) == det
        assert b == product
    assert checked >= 33
    for singular in ([[0, 1, 2], [0, 2, 4], [1, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 2]],
                     [[2, 0, 1], [0, 1, 0], [4, 0, 2]]):
        assert naive_det(singular) == 0
        assert det_bareiss(singular, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 0


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


def test_resistance_oracle_reads_a_decomposition_by_its_labels():
    """`to_graph` renumbers a decomposition's vertices; the oracle must map
    the labels it is given through the adjugate's `at`."""
    g = Graph(6, [(5, 4), (4, 3), (3, 5), (3, 2), (2, 1), (1, 0)])
    u = decompose_unicyclic(g)
    assert u.to_graph()[1] != dict(zip(range(6), range(6)))
    for a, b in permutations(range(6), 2):
        assert resistance_oracle(u, a, b) == resistance_structural(u, a, b)
        assert resistance_oracle(engine_input(u, "oracle"), a, b) == resistance_structural(u, a, b)
    assert resistance_oracle(u, 0, 1) == 1
    for a, b in ((0, 6), (-1, 2), (6, 7)):
        with pytest.raises(ValueError, match="vertex out of range"):
            resistance_oracle(u, a, b)
        with pytest.raises(ValueError, match="vertex out of range"):
            resistance_oracle(g, a, b)


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
        assert kirchhoff_index(u) == F(l**3 - l, 12)
    assert kirchhoff_index(decompose_unicyclic(make_s_n_l(4, 3))) == F(19, 3)
    assert kirchhoff_index(decompose_unicyclic(make_p_n_l(5, 3))) == F(44, 3)


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
        for l, shapes in unicyclic_classes(n).values():
            g, _ = unicyclic_from_shapes(l, shapes).to_graph()
            u = decompose_unicyclic(g)  # align labels with g
            for a, b in combinations(range(n), 2):
                assert resistance_structural(u, a, b) == resistance_oracle(g, a, b)
            assert kirchhoff_index(u) == kirchhoff_index(g, "oracle")


def test_triangle_inequality_and_distance_bound():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(5, 10)
        g = random_unicyclic(n, rng)
        table = resistance_table(g, "oracle")
        dists = [g.bfs_distances(v) for v in range(n)]
        for a, b in combinations(range(n), 2):
            r = table[a, b]
            assert r <= dists[a][b] <= n - 1
        for a, b, c in combinations(range(n), 3):
            assert table[a, c] <= table[a, b] + table[b, c]


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
        assert kirchhoff_index(u) == pairwise == kirchhoff_index(g)


def laplacian_minor(g, drop):
    """Laplacian of g without the rows and columns of the vertices in drop."""
    keep = [v for v in range(g.n) if v not in drop]
    return [
        [g.degree(i) if i == j else -int(j in g.adj[i]) for j in keep] for i in keep
    ]


def matrix_tree_resistance(g, a, b):
    """Reference definition: R(a, b) = det L(a,b) / det L(a), spanning
    2-forests separating a and b over spanning trees."""
    return F(det_bareiss(laplacian_minor(g, (a, b))), det_bareiss(laplacian_minor(g, (a,))))


def random_connected(n, rng):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if a != b:
            edges.add((a, b))
    return Graph(n, sorted(edges))


def test_oracle_entry_points_match_matrix_tree_definition():
    rng = random.Random(3)
    sizes = [1, 2, 2] + [rng.randrange(3, 11) for _ in range(37)]
    for n in sizes:
        g = random_connected(n, rng)
        ref = {(a, b): matrix_tree_resistance(g, a, b) for a, b in combinations(range(n), 2)}
        assert resistance_table(g, "oracle") == ref
        for (a, b), r in ref.items():
            assert resistance_oracle(g, a, b) == resistance_oracle(g, b, a) == r
        assert kirchhoff_index(g, "oracle") == sum(ref.values(), F(0))
        for v in range(n):
            row = [r for pair, r in ref.items() if v in pair]
            assert kf_vertex(g, v, "oracle") == sum(row, F(0))


def test_each_oracle_entry_point_runs_one_elimination(monkeypatch):
    import kfx.metrics

    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return det_bareiss(*args)

    monkeypatch.setattr(kfx.metrics, "det_bareiss", counting)
    k5 = Graph(5, list(combinations(range(5), 2)))
    for fn in (
        lambda: kirchhoff_index(k5, "oracle"),
        lambda: kf_vertex(k5, 2, "oracle"),
        lambda: resistance_table(k5, "oracle"),
        lambda: resistance_oracle(k5, 1, 3),
    ):
        calls.clear()
        fn()
        assert calls == [4]


def test_oracle_beyond_per_pair_sizes():
    k40 = Graph(40, list(combinations(range(40), 2)))
    assert kirchhoff_index(k40, "oracle") == 39
    assert kf_vertex(k40, 7, "oracle") == F(39, 20)
    g = random_unicyclic(150, random.Random(150))
    oracle = resistance_table(g, "oracle")
    structural = resistance_table(g, "structural")
    assert len(oracle) == 150 * 149 // 2
    assert oracle == structural


def test_oracle_entry_points_reject_disconnected():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    for fn in (
        lambda: kirchhoff_index(g, "oracle"),
        lambda: kirchhoff_index(g),
        lambda: kf_vertex(g, 0, "oracle"),
        lambda: resistance_table(g, "oracle"),
        lambda: resistance_oracle(g, 0, 1),
    ):
        with pytest.raises(NotConnectedError):
            fn()
    # n - 1 edges but not a tree: the structural engine finds vertex 3 unreached
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for engine in ("auto", "structural"):
        for fn in (kirchhoff_index, wiener_index, resistance_table):
            with pytest.raises(NotConnectedError):
                fn(g, engine)
        with pytest.raises(NotConnectedError):
            kf_vertex(g, 0, engine)


def test_engine_names_are_validated_and_honoured(monkeypatch):
    import kfx.metrics

    c5 = make_cycle(5)
    # labels other than 0..n-1: a triangle with a two-vertex tail at 10
    u = UnicyclicRepr((10, 20, 30), [([10, 40, 50], [-1, 0, 1]), ([20], [-1]), ([30], [-1])])
    for g in (c5, u, make_path(4)):
        with pytest.raises(ValueError):
            kirchhoff_index(g, "bogus")
        with pytest.raises(ValueError):
            kf_vertex(g, 0 if g is not u else 10, "bogus")
        with pytest.raises(ValueError):
            resistance_table(g, "bogus")
    expected_kf = kirchhoff_index(u)
    expected_v = kf_vertex(u, 50)
    expected_table = resistance_table(u)
    # trees have a structural table of plain distances
    assert resistance_table(make_path(4), "structural")[0, 3] == 3

    def structural_engine_called(*args):
        raise AssertionError("structural engine used for engine='oracle'")

    for name in ("decompose_unicyclic", "resistance_structural", "resistance_numerator",
                 "kf_from_stats"):
        monkeypatch.setattr(kfx.metrics, name, structural_engine_called)
    assert kirchhoff_index(u, "oracle") == expected_kf == F(44, 3)
    assert kf_vertex(u, 50, "oracle") == expected_v
    assert resistance_table(u, "oracle") == expected_table
    assert kf_vertex(c5, 0, "oracle") == 4
    with pytest.raises(EngineMismatchError):
        resistance_table(Graph(4, list(combinations(range(4), 2))), "structural")


def random_tree(n, rng):
    """Random labeled tree: each vertex hangs off a random earlier one, then
    the labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]).relabel(perm)


def random_unicyclic_with_cycle(n, l, rng):
    edges = [(i, (i + 1) % l) for i in range(l)]
    edges += [(v, rng.randrange(v)) for v in range(l, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, edges).relabel(perm)


def test_wiener_index_matches_bfs_on_trees():
    rng = random.Random(2024)
    assert wiener_index(Graph(1, [])) == 0
    assert wiener_index(Graph(2, [(0, 1)])) == 1
    for n in [1, 2, 3, 4, 7, 12, 40, 111, 300] + [rng.randrange(3, 80) for _ in range(20)]:
        t = random_tree(n, rng)
        assert wiener_index(t) == wiener_index(t, "structural") == wiener(t)
        assert wiener_index(t, "oracle") == wiener(t)
        assert wiener_index(engine_input(t), "oracle") == wiener(t)  # l = 1 to_graph
        # the l = 1 representation: transmissions and resistances are distances
        dist = [t.bfs_distances(v) for v in range(n)]
        for v in range(n):
            assert kf_vertex(t, v) == kf_vertex(t, v, "structural") == sum(dist[v])
        assert resistance_table(t) == {(a, b): dist[a][b] for a, b in combinations(range(n), 2)}


def test_wiener_index_matches_bfs_on_unicyclic_graphs():
    rng = random.Random(7)
    shapes = [(3, 3), (3, 4), (3, 300), (4, 4), (5, 5), (6, 6), (7, 7), (300, 300), (299, 299)]
    shapes += [(4, 90), (5, 90), (150, 300), (151, 300), (20, 37), (21, 37)]
    shapes += [(l, rng.randrange(l, 200)) for l in (rng.randrange(3, 120) for _ in range(20))]
    for l, n in shapes:
        g = random_unicyclic_with_cycle(n, l, rng)
        u = decompose_unicyclic(g)
        assert u.l == l
        expected = wiener(g)
        assert wiener_index(g) == wiener_index(g, "structural") == expected
        assert wiener_index(u) == wiener_index(u, "oracle") == expected
        assert wiener_index(g, "oracle") == expected
    for l in range(3, 12):
        cycle = make_cycle(l)
        assert wiener_index(cycle) == wiener(cycle) == (l**3 - l % 2 * l) // 8


def test_wiener_index_engines():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert wiener_index(k4) == wiener_index(k4, "oracle") == 6
    with pytest.raises(EngineMismatchError):
        wiener_index(k4, "structural")
    with pytest.raises(ValueError):
        wiener_index(make_cycle(5), "bogus")


def test_transmissions_and_tables_equal_one_adjugate_near_n_200():
    """Engine equivalence at n ~ 200: every structural transmission and
    resistance equals the one oracle adjugate of the graph."""
    from kfx.metrics import _grounded_adjugate

    rng = random.Random(200)
    graphs = [random_unicyclic(200, rng), random_unicyclic_with_cycle(199, 60, rng)]
    for g in graphs:
        u = decompose_unicyclic(g)
        _, tau, adj, _ = _grounded_adjugate(g)
        trace = sum(row[i] for i, row in enumerate(adj))
        for v in range(g.n):
            oracle = F(g.n * adj[v][v] + trace - 2 * sum(adj[v]), tau)
            assert kf_vertex(u, v) == kf_vertex(g, v) == oracle
        table = resistance_table(u)
        for (a, b), r in table.items():
            assert r == F(adj[a][a] + adj[b][b] - 2 * adj[a][b], tau)
        assert len(table) == g.n * (g.n - 1) // 2


def test_transmissions_sum_to_twice_kf():
    from kfx.families import make_p3_extremal
    from kfx.formulas import theorem_bound

    u = decompose_unicyclic(make_p3_extremal(1000, 5))
    assert sum(kf_vertex(u, v) for v in range(u.n)) == 2 * theorem_bound(1000, 5)
    for n, l in ((12, 12), (30, 7), (41, 40)):
        u = decompose_unicyclic(random_unicyclic_with_cycle(n, l, random.Random(n)))
        assert sum(kf_vertex(u, v) for v in u.position) == 2 * kirchhoff_index(u)
