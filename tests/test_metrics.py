import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from kfx.errors import EngineMismatchError, NotConnectedError
from kfx.families import make_cycle, make_p_n_l, make_path, make_s_n_l
from kfx.graph import Graph, wiener
from kfx.metrics import (
    Adjugate,
    det_bareiss,
    engine_input,
    kf_vertex,
    kirchhoff_index,
    resistance,
    wiener_index,
)
from kfx.suites import random_unicyclic
from kfx.unicyclic import (
    UnicyclicRepr,
    code_parents,
    decompose_unicyclic,
    graph_from_shapes,
    rooted_shapes,
)
from oracles import relabel, tree_classes, unicyclic_classes

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
        det = naive_det(m)
        if det == 0:
            continue
        checked += 1
        adj: list[list[int]] = []
        assert det_bareiss(m, adj) == det
        assert adj == cofactor_adjugate(m)
    assert checked >= 33
    for singular in ([[0, 1, 2], [0, 2, 4], [1, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 2]],
                     [[2, 0, 1], [0, 1, 0], [4, 0, 2]]):
        assert naive_det(singular) == 0
        assert det_bareiss(singular, []) == 0


def resistance_table(g):
    """{(a, b): R(a, b)} for every pair a < b, from g's one engine input."""
    u = engine_input(g)
    if isinstance(u, Adjugate):
        vertices = range(u.n)
    else:  # a decomposition's labels, scanned from its trees
        vertices = sorted(v for nodes in u.tree_nodes for v in nodes)
    return {(a, b): resistance(u, a, b) for a, b in combinations(vertices, 2)}


def test_spanning_tree_counts():
    assert engine_input(make_cycle(5), "oracle").tau == 5
    assert engine_input(make_path(4), "oracle").tau == 1
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert engine_input(k4, "oracle").tau == 16  # Cayley: 4^2


def test_resistance_oracle_examples():
    for g, a, b, r in ((make_cycle(3), 0, 1, F(2, 3)), (make_path(4), 0, 3, 3),
                       (make_cycle(4), 0, 2, 1)):
        assert resistance(engine_input(g, "oracle"), a, b) == r


def test_resistance_oracle_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        engine_input(g, "oracle")
    with pytest.raises(NotConnectedError):
        resistance(g, 0, 2)


# a triangle 3, 4, 5 with the path 2, 1, 0 hanging from 3: its
# decomposition lists the vertices in an order other than their numbers
TADPOLE = Graph(6, [(5, 4), (4, 3), (3, 5), (3, 2), (2, 1), (1, 0)])


def test_the_oracle_refuses_a_decomposition():
    """The oracle reads a graph by its own vertex numbers: handed a
    decomposition, it raises; handed the graph, it answers for the labels
    the decomposition answers for."""
    u = decompose_unicyclic(TADPOLE)
    assert u.cycle == (3, 4, 5)
    with pytest.raises(EngineMismatchError, match="^oracle engine needs a graph, not a decomposition$"):
        engine_input(u, "oracle")
    oracle = engine_input(TADPOLE, "oracle")
    for a, b in permutations(range(6), 2):
        assert resistance(oracle, a, b) == resistance(u, a, b)
    assert resistance(oracle, 0, 1) == 1
    for a, b in ((0, 6), (-1, 2), (6, 7)):
        bad = a if a not in range(6) else b
        for g in (oracle, u, TADPOLE):
            with pytest.raises(ValueError, match=f"^vertex {bad} not in graph$"):
                resistance(g, a, b)


def test_resistance_structural_examples():
    u3 = decompose_unicyclic(make_cycle(3))
    assert resistance(u3, 0, 1) == F(2, 3)
    u5 = decompose_unicyclic(make_cycle(5))
    assert resistance(u5, 0, 2) == F(6, 5)
    # triangle + 2-edge tail at vertex 0: tail end 4 to cycle vertex 1
    p53 = make_p_n_l(5, 3)
    u = decompose_unicyclic(p53)
    assert resistance(u, 4, 1) == F(8, 3) == resistance(engine_input(p53, "oracle"), 4, 1)


def test_resistance_rejects_equal_vertices():
    for g in (decompose_unicyclic(make_cycle(4)), engine_input(make_cycle(4), "oracle")):
        with pytest.raises(ValueError, match="two distinct vertices"):
            resistance(g, 2, 2)


def test_kirchhoff_examples():
    assert kirchhoff_index(engine_input(make_cycle(3), "oracle")) == 2
    assert kirchhoff_index(engine_input(make_cycle(4), "oracle")) == 5
    p53 = make_p_n_l(5, 3)
    assert kirchhoff_index(engine_input(p53, "oracle")) == F(44, 3)
    assert kirchhoff_index(engine_input(p53, "structural")) == F(44, 3)


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
        engine_input(k4, "structural")
    # the oracle engine still handles it, and "auto" picks it
    assert kirchhoff_index(engine_input(k4, "oracle")) == kirchhoff_index(k4) == 6 * F(1, 2)


def test_tree_degeneration_resistance_equals_distance():
    for n in range(2, 10):
        for t in tree_classes(n).values():
            oracle = engine_input(t, "oracle")
            assert kirchhoff_index(oracle) == wiener(t)
            dist0 = t.bfs_distances(0)
            for b in range(1, t.n):
                assert resistance(oracle, 0, b) == dist0[b]


def test_engine_equivalence_small_exhaustive():
    """Every quantity reads the same value from either engine's input: on
    every unicyclic class with n <= 7, every tree with n <= 8, and the
    tadpole whose decomposition lists its vertices out of number order."""
    graphs = [graph_from_shapes(l, shapes)
              for n in range(3, 8) for l, shapes in unicyclic_classes(n).values()]
    graphs += [t for n in range(1, 9) for t in tree_classes(n).values()]
    graphs.append(TADPOLE)
    assert len(graphs) == 1 + 2 + 5 + 13 + 33 + 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 1
    quantities = {
        "kirchhoff_index": lambda g, vs: kirchhoff_index(g),
        "kf_vertex": lambda g, vs: [kf_vertex(g, v) for v in vs],
        "wiener_index": lambda g, vs: wiener_index(g),
        "resistance": lambda g, vs: [resistance(g, a, b) for a, b in permutations(vs, 2)],
        "resistance_table": lambda g, vs: resistance_table(g),
    }
    for g in graphs:
        structural, oracle = engine_input(g, "structural"), engine_input(g, "oracle")
        assert isinstance(structural, UnicyclicRepr) and isinstance(oracle, Adjugate)
        vs = sorted(v for nodes in structural.tree_nodes for v in nodes)
        for name, quantity in quantities.items():
            assert quantity(structural, vs) == quantity(oracle, vs), (name, g)


def test_structural_engine_reads_trees_listed_in_preorder():
    """`decompose_unicyclic` and `engine_input` list every tree breadth
    first. A decomposition built from `code_parents` lists each tree in
    preorder, another parents-first order, with the labels
    `graph_from_shapes` gives; its every resistance and transmission
    equals the oracle's on that graph, trees (l = 1) included."""
    rng = random.Random(35)
    not_breadth_first = 0
    for _ in range(60):
        l = rng.choice([1, 1, 3, 4, 5])
        shapes = [rng.choice(list(rooted_shapes(rng.randrange(1, 8)))) for _ in range(l)]
        trees, nxt = [], l
        for i, shape in enumerate(shapes):
            parent = code_parents(shape)
            trees.append(([i, *range(nxt, nxt + len(parent) - 1)], parent))
            nxt += len(parent) - 1
            not_breadth_first += any(a > b for a, b in zip(parent, parent[1:]))
        u = UnicyclicRepr(range(l), trees)
        oracle = engine_input(graph_from_shapes(l, shapes), "oracle")
        assert u.n == oracle.n == nxt
        for a, b in permutations(range(u.n), 2):
            assert resistance(u, a, b) == resistance(oracle, a, b), (l, shapes, a, b)
        for v in range(u.n):
            assert kf_vertex(u, v) == kf_vertex(oracle, v), (l, shapes, v)
    assert not_breadth_first >= 20


def test_triangle_inequality_and_distance_bound():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randrange(5, 10)
        g = random_unicyclic(n, rng)
        table = resistance_table(engine_input(g, "oracle"))
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
        g = relabel(Graph(n, edges), perm)
        u = decompose_unicyclic(g)
        assert u.l == l
        pairwise = sum(
            (resistance(u, a, b) for a, b in combinations(range(n), 2)), F(0)
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
        oracle = engine_input(g, "oracle")
        assert resistance_table(oracle) == ref
        for (a, b), r in ref.items():
            assert resistance(oracle, a, b) == resistance(oracle, b, a) == r
        assert kirchhoff_index(oracle) == sum(ref.values(), F(0))
        for v in range(n):
            row = [r for pair, r in ref.items() if v in pair]
            assert kf_vertex(oracle, v) == sum(row, F(0))


def test_each_oracle_entry_point_runs_one_elimination(monkeypatch):
    import kfx.metrics

    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return det_bareiss(*args)

    monkeypatch.setattr(kfx.metrics, "det_bareiss", counting)
    k5 = Graph(5, list(combinations(range(5), 2)))
    oracle = engine_input(k5, "oracle")
    assert calls == [4]
    for fn in (
        kirchhoff_index,
        lambda g: kf_vertex(g, 2),
        resistance_table,
        lambda g: resistance(g, 1, 3),
    ):
        calls.clear()
        fn(k5)
        assert calls == [4]
        calls.clear()
        fn(oracle)  # quantities of one graph share its elimination
        assert calls == []
    # W is a BFS on any graph the oracle takes: no elimination
    assert wiener_index(k5) == wiener_index(oracle) == 10
    assert calls == []


def test_oracle_beyond_per_pair_sizes():
    k40 = Graph(40, list(combinations(range(40), 2)))
    assert kirchhoff_index(k40) == 39
    assert kf_vertex(k40, 7) == F(39, 20)
    g = random_unicyclic(150, random.Random(150))
    oracle = resistance_table(engine_input(g, "oracle"))
    structural = resistance_table(g)
    assert len(oracle) == 150 * 149 // 2
    assert oracle == structural


def test_oracle_entry_points_reject_disconnected():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    # fewer than n - 1 edges: "auto" picks the oracle
    for fn in (
        lambda: engine_input(g, "oracle"),
        lambda: kirchhoff_index(g),
        lambda: wiener_index(g),
        lambda: kf_vertex(g, 0),
        lambda: resistance_table(g),
        lambda: resistance(g, 0, 1),
    ):
        with pytest.raises(NotConnectedError):
            fn()
    # more than n edges: the structural engine refuses it as disconnected
    # before it refuses it as neither a tree nor unicyclic
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (5, 6)])
    with pytest.raises(NotConnectedError, match="^graph on 7 vertices is not connected$"):
        engine_input(g, "structural")
    # n - 1 edges but not a tree: the structural engine finds vertex 3 unreached
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for fn in (
        lambda: engine_input(g, "structural"),
        lambda: kirchhoff_index(g),
        lambda: wiener_index(g),
        lambda: resistance_table(g),
        lambda: kf_vertex(g, 0),
        lambda: resistance(g, 0, 1),
    ):
        with pytest.raises(NotConnectedError):
            fn()


def test_engine_names_are_validated_and_honoured(monkeypatch):
    import kfx.metrics

    c5 = make_cycle(5)
    # labels other than 0..n-1: a triangle with a two-vertex tail at 10,
    # and its graph, with label 10 (v + 1) as vertex v
    u = UnicyclicRepr((10, 20, 30), [([10, 40, 50], [-1, 0, 1]), ([20], [-1]), ([30], [-1])])
    oracle = engine_input(Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]), "oracle")
    with pytest.raises(EngineMismatchError, match="^oracle engine needs a graph"):
        engine_input(u, "oracle")
    for g in (c5, u, make_path(4), oracle):
        with pytest.raises(ValueError, match="^unknown engine 'bogus'$"):
            engine_input(g, "bogus")
    # "auto" passes either engine's input through; "oracle" keeps an adjugate
    assert engine_input(u) is u and engine_input(u, "structural") is u
    assert engine_input(oracle) is oracle and engine_input(oracle, "oracle") is oracle
    expected_kf = kirchhoff_index(u)
    expected_v = kf_vertex(u, 50)
    expected_table = {(a // 10 - 1, b // 10 - 1): r for (a, b), r in resistance_table(u).items()}
    # trees have a structural table of plain distances
    assert resistance_table(engine_input(make_path(4), "structural"))[0, 3] == 3

    def structural_engine_called(*args):
        raise AssertionError("structural engine used for engine='oracle'")

    for name in ("decompose_unicyclic", "resistance_numerator", "kf_from_stats", "orient"):
        monkeypatch.setattr(kfx.metrics, name, structural_engine_called)
    assert kirchhoff_index(oracle) == expected_kf == F(44, 3)
    assert kf_vertex(oracle, 4) == expected_v
    assert resistance_table(oracle) == expected_table
    assert kf_vertex(engine_input(c5, "oracle"), 0) == 4
    assert kf_vertex(engine_input(make_path(4), "oracle"), 0) == 6
    for g in (Graph(4, list(combinations(range(4), 2))), oracle):
        with pytest.raises(EngineMismatchError, match="structural engine needs"):
            engine_input(g, "structural")


def random_tree(n, rng):
    """Random labeled tree: each vertex hangs off a random earlier one, then
    the labels are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, [(v, rng.randrange(v)) for v in range(1, n)]), perm)


def random_unicyclic_with_cycle(n, l, rng):
    edges = [(i, (i + 1) % l) for i in range(l)]
    edges += [(v, rng.randrange(v)) for v in range(l, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, edges), perm)


def oracle_wiener(g):
    """`wiener_index` of g's oracle input. Up to 60 vertices the elimination
    is real; above, `det_bareiss` is a counted stub that returns tau = 1 and
    leaves the adjugate empty, so the answer shows that the oracle's Wiener
    index never reads the adjugate."""
    if g.n <= 60:
        return wiener_index(engine_input(g, "oracle"))
    calls = []

    def stub(rows, adjugate=None):
        calls.append(len(rows))
        return 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("kfx.metrics.det_bareiss", stub)
        w = wiener_index(engine_input(g, "oracle"))
    assert calls == [g.n - 1]
    return w


def test_wiener_index_matches_bfs_on_trees():
    rng = random.Random(2024)
    assert wiener_index(Graph(1, [])) == 0
    assert wiener_index(Graph(2, [(0, 1)])) == 1
    for n in [1, 2, 3, 4, 7, 12, 40, 111, 300] + [rng.randrange(3, 80) for _ in range(20)]:
        t = random_tree(n, rng)
        structural = engine_input(t, "structural")
        assert wiener_index(t) == wiener_index(structural) == wiener(t)
        assert oracle_wiener(t) == wiener(t)
        # the l = 1 representation: transmissions and resistances are distances
        dist = [t.bfs_distances(v) for v in range(n)]
        for v in range(n):
            assert kf_vertex(t, v) == kf_vertex(structural, v) == sum(dist[v])
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
        assert wiener_index(g) == wiener_index(engine_input(g, "structural")) == expected
        assert wiener_index(u) == expected
        assert oracle_wiener(g) == expected
    for l in range(3, 12):
        cycle = make_cycle(l)
        assert wiener_index(cycle) == wiener(cycle) == (l**3 - l % 2 * l) // 8


def test_wiener_index_engines():
    k4 = Graph(4, list(combinations(range(4), 2)))
    assert wiener_index(k4) == wiener_index(engine_input(k4, "oracle")) == 6
    assert isinstance(engine_input(k4), Adjugate)


def test_transmissions_and_tables_equal_one_adjugate_near_n_200():
    """Engine equivalence at n ~ 200: every structural transmission and
    resistance equals the one oracle adjugate of the graph."""
    from kfx.metrics import _grounded_adjugate

    rng = random.Random(200)
    graphs = [random_unicyclic(200, rng), random_unicyclic_with_cycle(199, 60, rng)]
    for g in graphs:
        u = decompose_unicyclic(g)
        _, tau, adj = _grounded_adjugate(g)
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
        labels = [v for nodes in u.tree_nodes for v in nodes]
        assert sum(kf_vertex(u, v) for v in labels) == 2 * kirchhoff_index(u)
