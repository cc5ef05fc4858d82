import random
from itertools import islice

import pytest

from kfx.errors import NotConnectedError, NotUnicyclicError
from kfx.families import make_cycle, make_p_n_l, make_s_n_l
from kfx.graph import Graph, orient, wiener
from kfx.metrics import resistance
from kfx.search import _alphabet, _tree_counts
from kfx.suites import random_unicyclic
from kfx.unicyclic import (
    canonical_code,
    code_parents,
    decompose_unicyclic,
    graph_from_shapes,
    hanging_degree,
    path_shape,
    rooted_shapes,
    shape_record,
    tree_code,
    tree_stats,
    UnicyclicRepr,
)
from oracles import A000081, relabel, tree_canonical_code, unicyclic_classes


def code_of(g: Graph) -> bytes:
    return canonical_code(decompose_unicyclic(g))


def test_decompose_triangle():
    u = decompose_unicyclic(make_cycle(3))
    assert u.l == 3 and u.tree_sizes == (1, 1, 1)


def test_decompose_pendant_triangle():
    u = decompose_unicyclic(make_s_n_l(4, 3))
    assert u.l == 3 and sorted(u.tree_sizes) == [1, 1, 2]


def test_decompose_tadpole():
    # triangle with a 2-edge tail
    u = decompose_unicyclic(make_p_n_l(5, 3))
    assert u.l == 3 and sorted(u.tree_sizes) == [1, 1, 3]


def test_decompose_rejects_bad_input():
    with pytest.raises(NotUnicyclicError):
        decompose_unicyclic(Graph(4, [(0, 1), (1, 2), (2, 3)]))  # tree
    with pytest.raises(NotUnicyclicError):
        decompose_unicyclic(Graph(2, [(0, 1)]))  # n < 3
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # m = n but not connected: triangles 1-2-3 and 4-5-6 joined by the path
    # 1-8-0-7-4 (10 edges on 9 vertices) beside the path 9-10-11 (2 on 3);
    # a walk round the core from vertex 0 would circle 4-5-6 for ever
    dumbbell = Graph(12, [(1, 2), (2, 3), (1, 3), (1, 8), (0, 8), (0, 7), (4, 7),
                          (4, 5), (5, 6), (4, 6), (9, 10), (10, 11)])
    # m = n: isolated vertices 0 and 5 beside K4 on 1..4
    k4 = Graph(6, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
    for g in (dumbbell, k4):
        assert g.m == g.n
    for g in (two_triangles, dumbbell, k4):
        with pytest.raises(NotConnectedError):
            decompose_unicyclic(g)


def test_code_invariant_under_rotation():
    l = 5
    base = make_cycle(l)
    codes = set()
    for offset in range(l):
        # pendant attached at a different cycle position each time
        g = Graph(l + 1, list(base.edges) + [(offset, l)])
        codes.add(code_of(g))
    assert len(codes) == 1


def test_pendant_position_on_c4_matters_only_up_to_symmetry():
    c4 = list(make_cycle(4).edges)
    adjacent = Graph(6, c4 + [(0, 4), (1, 5)])
    opposite = Graph(6, c4 + [(0, 4), (2, 5)])
    rotated = Graph(6, c4 + [(1, 4), (3, 5)])
    assert code_of(adjacent) != code_of(opposite)
    assert code_of(opposite) == code_of(rotated)


def test_code_constant_under_random_relabeling():
    g = make_s_n_l(7, 4)
    expected = code_of(g)
    rng = random.Random(7)
    for _ in range(100):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert code_of(relabel(g, perm)) == expected


def preorder(g: Graph, l: int, root: int) -> list[int]:
    """The vertices of the tree hanging from cycle vertex `root` of a
    standard-numbered graph, depth first with lesser children first: a
    vertex's children are its neighbours above it and off the cycle."""
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack += [w for w in reversed(g.adj[v]) if w > v and w >= l]
    return order


def test_graph_from_shapes_numbers_the_cycle_then_each_tree_in_preorder():
    for n in range(3, 11):
        for code, (l, shapes) in unicyclic_classes(n).items():
            g = graph_from_shapes(l, shapes)
            u = decompose_unicyclic(g)
            assert (g.n, g.m, u.cycle) == (n, n, tuple(range(l)))
            assert [tree_code(p) for p in u.tree_parents] == list(shapes)
            assert canonical_code(u) == code
            first = l
            for i, shape in enumerate(shapes):
                k = len(shape) // 2
                assert preorder(g, l, i) == [i, *range(first, first + k - 1)]
                first += k - 1
    for k in range(1, 11):
        for shape in rooted_shapes(k):
            t = graph_from_shapes(1, [shape])
            assert (t.n, t.m) == (k, k - 1)
            assert tree_code(orient(t.adj, 0, [False] * k)[1]) == shape
            assert preorder(t, 1, 0) == list(range(k))


def dihedral_min(codes):
    """The least of a tuple's l rotations and l reflections, by listing all 2l."""
    seqs = [tuple(codes), tuple(reversed(codes))]
    return min(seq[k:] + seq[:k] for seq in seqs for k in range(len(codes)))


def test_canonical_code_is_the_dihedral_minimum():
    rng = random.Random(12)
    checked = 0
    for n in range(3, 13):
        for code, (l, shapes) in unicyclic_classes(n).items():
            k = rng.randrange(l)
            turned = shapes[k:] + shapes[:k]
            if rng.random() < 0.5:
                turned = turned[::-1]
            u = decompose_unicyclic(graph_from_shapes(l, turned))
            codes = [tree_code(p) for p in u.tree_parents]
            assert canonical_code(u) == b"%d:" % l + b"".join(dihedral_min(codes)) == code
            checked += 1
    assert checked == 7872  # classes on 3..12 vertices, OEIS A001429
    for _ in range(200):
        u = decompose_unicyclic(random_unicyclic(rng.randrange(3, 80), rng))
        codes = [tree_code(p) for p in u.tree_parents]
        assert canonical_code(u) == b"%d:" % u.l + b"".join(dihedral_min(codes))


def test_repr_rejects_shared_vertices():
    with pytest.raises(ValueError):
        UnicyclicRepr((0, 1, 2), [([0, 3], [-1, 0]), ([1, 3], [-1, 0]), ([2], [-1])])
    with pytest.raises(ValueError):
        UnicyclicRepr((0, 1, 2), [([0], [-1]), ([2], [-1]), ([1], [-1])])  # root off the cycle
    with pytest.raises(ValueError):
        UnicyclicRepr((0, 1), [([0], [-1]), ([1], [-1])])  # l = 2: a cycle needs 3, a tree 1


def test_distinct_small_graphs_get_distinct_codes():
    pairs = [
        (make_cycle(6), make_s_n_l(6, 5)),
        (make_s_n_l(6, 4), make_p_n_l(6, 4)),
        (make_s_n_l(5, 3), make_p_n_l(5, 3)),
    ]
    for a, b in pairs:
        assert code_of(a) != code_of(b)


def test_rooted_shape_counts():
    # unlabeled rooted trees: 1, 1, 2, 4, 9, 20, 48
    assert [len(rooted_shapes(k)) for k in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]


def test_rooted_shape_counts_to_15():
    assert [len(rooted_shapes(k)) for k in range(1, 16)] == A000081[1:16]


def test_every_catalog_lists_its_codes_in_byte_order():
    """Every catalog up to 14 vertices is strictly increasing as bytes,
    and so is each size of the walk's row-run alphabet up to 12 vertices,
    and the whole alphabet, under every delta, None included, exactly and
    at most: rank order is code order."""
    def increasing(codes):
        return all(x < y for x, y in zip(codes, codes[1:]))

    for k in range(1, 15):
        assert increasing(list(rooted_shapes(k))), k
    for delta in (None, *range(0, 15)):
        for exact in (True, False):
            codes, by_size, _, _, _ = _alphabet(14, delta, exact, 12, None)
            assert increasing(codes), (delta, exact)
            for k, ranks in enumerate(by_size):
                assert increasing([codes[r] for r in ranks]), (k, delta, exact)


def test_tree_counts_are_the_bounded_catalog_sizes():
    """The series `class_count` reads counts the full catalog's trees
    whose every vertex has at most delta - 1 children, and those of them
    whose root has at most delta - 2, the trees that `_alphabet` hangs
    from a cycle vertex; the walk's row-run alphabet holds as many."""
    for delta in (None, *range(1, 12)):
        expected = []
        for k in range(1, 12):
            records = rooted_shapes(k).values()
            if delta is None:
                expected.append((len(records), len(records)))
            else:  # record fields 3 and 4: root children, largest non-root degree
                expected.append((sum(r[3] <= delta - 1 and r[4] <= delta for r in records),
                                 sum(hanging_degree(r) <= delta for r in records)))
        assert list(islice(_tree_counts(delta), 11)) == expected, delta
        by_size = _alphabet(13, delta, False, 11, None)[1]
        assert [len(ranks) for ranks in by_size[1:]] == [h for _, h in expected], delta
    assert [h for _, h in islice(_tree_counts(None), 20)] == A000081[1:]


def test_catalog_codes_parse_back():
    for k in range(1, 11):
        for code in rooted_shapes(k):
            assert len(code) == 2 * k
            assert tree_code(code_parents(code)) == code


def test_catalog_records_match_labeled_trees():
    for k in range(1, 11):
        for code, record in rooted_shapes(k).items():
            assert record[:3] == tree_stats(code_parents(code))
            t = graph_from_shapes(1, [code])
            inner = max((t.degree(v) for v in range(1, t.n)), default=0)
            assert record[3:] == (t.degree(0), inner)


def test_catalog_wiener_matches_bfs():
    # the lemma suite's Wiener-broom check reads W from these records
    for k in range(1, 12):
        for code, record in rooted_shapes(k).items():
            assert record[2] == wiener(graph_from_shapes(1, [code]))


def test_shape_stats_and_degrees():
    star = b"(()()())"
    assert shape_record(star)[:3] == (4, 3, 9)
    chain = path_shape(4)
    assert shape_record(chain)[:3] == (4, 6, 10)
    assert shape_record(star)[3:] == (3, 1)
    assert shape_record(chain)[3:] == (1, 2)


def test_child_order_does_not_change_the_code():
    # root 0 with children 1 = leaf and 2 = (child 3), listed both ways
    a = tree_code([-1, 0, 0, 2])
    b = tree_code([-1, 0, 0, 1])
    assert a == b == b"((())())"
    assert a in rooted_shapes(4)


def test_tree_canonical_code_invariance():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert tree_canonical_code(path) != tree_canonical_code(star)
    rng = random.Random(3)
    expected = tree_canonical_code(path)
    for _ in range(50):
        perm = list(range(5))
        rng.shuffle(perm)
        assert tree_canonical_code(relabel(path, perm)) == expected


def reference_tree_code(g: Graph) -> bytes:
    """The free tree's code at its vertices of least eccentricity."""
    ecc = [max(g.bfs_distances(v)) for v in range(g.n)]
    centers = [v for v in range(g.n) if ecc[v] == min(ecc)]
    seen = [False] * g.n
    if len(centers) == 1:
        return b"T1:" + tree_code(orient(g.adj, centers[0], seen)[1])
    a, b = centers
    seen[b] = True
    halves = [tree_code(orient(g.adj, c, seen)[1]) for c in (a, b)]
    return b"T2:" + b"".join(sorted(halves))


def test_tree_canonical_code_roots_at_the_least_eccentric_vertices():
    """Every tree on at most 10 vertices, once per rooted shape, and
    seeded random labeled trees up to 80 vertices, paths among them."""
    shaped = [graph_from_shapes(1, [s]) for k in range(1, 11) for s in rooted_shapes(k)]
    rng = random.Random(5)
    trees = []
    for _ in range(200):
        n = rng.randrange(1, 81)
        perm = list(range(n))
        rng.shuffle(perm)
        # each vertex hangs off an earlier one, nearby ones making long paths
        reach = rng.choice([1, 3, n])
        edges = [(perm[rng.randrange(max(0, v - reach), v)], perm[v]) for v in range(1, n)]
        trees.append(Graph(n, edges))
    for g in shaped + trees:
        assert tree_canonical_code(g) == reference_tree_code(g)
    # the 1,205 rooted shapes make the 201 free trees on at most 10 vertices
    assert len({tree_canonical_code(g) for g in shaped}) == 201


def test_tree_canonical_code_refuses_non_trees():
    with pytest.raises(ValueError, match="not a tree"):
        tree_canonical_code(make_cycle(5))
    with pytest.raises(NotConnectedError, match="^graph on 4 vertices is not connected$"):
        tree_canonical_code(Graph(4, [(0, 1), (1, 2), (0, 2)]))  # a triangle and a vertex


def test_tree_distance_within_repr():
    """Same-tree resistances are the BFS distances."""
    rng = random.Random(11)
    graphs = [make_p_n_l(7, 3)]  # tail 3, 4, 5, 6 off vertex 0
    graphs += [random_unicyclic(rng.randrange(5, 60), rng) for _ in range(20)]
    for g in graphs:
        u = decompose_unicyclic(g)
        for nodes in u.tree_nodes:
            for a in nodes:
                dist = g.bfs_distances(a)
                for b in nodes:
                    if a != b:
                        assert resistance(u, a, b) == dist[b]
    u = decompose_unicyclic(make_p_n_l(7, 3))
    assert resistance(u, 6, 0) == 4


def test_bounded_catalog_equals_the_filtered_catalog():
    """Each size k <= 14 of the walk's row-run alphabet on n = 16, under
    every delta, lists the trees of the full catalog whose root has at most
    delta - 2 children and whose other vertices have degree at most delta,
    in the catalog's order, with the terms W + (n - k) D of their records
    and, exactly delta, their hub marks."""
    n, top = 16, 14
    for delta in range(0, 17):
        for exact in (True, False):
            codes, by_size, hubs, _, terms = _alphabet(n, delta, exact, top, None)
            for k in range(1, top + 1):
                expected = [(code, rec) for code, rec in rooted_shapes(k).items()
                            if rec[3] <= delta - 2 and rec[4] <= delta]
                case = (k, delta, exact)
                assert [codes[r] for r in by_size[k]] == [code for code, _ in expected], case
                assert [terms[r] for r in by_size[k]] == [
                    w + (n - k) * d for _, (_, d, w, _, _) in expected], case
                if exact:
                    assert [r in hubs for r in by_size[k]] == [
                        max(rec[3] + 2, rec[4]) == delta for _, rec in expected], case


def join_tree_code(parent):
    """AHU code by joining each vertex's sorted child codes, bottom-up: the
    reference `tree_code` must reproduce."""
    kids = [[] for _ in parent]
    for k in range(len(parent) - 1, 0, -1):
        codes = kids[k]
        codes.sort()
        kids[parent[k]].append(b"(" + b"".join(codes) + b")")
    codes = kids[0]
    codes.sort()
    return b"(" + b"".join(codes) + b")"


def test_tree_code_equals_the_joined_code():
    rng = random.Random(29)
    for k in range(1, 13):
        for shape in rooted_shapes(k):
            # relabel, then list the vertices breadth first from the root
            t = graph_from_shapes(1, [shape])
            perm = list(range(1, k))
            rng.shuffle(perm)
            g = relabel(t, [0] + perm)
            parent = orient(g.adj, 0, [False] * k)[1]
            assert tree_code(parent) == join_tree_code(parent) == shape
    for _ in range(2000):
        size = rng.randrange(1, 80)
        # random attachment, and long spines with short branches
        parent = [-1] + [rng.randrange(max(0, k - rng.choice((1, 3, k))), k) for k in range(1, size)]
        assert tree_code(parent) == join_tree_code(parent)
