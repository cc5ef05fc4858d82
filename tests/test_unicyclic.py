import random

import pytest

from kfx.errors import NotConnectedError, NotUnicyclicError
from kfx.families import make_cycle, make_p_n_l, make_s_n_l
from kfx.graph import Graph
from kfx.search import _rooted_tree_counts, shape_to_tree, unicyclic_classes
from kfx.unicyclic import (
    canonical_code,
    code_parents,
    decompose_unicyclic,
    path_shape,
    rooted_shapes,
    shape_record,
    tree_canonical_code,
    tree_code,
    tree_stats,
    unicyclic_from_shapes,
)


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
    with pytest.raises(NotConnectedError):
        decompose_unicyclic(two_triangles)


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
        assert code_of(g.relabel(perm)) == expected


def test_reassembly_roundtrip_n_le_8():
    for n in range(3, 9):
        for code, (l, shapes) in unicyclic_classes(n).items():
            u = unicyclic_from_shapes(l, shapes)
            g, relabel = u.to_graph()
            assert g.n == n and g.m == n
            assert sorted(relabel.values()) == list(range(n))
            assert code_of(g) == code


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


def test_rooted_shape_counts_to_12():
    # OEIS A000081
    r = _rooted_tree_counts(12)
    assert [len(rooted_shapes(k)) for k in range(1, 13)] == r[1:]


def test_catalog_codes_parse_back():
    for k in range(1, 11):
        for code in rooted_shapes(k):
            assert len(code) == 2 * k
            assert tree_code(code_parents(code)) == code


def test_catalog_records_match_labeled_trees():
    for k in range(1, 11):
        for code, record in rooted_shapes(k).items():
            assert record[:3] == tree_stats(code_parents(code))
            t = shape_to_tree(code)
            inner = max((t.degree(v) for v in range(1, t.n)), default=0)
            assert record[3:] == (t.degree(0), inner)


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
        assert tree_canonical_code(path.relabel(perm)) == expected


def test_tree_distance_within_repr():
    u = decompose_unicyclic(make_p_n_l(7, 3))  # tail 3,4,5,6 off vertex 0
    g, relabel = u.to_graph()
    # distances along the tail from the cycle root
    tail = [v for v in u.tree_index if u.depth[v] > 0]
    a = max(tail, key=lambda v: u.depth[v])
    root = u.cycle[u.tree_index[a]]
    assert u.tree_distance(a, root) == u.depth[a] == 4
