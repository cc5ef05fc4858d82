import random
from itertools import combinations

import pytest

from kfx.errors import GraphParseError, NotConnectedError
from kfx.families import make_cycle, make_p3_extremal, make_path, make_s_n_l
from kfx.graph import (
    Graph,
    format_edge_list,
    max_degree,
    parse_edge_list,
    wiener,
)
from oracles import graph_key, relabel


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])


def test_max_degree_examples():
    assert max_degree(make_cycle(7)) == 2
    star5 = Graph(5, [(0, v) for v in range(1, 5)])
    assert max_degree(star5) == 4
    assert max_degree(make_p3_extremal(100, 96)) == 96


def test_wiener_examples():
    assert wiener(make_path(4)) == 10  # C(5,3)
    star4 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert wiener(star4) == 9
    assert sum(make_path(5).bfs_distances(0)) == 10  # 1+2+3+4


def test_wiener_requires_connected():
    two = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotConnectedError):
        wiener(two)


def test_edge_list_roundtrip():
    g = make_s_n_l(6, 4)
    text = format_edge_list(g)
    assert graph_key(parse_edge_list(text)) == graph_key(g)
    assert text.endswith("\n")


def test_parser_accepts_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n3 3\n\n0 1\n1 2  # last two\n0 2\n")
    assert graph_key(g) == graph_key(make_cycle(3))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "3 2\n0 1\n",  # wrong edge count
        "3 1\n0 0\n",  # loop
        "3 2\n0 1\n0 1\n",  # duplicate
        "3 1\n0 5\n",  # out of range
        "3 1\nx y\n",
        "a b\n",
    ],
)
def test_parser_rejects_malformed(text):
    with pytest.raises(GraphParseError):
        parse_edge_list(text)


@pytest.mark.parametrize("text", ["5 2\n0 1\n2 3\n", "30000000 0\n", "30000000 1\n0 29999999\n"],
                         ids=["two components", "no edge", "one edge"])
def test_parser_rejects_too_few_edges_to_connect(text):
    # fewer than n - 1 edges: refused before a list per vertex is built
    with pytest.raises(NotConnectedError, match=r"^graph on \d+ vertices is not connected$"):
        parse_edge_list(text)


def test_relabel_preserves_structure():
    g = make_cycle(4)
    h = relabel(g, [2, 3, 0, 1])
    assert h.m == 4 and max_degree(h) == 2


def test_is_connected_is_reachability_from_vertex_0():
    graphs = [Graph(1, []), Graph(3, []), Graph(4, [(0, 1), (2, 3)]), Graph(4, [(0, 1), (1, 2), (0, 2)])]
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randrange(1, 16)
        pairs = list(combinations(range(n), 2))
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(min(len(pairs), 2 * n) + 1))))
    answers = []
    for g in graphs:
        answers.append(g.is_connected())
        assert answers[-1] == (-1 not in g.bfs_distances(0))
    assert answers[:4] == [True, False, False, False]
    assert 100 < sum(answers) < 300  # both answers are common


def test_bfs_distances_on_cycle():
    g = make_cycle(6)
    assert g.bfs_distances(0) == [0, 1, 2, 3, 2, 1]
