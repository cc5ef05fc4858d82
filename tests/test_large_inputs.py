"""Inputs far deeper than the interpreter's recursion limit.

Each test starts with the call that a recursive tree walk would break, so
a regression fails fast with RecursionError rather than after slower
checks. Input graphs must not grow the shape catalog, which only
enumeration fills.
"""
import gc
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from kfx import unicyclic
from kfx.cli import main
from kfx.errors import CapExceededError
from kfx.families import make_cycle, make_p3_extremal, make_path, make_t_n_delta
from kfx.formulas import theorem_bound
from kfx.graph import format_edge_list
from kfx.metrics import engine_input, kf_vertex, kirchhoff_index, wiener_index
from kfx.search import unicyclic_extremes
from kfx.suites import verify_theorem
from kfx.unicyclic import canonical_code, decompose_unicyclic
from oracles import relabel, tree_canonical_code

N = 5000


def cache_sizes():
    return unicyclic.rooted_shapes.cache_info().currsize


def test_p3_extremal_with_long_tail():
    before = cache_sizes()
    g = make_p3_extremal(N, 5)
    u = decompose_unicyclic(g)
    code = canonical_code(u)
    assert kirchhoff_index(u) == theorem_bound(N, 5)
    assert kirchhoff_index(g) == theorem_bound(N, 5)
    perm = list(range(N))
    random.Random(5000).shuffle(perm)
    assert canonical_code(decompose_unicyclic(relabel(g, perm))) == code
    assert cache_sizes() == before


def test_long_path():
    before = cache_sizes()
    g = make_path(N)
    assert tree_canonical_code(g).startswith(b"T2:")
    assert kirchhoff_index(g) == Fraction(N**3 - N, 6)
    assert kf_vertex(g, N - 1) == N * (N - 1) // 2
    assert wiener_index(g) == (N**3 - N) // 6
    assert cache_sizes() == before


def test_verify_theorem_formula_only_at_large_n():
    before = cache_sizes()
    rep = verify_theorem(N, 5)
    assert (rep.mode, rep.verdict) == ("formula-only", "match")
    assert cache_sizes() == before


def test_cli_verify_theorem_n_700(capsys):
    before = cache_sizes()
    rc = main(["verify", "--suite", "theorem", "--n", "700", "--delta", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "match"
    assert cache_sizes() == before


def test_wiener_closed_forms_at_large_n():
    before = cache_sizes()
    n = 40_000
    assert wiener_index(make_path(n)) == (n + 1) * n * (n - 1) // 6  # C(n + 1, 3)
    n = 20_000
    assert wiener_index(make_cycle(n)) == n**3 // 8
    n = 20_001
    assert wiener_index(make_cycle(n)) == (n**3 - n) // 8
    assert cache_sizes() == before


def test_cli_compute_p3_n_100000(capsys, tmp_path):
    n, delta = 100_000, 5
    path = tmp_path / "p3.edges"
    path.write_text(format_edge_list(make_p3_extremal(n, delta)))
    before = cache_sizes()
    rc = main(["compute", "--input", str(path), "--format", "json"])
    out = capsys.readouterr()
    assert rc == 0, out.err
    record = json.loads(out.out)
    assert Fraction(record["kf"]) == theorem_bound(n, delta)
    assert record["n"] == record["m"] == n
    assert cache_sizes() == before


def test_kf_vertex_at_the_end_of_a_100000_vertex_tail():
    n = 100_000
    g = make_p3_extremal(n, 5)
    u = decompose_unicyclic(g)
    before = cache_sizes()
    v = n - 1  # the far end of the pendant path
    i = next(i for i, nodes in enumerate(u.tree_nodes) if v in nodes)
    # on a triangle each cross-tree pair is 2/3 where its distance counts 1
    assert kf_vertex(u, v) == sum(g.bfs_distances(v)) - Fraction(n - u.tree_sizes[i], 3)
    assert cache_sizes() == before


@pytest.mark.parametrize("build", [
    lambda: make_p3_extremal(20_000, 5), lambda: make_path(20_000), lambda: make_t_n_delta(20_000, 100),
], ids=["p3", "path", "broom"])
def test_a_decomposition_keeps_under_100_bytes_a_vertex(build):
    """A decomposition holds each tree's labels and parent positions and
    its folded stats, and no table per label: the bytes still allocated
    after `engine_input` stay under 100 a vertex (about 45 on these
    graphs; a label -> (tree, position) dict and a depth table per tree
    would add about 150)."""
    g = build()
    tracemalloc.start()
    try:
        u = engine_input(g)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert u.n == g.n == 20_000
    assert kept <= 100 * g.n, kept / g.n


def test_cli_verify_theorem_n_100000(capsys):
    before = cache_sizes()
    rc = main(["verify", "--suite", "theorem", "--n", "100000", "--delta", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "match"
    assert cache_sizes() == before


def test_enumerating_the_100000_cycle():
    # the n-cycle is the one class of max degree 2, and the one on an
    # n-cycle; its canonical check costs no more than its tuple
    n = 100_000
    for args in ((n, 2), (n, 2, None, False), (n, None, n)):
        for objective in ("min", "max"):
            found = unicyclic_extremes(*args, objective=objective)
            assert found == (1, Fraction(n**3 - n, 12), [f"{n}:" + "()" * n])
    for args in ((n, 3), (n, 5), (n, None), (n, n - 10), (n, n // 2, None, False)):
        with pytest.raises(CapExceededError):
            unicyclic_extremes(*args, objective="max")


def test_code_memory_stays_linear():
    """Each subtree's code is freed once its parent's code holds it."""
    path = make_path(20_000)
    u = decompose_unicyclic(make_p3_extremal(20_000, 5))
    for code_of in (lambda: tree_canonical_code(path), lambda: canonical_code(u)):
        tracemalloc.start()
        try:
            code_of()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def test_code_time_grows_linearly():
    """Eight times the tail costs far less than the 64 times a code that
    copies each subtree's code into its parent's would take. The cyclic
    garbage collector is paused while timing: its full passes walk every
    object the test process holds, such as other tests' cached catalogs,
    and would time those instead."""
    def best_time(n: int, repeat: int) -> float:
        u = decompose_unicyclic(make_p3_extremal(n, 5))
        best = float("inf")
        for _ in range(repeat):
            gc.disable()
            try:
                t = time.perf_counter()
                canonical_code(u)
                best = min(best, time.perf_counter() - t)
            finally:
                gc.enable()
        return best

    assert best_time(100_000, 3) < 24 * best_time(12_500, 5)
