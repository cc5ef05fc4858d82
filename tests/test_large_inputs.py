"""Inputs far deeper than the interpreter's recursion limit.

Each test starts with the call that a recursive tree walk would break, so
a regression fails fast with RecursionError rather than after slower
checks. Input graphs must not grow the shape catalog, which only
enumeration fills.
"""
import json
import random
from fractions import Fraction

from kfx import unicyclic
from kfx.cli import main
from kfx.families import make_cycle, make_p3_extremal, make_path
from kfx.formulas import theorem_bound
from kfx.graph import format_edge_list
from kfx.metrics import kf_decomposition, kirchhoff_index, wiener_index
from kfx.search import verify_theorem
from kfx.unicyclic import canonical_code, decompose_unicyclic, tree_canonical_code

N = 5000


def cache_sizes():
    return unicyclic.rooted_shapes.cache_info().currsize


def test_p3_extremal_with_long_tail():
    before = cache_sizes()
    g = make_p3_extremal(N, 5)
    u = decompose_unicyclic(g)
    code = canonical_code(u)
    assert kf_decomposition(u) == theorem_bound(N, 5)
    assert kirchhoff_index(g) == theorem_bound(N, 5)
    perm = list(range(N))
    random.Random(5000).shuffle(perm)
    assert canonical_code(decompose_unicyclic(g.relabel(perm))) == code
    assert cache_sizes() == before


def test_long_path():
    before = cache_sizes()
    g = make_path(N)
    assert tree_canonical_code(g).startswith(b"T2:")
    assert kirchhoff_index(g) == Fraction(N**3 - N, 6)
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
