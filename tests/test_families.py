from fractions import Fraction

import pytest

from kfx.errors import ParameterError
from kfx.families import (
    FAMILIES,
    FamilyParams,
    make_conj_min_i,
    make_conj_min_ii,
    make_cycle,
    make_graph_a,
    make_graph_b,
    make_p3_extremal,
    make_p_family_member,
    make_p_n_l,
    make_path,
    make_s_n_l,
    make_t_n_delta,
)
from kfx.formulas import conj_min_formula_i, conj_min_formula_ii, kf_b_formula
from kfx.graph import max_degree, wiener
from kfx.metrics import engine_input, kirchhoff_index
from kfx.unicyclic import canonical_code, decompose_unicyclic
from oracles import graph_key, is_unicyclic, tree_canonical_code

F = Fraction


def code_of(g):
    return canonical_code(decompose_unicyclic(g))


def test_cycle_and_path():
    assert make_cycle(3).m == 3
    assert make_path(2).m == 1
    assert kirchhoff_index(engine_input(make_cycle(5), "oracle")) == 10
    with pytest.raises(ParameterError):
        make_cycle(2)
    with pytest.raises(ParameterError):
        make_path(0)


def test_s_n_l():
    assert kirchhoff_index(engine_input(make_s_n_l(4, 3), "oracle")) == F(19, 3)
    assert code_of(make_s_n_l(6, 6)) == code_of(make_cycle(6))
    assert max_degree(make_s_n_l(5, 3)) == 4
    with pytest.raises(ParameterError):
        make_s_n_l(4, 5)


def test_p_n_l():
    g = make_p_n_l(5, 3)
    assert max_degree(g) == 3 and g.m == 5
    assert code_of(make_p_n_l(6, 6)) == code_of(make_cycle(6))
    assert max_degree(make_p_n_l(6, 4)) == 3


def test_t_n_delta():
    assert wiener(make_t_n_delta(4, 3)) == 9  # star K_{1,3}
    assert wiener(make_t_n_delta(7, 3)) == 52
    star = make_t_n_delta(6, 5)
    assert max_degree(star) == 5 and star.m == 5
    assert tree_canonical_code(star) == tree_canonical_code(
        make_t_n_delta(6, 5)
    )
    with pytest.raises(ParameterError):
        make_t_n_delta(3, 3)


def test_p_family_member_shapes():
    g = make_p_family_member(7, 3, 4, 0)
    assert g.n == 7 and g.m == 7 and max_degree(g) == 4
    # hub positions sweep distinct structures, except the last interior
    # position, whose single-vertex tail continuation is itself a pendant
    codes = [code_of(make_p_family_member(9, 3, 4, hp)) for hp in range(0, 5)]
    assert len(set(codes)) == 4
    assert codes[3] == codes[4]
    with pytest.raises(ParameterError):
        make_p_family_member(7, 3, 4, 99)
    # tail-end hub impossible at n = l+delta-1
    with pytest.raises(ParameterError):
        make_p_family_member(6, 3, 4, 1)


def test_every_p_family_member_has_max_degree_delta():
    # on the grid 4 <= n < 30: each member's hub has degree delta and no
    # other vertex more than 3, and the one refusal is the tail-end hub at
    # n = l + delta - 1, whose tail would be empty
    built, refused = 0, set()
    for n in range(4, 30):
        for l in range(3, n + 1):
            for delta in range(3, n):
                for hub_pos in range(0, n - l - delta + 3):
                    try:
                        g = make_p_family_member(n, l, delta, hub_pos)
                    except ParameterError as exc:
                        assert str(exc) == "requested degree unreachable at this position"
                        refused.add((n, l, delta, hub_pos))
                        continue
                    assert max_degree(g) == delta, (n, l, delta, hub_pos)
                    built += 1
    assert refused == {(l + delta - 1, l, delta, 1) for l in range(3, 28)
                       for delta in range(3, 31 - l)}
    assert built == 23426


def test_graph_a_matches_triangle_extremal():
    for n, delta in [(6, 3), (8, 4), (10, 5)]:
        assert code_of(make_graph_a(n, 3, delta)) == code_of(make_p3_extremal(n, delta))


def test_graph_b_value_and_sign():
    assert kirchhoff_index(make_graph_b(8, 3, 3)) == kf_b_formula(8, 3, 3)
    diff = kirchhoff_index(make_graph_a(8, 4, 4)) - kirchhoff_index(make_graph_b(8, 4, 4))
    assert diff > 0
    with pytest.raises(ParameterError):
        make_graph_b(6, 3, 4)  # needs n >= l+delta


def test_p3_extremal():
    assert kirchhoff_index(make_p3_extremal(5, 3)) == F(44, 3)
    assert kirchhoff_index(engine_input(make_p3_extremal(100, 96), "structural")) == F(30925, 3)
    assert code_of(make_p3_extremal(4, 3)) == code_of(make_s_n_l(4, 3))
    with pytest.raises(ParameterError):
        make_p3_extremal(3, 3)


def test_conj_min_i():
    g = make_conj_min_i(5, 3)
    assert code_of(g) == code_of(make_s_n_l(5, 4))  # C_4 + pendant
    assert kirchhoff_index(engine_input(g, "oracle")) == F(23, 2) == conj_min_formula_i(5, 3)
    assert code_of(make_conj_min_i(8, 3)) == code_of(make_s_n_l(8, 7))


def test_conj_min_ii():
    g = make_conj_min_ii(12, 4, 2)
    assert g.n == 12 and max_degree(g) == 4
    u = decompose_unicyclic(g)
    assert u.l == 8 and sorted(u.tree_sizes, reverse=True)[:2] == [3, 3]
    assert kirchhoff_index(g) == conj_min_formula_ii(12, 4, 2)
    # single hub coincides with the small-n branch
    assert code_of(make_conj_min_ii(7, 4, 1)) == code_of(make_conj_min_i(7, 4))
    with pytest.raises(ParameterError):
        make_conj_min_ii(12, 4, 9)


def test_generated_graphs_are_sound():
    cases = [
        make_s_n_l(7, 4),
        make_p_n_l(8, 5),
        make_p_family_member(9, 4, 4, 1),
        make_p3_extremal(9, 5),
        make_conj_min_i(9, 4),
        make_conj_min_ii(12, 5, 3),
    ]
    for g in cases:
        assert is_unicyclic(g)
    assert max_degree(make_p3_extremal(9, 5)) == 5
    assert max_degree(make_conj_min_i(9, 4)) == 4
    assert max_degree(make_conj_min_ii(12, 5, 3)) == 5


def test_family_params_dispatch():
    g = FamilyParams(family="p3", n=6, delta=3).build()
    assert code_of(g) == code_of(make_p3_extremal(6, 3))
    with pytest.raises(ParameterError):
        FamilyParams(family="p3", n=6).build()
    with pytest.raises(ParameterError, match="^unknown family 'nope'; known: cycle, path, "):
        FamilyParams(family="nope", n=6).build()


# each family name and the builder call it stands for, given every parameter
NAMED_BUILDERS = {
    "cycle": lambda n, l, delta, x, hub_pos: make_cycle(l),
    "path": lambda n, l, delta, x, hub_pos: make_path(n),
    "snl": lambda n, l, delta, x, hub_pos: make_s_n_l(n, l),
    "pnl": lambda n, l, delta, x, hub_pos: make_p_n_l(n, l),
    "broom": lambda n, l, delta, x, hub_pos: make_t_n_delta(n, delta),
    "pfamily": lambda n, l, delta, x, hub_pos: make_p_family_member(n, l, delta, hub_pos),
    "graph-a": lambda n, l, delta, x, hub_pos: make_graph_a(n, l, delta),
    "graph-b": lambda n, l, delta, x, hub_pos: make_graph_b(n, l, delta),
    "p3": lambda n, l, delta, x, hub_pos: make_p3_extremal(n, delta),
    "conj-i": lambda n, l, delta, x, hub_pos: make_conj_min_i(n, delta),
    "conj-ii": lambda n, l, delta, x, hub_pos: make_conj_min_ii(n, delta, x),
}


def outcome(build):
    try:
        return graph_key(build())
    except ParameterError as exc:
        return str(exc)


def test_every_family_builds_what_its_builder_builds():
    assert list(FAMILIES) == list(NAMED_BUILDERS)
    built = 0
    for n in range(4, 10):
        for l in range(3, n + 1):
            for delta in range(3, n):
                for x in (1, 2):
                    for hub_pos in range(0, n - l - delta + 3):
                        params = {"n": n, "l": l, "delta": delta, "x": x, "hub_pos": hub_pos}
                        for name, builder in NAMED_BUILDERS.items():
                            got = outcome(FamilyParams(name, **params).build)
                            assert got == outcome(lambda: builder(**params)), (name, params)
                            built += not isinstance(got, str)
    assert built > 1000
    # a cycle reads --n when --l is absent, and --l first
    assert graph_key(FamilyParams("cycle", n=6).build()) == graph_key(make_cycle(6))
    assert graph_key(FamilyParams("cycle", n=6, l=5).build()) == graph_key(make_cycle(5))


def test_a_missing_parameter_is_named():
    full = {"n": 12, "l": 4, "delta": 4, "x": 2, "hub_pos": 1}
    for name, (_, fields) in FAMILIES.items():
        for f in fields:
            params = {k: v for k, v in full.items() if k != f}
            if name == "cycle":
                params.pop("n")
            with pytest.raises(ParameterError) as info:
                FamilyParams(name, **params).build()
            assert str(info.value) == f"family requires parameter --{f.replace('_', '-')}"


def test_family_params_is_an_immutable_value():
    p = FamilyParams(family="p3", n=6, delta=3)
    assert p == FamilyParams(family="p3", n=6, delta=3) != FamilyParams(family="p3", n=7, delta=3)
    assert hash(p) == hash(FamilyParams(family="p3", n=6, delta=3))
    assert repr(p) == "FamilyParams(family='p3', n=6, l=None, delta=3, x=None, hub_pos=None)"
    with pytest.raises(AttributeError):
        p.n = 7
