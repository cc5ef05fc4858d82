import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kfx.cli import build_parser, decimal_str, display_rational, main, rational_str
from kfx.families import make_p3_extremal
from kfx.graph import format_edge_list, parse_edge_list
from oracles import graph_key

from fractions import Fraction

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rational_rendering_helpers():
    assert rational_str(F(2)) == "2/1"
    assert display_rational(F(2)) == "2"
    assert display_rational(F(44, 3)) == "44/3"
    assert display_rational(F(31, 3), mixed=True) == "10 1/3"
    assert display_rational(F(-31, 3), mixed=True) == "-10 1/3"
    assert decimal_str(F(1, 8), 2) == "0.12"  # half-even
    assert decimal_str(F(3, 8), 2) == "0.38"
    assert decimal_str(F(30925, 3), 4) == "10308.3333"


def test_formula_subcommand(capsys):
    code, out, _ = run(
        capsys, "formula", "--name", "theorem-bound", "--n", "100", "--delta", "96",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "30925/3"
    code, out, _ = run(
        capsys, "formula", "--name", "theorem-bound", "--n", "100", "--delta", "96",
        "--decimal", "4",
    )
    assert code == 0
    assert "30925/3" in out and "10308.3333" in out


def test_formula_variant_flag(capsys):
    base = ["formula", "--name", "kf-b", "--n", "8", "--l", "3", "--delta", "3",
            "--format", "json"]
    _, printed, _ = run(capsys, *base, "--variant", "printed")
    _, validated, _ = run(capsys, *base, "--variant", "validated")
    assert json.loads(printed)["value"] != json.loads(validated)["value"]
    _, default, _ = run(capsys, *base)
    assert default == validated


def test_family_pipe_to_compute(capsys, tmp_path):
    code, out, _ = run(
        capsys, "family", "--name", "p3", "--n", "100", "--delta", "96"
    )
    assert code == 0
    assert graph_key(parse_edge_list(out)) == graph_key(make_p3_extremal(100, 96))
    path = tmp_path / "g.edges"
    path.write_text(out)
    code, out, _ = run(
        capsys, "compute", "--input", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kf"] == "30925/3"
    assert payload["max_degree"] == 96


def test_compute_integer_kf_keeps_denominator_in_json(capsys, tmp_path):
    path = tmp_path / "c3.edges"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "compute", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["kf"] == "2/1"
    code, out, _ = run(capsys, "compute", "--input", str(path))
    assert "kf" in out and " 2\n" in out


def test_compute_vertex_and_mixed(capsys, tmp_path):
    path = tmp_path / "p53.edges"
    path.write_text(format_edge_list(parse_edge_list(
        "5 5\n0 1\n1 2\n0 2\n0 3\n3 4\n"
    )))
    code, out, _ = run(capsys, "compute", "--input", str(path), "--mixed")
    assert code == 0
    assert "14 2/3" in out
    code, out, _ = run(
        capsys, "compute", "--input", str(path), "--vertex", "0", "--format", "json"
    )
    assert "kf_v0" in json.loads(out)


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "compute", "--input", str(bad))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "compute", "--input", str(tmp_path / "missing.edges"))
    assert code == 2


def test_exit_code_invalid_params(capsys):
    code, _, err = run(capsys, "family", "--name", "p3", "--n", "3", "--delta", "3")
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "formula", "--name", "theorem-bound", "--n", "4")
    assert code == 3


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "search", "--n", "9", "--cap", "5")
    assert code == 4 and "error:" in err


def test_search_outputs(capsys):
    code, out, _ = run(capsys, "search", "--n", "5", "--delta", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["extremal_value"] == "44/3"
    assert payload["graph_count"] >= 1
    code, out, _ = run(capsys, "search", "--n", "5", "--dump-all")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "canonical_code,cycle_length,kf"
    assert len(lines) == 6  # header + 5 classes


def test_dump_all_lists_the_classes_in_code_order(capsys):
    code, out, _ = run(capsys, "search", "--n", "9", "--dump-all")
    codes = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert code == 0 and len(codes) == 240 and codes == sorted(codes)


@pytest.mark.parametrize("argv, n, delta, l_filter, objective", [
    (["--n", "6", "--l", "9"], 6, "null", 9, "max"),
    (["--n", "3", "--delta", "4", "--objective", "min"], 3, 4, "null", "min"),
    (["--n", "5", "--delta", "1", "--dump-all"], 5, 1, "null", "max"),  # JSON, no CSV header
])
def test_search_without_classes_prints_an_empty_report(capsys, argv, n, delta, l_filter, objective):
    code, out, err = run(capsys, "search", *argv)
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "argext_codes": [],\n'
        f'  "delta": {delta},\n'
        '  "extremal_value": null,\n  "graph_count": 0,\n  "kind": "search",\n'
        f'  "l_filter": {l_filter},\n  "n": {n},\n  "objective": "{objective}"\n}}\n'
    )


def test_verify_theorem_json_and_determinism(capsys):
    argv = ["verify", "--suite", "theorem", "--n", "6", "--delta", "3"]
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "match"
    assert payload["theorem"][0]["formula_value"] == "28/1"


def test_verify_workers_byte_identical(capsys):
    base = ["verify", "--suite", "theorem", "--n", "7", "--delta", "3"]
    _, one, _ = run(capsys, *base, "--workers", "1")
    _, two, _ = run(capsys, *base, "--workers", "2")
    assert one == two


def test_verify_engines_records_seed(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "engines", "--n-max", "5", "--random", "3",
        "--seed", "777",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["engines"]["seed"] == 777
    assert payload["engines"]["violations"] == []


def test_verify_engines_pins_the_widened_run(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "engines", "--n-max", "10", "--random", "200")
    assert code == 0
    assert json.loads(out) == {
        "engines": {"graphs": 1240, "pairs": 51705, "seed": 20240817, "violations": []},
        "suite": "engines",
        "verdict": "match",
    }


def test_verify_all_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "e610704c16767178c47f4e2d2f66678c1a7f6ec21f17e74c505c3c7a0ce038f9"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_lemmas_stdout_is_pinned(capsys, workers):
    # the rows reach the suite unsorted, one unit at a time; the digest pins
    # each count and each violation list in order, such as the hub
    # violations at n = 12 and 13
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--n-max", "13", "--workers", workers)
    assert code == 1
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "6cb061fcde916223b1e3f5d0e63ca48aa24f49e99a2b076957eee4ff89653ce6"


def test_conjecture_exit_codes(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "5", "--delta", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "match"
    code, out, _ = run(capsys, "conjecture", "--n", "12", "--delta", "5")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "mismatch"
    assert payload["extremal_value"] == "126/1"


def test_output_flag(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "formula", "--name", "kf-cycle", "--l", "5",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["value"] == "10/1"


def test_the_environment_changes_no_run(capsys, monkeypatch):
    # the cap comes from --cap alone: an ambient KFX_CAP, valid or not, is ignored
    monkeypatch.delenv("KFX_CAP", raising=False)
    theorem = ["verify", "--suite", "theorem", "--n-max", "6"]
    unset = run(capsys, *theorem)
    search = run(capsys, "search", "--n", "5")
    assert unset[0] == search[0] == 0
    monkeypatch.setenv("KFX_CAP", "3")
    assert run(capsys, *theorem) == unset
    monkeypatch.setenv("KFX_CAP", "abc")
    assert run(capsys, "search", "--n", "5") == search


@pytest.mark.parametrize("given", [["--n", "700"], ["--delta", "5"]])
def test_verify_n_and_delta_go_together(capsys, given):
    # one without the other used to fall back to the default sweep and exit 0
    code, out, err = run(capsys, "verify", "--suite", "theorem", *given)
    assert (code, out) == (3, "")
    assert err == "error: verify takes --n and --delta together\n"


def test_each_subcommand_accepts_only_the_options_it_reads():
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {a.option_strings[-1] for a in p._actions if a.option_strings} - {"--help"}
               for name, p in subs.choices.items()}
    display, enumeration = {"--format", "--decimal", "--mixed"}, {"--workers", "--cap"}
    assert options == {
        "compute": {"--output", "--input", "--engine", "--vertex", *display},
        "family": {"--output", "--name", "--n", "--l", "--delta", "--x", "--hub-pos"},
        "formula": {"--output", "--name", "--n", "--l", "--delta", "--x", "--variant", *display},
        "search": {"--output", "--n", "--delta", "--l", "--objective", "--at-most", "--dump-all",
                   *enumeration},
        "verify": {"--output", "--suite", "--n", "--delta", "--n-max", "--random", "--seed",
                   *enumeration},
        "conjecture": {"--output", "--n", "--delta", *enumeration},
    }
    assert sum(map(len, options.values())) == 47


@pytest.mark.parametrize("argv", [
    ["search", "--n", "6", "--format", "csv"],
    ["verify", "--format", "json"],
    ["conjecture", "--n", "5", "--delta", "3", "--seed", "3"],
    ["family", "--name", "cycle", "--n", "5", "--workers", "2"],
    ["compute", "--input", "-", "--cap", "5"],
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "unrecognized arguments" in out.err


ONLY_THEOREM = "verify takes --n and --delta only with --suite theorem, without --n-max"


INVALID_PARAMETERS = [
    (["verify", "--suite", "lemmas", "--n", "12", "--delta", "5"], ONLY_THEOREM),
    (["verify", "--n", "6", "--delta", "3"], ONLY_THEOREM),
    (["verify", "--suite", "theorem", "--n", "6", "--delta", "3", "--n-max", "9"], ONLY_THEOREM),
    (["verify", "--suite", "engines", "--random", "-1"], "--random must be >= 0, got -1"),
    (["search", "--n", "8", "--workers", "0"], "--workers must be >= 1, got 0"),
    (["search", "--n", "6", "--workers", "-3"], "--workers must be >= 1, got -3"),
    (["search", "--n", "6", "--cap", "-1"], "--cap must be >= 0, got -1"),
    (["conjecture", "--n", "6", "--delta", "3", "--cap", "-1"], "--cap must be >= 0, got -1"),
    (["formula", "--name", "kf-cycle", "--l", "5", "--variant", "printed"],
     "--variant applies to formula kf-b only, not kf-cycle"),
    (["verify", "--suite", "theorem", "--n-max", "3"],
     "--n-max must be >= 4 for suite theorem, got 3"),
    (["verify", "--suite", "lemmas", "--n-max", "0"], "--n-max must be >= 4 for suite lemmas, got 0"),
    (["verify", "--n-max", "3"], "--n-max must be >= 4 for suite all, got 3"),
    (["verify", "--suite", "engines", "--n-max", "2"],
     "--n-max must be >= 3 for suite engines, got 2"),
    # below 3 vertices no graph is unicyclic; an empty --l filter stays exit 0
    (["search", "--n", "-5"], "--n must be >= 3, got -5"),
    (["search", "--n", "2", "--objective", "min"], "--n must be >= 3, got 2"),
]


# the ids the cases have long had in test reports, kept stable
@pytest.mark.parametrize("argv, message", INVALID_PARAMETERS,
                         ids=[f"argv{i}-None-{m}" for i, (_, m) in enumerate(INVALID_PARAMETERS)])
def test_out_of_range_input_is_an_invalid_parameter(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "formula", "--name", "theorem-bound", "--n", "5", "--delta", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "formula"
    assert "44/3" in lines[1]


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RecursionError("maximum recursion depth exceeded\nwhile calling")

    monkeypatch.setattr("kfx.cli.cmd_compute", broken)
    code, out, err = run(capsys, "compute", "--input", "-")
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        "error: internal: RecursionError: maximum recursion depth exceeded while calling"
    ]


def test_compute_vertex_uses_requested_engine(capsys, tmp_path, monkeypatch):
    def structural_engine_called(g):
        raise AssertionError("structural engine used for --engine oracle")

    monkeypatch.setattr("kfx.metrics.decompose_unicyclic", structural_engine_called)
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, err = run(
        capsys, "compute", "--input", str(path), "--engine", "oracle", "--vertex", "0",
        "--format", "json",
    )
    assert code == 0, err
    assert json.loads(out)["kf_v0"] == "4/1"


@pytest.mark.parametrize("engine", ["oracle", "auto"])
def test_compute_eliminates_once_per_graph(capsys, tmp_path, monkeypatch, engine):
    # Kf, W and one transmission of a graph with two chords share one
    # Bareiss elimination, and equal the values each takes on its own
    from kfx.graph import Graph
    from kfx.metrics import det_bareiss, kf_vertex, kirchhoff_index

    n = 30
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 15), (6, 22)])
    kf, kf_v = kirchhoff_index(g), kf_vertex(g, 7)
    path = tmp_path / "chorded.edges"
    path.write_text(format_edge_list(g))
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return det_bareiss(*args)

    monkeypatch.setattr("kfx.metrics.det_bareiss", counted)
    code, out, err = run(capsys, "compute", "--input", str(path), "--engine", engine,
                         "--vertex", "7", "--format", "json")
    assert code == 0, err
    assert calls == [n - 1]
    record = json.loads(out)
    assert (record["kf"], record["kf_v7"]) == (rational_str(kf), rational_str(kf_v))


@pytest.mark.parametrize("engine", ["auto", "structural", "oracle"])
@pytest.mark.parametrize("text", [
    "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",  # two triangles
    "4 3\n0 1\n1 2\n0 2\n",  # a triangle and a vertex
    "7 8\n0 1\n0 2\n0 3\n1 2\n1 3\n4 5\n4 6\n5 6\n",  # two cycles beside a triangle
], ids=["m=n", "m=n-1", "m>n"])
def test_compute_reports_a_disconnected_graph_under_every_engine(capsys, tmp_path, engine, text):
    """The engine's own pass finds it: the decomposition, the tree's walk,
    the elimination, or the structural engine's check before it refuses a
    graph that is neither a tree nor unicyclic."""
    path = tmp_path / "g.edges"
    path.write_text(text)
    code, out, err = run(capsys, "compute", "--input", str(path), "--engine", engine)
    assert (code, out) == (3, "")
    assert err == f"error: graph on {text.split()[0]} vertices is not connected\n"


@pytest.mark.parametrize("extra", [["--vertex", "5"], ["--vertex", "-1", "--engine", "oracle"]])
def test_compute_vertex_out_of_range_is_invalid_input(capsys, tmp_path, extra):
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, err = run(capsys, "compute", "--input", str(path), *extra)
    assert code == 3
    assert out == ""
    assert "not in graph" in err and "internal" not in err


@pytest.mark.parametrize("l", ["1200", "1199"])
def test_search_long_cycle(capsys, l):
    code, out, err = run(capsys, "search", "--n", "1200", "--l", l)
    assert code == 0, err
    assert json.loads(out)["graph_count"] == 1


@pytest.mark.parametrize("argv", [
    ["search", "--n", "22", "--cap", "1000"],
    ["search", "--n", "600", "--l", "300", "--cap", "100"],
])
def test_search_refuses_oversized_runs_up_front(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == f"error: more than {argv[-1]} isomorphism classes\n"


def _formula_only_p3(n: int):
    """A check of a `verify --suite theorem --n n --delta 5` report."""
    def check(out: str) -> None:
        rep = json.loads(out)["theorem"][0]
        assert (rep["mode"], rep["verdict"]) == ("formula-only", "match")
        assert rep["expected_code"] == "3:(" + "(" * (n - 5) + ")" * (n - 5) + "()())()()"
    return check


def _graph_count(count: int):
    """A check of a search report's class count."""
    def check(out: str) -> None:
        assert json.loads(out)["graph_count"] == count
    return check


def _long_cycle(out: str) -> None:
    payload = json.loads(out)
    assert (payload["graph_count"], payload["extremal_value"]) == (601, "287526191/2")


CAPPED = ("", "error: more than 5000000 isomorphism classes\n")

# stdin of every row: a graph header announcing 30,000,000 vertices and no
# edges, which only `compute --input -` reads
SPARSE_HEADER = "30000000 0\n"


# Each command runs under a 1 GiB RLIMIT_AS, which is the memory gate: peak
# RSS is not bounded here, because a child forked from the pytest process
# reports its parent's size as its own. Each row: argv, exit code, the
# expected (stdout, stderr) or a check of stdout with stderr empty, and a
# time bound in seconds, generous against the times on a 2-core x86-64 host.
SMALL_ADDRESS_SPACE = [
    # the cycle lengths stay a range, so n = 10^9 reaches the cap check with
    # no list of 10^9 lengths behind it (about 0.15 s)
    (["search", "--n", "1000000000"], 4, CAPPED, 30),
    (["search", "--n", "1000000000", "--delta", "5"], 4, CAPPED, 30),
    # formula-only folds Kf from the extremal trees' numbers, with no graph
    # and no list per vertex (about 0.3 s at 62 MiB and 1.2 s at 207 MiB)
    (["verify", "--suite", "theorem", "--n", "4000000", "--delta", "5"], 0,
     _formula_only_p3(4000000), 60),
    (["verify", "--suite", "theorem", "--n", "20000000", "--delta", "5"], 0,
     _formula_only_p3(20000000), 30),
    (["search", "--n", "1200", "--l", "1198"], 0, _long_cycle, 30),  # about 0.17 s
    # the walk keeps a list of l ranks and a few entries per word, so a
    # long cycle's one class fits (about 1.9 s and 1.4 s)
    (["search", "--n", "10000000", "--l", "9999999"], 0, _graph_count(1), 60),
    (["search", "--n", "10000000", "--l", "10000000"], 0, _graph_count(1), 60),
    # extremes walk only tuples of term-extreme trees and build no catalog,
    # which would hold 2,466,051 trees for (20, 6) (about 0.7 s) and nearly
    # every rooted tree on up to 17 vertices for (19, 10) (about 0.16 s)
    (["search", "--n", "20", "--delta", "6"], 0, _graph_count(3066398), 20),
    (["search", "--n", "19", "--delta", "10"], 0, _graph_count(12754), 20),
    # too few edges to be connected: refused before a list per vertex is built
    (["compute", "--input", "-"], 3, ("", "error: graph on 30000000 vertices is not connected\n"), 10),
    # the sweeps meet the cap at their largest n, before their first (about 0.2 s)
    (["verify", "--suite", "lemmas", "--n-max", "19"], 4, CAPPED, 10),
    (["verify", "--suite", "engines", "--n-max", "19"], 4, CAPPED, 10),
    (["verify", "--suite", "all", "--n-max", "19"], 4, CAPPED, 10),
]


@pytest.mark.parametrize("argv, code, expect, seconds", SMALL_ADDRESS_SPACE,
                         ids=[" ".join(argv) for argv, *_ in SMALL_ADDRESS_SPACE])
def test_fits_a_small_address_space(argv, code, expect, seconds):
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kfx.cli", *argv], capture_output=True,
                          text=True, env=env, preexec_fn=limit, timeout=seconds,
                          input=SPARSE_HEADER)
    assert proc.returncode == code, proc.stderr
    if callable(expect):
        assert proc.stderr == ""
        expect(proc.stdout)
    else:
        assert (proc.stdout, proc.stderr) == expect


@pytest.mark.parametrize("argv, message", [
    (["search", "--n", "20", "--delta", "4", "--cap", "1000"], "more than 1000 isomorphism classes"),
    (["conjecture", "--n", "20", "--delta", "4"], "more than 5000000 isomorphism classes"),
])
def test_cap_is_checked_before_any_catalog(capsys, monkeypatch, argv, message):
    def no_catalog(*args):
        raise AssertionError("tree catalog built")

    monkeypatch.setattr("kfx.search._alphabet", no_catalog)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_n_max_reaches_the_lemma_and_engine_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--n-max", "12")
    assert code == 1
    lemmas = json.loads(out)["lemmas"]
    assert lemmas["hub_on_cycle_maximizes"]["violations"] == [
        "n=12 l=5 delta=5", "n=12 l=6 delta=5", "n=12 l=5 delta=6",
    ]
    code, out, _ = run(capsys, "verify", "--suite", "engines", "--n-max", "9", "--random", "0")
    assert code == 0
    assert json.loads(out)["engines"]["graphs"] == 1 + 2 + 5 + 13 + 33 + 89 + 240
    code, _, err = run(capsys, "verify", "--suite", "engines", "--n-max", "6", "--cap", "10")
    assert code == 4
    assert err == "error: more than 10 isomorphism classes\n"


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one CLI command in a fresh interpreter and prints, as JSON, the exit
# code and the modules the command added to sys.modules.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from kfx.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "added": sorted(set(sys.modules) - before)}))
"""


def modules_added_by(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = tmp_path / "payload"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv, "--output", str(out)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["rc"] == 0, proc.stderr
    return set(result["added"])


def test_a_traced_compute_reads_the_adjugate_as_its_graph(capsys, tmp_path):
    # perfbench/trace_cli.py classifies each kirchhoff_index call by the
    # n and m of what it receives, here the adjugate of a chorded cycle
    from kfx.graph import Graph

    n = 12
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (2, 9)])
    path = tmp_path / "chorded.edges"
    path.write_text(format_edge_list(g))
    argv = ["compute", "--input", str(path), "--vertex", "3"]
    _, expected, _ = run(capsys, *argv)
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_T0=str(time.monotonic()),
               PERFBENCH_TRACE=str(trace))
    proc = subprocess.run([sys.executable, str(SRC.parent / "perfbench" / "trace_cli.py"), *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected
    spans = json.loads(trace.read_text())["spans"]
    assert spans["metrics.kirchhoff_index.oracle"][0] == 1
    assert "metrics.kirchhoff_index.structural" not in spans


def test_compute_and_family_load_no_enumeration_stack(tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    added = modules_added_by(["compute", "--input", str(path)], tmp_path)
    assert "kfx.metrics" in added
    assert not added & {"kfx.search", "kfx.suites", "kfx.formulas", "kfx.families", "csv",
                        "multiprocessing", "dataclasses"}
    added = modules_added_by(["search", "--n", "10"], tmp_path)
    assert "kfx.search" in added
    # an extremes run reads no catalog and builds no graph
    assert not added & {"kfx.families", "kfx.suites", "kfx.metrics", "kfx.unicyclic",
                        "kfx.graph", "csv"}
    # nor does a row run: the multiset walk builds its alphabet too
    for delta in ([], ["--delta", "4"], ["--at-most", "--delta", "5"]):
        added = modules_added_by(["search", "--n", "10", "--dump-all", *delta], tmp_path)
        assert "kfx.search" in added
        assert not added & {"kfx.families", "kfx.suites", "kfx.metrics", "kfx.unicyclic",
                            "kfx.graph", "csv"}
    added = modules_added_by(["family", "--name", "cycle", "--n", "5"], tmp_path)
    assert "kfx.families" in added
    assert not added & {"kfx.search", "kfx.suites", "kfx.metrics", "multiprocessing"}
    # each suite imports what it runs
    added = modules_added_by(["conjecture", "--n", "14", "--delta", "4"], tmp_path)
    assert "kfx.suites" in added
    assert not added & {"kfx.families", "kfx.graph", "kfx.metrics", "kfx.unicyclic"}
    added = modules_added_by(["verify", "--suite", "theorem", "--n-max", "6"], tmp_path)
    assert "kfx.suites" in added
    assert not added & {"kfx.families", "kfx.metrics"}
    added = modules_added_by(["verify", "--suite", "theorem", "--n", "700", "--delta", "5"],
                             tmp_path)
    assert "kfx.metrics" in added  # formula-only folds the maximiser's Kf
    assert "kfx.families" not in added


NOT_UTF8 = b"\xff\xfe 3\n"


def compute_not_utf8(tmp_path, source: str, encoding: str | None):
    """Exit code, stdout and stderr of `compute` in a fresh interpreter,
    reading bytes that are not UTF-8 from a file or from stdin, with
    PYTHONIOENCODING set to `encoding` and the C locale."""
    env = dict(os.environ, PYTHONPATH=str(SRC), LC_ALL="C")
    env.pop("PYTHONIOENCODING", None)
    if encoding is not None:
        env["PYTHONIOENCODING"] = encoding
    path = tmp_path / "input.edges"
    path.write_bytes(NOT_UTF8)
    argv = ["--input", str(path) if source == "file" else "-"]
    proc = subprocess.run([sys.executable, "-m", "kfx.cli", "compute", *argv], env=env,
                          input=NOT_UTF8 if source == "stdin" else b"", capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


NOT_UTF8_ERROR = b"error: input is not UTF-8: byte 0xff at offset 0\n"


@pytest.mark.parametrize("encoding", [None, "utf-8:strict", "latin-1"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_an_input_that_is_not_utf8_exits_2(tmp_path, source, encoding):
    # one decoding for both sources, whatever PYTHONIOENCODING and the locale say
    assert compute_not_utf8(tmp_path, source, encoding) == (2, b"", NOT_UTF8_ERROR)


def test_an_unknown_family_exits_3_and_lists_the_known_names(capsys):
    code, out, err = run(capsys, "family", "--name", "bogus")
    assert (code, out) == (3, "")
    assert err == ("error: unknown family 'bogus'; known: cycle, path, snl, pnl, broom,"
                   " pfamily, graph-a, graph-b, p3, conj-i, conj-ii\n")


def test_the_enumerator_loads_no_suite_or_graph_construction():
    probe = "import json, sys; before = set(sys.modules); import kfx.search; " \
            "print(json.dumps(sorted(set(sys.modules) - before)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    added = set(json.loads(proc.stdout))
    assert {"kfx.search", "kfx.errors"} <= added
    assert not added & {"kfx.suites", "kfx.metrics", "kfx.families", "kfx.formulas", "random",
                        "multiprocessing", "kfx.unicyclic", "kfx.graph"}


@pytest.mark.parametrize("argv", [["search", "--n", "10"],
                                  ["verify", "--suite", "theorem", "--n-max", "6"],
                                  ["search", "--n", "10", "--dump-all"],
                                  ["verify", "--suite", "lemmas", "--n-max", "6"]])
def test_one_worker_enumeration_loads_no_multiprocessing(tmp_path, argv):
    # two workers stay in one process too, in extremes runs and row runs
    outputs = {}
    for workers in ("1", "2"):
        added = modules_added_by([*argv, "--workers", workers], tmp_path)
        assert "kfx.search" in added
        assert not added & {"multiprocessing", "concurrent.futures", "dataclasses"}
        outputs[workers] = (tmp_path / "payload").read_bytes()
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("at_most", [[], ["--at-most"]])
def test_two_workers_list_the_rows_of_one(capsys, at_most):
    outputs = {}
    for workers in ("1", "2"):
        code, outputs[workers], err = run(capsys, "search", "--n", "13", "--delta", "4", *at_most,
                                          "--dump-all", "--workers", workers)
        assert code == 0 and err == ""
    assert outputs["1"] == outputs["2"]
    assert outputs["1"].count("\n") > 6_000


def test_workers_are_capped_at_the_cpu_count(tmp_path):
    # every run uses one process: a worker count far past any CPU count
    # starts none and prints the rows of one worker
    argv = ["search", "--n", "9", "--dump-all"]
    modules_added_by(argv, tmp_path)
    one = (tmp_path / "payload").read_bytes()
    added = modules_added_by([*argv, "--workers", "100000"], tmp_path)
    assert not added & {"multiprocessing", "concurrent.futures"}
    assert (tmp_path / "payload").read_bytes() == one


def test_cap_exit_leaves_no_worker(capsys):
    import multiprocessing

    code, out, err = run(capsys, "search", "--n", "22", "--cap", "1000", "--workers", "2")
    assert code == 4 and out == "" and err.startswith("error: more than 1000")
    assert not multiprocessing.active_children()


def test_dump_all_kf_is_the_kirchhoff_index_of_each_class(capsys):
    from oracles import unicyclic_classes

    from kfx.metrics import kirchhoff_index
    from kfx.unicyclic import graph_from_shapes

    code, out, _ = run(capsys, "search", "--n", "9", "--dump-all")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    classes = unicyclic_classes(9)
    assert code == 0 and len(rows) == len(classes) == 240
    for text, l, kf in rows:
        cycle, shapes = classes[text.encode("ascii")]
        g = graph_from_shapes(cycle, shapes)
        assert (int(l), kf) == (cycle, rational_str(kirchhoff_index(g))), text
