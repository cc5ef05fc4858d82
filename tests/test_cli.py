import json

import pytest

from kfx.cli import decimal_str, display_rational, main, rational_str
from kfx.families import make_p3_extremal
from kfx.graph import format_edge_list, parse_edge_list

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


def test_family_pipe_to_compute(capsys, tmp_path):
    code, out, _ = run(
        capsys, "family", "--name", "p3", "--n", "100", "--delta", "96"
    )
    assert code == 0
    assert parse_edge_list(out) == make_p3_extremal(100, 96)
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


def test_verify_theorem_json_and_determinism(capsys):
    argv = ["verify", "--suite", "theorem", "--n", "6", "--delta", "3",
            "--format", "json"]
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


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KFX_CAP", "5")
    code, _, _ = run(capsys, "search", "--n", "9")
    assert code == 4
    code, _, _ = run(capsys, "search", "--n", "9", "--cap", "1000000")
    assert code == 0


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
