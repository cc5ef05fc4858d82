"""Property-based runs of `kfx.cli.main` on generated input.

`compute` reads edge-list text built from trees, unicyclic, bicyclic and
disconnected graphs on at most 12 vertices, written with right and wrong
headers, comments and blank lines, and corrupted by loops, repeated
edges, endpoints out of range and non-integers. `search`, `conjecture`
and `verify` get argument vectors with n <= 9 and small caps. Every run
must exit with a code README lists and never 5 (an internal error), must
print nothing to stdout when it exits 2, 3 or 4, and `compute` must exit
with the code its input calls for.

The examples are derandomized, with no example database, so each run
checks the same inputs. Each test runs within the time bound it asserts
(they take about 2 s and 1 s on a 2-core x86-64 host).
"""
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kfx.cli import main

README_EXITS = {0, 1, 2, 3, 4, 5}
KINDS = ("tree", "unicyclic", "bicyclic", "disconnected")
CORRUPTIONS = ("loop", "repeat", "out of range", "non-integer")
BAD_HEADERS = ("miscount", "short", "long", "words")
SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)
TIME_BOUND_S = 60


def run(*argv):
    """(exit code, stdout bytes, stderr text) of one in-process run."""
    out, err = io.TextIOWrapper(io.BytesIO(), write_through=True), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.buffer.getvalue(), err.getvalue()


def check_exit(code, out):
    assert code in README_EXITS and code != 5, code
    if code in (2, 3, 4):
        assert out == b""


@st.composite
def graphs(draw):
    """(kind, n, edges): a graph of the kind on at most 12 vertices, with
    its vertices shuffled."""
    kind = draw(st.sampled_from(KINDS))
    least = {"tree": 1, "unicyclic": 3, "bicyclic": 4, "disconnected": 2}[kind]
    n = draw(st.integers(least, 12))
    # a spanning tree, or for a disconnected graph a tree on each part
    cut = draw(st.integers(1, n - 1)) if kind == "disconnected" else n
    edges = [(draw(st.integers(0 if v < cut else cut, v - 1)), v)
             for v in range(1, n) if v != cut]
    extra = {"unicyclic": 1, "bicyclic": 2}.get(kind, 0)
    if kind == "disconnected" and max(cut, n - cut) >= 3:
        extra = draw(st.integers(0, 1))  # a cycle in one part
    within = [(u, v) for u, v in combinations(range(n), 2) if (u < cut) == (v < cut)]
    if extra:
        free = sorted(set(within) - set(edges))
        edges += draw(st.lists(st.sampled_from(free), min_size=extra, max_size=extra, unique=True))
    perm = draw(st.permutations(range(n)))
    return kind, n, [(perm[u], perm[v]) for u, v in edges]


@st.composite
def edge_lists(draw):
    """(kind, graph text, whether the text is malformed)."""
    kind, n, edges = draw(graphs())
    lines = [f"{u} {v}" for u, v in edges]
    corruption = draw(st.sampled_from(CORRUPTIONS)) if draw(st.integers(0, 3)) == 0 else None
    if corruption == "loop":
        v = draw(st.integers(0, n - 1))
        lines.append(f"{v} {v}")
    elif corruption == "repeat" and edges:
        u, v = draw(st.sampled_from(edges))
        lines.append(f"{v} {u}")
    elif corruption == "out of range":
        lines.append(f"{draw(st.integers(0, n - 1))} {draw(st.sampled_from([-1, n, n + 5]))}")
    elif corruption == "non-integer":
        lines.append(draw(st.sampled_from(["a 1", "0 1.5", "0x1 2", "1 two"])))
    else:
        corruption = None
    header = "right" if draw(st.integers(0, 3)) else draw(st.sampled_from(BAD_HEADERS))
    m = len(lines)
    head = {"right": f"{n} {m}", "miscount": f"{n} {m + draw(st.sampled_from([-1, 1, 7]))}",
            "short": f"{n}", "long": f"{n} {m} 0", "words": f"n {m}"}[header]
    text = []
    for line in [head] + lines:
        text += draw(st.lists(st.sampled_from(["", "   ", "# a comment", " # indented"]), max_size=2))
        text.append(line + draw(st.sampled_from(["", "", "  # trailing", "\t"])))
    malformed = corruption is not None or header != "right"
    return kind, n, "\n".join(text) + draw(st.sampled_from(["", "\n"])), malformed


@SETTINGS
@given(
    edge_lists(),
    st.sampled_from(["auto", "structural", "oracle"]),
    st.sampled_from(["table", "csv", "json"]),
    st.one_of(st.none(), st.integers(-2, 13)),
    st.one_of(st.none(), st.integers(-1, 6)),
)
def compute_exits_as_its_input_calls_for(case, engine, fmt, vertex, decimal):
    kind, n, text, malformed = case
    options = ["--format", fmt]
    options += [] if vertex is None else ["--vertex", str(vertex)]
    options += [] if decimal is None else ["--decimal", str(decimal)]

    def compute(eng):
        with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()))):
            return run("compute", "--input", "-", "--engine", eng, *options)

    code, out, err = compute(engine)
    check_exit(code, out)
    if malformed:
        expected = 2
    elif kind == "disconnected" or (kind == "bicyclic" and engine == "structural"):
        expected = 3
    elif (vertex is not None and not 0 <= vertex < n) or (decimal is not None and decimal < 0):
        expected = 3
    else:
        expected = 0
    assert code == expected, (code, err, text)
    if code == 0 and kind in ("tree", "unicyclic"):
        auto, oracle = compute("auto"), compute("oracle")
        assert auto == oracle and auto[0] == 0


ns = st.one_of(st.integers(4, 9), st.integers(-1, 9))  # mostly sizes that have classes
caps = st.sampled_from([None, None, 0, 1, 3, 40, 1000])
workers = st.sampled_from([None, None, None, 0, 1, 2])


def options(**values):
    """--name value for each value drawn, flags for True."""
    argv = []
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


@st.composite
def verify_argv(draw):
    suite = draw(st.sampled_from([None, "theorem", "engines", "lemmas", "all"]))
    n = delta = n_max = None
    if draw(st.integers(0, 2)) == 0:  # one theorem case, or half of one
        n, delta = draw(ns), draw(st.integers(0, 9) | st.none())
        suite = "theorem" if draw(st.booleans()) else suite
    if n is None or draw(st.integers(0, 3)) == 0:
        n_max = draw(st.none() | ns)
    return ["verify", *options(suite=suite, n=n, delta=delta, n_max=n_max,
                               random=draw(st.sampled_from([-1, 0, 1, 2, 3, 4])),
                               seed=draw(st.none() | st.integers(0, 3)),
                               cap=draw(caps), workers=draw(workers))]


enumerations = st.one_of(
    st.builds(lambda **kw: ["search", *options(**kw)], n=ns,
              delta=st.none() | st.integers(0, 9), l=st.none() | st.integers(0, 10),
              objective=st.sampled_from([None, "max", "min"]), at_most=st.booleans(),
              dump_all=st.booleans(), cap=caps, workers=workers),
    st.builds(lambda case, **kw: ["conjecture", *options(n=case[0], delta=case[1], **kw)],
              case=(st.integers(3, 8) | st.just(2)).flatmap(
                  lambda d: st.tuples(st.integers(d + 1, 9) | st.just(d), st.just(d))),
              cap=caps, workers=workers),
    verify_argv(),
)


@SETTINGS
@given(enumerations)
def enumeration_commands_exit_with_a_listed_code(argv):
    code, out, err = run(*argv)
    check_exit(code, out)
    if code in (0, 1):
        assert out and err == ""
    if code == 1:
        assert argv[0] in ("verify", "conjecture")


def within_time_bound(prop):
    start = time.monotonic()
    prop()
    assert time.monotonic() - start < TIME_BOUND_S


def test_compute_exits_as_its_input_calls_for():
    within_time_bound(compute_exits_as_its_input_calls_for)


def test_enumeration_commands_exit_with_a_listed_code():
    within_time_bound(enumeration_commands_exit_with_a_listed_code)
