"""The three workloads: their inputs, operations and expected outputs.

Every operation is one `kfx` CLI call. Inputs come from `--seed` only:
family graphs have fixed parameters and get a seeded vertex relabeling
(every kfx result is label-invariant, and the cost barely depends on the
labels), random unicyclic graphs have fixed sizes, and the seed is also
passed to `verify --suite all` for its random engine-equivalence samples.
So seeds change inputs but not the operation mix or sizes.

Why each workload exists (which layer it stresses, which it bypasses):

* compute: `kfx compute` on family and random unicyclic graphs with n from
  50 to 400. Almost all time is the structural Kf in `metrics` (pairwise
  `resistance_structural` with `tree_distance`), plus `graph.wiener` and
  `unicyclic.decompose_unicyclic`; `search` is not touched. A linear
  structural engine should move it; orderly enumeration should not.
  p3(1000, 5) and p3(3000, 5) are left out: they take 16 s and over 7 min
  at the seed commit, too long to repeat in every run.
* enumerate: one large enumeration per operation at n = 13..14, so time
  goes to `search` work units, `unicyclic.dihedral_min`/`shape_code` and
  `metrics.kf_from_shapes`; it reads no input graph. Orderly enumeration
  should move it; the structural engine rewrite should not move `search.*`.
  `search --n 14` runs with 1 and 2 workers to measure the pool path.
* verify: many small enumerations (a new process pool per (n, delta, l) in
  the lemma suite), Bareiss determinants in the oracle engine (K_29 and
  two chorded cycles, n = 33 and 35), and the formula-only theorem path at
  n = 700, which raises RecursionError at the seed commit and so counts as
  a failed operation there. The single-inverse oracle and pool reuse
  should move it.
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

PINS_FILE = Path(__file__).with_name("expected.json")

# Operations that fail at the seed commit (ROADMAP "Known defects"), and the
# one way each may fail without making the run incorrect: a traceback whose
# last line starts with this text. Any other failure of these operations,
# such as an error exit or a wrong answer, still makes the run incorrect;
# once an operation answers, its answer is checked like any other.
KNOWN_DEFECTS = {
    "verify --suite theorem --n 700 --delta 5": "RecursionError",
}

# (name, family, params): fixed sizes, n from 50 to 400
FAMILY_INPUTS = [
    ("p3-400-5", "p3", dict(n=400, delta=5)),
    ("p3-300-8", "p3", dict(n=300, delta=8)),
    ("p3-200-5", "p3", dict(n=200, delta=5)),
    ("p3-100-50", "p3", dict(n=100, delta=50)),
    ("graph-a-300-10-6", "graph-a", dict(n=300, l=10, delta=6)),
    ("graph-a-150-20-4", "graph-a", dict(n=150, l=20, delta=4)),
    ("graph-b-300-10-6", "graph-b", dict(n=300, l=10, delta=6)),
    ("graph-b-150-20-4", "graph-b", dict(n=150, l=20, delta=4)),
    ("snl-400-200", "snl", dict(n=400, l=200)),
    ("snl-100-50", "snl", dict(n=100, l=50)),
    ("pnl-400-100", "pnl", dict(n=400, l=100)),
    ("pnl-200-150", "pnl", dict(n=200, l=150)),
    ("cycle-400", "cycle", dict(l=400)),
    ("cycle-50", "cycle", dict(l=50)),
    ("conj-i-300-6", "conj-i", dict(n=300, delta=6)),
    ("conj-i-120-10", "conj-i", dict(n=120, delta=10)),
    ("conj-ii-300-4-100", "conj-ii", dict(n=300, delta=4, x=100)),
    ("conj-ii-200-5-10", "conj-ii", dict(n=200, delta=5, x=10)),
    ("broom-400-10", "broom", dict(n=400, delta=10)),
    ("broom-100-30", "broom", dict(n=100, delta=30)),
    ("path-400", "path", dict(n=400)),
    ("path-150", "path", dict(n=150)),
]
# (name, n, cycle length): two seeded random unicyclic graphs per size, one
# with a few large trees on a short cycle and one with many small trees
RANDOM_INPUTS = [(f"random-{n}-{k}", n, 3 if k == 0 else n // 8) for k in range(2)
                 for n in (50, 75, 100, 150, 200, 250, 300, 350, 400)]
# Non-unicyclic graphs for the determinant oracle. Sized so that K_29 and
# the two-chord cycle take about the same time and sit at verify's median,
# between the `--workers 2` operations (whose times move more when the
# host is busy) below and above it.
ORACLE_INPUTS = [
    ("complete-29", [(i, j) for i in range(29) for j in range(i + 1, 29)], 29),
    ("cycle-35-chord", [(i, (i + 1) % 35) for i in range(35)] + [(0, 17)], 35),
    ("cycle-33-two-chords", [(i, (i + 1) % 33) for i in range(33)] + [(0, 16), (8, 24)], 33),
]


# ---------------------------------------------------------------------------
# inputs

def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _random_unicyclic(n: int, l: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random unicyclic graph: an l-cycle, with the other vertices shared
    evenly among the l trees hanging from it, each new vertex joined to a
    uniformly chosen vertex already in its tree (random recursive trees).

    Equal tree sizes and random recursive trees (depth about log n) keep
    the work of the structural engine, which walks tree paths for pairs in
    the same tree, nearly the same for every seed; a uniform random tree
    plus a random chord made it vary several-fold between seeds."""
    edges = [(i, (i + 1) % l) for i in range(l)]
    trees = [[i] for i in range(l)]
    for v in range(l, n):
        tree = trees[v % l]
        edges.append((rng.choice(tree), v))
        tree.append(v)
    return edges


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def build_inputs(workload: str, seed: int):
    """({name: (n, edges)}, seconds inside `kfx.families`)."""
    from kfx.families import FamilyParams

    graphs: dict[str, tuple[int, list[tuple[int, int]]]] = {}
    families_s = 0.0
    if workload == "compute":
        for name, family, params in FAMILY_INPUTS:
            t = time.perf_counter()
            g = FamilyParams(family=family, **params).build()
            families_s += time.perf_counter() - t
            graphs[name] = (g.n, _relabel(g.n, g.edges, _rng(seed, name)))
        for name, n, l in RANDOM_INPUTS:
            rng = _rng(seed, name)
            graphs[name] = (n, _relabel(n, _random_unicyclic(n, l, rng), rng))
    elif workload == "verify":
        for name, edges, n in ORACLE_INPUTS:
            graphs[name] = (n, _relabel(n, edges, _rng(seed, name)))
    return graphs, families_s


def edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def read_edge_list(path: Path) -> tuple[int, list[tuple[int, int]]]:
    rows = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    return rows[0][0], [(u, v) for u, v in rows[1:]]


# ---------------------------------------------------------------------------
# expectations

@dataclass(frozen=True)
class Expect:
    """What one operation must produce. `stdout` is compared byte for byte;
    `sha256` is the seed commit's digest of `view(stdout)`; `checks`
    compares the output with independent sources and returns a reason on
    failure."""

    rc: int = 0
    stdout: bytes | None = None
    sha256: str | None = None
    view: Callable[[bytes], bytes] = lambda out: out
    checks: Callable[[bytes], str | None] | None = None

    def verdict(self, rc: int, out: bytes) -> str | None:
        if rc != self.rc:
            return f"exit code {rc}, expected {self.rc}"
        if self.stdout is not None and out != self.stdout:
            return "stdout differs from the expected bytes"
        if self.sha256 is not None and hashlib.sha256(self.view(out)).hexdigest() != self.sha256:
            return "stdout digest differs from the seed commit's"
        return self.checks(out) if self.checks else None

    def corrupted(self) -> "Expect":
        """The same expectation with a deliberately wrong answer."""
        if self.stdout is not None:
            return replace(self, stdout=self.stdout.replace(b"1", b"2", 1) + b" ")
        if self.sha256 is not None:
            return replace(self, sha256=hashlib.sha256(self.sha256.encode()).hexdigest())
        return replace(self, rc=self.rc + 1)


@dataclass
class Op:
    key: str
    argv: list[str]
    expect: Callable[[], Expect]
    same_as: str | None = None  # key of an op whose stdout must be identical


def _dump_json(record: dict) -> bytes:
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode()


def _table(record: dict) -> bytes:
    width = max(len(k) for k in record)
    return ("\n".join(f"{k:<{width}}  {v}" for k, v in record.items()) + "\n").encode()


def _show(value: Fraction, fmt: str) -> str:
    if fmt == "table" and value.denominator == 1:
        return str(value.numerator)
    return ref.rat(value)


def _closed_form(family: str, p: dict) -> tuple[Fraction | None, Callable | None]:
    """(Kf, vertex transmission function) from the published closed forms,
    where the family has them."""
    from kfx import formulas as f

    if family == "p3":
        return f.theorem_bound(p["n"], p["delta"]), None
    if family == "graph-a":
        return f.kf_a_formula(p["n"], p["l"], p["delta"]), None
    if family == "graph-b":
        return f.kf_b_formula(p["n"], p["l"], p["delta"], variant="validated"), None
    if family == "cycle":
        return f.kf_cycle_formula(p["l"]), lambda v: f.kfv_cycle_formula(p["l"])
    if family == "conj-i":
        return f.conj_min_formula_i(p["n"], p["delta"]), None
    if family == "conj-ii":
        return f.conj_min_formula_ii(p["n"], p["delta"], p["x"]), None
    if family == "broom":
        return Fraction(f.wiener_broom_formula(p["n"], p["delta"])), None
    if family == "path":
        return Fraction((p["n"] ** 3 - p["n"]) // 6), None
    return None, None


def _compute_expect(path: Path, fmt: str, vertex, decimal, family=None, params=None,
                    oracle=False) -> Expect:
    n, edges = read_edge_list(path)
    adj = ref.adjacency(n, edges)
    trans = ref.transmissions(adj)
    wiener = sum(trans) // 2
    if oracle:
        kf, kfv = ref.general_kf(n, edges), None
    elif len(edges) == n - 1:
        kf, kfv = Fraction(wiener), (Fraction(trans[vertex]) if vertex is not None else None)
    else:
        kf, kfv = ref.unicyclic_kf(adj, trans, vertex)
    if family is not None:
        formula, vertex_formula = _closed_form(family, params)
        if formula is not None and formula != kf:
            raise AssertionError(f"closed form disagrees with the reference on {path.name}")
        if vertex_formula is not None and vertex is not None and vertex_formula(vertex) != kfv:
            raise AssertionError(f"vertex closed form disagrees on {path.name}")
    if len(edges) == n * (n - 1) // 2 and kf != n - 1:
        raise AssertionError("Kf(K_n) must be n - 1")
    record: dict = {"n": n, "m": len(edges), "max_degree": max(len(a) for a in adj)}
    record["kf"] = _show(kf, fmt)
    if decimal is not None:
        record["kf_decimal"] = ref.decimal_str(kf, decimal)
    record["wiener"] = wiener
    if vertex is not None:
        record[f"kf_v{vertex}"] = _show(kfv, fmt)
        if decimal is not None:
            record[f"kf_v{vertex}_decimal"] = ref.decimal_str(kfv, decimal)
    out = _dump_json(record) if fmt == "json" else _table(record)
    return Expect(rc=0, stdout=out)


def _compute_ops(seed: int, inputs_dir: Path) -> list[Op]:
    """40 operations; every fourth adds --vertex, every fifth is a table with
    --decimal, the rest are plain JSON."""
    specs = FAMILY_INPUTS + [(name, None, None) for name, _, _ in RANDOM_INPUTS]
    ops = []
    for i, (name, family, params) in enumerate(specs):
        rng = _rng(seed, f"op:{name}")
        path = inputs_dir / f"{name}.edges"
        fmt = "table" if i % 5 == 3 else "json"
        decimal = 2 + i % 7 if fmt == "table" else None
        vertex = None
        if i % 4 == 2:
            vertex = rng.randrange(read_edge_list(path)[0])
        argv = ["compute", "--input", str(path), "--format", fmt]
        if vertex is not None:
            argv += ["--vertex", str(vertex)]
        if decimal is not None:
            argv += ["--decimal", str(decimal)]
        ops.append(Op(
            key=f"compute {name} {fmt}" + (" vertex" if vertex is not None else ""),
            argv=argv,
            expect=lambda p=path, f=fmt, v=vertex, d=decimal, fam=family, pa=params:
                _compute_expect(p, f, v, d, fam, pa),
        ))
    return ops


# --- enumeration outputs ----------------------------------------------------

def _pinned(key: str, view=lambda out: out, checks=None) -> Expect:
    pin = json.loads(PINS_FILE.read_text())["pins"][key]
    return Expect(rc=pin["rc"], sha256=pin["sha256"], view=view, checks=checks)


def _code_matches(code: str, value: str, delta=None, at_most=False) -> str | None:
    """The class named by `code` has Kf `value` and the stated degree."""
    n, edges = ref.graph_from_code(code.encode())
    adj = ref.adjacency(n, edges)
    if ref.unicyclic_code(adj) != code.encode():
        return f"{code[:30]}... is not in canonical form"
    kf, _ = ref.unicyclic_kf(adj, ref.transmissions(adj))
    if ref.rat(kf) != value:
        return f"Kf of {code[:30]}... is {ref.rat(kf)}, reported {value}"
    top = max(len(a) for a in adj)
    if delta is not None and (top > delta if at_most else top != delta):
        return f"{code[:30]}... has max degree {top}"
    return None


def _search_checks(count: int | None = None, delta=None, at_most=False):
    def checks(out: bytes) -> str | None:
        payload = json.loads(out)
        if count is not None and payload["graph_count"] != count:
            return f"graph_count {payload['graph_count']}, A001429 gives {count}"
        for code in payload["argext_codes"]:
            bad = _code_matches(code, payload["extremal_value"], delta, at_most)
            if bad:
                return bad
        return None
    return checks


def _dump_all_checks(n: int, l: int):
    def checks(out: bytes) -> str | None:
        rows = out.decode().splitlines()
        if rows[0] != "canonical_code,cycle_length,kf":
            return "unexpected CSV header"
        rows = [r.split(",") for r in rows[1:]]
        expected = ref.unicyclic_count(n, l)
        if len(rows) != expected:
            return f"{len(rows)} classes, the cycle index gives {expected}"
        codes = [r[0] for r in rows]
        if codes != sorted(set(codes)):
            return "codes not strictly increasing"
        for code, cl, kf in rows:
            if int(cl) != l:
                return f"cycle length {cl} in an --l {l} dump"
            bad = _code_matches(code, kf)
            if bad:
                return bad
        return None
    return checks


def _conjecture_checks(n: int, delta: int):
    from kfx import formulas as f

    def checks(out: bytes) -> str | None:
        payload = json.loads(out)
        formula = min(f.conj_min_formula_ii(n, delta, x) for x in f.conj_ii_x_range(n, delta))
        if payload["formula_value"] != ref.rat(formula):
            return f"formula_value {payload['formula_value']}, closed form {ref.rat(formula)}"
        for code in payload["argext_codes"]:
            bad = _code_matches(code, payload["extremal_value"], delta)
            if bad:
                return bad
        same = payload["extremal_value"] == payload["formula_value"]
        if payload["verdict"] != ("match" if same else "mismatch"):
            return f"verdict {payload['verdict']} does not follow from the values"
        return None
    return checks


def _enumerate_ops() -> list[Op]:
    def op(key, checks, pin=None, same_as=None):
        return Op(key, key.split(), lambda: _pinned(pin or key, checks=checks), same_as)

    count = ref.A001429[14]
    return [
        op("search --n 14", _search_checks(count)),
        op("search --n 14 --workers 2", _search_checks(count), pin="search --n 14",
           same_as="search --n 14"),
        op("search --n 14 --delta 4 --objective min", _search_checks(delta=4)),
        op("search --n 14 --at-most --delta 4", _search_checks(delta=4, at_most=True)),
        op("search --n 13 --l 5 --dump-all", _dump_all_checks(13, 5)),
        op("conjecture --n 14 --delta 4", _conjecture_checks(14, 4)),
    ]


# --- verification outputs ---------------------------------------------------

def _p3_code(n: int, delta: int) -> str:
    from kfx.families import make_p3_extremal

    g = make_p3_extremal(n, delta)
    return ref.unicyclic_code(ref.adjacency(g.n, g.edges)).decode()


def _theorem_report_problem(rep: dict) -> str | None:
    from kfx.formulas import theorem_bound

    n, d = rep["n"], rep["delta"]
    bound = ref.rat(theorem_bound(n, d))
    code = _p3_code(n, d)
    if rep["formula_value"] != bound:
        return f"theorem ({n}, {d}): formula_value {rep['formula_value']}, bound {bound}"
    if (rep["extremal_value"], rep["argext_codes"], rep["expected_code"], rep["verdict"]) != (
            bound, [code], code, "match"):
        return f"theorem ({n}, {d}): not a unique match at the p3 extremal graph"
    return _code_matches(code, bound, d)


def _theorem_checks(pairs):
    def checks(out: bytes) -> str | None:
        reports = json.loads(out)["theorem"]
        if [(r["n"], r["delta"]) for r in reports] != pairs:
            return "unexpected (n, delta) pairs in the theorem section"
        for rep in reports:
            bad = _theorem_report_problem(rep)
            if bad:
                return bad
        return None
    return checks


THEOREM_PAIRS = [(n, d) for n in range(4, 10) for d in range(3, n)]
# unicyclic classes for n = 3..8, and their vertex pairs, in the engine suite
ENGINE_GRAPHS = sum(ref.A001429[n] for n in range(3, 9))
ENGINE_PAIRS = sum(ref.A001429[n] * n * (n - 1) // 2 for n in range(3, 9))
ENGINE_SAMPLES = 200  # kfx default --random; each sample has 9 <= n <= 12


def _without_engines(out: bytes) -> bytes:
    payload = json.loads(out)
    payload.pop("engines", None)
    return json.dumps(payload, sort_keys=True).encode()


def _verify_all_checks(seed: int):
    theorem = _theorem_checks(THEOREM_PAIRS)

    def checks(out: bytes) -> str | None:
        payload = json.loads(out)
        eng = payload["engines"]
        lo, hi = ENGINE_PAIRS + ENGINE_SAMPLES * 36, ENGINE_PAIRS + ENGINE_SAMPLES * 66
        if eng["violations"] or eng["seed"] != seed or eng["graphs"] != ENGINE_GRAPHS + ENGINE_SAMPLES:
            return f"engine suite: {eng}"
        if not lo <= eng["pairs"] <= hi:
            return f"engine suite checked {eng['pairs']} pairs, outside {lo}..{hi}"
        if not payload["lemmas"]["ok"] or payload["verdict"] != "match":
            return "lemma suite or overall verdict is not a match"
        return theorem(out)
    return checks


def _formula_only_expect(n: int, delta: int) -> Expect:
    """`verify --suite theorem --n N --delta D` past the enumeration cap: the
    constructed p3 graph compared against the closed-form bound."""
    from kfx.formulas import theorem_bound

    bound = ref.rat(theorem_bound(n, delta))
    code = _p3_code(n, delta)
    report = {
        "kind": "theorem", "n": n, "delta": delta, "l_filter": None, "objective": "max",
        "mode": "formula-only", "branch": None, "graph_count": 1, "extremal_value": bound,
        "argext_codes": [code], "expected_code": code, "formula_value": bound,
        "verdict": "match",
        "notes": ["parameter space beyond the enumeration cap; compared the"
                  " constructed extremal graph against the closed-form bound"],
    }
    if _code_matches(code, bound, delta):
        raise AssertionError("theorem bound disagrees with the reference Kf of p3")
    return Expect(rc=0, stdout=_dump_json({"suite": "theorem", "theorem": [report],
                                           "verdict": "match"}))


def _verify_ops(seed: int, inputs_dir: Path) -> list[Op]:
    ops = [
        Op("verify --suite all", ["verify", "--suite", "all", "--seed", str(seed)],
           lambda: _pinned("verify --suite all", view=_without_engines,
                           checks=_verify_all_checks(seed))),
        Op("verify --suite lemmas --workers 2", ["verify", "--suite", "lemmas", "--workers", "2"],
           lambda: _pinned("verify --suite lemmas --workers 2",
                           checks=lambda out: None if json.loads(out)["lemmas"]["ok"]
                           else "lemma suite reports a violation")),
        Op("verify --suite theorem --n-max 9 --workers 2",
           ["verify", "--suite", "theorem", "--n-max", "9", "--workers", "2"],
           lambda: _pinned("verify --suite theorem --n-max 9 --workers 2",
                           checks=_theorem_checks(THEOREM_PAIRS))),
    ]
    for name, _, _ in ORACLE_INPUTS:
        path = inputs_dir / f"{name}.edges"
        ops.append(Op(f"compute {name} oracle",
                      ["compute", "--input", str(path), "--engine", "oracle", "--format", "json"],
                      lambda p=path: _compute_expect(p, "json", None, None, oracle=True)))
    # Known defect at the seed commit: RecursionError, exit 1 (KNOWN_DEFECTS).
    ops.append(Op("verify --suite theorem --n 700 --delta 5",
                  ["verify", "--suite", "theorem", "--n", "700", "--delta", "5"],
                  lambda: _formula_only_expect(700, 5)))
    return ops


def operations(workload: str, seed: int, inputs_dir: Path) -> list[Op]:
    if workload == "compute":
        return _compute_ops(seed, inputs_dir)
    if workload == "enumerate":
        return _enumerate_ops()
    if workload == "verify":
        return _verify_ops(seed, inputs_dir)
    raise ValueError(f"unknown workload {workload!r}")
