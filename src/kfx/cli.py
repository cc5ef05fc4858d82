"""Command-line front end.

Subcommands: compute, family, formula, search, verify, conjecture.
stdout carries only the machine/tabular payload; diagnostics go to
stderr. Exit codes: 0 ok, 1 mismatch verdict, 2 usage/parse error,
3 invalid parameters or input graph, 4 enumeration cap exceeded,
5 internal error (any other exception, such as RecursionError or
MemoryError; reported as one `error: internal: <Type>: <message>` line).
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .errors import DEFAULT_CAP, CapExceededError, GraphParseError, KfxError, ParameterError

# `families`, `formulas`, `graph`, `metrics`, `search` and `suites` are
# imported in the commands that use them, `csv` where a record is written
# as CSV and `decimal` where decimals are, so `compute` loads no
# enumeration and `search` loads no suite, no family builder, no graph and
# no Kf engine. `fractions` still imports `decimal` on every command under
# Python 3.11.

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def rational_str(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _lowest_terms(num: int, den: int) -> bytes:
    """num/den for den > 0 as `rational_str` writes it, in ASCII bytes,
    with one gcd and no Fraction."""
    g = gcd(num, den)
    return b"%d/%d" % (num // g, den // g)


def display_rational(value: Fraction | int, mixed: bool = False) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    if mixed:
        sign = "-" if f < 0 else ""
        whole, rem = divmod(abs(f.numerator), f.denominator)
        if whole:
            return f"{sign}{whole} {rem}/{f.denominator}"
    return f"{f.numerator}/{f.denominator}"


def decimal_str(value: Fraction, digits: int) -> str:
    """Decimal rendering, correctly rounded half-even to `digits` places."""
    from decimal import ROUND_HALF_EVEN, Decimal, localcontext

    if digits < 0:
        raise ParameterError("decimal digits must be >= 0")
    with localcontext() as ctx:
        ctx.prec = len(str(abs(value.numerator))) + len(str(value.denominator)) + digits + 10
        d = Decimal(value.numerator) / Decimal(value.denominator)
        q = d.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(args, text: str | list[bytes]) -> None:
    """Write the text, or its lines of ASCII bytes, to --output or stdout."""
    lines = [text.encode()] if isinstance(text, str) else text
    if args.output:
        with open(args.output, "wb") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(lines)


def _read_graph(path: str):
    """The graph in the file at `path`, or on stdin for "-". Both are read
    as bytes and decoded as strict UTF-8, whatever the locale."""
    from .graph import parse_edge_list

    if path == "-":
        return parse_edge_list(_utf8(sys.stdin.buffer.read()))
    with open(path, "rb") as fh:
        return parse_edge_list(_utf8(fh.read()))


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"input is not UTF-8: byte 0x{data[exc.start]:02x}"
                              f" at offset {exc.start}") from None


def _csv(header: list[str], row: list) -> str:
    """The header and one row as CSV text."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, row])
    return buf.getvalue()


def _emit_record(args, record: dict, field_order: list[str]) -> None:
    """Render one flat record as table, csv, or json."""
    if args.format == "json":
        _write(args, dump_json(record))
    elif args.format == "csv":
        _write(args, _csv(field_order, [record[k] for k in field_order]))
    else:
        width = max(len(k) for k in field_order)
        lines = [f"{k:<{width}}  {record[k]}" for k in field_order]
        _write(args, "\n".join(lines) + "\n")


def _value_fields(args, name: str, value: Fraction | int) -> dict:
    f = Fraction(value)
    rec = {name: rational_str(f)} if args.format != "table" else {
        name: display_rational(f, args.mixed)
    }
    if args.decimal is not None:
        rec[f"{name}_decimal"] = decimal_str(f, args.decimal)
    return rec


# ---------------------------------------------------------------------------
# subcommands

def cmd_compute(args) -> int:
    from .graph import max_degree
    from .metrics import engine_input, kf_vertex, kirchhoff_index, wiener_index

    g = _read_graph(args.input)
    record = {"n": g.n, "m": g.m, "max_degree": max_degree(g)}
    u = engine_input(g, args.engine)  # one decomposition or elimination for every field
    record.update(_value_fields(args, "kf", kirchhoff_index(u)))
    record["wiener"] = wiener_index(u)
    if args.vertex is not None:
        record.update(_value_fields(args, f"kf_v{args.vertex}", kf_vertex(u, args.vertex)))
    _emit_record(args, record, list(record))
    return EXIT_OK


def cmd_family(args) -> int:
    from .families import FamilyParams
    from .graph import format_edge_list

    params = FamilyParams(
        family=args.name, n=args.n, l=args.l, delta=args.delta, x=args.x, hub_pos=args.hub_pos
    )
    g = params.build()
    _write(args, format_edge_list(g))
    return EXIT_OK


def cmd_formula(args) -> int:
    from .formulas import FORMULAS

    if args.name not in FORMULAS:
        raise ParameterError(f"unknown formula {args.name!r}; known: {', '.join(FORMULAS)}")
    if args.variant is not None and args.name != "kf-b":
        raise ParameterError(f"--variant applies to formula kf-b only, not {args.name}")
    fn, wanted = FORMULAS[args.name]
    supplied = {"n": args.n, "l": args.l, "delta": args.delta, "x": args.x}
    call = {}
    for p in wanted:
        if supplied[p] is None:
            raise ParameterError(f"formula {args.name} requires --{p}")
        call[p] = supplied[p]
    record = {"formula": args.name}
    record.update({k: v for k, v in supplied.items() if v is not None})
    if args.name == "kf-b":
        record["variant"] = call["variant"] = args.variant or "validated"
    record.update(_value_fields(args, "value", fn(**call)))
    _emit_record(args, record, list(record))
    return EXIT_OK


def cmd_search(args) -> int:
    from .search import unicyclic_extremes, unicyclic_rows

    if args.n < 3:
        raise ParameterError(f"--n must be >= 3, got {args.n}")  # no unicyclic graph is smaller
    enum = (args.n, args.delta, args.l, not args.at_most, args.cap)
    if args.dump_all:
        # no code is a prefix of another (codes of one cycle length have one
        # length, and the "l:" prefixes of two lengths differ), so the lines
        # sort as their codes do
        lines = sorted(b"%s,%d,%s\n" % (code, l, _lowest_terms(num, l))
                       for code, l, _, num in unicyclic_rows(*enum))
        if lines:
            _write(args, [b"canonical_code,cycle_length,kf\n", *lines])
            return EXIT_OK
        count, pick, arg = 0, None, []  # no class: the JSON report below
    else:
        count, pick, arg = unicyclic_extremes(*enum, objective=args.objective)
    payload = {
        "kind": "search",
        "n": args.n,
        "delta": args.delta,
        "l_filter": args.l,
        "objective": args.objective,
        "graph_count": count,
        "extremal_value": None if pick is None else rational_str(pick),
        "argext_codes": arg,
    }
    _write(args, dump_json(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .search import class_count
    from .suites import check_lemma_properties, engine_equivalence_suite, verify_theorem

    if (args.n is None) != (args.delta is None):
        raise ParameterError("verify takes --n and --delta together")
    if args.n is not None and (args.suite != "theorem" or args.n_max is not None):
        raise ParameterError("verify takes --n and --delta only with --suite theorem, without --n-max")
    floor = 3 if args.suite == "engines" else 4  # the first n each suite sweeps
    if args.n_max is not None and args.n_max < floor:
        raise ParameterError(f"--n-max must be >= {floor} for suite {args.suite}, got {args.n_max}")
    if args.random < 0:
        raise ParameterError(f"--random must be >= 0, got {args.random}")
    n_max = args.n_max if args.n_max is not None else 8  # of the lemma and engine sweeps
    if args.suite != "theorem":  # the class count grows with n: n_max meets the cap first
        class_count(n_max, cap=args.cap)
    payload: dict = {"suite": args.suite}
    mismatch = False
    if args.suite in ("theorem", "all"):
        reports = []
        if args.n is not None:
            pairs = [(args.n, args.delta)]
        else:
            top = args.n_max if args.n_max is not None else 9
            pairs = [(n, d) for n in range(4, top + 1) for d in range(3, n)]
        for n, d in pairs:
            rep = verify_theorem(n, d, cap=args.cap)
            reports.append(rep.to_dict())
            if rep.verdict != "match":
                mismatch = True
        payload["theorem"] = reports
    if args.suite in ("engines", "all"):
        section = engine_equivalence_suite(n_max, args.random, args.seed, cap=args.cap)
        payload["engines"] = section
        if section["violations"]:
            mismatch = True
    if args.suite in ("lemmas", "all"):
        section = check_lemma_properties(n_max, cap=args.cap)
        payload["lemmas"] = section
        if not section["ok"]:
            mismatch = True
    payload["verdict"] = "mismatch" if mismatch else "match"
    _write(args, dump_json(payload))
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_conjecture(args) -> int:
    from .suites import probe_conjecture

    rep = probe_conjecture(args.n, args.delta, cap=args.cap)
    _write(args, dump_json(rep.to_dict()))
    return EXIT_MISMATCH if rep.verdict == "mismatch" else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_display(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--decimal", type=int, default=None, metavar="DIGITS",
                     help="also render rationals as rounded decimals")
    sub.add_argument("--mixed", action="store_true",
                     help="mixed-number display in tables (e.g. '10308 1/3')")


def _add_enumeration(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--workers", type=int, default=1,
                     help="no effect, every run uses one process; must be >= 1")
    sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help="enumeration class cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfx",
        description="Exact Kirchhoff/Wiener toolkit for unicyclic graphs.",
    )
    parser.add_argument("--version", action="version", version=f"kfx {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=help)
        p.add_argument("--output", help="write payload to a file instead of stdout")
        p.set_defaults(fn=fn)
        return p

    p = command("compute", cmd_compute, "indices of an edge-list graph")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--engine", choices=("auto", "oracle", "structural"), default="auto")
    p.add_argument("--vertex", type=int, default=None, help="also report this vertex's transmission")
    _add_display(p)

    p = command("family", cmd_family, "generate a named family member")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--hub-pos", dest="hub_pos", type=int)

    p = command("formula", cmd_formula, "evaluate a closed-form expression")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--variant", choices=("printed", "validated"), default=None,
                   help="kf-b only (default: validated)")
    _add_display(p)

    p = command("search", cmd_search, "exhaustive extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--at-most", action="store_true",
                   help="bound the maximum degree instead of fixing it")
    p.add_argument("--dump-all", action="store_true", help="CSV row per class")
    _add_enumeration(p)

    p = command("verify", cmd_verify, "verification suites")
    p.add_argument("--suite", choices=("theorem", "engines", "lemmas", "all"), default="all")
    p.add_argument("--n", type=int, default=None, help="one theorem case, with --delta")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--random", type=int, default=200, help="random samples for the engine suite")
    p.add_argument("--seed", type=int, default=20240817, help="seed for the engine suite's samples")
    _add_enumeration(p)

    p = command("conjecture", cmd_conjecture, "probe the conjectured minima")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_enumeration(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "workers" not in args:  # compute, family and formula enumerate nothing
            return args.fn(args)
        if args.workers < 1:
            raise ParameterError(f"--workers must be >= 1, got {args.workers}")
        if args.cap < 0:
            raise ParameterError(f"--cap must be >= 0, got {args.cap}")
        return args.fn(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except KfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # keep exit 1 for mismatch verdicts only
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
