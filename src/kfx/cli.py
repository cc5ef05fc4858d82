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
import csv
import io
import json
import os
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from . import __version__
from .errors import (
    CapExceededError,
    EngineMismatchError,
    GraphParseError,
    KfxError,
    NotConnectedError,
    NotUnicyclicError,
    ParameterError,
)
from .families import FAMILY_NAMES, FamilyParams
from .formulas import FORMULAS, kf_b_formula
from .graph import format_edge_list, max_degree, parse_edge_list, wiener
from .metrics import kf_vertex, kirchhoff_index
from .search import (
    DEFAULT_CAP,
    check_lemma_properties,
    engine_equivalence_suite,
    kf_from_shapes,
    probe_conjecture,
    unicyclic_classes,
    verify_theorem,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def rational_str(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


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
    if digits < 0:
        raise ParameterError("decimal digits must be >= 0")
    with localcontext() as ctx:
        ctx.prec = len(str(abs(value.numerator))) + len(str(value.denominator)) + digits + 10
        d = Decimal(value.numerator) / Decimal(value.denominator)
        q = d.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    return format(q, "f")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str):
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    with open(path) as fh:
        return parse_edge_list(fh.read())


def _emit_record(args, record: dict, field_order: list[str]) -> None:
    """Render one flat record as table, csv, or json."""
    if args.format == "json":
        _write(args, dump_json(record))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(field_order)
        writer.writerow([record[k] for k in field_order])
        _write(args, buf.getvalue())
    else:
        width = max(len(k) for k in field_order)
        lines = [f"{k:<{width}}  {record[k]}" for k in field_order]
        _write(args, "\n".join(lines) + "\n")


def _value_fields(args, name: str, value: Fraction | int) -> dict:
    f = Fraction(value)
    rec = {name: rational_str(f)} if args.format != "table" else {
        name: display_rational(f, getattr(args, "mixed", False))
    }
    if args.decimal is not None:
        rec[f"{name}_decimal"] = decimal_str(f, args.decimal)
    return rec


# ---------------------------------------------------------------------------
# subcommands

def cmd_compute(args) -> int:
    g = _read_graph(args.input)
    g.require_connected()
    kf = kirchhoff_index(g, args.engine)
    record = {"n": g.n, "m": g.m, "max_degree": max_degree(g)}
    record.update(_value_fields(args, "kf", kf))
    record["wiener"] = wiener(g)
    if args.vertex is not None:
        record.update(_value_fields(args, f"kf_v{args.vertex}", kf_vertex(g, args.vertex)))
    _emit_record(args, record, list(record))
    return EXIT_OK


def cmd_family(args) -> int:
    params = FamilyParams(
        family=args.name, n=args.n, l=args.l, delta=args.delta, x=args.x, hub_pos=args.hub_pos
    )
    g = params.build()
    _write(args, format_edge_list(g))
    return EXIT_OK


def cmd_formula(args) -> int:
    if args.name not in FORMULAS:
        raise ParameterError(f"unknown formula {args.name!r}; known: {', '.join(FORMULAS)}")
    fn, wanted = FORMULAS[args.name]
    supplied = {"n": args.n, "l": args.l, "delta": args.delta, "x": args.x}
    call = {}
    for p in wanted:
        if supplied[p] is None:
            raise ParameterError(f"formula {args.name} requires --{p}")
        call[p] = supplied[p]
    if args.name == "kf-b":
        value = kf_b_formula(call["n"], call["l"], call["delta"], variant=args.variant)
    else:
        value = fn(**call)
    record = {"formula": args.name}
    record.update({k: v for k, v in supplied.items() if v is not None})
    if args.name == "kf-b":
        record["variant"] = args.variant
    record.update(_value_fields(args, "value", value))
    _emit_record(args, record, list(record))
    return EXIT_OK


def cmd_search(args) -> int:
    classes = unicyclic_classes(
        args.n, args.delta, l_filter=args.l, exact=not args.at_most,
        cap=args.cap, workers=args.workers,
    )
    values = {code: kf_from_shapes(l, shapes) for code, (l, shapes) in classes.items()}
    if not values:
        payload = {
            "kind": "search", "n": args.n, "delta": args.delta, "l_filter": args.l,
            "objective": args.objective, "graph_count": 0, "extremal_value": None,
            "argext_codes": [],
        }
        _write(args, dump_json(payload))
        return EXIT_OK
    pick = max(values.values()) if args.objective == "max" else min(values.values())
    arg = sorted(code.decode("ascii") for code, v in values.items() if v == pick)
    payload = {
        "kind": "search",
        "n": args.n,
        "delta": args.delta,
        "l_filter": args.l,
        "objective": args.objective,
        "graph_count": len(values),
        "extremal_value": rational_str(pick),
        "argext_codes": arg,
    }
    if args.dump_all:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["canonical_code", "cycle_length", "kf"])
        for code, (l, _) in classes.items():
            writer.writerow([code.decode("ascii"), l, rational_str(values[code])])
        _write(args, buf.getvalue())
        return EXIT_OK
    _write(args, dump_json(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    payload: dict = {"suite": args.suite}
    mismatch = False
    if args.suite in ("theorem", "all"):
        reports = []
        if args.n is not None and args.delta is not None:
            pairs = [(args.n, args.delta)]
        else:
            n_max = args.n_max if args.n_max is not None else 9
            pairs = [(n, d) for n in range(4, n_max + 1) for d in range(3, n)]
        for n, d in pairs:
            rep = verify_theorem(n, d, cap=args.cap, workers=args.workers)
            reports.append(rep.to_dict())
            if rep.verdict != "match":
                mismatch = True
        payload["theorem"] = reports
    if args.suite in ("engines", "all"):
        n_max = min(args.n_max if args.n_max is not None else 8, 8)
        section = engine_equivalence_suite(n_max, args.random, args.seed)
        payload["engines"] = section
        if section["violations"]:
            mismatch = True
    if args.suite in ("lemmas", "all"):
        n_max = args.n_max if args.n_max is not None else 8
        section = check_lemma_properties(min(n_max, 8), cap=args.cap, workers=args.workers)
        payload["lemmas"] = section
        if not section["ok"]:
            mismatch = True
    payload["verdict"] = "mismatch" if mismatch else "match"
    _write(args, dump_json(payload))
    return EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_conjecture(args) -> int:
    rep = probe_conjecture(args.n, args.delta, cap=args.cap, workers=args.workers)
    _write(args, dump_json(rep.to_dict()))
    return EXIT_MISMATCH if rep.verdict == "mismatch" else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--output", help="write payload to a file instead of stdout")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--cap", type=int, default=None, help="enumeration class cap")
    sub.add_argument("--seed", type=int, default=20240817, help="seed for randomized suites")
    sub.add_argument("--decimal", type=int, default=None, metavar="DIGITS",
                     help="also render rationals as rounded decimals")
    sub.add_argument("--mixed", action="store_true",
                     help="mixed-number display in tables (e.g. '10308 1/3')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfx",
        description="Exact Kirchhoff/Wiener toolkit for unicyclic graphs.",
    )
    parser.add_argument("--version", action="version", version=f"kfx {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="indices of an edge-list graph")
    p.add_argument("--input", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--engine", choices=("auto", "oracle", "structural"), default="auto")
    p.add_argument("--vertex", type=int, default=None, help="also report this vertex's transmission")
    _add_common(p)
    p.set_defaults(fn=cmd_compute)

    p = subs.add_parser("family", help="generate a named family member")
    p.add_argument("--name", required=True, choices=FAMILY_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--hub-pos", dest="hub_pos", type=int)
    _add_common(p)
    p.set_defaults(fn=cmd_family)

    p = subs.add_parser("formula", help="evaluate a closed-form expression")
    p.add_argument("--name", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--variant", choices=("printed", "validated"), default="validated")
    _add_common(p)
    p.set_defaults(fn=cmd_formula)

    p = subs.add_parser("search", help="exhaustive extremal search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--at-most", action="store_true",
                   help="bound the maximum degree instead of fixing it")
    p.add_argument("--dump-all", action="store_true", help="CSV row per class")
    _add_common(p)
    p.set_defaults(fn=cmd_search)

    p = subs.add_parser("verify", help="verification suites")
    p.add_argument("--suite", choices=("theorem", "engines", "lemmas", "all"), default="all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--random", type=int, default=200, help="random samples for the engine suite")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = subs.add_parser("conjecture", help="probe the conjectured minima")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_conjecture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cap", None) is None:
        args.cap = int(os.environ.get("KFX_CAP", DEFAULT_CAP))
    try:
        return args.fn(args)
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParameterError, NotConnectedError, NotUnicyclicError, EngineMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
