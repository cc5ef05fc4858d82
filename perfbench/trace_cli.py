"""Run one `kfx` CLI command with spans around calls into each kfx layer.

    PERFBENCH_T0=<time.monotonic() at spawn> PERFBENCH_TRACE=<out.json> \
        python3 perfbench/trace_cli.py <kfx arguments>

Behaves like `python -m kfx.cli <arguments>` (same stdout, stderr and exit
code) and writes the trace to PERFBENCH_TRACE when the command ends, also
when it raises. The spans wrap kfx's public functions from outside: no
file under src/ is edited. A function imported by name is replaced in
every kfx module that holds it. Nested calls of the same span (a function
calling itself through its module) count once, as the outer call.

The recursive helpers `shape_code`, `shape_stats`, `shape_degrees` and
`rooted_shapes` are not wrapped, since extra frames would bring on
RecursionError sooner; their cache sizes are read at the end instead.
Pool workers are forked, so spans inside them stay there; the parent's
`pool.map_s` stands in for that work.
"""
import os
import sys
import time

import kfx.cli  # imports every kfx module

STARTUP_S = time.monotonic() - float(os.environ["PERFBENCH_T0"])

import json  # noqa: E402
from time import perf_counter  # noqa: E402

from kfx import formulas, graph, metrics, search, unicyclic  # noqa: E402

KFX_MODULES = [m for name, m in sys.modules.items() if name == "kfx" or name.startswith("kfx.")]

spans: dict[str, list] = {}  # name -> [calls, seconds]
counts: dict[str, float] = {}
active: set[str] = set()
covered = [0, 0.0, 0.0]  # open spans, start of the outermost, seconds covered


def _patch(module, attr: str, wrapper_for) -> None:
    """Replace module.attr, and every kfx name bound to the same object."""
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapper = wrapper_for(original)
    for mod in KFX_MODULES:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


def _span(name: str, classify=None, on_result=None):
    def wrapper_for(fn):
        def wrapper(*args, **kwargs):
            key = classify(args, kwargs) if classify else name
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            if covered[0] == 0:
                covered[1] = perf_counter()
            covered[0] += 1
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stat = spans.setdefault(key, [0, 0.0])
                stat[0] += 1
                stat[1] += end - t
                active.discard(key)
                covered[0] -= 1
                if covered[0] == 0:
                    covered[2] += end - covered[1]
            if on_result:
                on_result(result)
            return result
        return wrapper
    return wrapper_for


def _count(name: str):
    def wrapper_for(fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper
    return wrapper_for


def _count_yields(name: str):
    def wrapper_for(fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item
        return wrapper
    return wrapper_for


def _traced_pool(real_pool):
    def make(*args, **kwargs):
        t = perf_counter()
        pool = real_pool(*args, **kwargs)
        counts["search.pool.starts"] = counts.get("search.pool.starts", 0) + 1
        counts["search.pool.start_s"] = counts.get("search.pool.start_s", 0.0) + perf_counter() - t
        real_map = pool.map

        def timed_map(*a, **k):
            t = perf_counter()
            try:
                return real_map(*a, **k)
            finally:
                counts["search.pool.map_s"] = counts.get("search.pool.map_s", 0.0) + perf_counter() - t

        pool.map = timed_map
        return pool
    return make


def _kf_engine(args, kwargs) -> str:
    g = args[0]
    engine = args[1] if len(args) > 1 else kwargs.get("engine", "auto")
    structural = engine == "structural" or (
        engine == "auto" and (isinstance(g, unicyclic.UnicyclicRepr) or g.m <= g.n))
    return "metrics.kirchhoff_index." + ("structural" if structural else "oracle")


def _kept(result) -> None:
    counts["search.classes_kept"] = counts.get("search.classes_kept", 0) + len(result)


def install() -> None:
    for attr in ("parse_edge_list", "wiener"):
        _patch(graph, attr, _span(f"graph.{attr}"))
    for attr in ("decompose_unicyclic", "canonical_code_from_shapes", "dihedral_min",
                 "canonical_code", "tree_canonical_code"):
        _patch(unicyclic, attr, _span(f"unicyclic.{attr}"))
    _patch(metrics, "kirchhoff_index", _span("metrics.kirchhoff_index", classify=_kf_engine))
    _patch(metrics, "resistance_structural", _count("metrics.resistance_structural.calls"))
    for attr in ("kf_vertex", "kf_from_shapes", "det_bareiss", "resistance_oracle"):
        _patch(metrics, attr, _span(f"metrics.{attr}"))
    _patch(search, "unicyclic_classes", _span("search.unicyclic_classes", on_result=_kept))
    for attr in ("verify_theorem", "probe_conjecture", "check_lemma_properties",
                 "engine_equivalence_suite", "tree_classes", "estimated_tuple_count"):
        _patch(search, attr, _span(f"search.{attr}"))
    _patch(search, "_units", _count_yields("search.units"))
    _patch(search, "Pool", _traced_pool)
    for attr in getattr(formulas, "__all__", ()):
        if callable(getattr(formulas, attr)):
            _patch(formulas, attr, _span("formulas"))


def cache_sizes() -> dict[str, int]:
    sizes = {}
    for name in ("code_cache", "stats_cache", "deg_cache"):
        cache = getattr(unicyclic, f"_{name}", None)
        sizes[f"unicyclic.{name}.size"] = len(cache) if cache is not None else 0
    info = getattr(unicyclic.rooted_shapes, "cache_info", None)
    sizes["unicyclic.rooted_shapes.cache_size"] = info().currsize if info else 0
    return sizes


def main(argv: list[str]) -> int:
    install()
    t = perf_counter()
    try:
        return kfx.cli.main(argv)
    finally:
        main_s = perf_counter() - t
        with open(os.environ["PERFBENCH_TRACE"], "w") as fh:
            json.dump({"startup_s": STARTUP_S, "main_s": main_s,
                       "self_s": main_s - covered[2], "spans": spans,
                       "counts": counts, "caches": cache_sizes()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
