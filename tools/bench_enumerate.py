"""Before/after rows for the enumeration, CLI runs and in-process layers,
and for the graph walks.

Usage:
    python tools/bench_enumerate.py [--repeat R] --change TEXT LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the `src` directory of a kfx checkout. Labels are run
alternately, R rounds (default 5), the first label first in even rounds
and last in odd ones, every measurement in a fresh interpreter that
writes no bytecode, so every label compiles its source alike. A row per
label, named by TEXT (the change measured) and R, is appended to the rows
of `BENCH_enumerate.json` at the repo root; earlier rows stay. Each row
holds:

* `cli`: per command, the median wall time (interpreter start-up
  included) and the median peak RSS of its process tree, as `wait4`
  reports it for the command's process, each beside its lower and upper
  quartiles (`*_quartiles`, inclusive method), so that a change can be
  told from run-to-run spread. The commands are the six enumerate
  operations of `perfbench/` (`ENUMERATE`) and larger runs (`LARGE`):
  the two largest degree-bounded conjectures at n = 18, the largest run
  the default cap admits at n = 19, the unfiltered n = 16 and n = 18, two
  large-delta runs whose catalogs dwarf their classes, two larger ones
  past the default cap whose time is the hub trees' search, four long
  cycles, the theorem suite to n = 16, and three row runs, the listings
  at n = 16 with no degree bound and with max degree exactly 4, and the
  lemma suite to n = 16; and `verify --suite all` (`VERIFY_ALL`).
* `in_process`: per (n, delta, exact, objective, l filter), the median seconds,
  with quartiles, of one cold `search._alphabet` call building the
  alphabet the run reads, and of a walk of every work unit through
  `search._unit` over it. An extremes run (objective "min" or "max")
  passes a `keep` that reduces each unit to its extreme as
  `unicyclic_extremes` does; a row run (objective null, every allowed
  tree, as `unicyclic_rows` reads them) passes a `keep` that counts the
  classes. Each `units_s` sample is the median of `WALK_REPEAT` walks in
  one process, so its quartiles show the walk's spread and not process
  start-up. `classes` is the run's class count (`search.class_count`),
  `alphabet_trees` the number of trees in that alphabet and
  `tuples_walked` the number of tuples the units kept, each one call of
  a `keep`, counted in one more, untimed walk under `sys.setprofile`.
* `check_lemma_properties_8_s`: the median seconds of one cold
  `suites.check_lemma_properties(8)` call, with the modules the suite
  runs imported beforehand, untimed, as `kfx.suites` once imported them.
* `walks`: per graph walk, the median seconds, with quartiles, of one
  call in a fresh interpreter after its graph is built untimed: on
  `families.make_p3_extremal(200000, 5)`, `Graph.is_connected`, the
  decomposition `metrics.engine_input` builds, and that decomposition
  with the transmission of the tail's far end (`metrics.kf_vertex`);
  and the engine suite `suites.engine_equivalence_suite(8, 200,
  20240817)`, which builds no graph beforehand (`WALKS`). Rows written
  before a walk was measured have no key for it. Rows written before
  those of the change "one tree walk builds every alphabet" also time
  `tree_canonical_code` on the path on 200,000 vertices and on
  `families.make_t_n_delta(200000, 1000)`; that function now lives in
  `tests/oracles.py`, and no command calls it.

Earlier rows, written by earlier versions of this script, also hold
one- and two-worker row runs (`two_workers_faster`, and keys ending in
`(pool minimum 0)`), from checkouts whose row runs could start a process
pool, and in-process walks over other alphabets: the extreme-term trees
of both objectives, or the whole tree catalog. Rows with a pool on every
two-worker run and the number of pools a verify pass started are in
`BENCH_pool_reuse.json`.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ENUMERATE = [
    ["search", "--n", "14"],
    ["search", "--n", "14", "--workers", "2"],
    ["search", "--n", "14", "--delta", "4", "--objective", "min"],
    ["search", "--n", "14", "--at-most", "--delta", "4"],
    ["search", "--n", "13", "--l", "5", "--dump-all"],
    ["conjecture", "--n", "14", "--delta", "4"],
]
LARGE = [
    ["conjecture", "--n", "18", "--delta", "3"],
    ["conjecture", "--n", "18", "--delta", "4"],
    ["conjecture", "--n", "19", "--delta", "4"],
    ["search", "--n", "16"],
    ["search", "--n", "18"],
    ["search", "--n", "19", "--delta", "10"],
    ["search", "--n", "20", "--delta", "6"],
    ["search", "--n", "40", "--delta", "30", "--cap", "100000000000000000000"],
    ["search", "--n", "50", "--delta", "40", "--cap", "100000000000000000000000"],
    ["search", "--n", "200", "--l", "196"],
    ["search", "--n", "1200", "--l", "1198"],
    ["search", "--n", "1000000", "--l", "999999"],
    ["search", "--n", "10000000", "--l", "9999999"],
    ["verify", "--suite", "theorem", "--n-max", "16"],
    ["search", "--n", "16", "--dump-all"],
    ["search", "--n", "16", "--delta", "4", "--dump-all"],
    ["verify", "--suite", "lemmas", "--n-max", "16"],
]
VERIFY_ALL = ["verify", "--suite", "all", "--seed", "501"]
COMMANDS = ENUMERATE + LARGE + [VERIFY_ALL]
# (n, delta, exact, objective, l filter) as the operation of that run asks
# for it; objective None is a row run, which walks every allowed tree
LAYERS = [(14, None, True, "max", None), (14, 4, True, "min", None), (14, 4, False, "max", None),
          (16, None, True, "max", None), (18, 3, True, "min", None), (19, 4, True, "min", None),
          (40, 30, True, "max", None), (200, None, True, "max", 196),
          (14, None, True, None, None), (16, None, True, None, None), (16, 4, True, None, None),
          (16, 5, False, None, None)]
WALK_REPEAT = 5  # walks per `units_s` sample, in one process
# walk -> (its graph, built untimed; the call timed)
WALKS = {
    "is_connected p3(200000, 5)":
        ("families.make_p3_extremal(200000, 5)", "g.is_connected()"),
    "engine_input p3(200000, 5)":
        ("families.make_p3_extremal(200000, 5)", "metrics.engine_input(g)"),
    "kf_vertex 199999 p3(200000, 5)":
        ("families.make_p3_extremal(200000, 5)",
         "metrics.kf_vertex(metrics.engine_input(g), 199999)"),
    "engine_equivalence_suite(8, 200, 20240817)":
        ("None", "suites.engine_equivalence_suite(8, 200, 20240817)"),
}
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_enumerate.json"

# Times one cold `_alphabet` and the median of `repeat` walks of every
# unit for the run given as argv (n, delta or "-", exact as 0/1, objective
# or "rows", repeat, l filter or "-"), over the cycle lengths and with the alphabet that run
# uses, counts the tuples one more walk keeps, and prints them as JSON.
TIME_LAYERS = """
import json, statistics, sys, time
from kfx import search
n, delta, exact = int(sys.argv[1]), None if sys.argv[2] == "-" else int(sys.argv[2]), sys.argv[3] == "1"
which = None if sys.argv[4] == "rows" else sys.argv[4]
repeat = int(sys.argv[5])
l_filter = None if sys.argv[6] == "-" else int(sys.argv[6])
ls = search._cycle_lengths(n, delta, exact, l_filter)
top = n - ls[0] + 1
units = search._units(n, ls)
low = which == "min"
rows = 0


def keep(a, num):  # one unit's extreme N and the tuples reaching it, as `unicyclic_extremes` keeps them
    global best, reaching
    if num == best:
        reaching.append(a[:])
    elif best is None or (num < best) == low:
        best, reaching = num, [a[:]]


def count(a, num):  # a row run's keep: it counts the classes
    global rows
    rows += 1


def walk(alphabet):
    global best, reaching
    for l, first in units:
        best, reaching = None, []
        search._unit(n, l, first, alphabet, keep if which else count)


t = time.perf_counter()
alphabet = search._alphabet(n, delta, exact, top, which)
alphabet_s = time.perf_counter() - t
times = []
for _ in range(repeat):
    t = time.perf_counter()
    walk(alphabet)
    times.append(time.perf_counter() - t)
walk_s = statistics.median(times)
walked = 0

def calls(frame, event, arg):
    global walked
    if event == "call" and frame.f_code.co_name in ("keep", "count"):
        walked += 1

sys.setprofile(calls)
walk(alphabet)
sys.setprofile(None)
print(json.dumps({"alphabet_s": alphabet_s, "units_s": walk_s, "alphabet_trees": len(alphabet[0]),
                  "tuples_walked": walked, "classes": search.class_count(n, delta, exact, l_filter)}))
"""
TIME_WALK = """
import sys, time
from kfx import families, metrics, suites
g = eval(sys.argv[1])
t = time.perf_counter()
eval(sys.argv[2])
print(time.perf_counter() - t)
"""
TIME_LEMMAS = """
import time
import kfx.families, kfx.formulas, kfx.metrics, kfx.unicyclic
from kfx.suites import check_lemma_properties
t = time.perf_counter()
check_lemma_properties(8)
print(time.perf_counter() - t)
"""


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")


def _cli(src: str, argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS (MiB) of one `python -m kfx.cli` run."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "kfx.cli", *argv], env=_env(src),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):  # 1 is a mismatch verdict, still a full run
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} with {src}")
    return wall, usage.ru_maxrss / 1024


def _python(src: str, code: str, argv: list[str] = ()) -> str:
    return subprocess.run([sys.executable, "-c", code, *argv], env=_env(src), check=True,
                          capture_output=True, text=True).stdout


def _layers(src: str, n: int, delta: int | None, exact: bool, objective: str | None,
            l_filter: int | None) -> dict:
    argv = [str(n), "-" if delta is None else str(delta), "1" if exact else "0",
            objective or "rows", str(WALK_REPEAT), "-" if l_filter is None else str(l_filter)]
    return json.loads(_python(src, TIME_LAYERS, argv))


def _median(values: list[float], digits: int) -> float:
    return round(statistics.median(values), digits)


def _spread(name: str, values: list[float], digits: int) -> dict:
    """`name`: the median of the values; `name_quartiles`: their lower and
    upper quartiles (one value is its own quartiles)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {name: _median(values, digits), f"{name}_quartiles": [round(q1, digits), round(q3, digits)]}


def main(argv: list[str]) -> int:
    repeat, change = 5, None
    while argv[:1] in (["--repeat"], ["--change"]):
        if argv[0] == "--repeat":
            repeat = int(argv[1])
        else:
            change = argv[1]
        argv = argv[2:]
    checkouts = dict(arg.split("=", 1) for arg in argv)
    if not checkouts or change is None:
        print(__doc__, file=sys.stderr)
        return 2
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}
    report = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {
        "script": "tools/bench_enumerate.py", "host": host,
        "statistic": "median over alternated rounds, each run a fresh process", "rows": []}
    if report["host"] != host:
        print(f"{OUTPUT.name} holds rows from {report['host']}, not {host}", file=sys.stderr)
        return 2
    commands = [" ".join(a) for a in COMMANDS]
    cli = {label: {c: [] for c in commands} for label in checkouts}
    layers = {label: {run: [] for run in LAYERS} for label in checkouts}
    lemmas = {label: [] for label in checkouts}
    walks = {label: {name: [] for name in WALKS} for label in checkouts}
    for round_ in range(repeat):
        order = list(checkouts.items())
        for label, src in order[::-1] if round_ % 2 else order:
            for a in COMMANDS:
                cli[label][" ".join(a)].append(_cli(src, a))
            for run in LAYERS:
                layers[label][run].append(_layers(src, *run))
            lemmas[label].append(float(_python(src, TIME_LEMMAS)))
            for name, (build, call) in WALKS.items():
                walks[label][name].append(float(_python(src, TIME_WALK, [build, call])))
    rows = []
    for label in checkouts:
        runs = cli[label]
        rows.append({
            "change": change,
            "repeat": repeat,
            "label": label,
            "cli": {c: {**_spread("wall_s", [w for w, _ in runs[c]], 3),
                        **_spread("peak_rss_mib", [m for _, m in runs[c]], 1)} for c in commands},
            "enumerate_pass_s": round(sum(statistics.median(w for w, _ in runs[" ".join(a)])
                                          for a in ENUMERATE), 3),
            "in_process": [{
                "n": n, "delta": delta, "exact": exact, "objective": objective, "l": l_filter,
                "classes": samples[0]["classes"],
                "alphabet_trees": samples[0]["alphabet_trees"],
                "tuples_walked": samples[0]["tuples_walked"],
                **_spread("alphabet_s", [s["alphabet_s"] for s in samples], 4),
                **_spread("units_s", [s["units_s"] for s in samples], 4),
            } for (n, delta, exact, objective, l_filter), samples in layers[label].items()],
            "check_lemma_properties_8_s": _median(lemmas[label], 4),
            "walks": {name: _spread("s", values, 4) for name, values in walks[label].items()},
        })
    report["rows"] += rows
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
