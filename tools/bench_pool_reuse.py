"""Before/after rows for worker-pool reuse in the verify suites.

Usage:
    python tools/bench_pool_reuse.py [--repeat R] LABEL=SRC_DIR [LABEL=SRC_DIR ...]

Each SRC_DIR is the `src` directory of a kfx checkout. Labels are run
alternately, R rounds, every measurement in a fresh interpreter. One JSON
object goes to stdout with a row per label:

* `pool_starts_per_verify_pass`: `multiprocessing.Pool` starts, counted by
  wrapping `kfx.search.Pool`, summed over the benchmark's verify commands
  (`verify --suite all`, the two `--workers 2` suites and the
  formula-only theorem at n = 700);
* `op_s`: median wall time of each timed `kfx` command (`TIMED`),
  interpreter start-up included;
* `check_lemma_properties_8_s`: median in-process time of one cold
  `check_lemma_properties(8)` call.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

VERIFY_PASS = [
    ["verify", "--suite", "all", "--seed", "501"],
    ["verify", "--suite", "lemmas", "--workers", "2"],
    ["verify", "--suite", "theorem", "--n-max", "9", "--workers", "2"],
    ["verify", "--suite", "theorem", "--n", "700", "--delta", "5"],
]
# the verify pass's enumerating commands, and each multi-worker one also
# with one worker, beside searches from n = 12 to 16 and degree-filtered
# ones at n = 14 and 15, to show from which class count a second worker
# pays (search.POOL_MIN_CLASSES)
TIMED = VERIFY_PASS[:3] + [
    ["verify", "--suite", "lemmas", "--workers", "1"],
    ["verify", "--suite", "theorem", "--n-max", "9", "--workers", "1"],
    ["search", "--n", "12", "--workers", "1"],
    ["search", "--n", "12", "--workers", "2"],
    ["search", "--n", "13", "--workers", "1"],
    ["search", "--n", "13", "--workers", "2"],
    ["search", "--n", "14", "--workers", "1"],
    ["search", "--n", "14", "--workers", "2"],
    ["search", "--n", "16", "--workers", "1"],
    ["search", "--n", "16", "--workers", "2"],
    ["search", "--n", "14", "--delta", "3", "--workers", "1"],
    ["search", "--n", "14", "--delta", "3", "--workers", "2"],
    ["search", "--n", "14", "--delta", "4", "--workers", "1"],
    ["search", "--n", "14", "--delta", "4", "--workers", "2"],
    ["search", "--n", "15", "--delta", "4", "--workers", "1"],
    ["search", "--n", "15", "--delta", "4", "--workers", "2"],
]

COUNT_POOLS = """
import contextlib, io, sys
import kfx.search as search
from kfx.cli import main
starts = 0
real = search.Pool
def counted(*args, **kwargs):
    global starts
    starts += 1
    return real(*args, **kwargs)
search.Pool = counted
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(starts)
"""

# the suites left `kfx.search` for `kfx.suites`; either source tree runs
TIME_LEMMAS = """
import time
try:
    from kfx.suites import check_lemma_properties
except ImportError:
    from kfx.search import check_lemma_properties
t = time.perf_counter()
check_lemma_properties(8)
print(time.perf_counter() - t)
"""


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def _python(src: str, code: str, argv: list[str] = ()) -> str:
    return subprocess.run([sys.executable, "-c", code, *argv], env=_env(src), check=True,
                          capture_output=True, text=True).stdout


def _wall(src: str, argv: list[str]) -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "kfx.cli", *argv], env=_env(src),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    repeat = 5
    if argv[:1] == ["--repeat"]:
        repeat, argv = int(argv[1]), argv[2:]
    checkouts = dict(arg.split("=", 1) for arg in argv)
    if not checkouts:
        print(__doc__, file=sys.stderr)
        return 2
    times = {label: {" ".join(a): [] for a in TIMED} for label in checkouts}
    lemmas = {label: [] for label in checkouts}
    for _ in range(repeat):
        for label, src in checkouts.items():
            for a in TIMED:
                times[label][" ".join(a)].append(_wall(src, a))
            lemmas[label].append(float(_python(src, TIME_LEMMAS)))
    rows = []
    for label, src in checkouts.items():
        starts = sum(int(_python(src, COUNT_POOLS, a)) for a in VERIFY_PASS)
        rows.append({
            "label": label,
            "pool_starts_per_verify_pass": starts,
            "op_s": {k: round(statistics.median(v), 3) for k, v in times[label].items()},
            "check_lemma_properties_8_s": round(statistics.median(lemmas[label]), 4),
        })
    report = {
        "script": "tools/bench_pool_reuse.py",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "repeat": repeat,
        "statistic": "median over alternated rounds, each run a fresh process",
        "rows": rows,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
