"""kfx benchmark runner.

    python3 perfbench/run.py --workload {compute,enumerate,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a kfx checkout; kfx is imported from its src/.
Each operation is a fresh `python -m kfx.cli ...` process, run one at a
time (closed loop, one client), because that is how users pay for the
tool: one interpreter start and cold in-process caches per command. An
operation uses at most two processes (`--workers 2`).

A run first sets up several times (each a fresh process that imports kfx
and writes the workload's input graphs) and reports the median as
`setup_s`. It then runs the workload's operation list ("pass") a fixed
number of times: as many as take about `--seconds` at the seed commit,
and at least enough for 22 operation samples. The work is therefore the
same on every commit for a given `--seconds`, which keeps medians and
tails comparable between commits. Every operation's exit code and stdout
are checked against independent references or the seed commit's pinned
digests (see workloads.py).

The host is shared and its speed drifts by tens of percent within
minutes, which moves every time alike. So the driver times a fixed
pure-Python task (`host_probe`, no kfx code) before each set-up process
and each operation, and --trace 0 reports every time metric scaled to a
host on which that task takes PROBE_NOMINAL_S: measured seconds times
PROBE_NOMINAL_S / (median probe of the run). The report lines before the
result give the unscaled times and the probe median too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced pass and two traced passes (trace_cli.py) and prints the
per-layer metrics; the two traced passes must give identical counters.

Operation failures (wrong answer, unexpected exit code or traceback) are
counted in `failed`. `correct` is false when any operation fails, except
an operation with a known defect at the seed commit that fails exactly
that way (workloads.KNOWN_DEFECTS), or when the benchmark's own checks
fail. The last stdout line is the JSON result; the lines before it are a
readable report. `--workload all` runs the three workloads in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
# Seconds one pass takes at the seed commit (2-core x86-64, Python 3.11);
# they turn --seconds into a pass count. At the default 20 s: compute 2
# passes (80 operations), enumerate 4 (24), verify 4 (28).
NOMINAL_PASS_S = {"compute": 12.0, "enumerate": 9.5, "verify": 5.0}
# Operation samples per run: at least ten beyond the tail, and the tail
# above the median.
MIN_SAMPLES = 22
WORKLOADS = ("compute", "enumerate", "verify")
OP_TIMEOUT_S = 100
RUN_BUDGET_S = 150  # stop starting passes after this; the run must end in 180 s
# Median of host_probe() on the 2-core x86-64 host the seed was measured on.
PROBE_NOMINAL_S = 0.0283


@dataclass
class Result:
    key: str
    rc: int
    out: bytes
    err: bytes
    seconds: float
    rss_mib: float
    trace: dict | None = None

    @property
    def crashed(self) -> bool:
        return b"Traceback (most recent call last)" in self.err

    @property
    def error(self) -> str:
        """The last line of stderr: the exception of a traceback."""
        lines = self.err.decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    @property
    def known_defect(self) -> bool:
        """Failed the one way its known defect allows (workloads.KNOWN_DEFECTS)."""
        import workloads

        cause = workloads.KNOWN_DEFECTS.get(self.key)
        return cause is not None and self.crashed and self.error.startswith(cause)


def host_probe() -> float:
    """Seconds for a fixed pure-Python task that touches no kfx code:
    Fraction sums and dict inserts, like the arithmetic kfx spends its time on."""
    t = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 4000):
        total += Fraction(i % 97, i)
        seen[i] = str(i)
    return time.perf_counter() - t


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KFX_", "PERFBENCH_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # identical cache sizes and counters on every run
    return env


def run_op(op, work: Path, env: dict, trace_path: Path | None) -> Result:
    if trace_path is None:
        argv = [sys.executable, "-m", "kfx.cli", *op.argv]
    else:
        argv = [sys.executable, str(HERE / "trace_cli.py"), *op.argv]
        env = dict(env, PERFBENCH_TRACE=str(trace_path))
    out_path, err_path = work / "op.out", work / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        if trace_path is not None:
            env["PERFBENCH_T0"] = repr(time.monotonic())
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # pool workers outliving their parent, if any
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    trace = None
    if trace_path is not None and trace_path.exists():
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return Result(op.key, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                  seconds, usage.ru_maxrss / 1024, trace)


def run_pass(ops, work: Path, env: dict, traced: bool,
             probes: list[float]) -> tuple[float, list[Result]]:
    """(sum of operation times, results); a host probe before each operation."""
    results = []
    for op in ops:
        probes.append(host_probe())
        results.append(run_op(op, work, env, work / "trace.json" if traced else None))
    return sum(r.seconds for r in results), results


def set_up(workload: str, seed: int, inputs: Path, env: dict,
           probes: list[float]) -> tuple[list[float], list[float]]:
    """Wall seconds of each set-up process, and seconds inside kfx.families."""
    walls, families = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(host_probe())
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "make_inputs.py"), workload,
                               str(seed), str(inputs)],
                              env=env, capture_output=True, timeout=OP_TIMEOUT_S)
        walls.append(time.perf_counter() - t)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode())
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        families.append(json.loads(proc.stdout)["families_s"])
    return walls, families


# ---------------------------------------------------------------------------
# checking

class Checker:
    """Verdicts per operation; each operation's expectation is built once."""

    def __init__(self, ops):
        self.ops = {op.key: op for op in ops}
        self.expects: dict = {}

    def expect(self, key: str):
        if key not in self.expects:
            self.expects[key] = self.ops[key].expect()
        return self.expects[key]

    def verdict(self, r: Result, pass_results: dict[str, Result], expect=None) -> str | None:
        if r.crashed:
            return "traceback: " + r.error
        same_as = self.ops[r.key].same_as
        if same_as and pass_results[same_as].out != r.out:
            return f"stdout differs from `{same_as}`"
        try:
            return (expect or self.expect(r.key)).verdict(r.rc, r.out)
        except Exception as exc:  # a malformed output must not stop the run
            return f"check raised {type(exc).__name__}: {exc}"


def check_passes(checker: Checker, passes: list[list[Result]]) -> list[tuple[Result, str]]:
    """Failed operations, each with the reason."""
    failures = []
    for results in passes:
        by_key = {r.key: r for r in results}
        for r in results:
            reason = checker.verdict(r, by_key)
            if reason:
                failures.append((r, reason))
    return failures


def self_test(checker: Checker, passes: list[list[Result]], failed: int,
              attempted: int) -> tuple[bool, str]:
    """Check one passing operation against a deliberately wrong expectation:
    the failure count must rise, or the gate is vacuous."""
    by_key = {r.key: r for r in passes[0]}
    for r in passes[0]:
        if checker.verdict(r, by_key) is None:
            bad = checker.verdict(r, by_key, expect=checker.expect(r.key).corrupted())
            if bad is None:
                return False, f"self-test FAILED: a wrong expectation for `{r.key}` passed"
            return True, (f"self-test: a wrong expectation for `{r.key}` raises fail_frac"
                          f" from {failed / attempted:.4f} to {(failed + 1) / attempted:.4f}")
    return False, "self-test FAILED: no operation passed, so the gate could not be tested"


# ---------------------------------------------------------------------------
# metrics

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(setup_walls, walls, passes, probes) -> tuple[dict, list[str]]:
    times = [r.seconds for results in passes for r in results]
    tail_s, pct = tail(times)
    probe = statistics.median(probes)
    raw = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
    }
    metrics = {k: (v * PROBE_NOMINAL_S / probe, "s") for k, v in raw.items()}
    metrics["peak_rss_mib"] = (max(r.rss_mib for results in passes for r in results), "MiB")
    notes = [f"op_tail_s is the p{pct:.1f} of {len(times)} operation times",
             f"{len(passes)} passes of {len(passes[0])} operations; "
             f"set-up median of {len(setup_walls)}",
             f"host probe median {probe * 1e3:.2f} ms of {len(probes)} "
             f"(nominal {PROBE_NOMINAL_S * 1e3:.2f} ms); times below are scaled by "
             f"{PROBE_NOMINAL_S / probe:.4f}; unscaled: "
             + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())]
    return metrics, notes


TIMED_SPANS = [
    "graph.parse_edge_list", "graph.wiener", "unicyclic.decompose_unicyclic",
    "unicyclic.canonical_code_from_shapes", "unicyclic.dihedral_min",
    "unicyclic.canonical_code", "unicyclic.tree_canonical_code",
    "metrics.kirchhoff_index.structural", "metrics.kf_vertex", "metrics.kf_from_shapes",
    "metrics.kirchhoff_index.oracle", "metrics.det_bareiss", "metrics.resistance_oracle",
    "search.unicyclic_classes",
]
SEARCH_SUITES = ["verify_theorem", "probe_conjecture", "check_lemma_properties",
                 "engine_equivalence_suite", "tree_classes", "estimated_tuple_count"]
CACHES = ["unicyclic.code_cache.size", "unicyclic.stats_cache.size",
          "unicyclic.deg_cache.size", "unicyclic.rooted_shapes.cache_size"]
COUNTS = ["metrics.resistance_structural.calls", "search.units", "search.classes_kept",
          "search.pool.starts"]


def counters(trace: dict) -> dict:
    """The parts of one operation's trace that must repeat exactly."""
    out = {f"{k}.calls": v[0] for k, v in trace["spans"].items()}
    out.update({k: v for k, v in trace["counts"].items() if not k.endswith("_s")})
    out.update(trace["caches"])
    return out


def pass_layers(results: list[Result]) -> dict[str, float]:
    """Per-layer values for one traced pass: sums over its operations,
    except the per-operation medians of cli.* and the maxima of caches."""
    traces = [r.trace for r in results if r.trace]
    span = lambda t, k, i: t["spans"].get(k, [0, 0.0])[i]
    m: dict[str, float] = {
        "cli.startup_s": statistics.median(t["startup_s"] for t in traces),
        "cli.self_s": statistics.median(t["self_s"] for t in traces),
    }
    for k in TIMED_SPANS:
        m[f"{k}.calls"] = sum(span(t, k, 0) for t in traces)
        m[f"{k}.s"] = sum(span(t, k, 1) for t in traces)
    for k in COUNTS + ["search.pool.start_s", "search.pool.map_s"]:
        m[k] = sum(t["counts"].get(k, 0) for t in traces)
    for k in CACHES:
        m[k] = max(t["caches"].get(k, 0) for t in traces)
    # classes kept per tuple generated, over operations that start no pool
    # (tuples built in pool workers are not seen by the parent)
    solo = [t for t in traces if not t["counts"].get("search.pool.starts")]
    tuples = sum(span(t, "unicyclic.canonical_code_from_shapes", 0) for t in solo)
    kept = sum(t["counts"].get("search.classes_kept", 0) for t in solo)
    m["search.useful_ratio"] = kept / tuples if tuples else 0.0
    for k in SEARCH_SUITES:
        m[f"search.{k}.s"] = sum(span(t, f"search.{k}", 1) for t in traces)
    m["formulas.s"] = sum(span(t, "formulas", 1) for t in traces)
    return m


def per_layer(untraced_wall, untraced: list[Result], traced_walls, traced, families) -> dict:
    layers = [pass_layers(results) for results in traced]
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    by_key = {r.key: r.seconds for r in untraced}
    w1, w2 = by_key.get("search --n 14"), by_key.get("search --n 14 --workers 2")
    metrics["search.speedup_w2"] = w1 / w2 if w1 and w2 else 0.0
    metrics["families.build.s"] = statistics.median(families)
    metrics["trace.overhead_frac"] = statistics.mean(traced_walls) / untraced_wall - 1
    unit = lambda k: ("count" if k.endswith((".calls", ".size", "cache_size")) or k in COUNTS
                      else "ratio" if k in ("search.useful_ratio", "search.speedup_w2",
                                            "trace.overhead_frac") else "s")
    return {k: (v, unit(k)) for k, v in sorted(metrics.items())}


def counters_repeat(traced: list[list[Result]]) -> list[str]:
    first, second = ([counters(r.trace) if r.trace else None for r in p] for p in traced)
    return [r.key for r, a, b in zip(traced[0], first, second) if a != b]


# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    """(report lines, result dict) for one workload."""
    import workloads

    start = time.perf_counter()
    work = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        env = child_env()
        probes: list[float] = []
        setup_walls, families = set_up(workload, seed, work / "inputs", env, probes)
        ops = workloads.operations(workload, seed, work / "inputs")
        want = max(-(-MIN_SAMPLES // len(ops)), round(seconds / NOMINAL_PASS_S[workload]))
        walls, passes = [], []
        for _ in range(1 if trace else want):
            if passes and time.perf_counter() - start > RUN_BUDGET_S:
                break
            wall, results = run_pass(ops, work, env, False, probes)
            walls.append(wall)
            passes.append(results)
        traced_walls, traced = [], []
        for _ in range(2 if trace else 0):
            wall, results = run_pass(ops, work, env, True, probes)
            traced_walls.append(wall)
            traced.append(results)

        checker = Checker(ops)
        everything = passes + traced
        failures = check_passes(checker, everything)
        attempted = sum(len(p) for p in everything)
        ok_selftest, selftest_note = self_test(checker, passes, len(failures), attempted)
        report = [f"workload {workload}, seed {seed}, trace {int(trace)}",
                  f"fail_frac = {len(failures) / attempted:.4f} ({len(failures)} of {attempted})",
                  selftest_note]
        seen: dict = {}
        for r, reason in failures:
            seen[(r.key, reason)] = seen.get((r.key, reason), 0) + 1
        report += [f"FAILED x{n}: {key}: {reason}" for (key, reason), n in seen.items()]
        unexpected = [r for r, _ in failures if not r.known_defect]
        if len(unexpected) < len(failures):
            report.append(f"{len(failures) - len(unexpected)} of the failures are known defects")
        correct = not unexpected and ok_selftest
        if trace:
            repeat_bad = counters_repeat(traced)
            if repeat_bad:
                correct = False
                report.append(f"counters differ between traced passes: {repeat_bad}")
            metrics = per_layer(walls[0], passes[0], traced_walls, traced, families)
        else:
            metrics, notes = end_to_end(setup_walls, walls, passes, probes)
            report += notes
        report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        return report, {"correct": correct, "attempted": attempted, "failed": len(failures),
                        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="`all` runs the three in turn and prefixes metric names")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kfx" / "cli.py").is_file():
        print(f"error: no kfx sources at {SRC}; run from a kfx checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report))
        if len(names) == 1:
            total = result
            break
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
