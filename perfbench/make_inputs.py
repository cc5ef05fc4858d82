"""Benchmark set-up: build one workload's input graphs and write them as
edge lists.

    python3 perfbench/make_inputs.py WORKLOAD SEED OUTDIR

Run as its own process so that its wall time, from interpreter start to
exit, is the set-up cost a user of the benchmark pays: importing kfx and
building the family graphs through `kfx.families`. Prints one JSON line
with the time spent inside `kfx.families`.
"""
import json
import sys
from pathlib import Path

import workloads


def main(workload: str, seed: str, outdir: str) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    graphs, families_s = workloads.build_inputs(workload, int(seed))
    for name, (n, edges) in graphs.items():
        (out / f"{name}.edges").write_text(workloads.edge_list_text(n, edges))
    print(json.dumps({"families_s": families_s}))


if __name__ == "__main__":
    main(*sys.argv[1:])
