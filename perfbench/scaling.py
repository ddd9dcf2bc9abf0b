"""Pipeline time at n, 2n and 4n, so quadratic phases show as slopes.

    python3 perfbench/scaling.py --seed 1 --reps 3

For each pipeline workload's graph family, generates the graph at the
workload's n, 2n and 4n, and times ``distributed_color_chordal`` and
``distributed_chordal_mis`` on freshly parsed graphs (median of
``--reps`` calls, GC paused as in ``run.py``).  The slope column is
log2(time(2x) / time(x)): 1 is linear, 2 quadratic.  Outputs are not
checked here; ``run.py`` checks them at the workload's n.
"""

from __future__ import annotations

import argparse
import gc
import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import MIS_EPSILON, MVC_EPSILON, WORKLOADS  # noqa: E402


def timed(call, text, parse, reps):
    times = []
    for _ in range(reps):
        graph = parse(text)
        gc.collect()
        gc.disable()
        t0 = perf_counter()
        try:
            call(graph)
        finally:
            times.append(perf_counter() - t0)
            gc.enable()
    return statistics.median(times)


def main() -> int:
    from repro.coloring import distributed_color_chordal
    from repro.graphs.generators import random_k_tree, unit_interval_chain
    from repro.graphs.io import from_edge_list, to_edge_list
    from repro.mis import distributed_chordal_mis

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    calls = {
        "mvc": lambda g: distributed_color_chordal(g, epsilon=MVC_EPSILON),
        "mis": lambda g: distributed_chordal_mis(g, MIS_EPSILON),
    }
    print(f"{'workload':16s} {'n':>6s} {'mvc_s':>8s} {'slope':>6s} {'mis_s':>8s} {'slope':>6s}")
    for name in ("pipeline-ktree", "pipeline-chain"):
        wl = WORKLOADS[name]
        rng = random.Random(f"scaling:{name}:{args.seed}")
        previous = {}
        for n in (wl.n, 2 * wl.n, 4 * wl.n):
            seed = rng.randrange(2**32)
            graph = random_k_tree(n, 3, seed=seed) if wl.family == "ktree" else unit_interval_chain(n, seed=seed)
            text = to_edge_list(graph)
            row = [f"{name:16s} {n:6d}"]
            for key, call in calls.items():
                t = timed(call, text, from_edge_list, args.reps)
                slope = f"{math.log2(t / previous[key]):6.2f}" if key in previous else f"{'-':>6s}"
                previous[key] = t
                row.append(f"{t:8.2f} {slope}")
            print(" ".join(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
