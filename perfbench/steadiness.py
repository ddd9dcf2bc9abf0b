"""Steadiness report: run one workload over several seeds and summarize.

    python3 perfbench/steadiness.py --workload pipeline-chain --seeds 1-10 --seconds 30

Runs ``run.py --trace 0`` once per seed, one process at a time, and prints
for each end-to-end metric the median, the quartiles and the interquartile
spread as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from ``BENCHMARK.json`` and a third of it.  Also prints the
share of failed operations, which must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: Dict[str, List[float]] = {}
    shares = set()
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: correct=false")
        shares.add((result["failed"], result["attempted"], result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {result['attempted']} operations, {result['failed']} failed, "
              f"{result['wall_s']:.1f} s", flush=True)

    print(f"\n{args.workload}: {len(parse_seeds(args.seeds))} runs of {seconds} s")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        limit = f"{bound / 3:8.3f}" if bound is not None else f"{'-':>8s}"
        flag = " !" if bound is not None and name != "setup_s" and spread >= bound / 3 else ""
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {limit}{flag}")
    print("failed shares:", sorted({s for _f, _a, s in shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
