"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 bench/report.py                          # every workload, seed 1
    python3 bench/report.py --workloads jl_ladder --seeds 1-10
    python3 bench/report.py --trace 1

Each run is a fresh ``python3 bench/run.py`` process, one at a time, with
``run_seconds`` from BENCHMARK.json.  Every run prints its metrics by name
and unit, with failed_frac and check_fail_frac as measured.  With two or
more seeds, each metric also gets its median, quartiles and spread,
(Q3 - Q1) / median, next to its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, summary


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("BENCH-RECORD "))
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result, record = run_once(workload, seed, spec["run_seconds"], args.trace)
            print(summary(result, record), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(seeds) >= 2:
            print(f"{workload}: {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}")
            for name, vals in values.items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(name)
                print(f"{workload}: {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:8.4f} {bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
