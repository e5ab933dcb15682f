"""quasispec benchmark: one workload, one seed, one fresh process.

    python3 bench/run.py --workload jl_ladder --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run measures set-up in fresh interpreters, generates its inputs from
the seed, runs one untimed warm-up round, then runs rounds of checked
tasks (see ``workloads.py``) until the next round would pass ``--seconds``
(warm-up included); at least one cycle always runs.

``--trace 0`` reports the end-to-end metrics: the wall and CPU time of a
cycle (one round, or for jl_ladder one round at each of its fixed
energies) from the median round time at each place in the cycle, set-up
time, peak RSS, and the shares of tasks that completed and that passed
their checks.  ``--trace 1`` runs every round twice, traced
and untraced, taking turns at which goes first, and reports the
per-layer metrics of ``tracing.py`` over the traced rounds plus the
tracing overhead, the median over rounds of traced / untraced wall - 1;
its spans go to ``.bench_out/``.

The last line of standard output is the JSON result; the line before it,
``BENCH-RECORD {...}``, holds the seed, the machine, per-task-kind
tallies, every failure, and failed_frac / check_fail_frac as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
#: BLAS and OpenMP pools; capped at one thread, so the load is one process
#: running one compute thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child, so
# the child's ready time minus the parent's spawn time is process start to ready.
SETUP_PROBE = ("import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; "
               "import workloads; workloads.setup(); print(repr(time.perf_counter()))")


def measure_setup(samples: int) -> list[float]:
    """Set-up time of ``samples`` fresh interpreters, after one warm-up
    that fills the bytecode cache."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH))
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=120)
        if i:
            times.append(float(done.stdout.split()[-1]) - t0)
    return times


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    def first_line(path, prefix):
        try:
            with open(path) as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith(prefix)),
                            None)
        except OSError:
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "threads": int(first_line("/proc/self/status", "Threads") or 0),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "QUASISPEC_PRECISION": os.environ.get("QUASISPEC_PRECISION"),
    }


class Tally:
    """Task outcomes: raised or exited non-zero, completed, failed its check."""

    def __init__(self):
        self.attempted = self.failed = self.check_failed = 0
        self.kinds = defaultdict(lambda: {"attempted": 0, "failed": 0, "check_failed": 0})
        self.failures: list[dict] = []

    def run(self, task) -> None:
        kind = self.kinds[task.kind]
        self.attempted += 1
        kind["attempted"] += 1
        try:
            out = task.call()
        except Exception as exc:  # a failing task is counted; the run goes on
            self.failed += 1
            kind["failed"] += 1
            self.failures.append({"kind": task.kind, "error": type(exc).__name__,
                                  "message": str(exc)[:300]})
            return
        try:
            ok = bool(task.check(out))
            why = "output outside its stated check"
        except Exception as exc:  # a check that cannot read the output fails it
            ok, why = False, f"{type(exc).__name__}: {exc}"[:300]
        if not ok:
            self.check_failed += 1
            kind["check_failed"] += 1
            self.failures.append({"kind": task.kind, "error": "check", "message": why})


def round_indices(budget: float, times: list[float], at_least: int):
    """Yield 0, 1, ... while the next round, at the median of ``times``
    (the caller's round times so far), fits in ``budget`` seconds, and at
    least ``at_least`` times."""
    start = time.perf_counter()
    r = 0
    while r < at_least or time.perf_counter() - start + statistics.median(times) <= budget:
        yield r
        r += 1


def cycle_time(times: list[float], cycle: int) -> float:
    """Time of ``cycle`` consecutive rounds: the sum over places in the
    cycle of the median time of the rounds at that place.  Rounds of a
    cycle differ in cost, so a plain median would shift with how many of
    each a run fitted in."""
    return sum(statistics.median(times[i::cycle]) for i in range(cycle))


def time_round(tasks, tally: Tally) -> tuple[float, float]:
    """Run one round's tasks; returns its wall and CPU time."""
    w0, c0 = time.perf_counter(), time.process_time()
    for task in tasks:
        tally.run(task)
    return time.perf_counter() - w0, time.process_time() - c0


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """One benchmark run; returns (result, record)."""
    setup_times = measure_setup(setup_samples)
    sys.path.insert(0, str(SRC))
    import quasispec

    if SRC not in Path(quasispec.__file__).resolve().parents:
        raise RuntimeError(f"quasispec imported from {quasispec.__file__}, not from {SRC}")
    import workloads
    from inputs import Generator

    sizes = sizes or workloads.Sizes()
    ctx = workloads.setup()
    gen = Generator(workload, seed, sizes)
    build = workloads.WORKLOADS[workload]
    cycle = workloads.cycle(workload, sizes)
    tally = Tally()
    OUT.mkdir(exist_ok=True)

    walls, cpus, untraced = [], [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # one untimed round on round 0's inputs, inside the time budget, keeps
        # first-call costs (allocator growth, lazy imports, the CLI parser) out
        # of the medians; its tasks are checked and counted like the others
        warm_up, _ = time_round(build(ctx, gen.round(0), sizes, Path(tmp), 0), tally)
        budget = seconds - warm_up
        if not trace:
            for r in round_indices(budget, walls, cycle):
                wall, cpu = time_round(build(ctx, gen.round(r), sizes, Path(tmp), r), tally)
                walls.append(wall)
                cpus.append(cpu)
        else:
            from tracing import Tracer

            tracer = Tracer()
            pair_walls = []
            for r in round_indices(budget, pair_walls, cycle):
                inp = gen.round(r)
                timed = {}
                # the same inputs traced and untraced; which runs first alternates,
                # so neither side always gets the cold start
                for traced in (r % 2 == 0, r % 2 == 1):
                    if traced:
                        tracer.install()
                    try:
                        timed[traced] = time_round(build(ctx, inp, sizes, Path(tmp), r), tally)
                    finally:
                        tracer.restore()
                walls.append(timed[True][0])
                cpus.append(timed[True][1])
                pair_walls.append(timed[True][0] + timed[False][0])
                untraced.append(timed[False][0])
            overhead = statistics.median([t / u - 1.0 for t, u in zip(walls, untraced)])
            metrics = tracer.layer_metrics(sum(walls), overhead)
            tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")

    completed = tally.attempted - tally.failed
    if not trace:
        metrics = {name: {"value": float(value), "unit": unit} for name, value, unit in [
            ("wall_s", cycle_time(walls, cycle), "s"),
            ("setup_s", statistics.median(setup_times), "s"),
            ("cpu_s", cycle_time(cpus, cycle), "s"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            ("completed_frac", completed / tally.attempted, "frac"),
            ("check_pass_frac",
             (completed - tally.check_failed) / completed if completed else 0.0, "frac"),
        ]}
    result = {
        "correct": tally.failed == 0 and tally.check_failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(walls),
        "cycle": cycle,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "round_untraced_wall_s": untraced,
        "setup_samples_s": setup_times,
        "failed_frac": tally.failed / tally.attempted,
        "check_fail_frac": tally.check_failed / completed if completed else 0.0,
        "tasks": dict(tally.kinds),
        "failures": tally.failures,
        "env": environment(),
    }
    return result, record


def summary(result: dict, record: dict) -> str:
    """The run's metrics by name and unit, with failed_frac, check_fail_frac
    and the failures, as text."""
    lines = [f"quasispec bench: workload {record['workload']}, seed {record['seed']}, "
             f"{record['rounds']} rounds in {record['seconds']} s, trace {record['trace']}, "
             f"correct {result['correct']}, {result['attempted']} tasks, "
             f"{result['failed']} failed"]
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    rows += [("failed_frac", record["failed_frac"], "frac"),
             ("check_fail_frac", record["check_fail_frac"], "frac")]
    lines += [f"  {name:44s} {value:14.6g} {unit}" for name, value, unit in rows]
    lines += [f"  FAILED {f['kind']}: {f['error']}: {f['message']}" for f in record["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["jl_ladder", "ids_edges", "short_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "quasispec" / "__init__.py").is_file():
        print(f"bench: no quasispec package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summary(result, record))
    print("BENCH-RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
