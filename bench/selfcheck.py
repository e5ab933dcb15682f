"""Harness self-check at tiny sizes:  python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json in this process at tiny problem
sizes, once untraced and once traced, and asserts that

* each run emits exactly the end_to_end (untraced) or per_layer (traced)
  metrics of BENCHMARK.json, each with its unit;
* the traced per-layer self times add up to within 10% of the traced
  wall time;
* the untraced run wraps nothing and the traced run restores every
  function it wrapped.

Exits 0 and prints one line per run when every assertion holds.
"""

from __future__ import annotations

import json
import sys

import run

TINY = dict(
    jl_k_max=3000, jl_eps_floor=1e-3, jl_energies=2,
    ids_points=801, ids_size=1000, refine_size=4000, holder_eps=(1e-3, 1e-1),
    thouless_points=401, thouless_size=500, lyap_n=500, lyap_phases=4, lyap_per_round=2,
    cli_ids_points=201, cli_ids_size=500, cli_k_max=100, cli_eps_min=1e-2,
    oracle_per_round=1, oracle_ks=(1, 5), m_triple_per_round=2, membership_size=2000,
    reductions_per_round=1,
)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import tracing
    import workloads

    def traced_functions() -> dict:
        return {(mod, fn): getattr(sys.modules["quasispec." + mod], fn)
                for mod, fn, _, _ in tracing.TARGETS}

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sizes = workloads.Sizes(**TINY)
    originals = traced_functions()
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, record = run.run(w["name"], 1, 0.5, bool(trace), sizes, setup_samples=1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (
                f"{w['name']} trace {trace}: metrics or units differ from BENCHMARK.json: "
                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            assert traced_functions() == originals, "a traced function was left wrapped"
            line = f"{w['name']} trace {trace}: {len(got)} metrics, {record['rounds']} rounds"
            if trace:
                cover = result["metrics"]["trace.self_cover_frac"]["value"]
                assert abs(cover - 1.0) <= 0.10, (
                    f"{w['name']}: traced self times cover {cover:.3f} of the traced wall")
                line += f", self times cover {cover:.3f} of traced wall"
            print(line, flush=True)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
