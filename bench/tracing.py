"""Outside-in tracing of quasispec's public functions.

``Tracer.install`` replaces each traced function at every module
attribute that holds it (``weyl.m_plus``, ``subordinacy.m_plus``,
``quasispec.m_plus``, ...), so calls between layers go through one
wrapper per function; ``restore`` puts the originals back.  A wrapper
records a span -- name, start, end, parent -- plus work counts taken
from the call's arguments and return value.  Spans stay in memory until
``dump``.  Nothing under ``src/`` changes, and an untraced run installs
nothing.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict


def _m_depth(args, result):
    return {"depth_sites": result[2]}


def _profile_work(args, result):
    ks = list(args["k_list"])
    kept = max((row.k for row in result.rows), default=0)
    return {"ladder_steps": 2 * max(ks), "kept_k": kept, "requested_k": max(ks)}


def _cli_bytes(args, result):
    argv = list(args["argv"] or [])
    if "--out" not in argv:
        return {"bytes_written": 0}
    out = argv[argv.index("--out") + 1]
    paths = (out, out + ".manifest.json", out + ".gp")
    return {"bytes_written": sum(os.path.getsize(p) for p in paths if os.path.isfile(p))}


#: (module, function, work unit, work counter(bound args, result) -> {counter: n}).
#: A unit of None means the function reports calls and self time only.
TARGETS = [
    ("weyl", "m_plus", "depth_sites", _m_depth),
    ("weyl", "m_minus", "depth_sites", _m_depth),
    ("weyl", "m_triple", "calls", None),
    ("subordinacy", "profile", "ladder_steps", _profile_work),
    ("subordinacy", "p_matrix", "site_steps", lambda a, r: {"site_steps": 2 * a["k"]}),
    ("subordinacy", "det_via_beta_scan", "site_steps",
     lambda a, r: {"site_steps": 2 * a["k"] * a["grid"]}),
    ("cocycle", "solution_norm_sq_batch", "site_steps",
     lambda a, r: {"site_steps": a["L"] * len(a["u0"])}),
    ("spectral", "sturm_counts", "site_energies",
     lambda a, r: {"site_energies": len(a["diag"]) * len(r)}),
    ("spectral", "refine_gap_edge", None, None),
    ("spectral", "ids", None, None),
    ("spectral", "in_spectrum", None, None),
    ("spectral", "holder_fit", None, None),
    ("spectral", "gap_edges", None, None),
    ("spectral", "thouless_check", None, None),
    ("cocycle", "lyapunov", "site_steps", lambda a, r: {"site_steps": a["n"] * a["x_grid"]}),
    ("conjugation", "perturbed_schrodinger", None, None),
    ("conjugation", "schrodinger_reduction", "iterations",
     lambda a, r: {"iterations": r.iterations}),
    ("conjugation", "tx_bruteforce", "iterations", lambda a, r: {"iterations": a["tc"].k}),
    ("conjugation", "tx_closed_form", "iterations", lambda a, r: {"iterations": a["tc"].k}),
    ("cli", "main", "bytes_written", _cli_bytes),
    ("arithmetic", "resolve_alpha", "calls", None),
]

#: functions whose wrapper asks for full_output, to read the depth reached
FULL_OUTPUT = {"m_plus", "m_minus"}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, work dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, work):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        force_full = fn.__name__ in FULL_OUTPUT

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            wants_full = force_full and bound.arguments["full_output"]
            if force_full:
                bound.arguments["full_output"] = True
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if work is not None:
                spans[idx][4] = work(bound.arguments, result)
            if force_full and not wants_full:
                return result[0]
            return result

        return wrapper

    def install(self):
        pkg = sys.modules["quasispec"]
        modules = [pkg] + [m for n, m in sys.modules.items() if n.startswith("quasispec.")]
        for mod_name, fn_name, _, work in TARGETS:
            fn = getattr(sys.modules["quasispec." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, work)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, traced_wall: float, overhead: float) -> dict[str, dict]:
        """Per-layer metrics over every span recorded so far, as
        {name: {"value": v, "unit": u}}; ``overhead`` is the tracing cost
        measured by the caller, as a share of untraced wall time."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        work = defaultdict(lambda: defaultdict(float))
        deepest = defaultdict(int)  # profile span -> deepest m_plus child
        depth_sum = defaultdict(int)  # profile span -> total m_plus depth
        for i, (name, _, _, parent, w) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += selfs[i]
            for key, val in (w or {}).items():
                work[name][key] += val
            if w and name == "weyl.m_plus" and parent >= 0 \
                    and self.spans[parent][0] == "subordinacy.profile":
                deepest[parent] = max(deepest[parent], w["depth_sites"])
                depth_sum[parent] += w["depth_sites"]

        out = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for mod, fn, unit, _ in TARGETS:
            name = f"{mod}.{fn}"
            put(name + ".calls", calls[name], "count")
            put(name + ".self_s", self_s[name], "s")
            if unit is None:
                continue
            count = calls[name] if unit == "calls" else work[name][unit]
            if unit != "calls":
                put(f"{name}.{unit}", count, "count")
            put(f"{name}.ns_per_{unit}", 1e9 * self_s[name] / count if count else 0.0, "ns")
        prof = work["subordinacy.profile"]
        put("subordinacy.profile.kept_step_frac",
            prof["kept_k"] / prof["requested_k"] if prof["requested_k"] else 0.0, "frac")
        put("weyl.m_plus.depth_sites_per_deepest",
            sum(depth_sum.values()) / sum(deepest.values()) if deepest else 0.0, "ratio")
        put("trace.wall_s", traced_wall, "s")
        put("trace.self_cover_frac", sum(selfs) / traced_wall if traced_wall else 0.0, "frac")
        put("trace.overhead_frac", overhead, "frac")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)
