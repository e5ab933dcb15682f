"""The three benchmark workloads as rounds of checked tasks.

A round is a fixed list of tasks built from one round of seeded inputs
(see ``inputs.Generator``).  Each task calls into quasispec and carries
the check its output must pass.  Every call goes through a module
attribute (``spectral.ids``, ``weyl.m_triple``, ...) looked up when the
task runs, so a traced run sees the same calls through its wrappers.

Why each workload was chosen, and which layer metrics each should move,
is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from quasispec import arithmetic, cli, cocycle, conjugation, spectral, subordinacy, weyl

JL_SLACK = 0.05
HOLDER_SLOPE = (0.45, 0.65)
THOULESS_TOL = 0.05
DET_REL_TOL = 1e-6
REDUCTION_RESIDUAL = 1e-9
TX_REL_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the acceptance-criterion sizes, except
    ``refine_size``, 50,000 sites rather than 200,000: an edge search then
    takes about 2 s, not 8 s, so about nine rounds fit in a run and their
    median is steady; the fitted slopes of all eight edges agree with the
    200,000-site ones to 0.01."""

    jl_k_max: int = 300000
    jl_eps_floor: float = 1e-5
    jl_energies: int = 5
    ids_points: int = 6401
    ids_size: int = 4000
    refine_size: int = 50000
    holder_eps: tuple = (1e-5, 1e-2)
    thouless_points: int = 7001
    thouless_size: int = 5000
    lyap_n: int = 20000
    lyap_phases: int = 16
    lyap_per_round: int = 4
    cli_ids_points: int = 6401
    cli_ids_size: int = 4000
    cli_k_max: int = 1000
    cli_eps_min: float = 1e-4
    oracle_per_round: int = 2
    oracle_ks: tuple = (1, 5, 20, 50)
    m_triple_per_round: int = 4
    membership_size: int = 20000
    reductions_per_round: int = 2


@dataclass(frozen=True)
class Context:
    """What the program needs before the first task: frequency and potentials."""

    alpha: float
    amo_half: Any
    amo_two: Any
    free: Any
    reduce_p: Any


def setup() -> Context:
    """The program's set-up: imports (done above), frequency, potentials."""
    Potential = cocycle.Potential
    return Context(
        alpha=arithmetic.resolve_alpha("golden", 40).alpha,
        amo_half=Potential.amo(0.5),
        amo_two=Potential.amo(2.0),
        free=Potential.zero(),
        reduce_p=Potential.trig({0: 3.0, 1: -0.5, -1: -0.5}),
    )


@dataclass
class Task:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class CliExit(RuntimeError):
    """The CLI returned a non-zero exit status."""


def _jl_bracket_ok(ratios) -> bool:
    lo, hi = subordinacy.JL_LOWER * (1 - JL_SLACK), subordinacy.JL_UPPER * (1 + JL_SLACK)
    return len(ratios) > 0 and all(lo < r < hi for r in ratios)


# ---------------------------------------------------------------------------
# jl_ladder


def jl_ladder(ctx: Context, inp: dict, sz: Sizes, tmp: Path, r: int) -> list[Task]:
    def task(E, theta):
        return Task(
            "profile",
            lambda: subordinacy.profile(E, ctx.amo_half, ctx.alpha, theta,
                                        subordinacy.default_k_list(sz.jl_k_max),
                                        tol=1e-7, eps_floor=sz.jl_eps_floor),
            lambda prof: _jl_bracket_ok([row.ratio_jl for row in prof.rows]),
        )

    return [task(E, theta) for E, theta in inp["profiles"]]


# ---------------------------------------------------------------------------
# ids_edges


def _gap_labels_ok(gaps, alpha: float, size: int) -> bool:
    """Gap labelling: each plateau sits at {k alpha} for a small |k|."""
    labels = [(k * alpha) % 1.0 for k in range(-12, 13)]
    return len(gaps) == 4 and all(
        min(abs(g.n_plateau - lab) for lab in labels) <= 3.0 / size for g in gaps)


def _ids_ok(table) -> bool:
    N = table.N_values
    return bool(np.all(np.diff(N) >= 0) and N[0] == 0.0 and N[-1] == 1.0)


def ids_edges(ctx: Context, inp: dict, sz: Sizes, tmp: Path, r: int) -> list[Task]:
    state: dict = {}

    def largest_gaps():
        table = spectral.ids(ctx.amo_half, ctx.alpha, np.linspace(-3.2, 3.2, sz.ids_points),
                             "finite_box", size=sz.ids_size)
        gaps = spectral.gap_edges(table)
        state["gaps"] = sorted(gaps, key=lambda g: g.e_right - g.e_left, reverse=True)[:4]
        return state["gaps"]

    def edge_fit():
        gap = state["gaps"][inp["gap_rank"]]
        edge = spectral.refine_gap_edge(ctx.amo_half, ctx.alpha, gap, inp["side"],
                                        half_width=5e-3, size=sz.refine_size)
        return spectral.holder_fit(edge, ctx.amo_half, ctx.alpha, 0.0, sz.holder_eps, 16,
                                   tol=1e-8)

    def tables():
        state["free"] = spectral.ids(ctx.free, ctx.alpha,
                                     np.linspace(-4.5, 4.5, sz.thouless_points),
                                     "finite_box", size=sz.thouless_size,
                                     theta=inp["table_theta"])
        state["amo2"] = spectral.ids(ctx.amo_two, ctx.alpha,
                                     np.linspace(-8.0, 8.0, sz.thouless_points),
                                     "finite_box", size=sz.thouless_size,
                                     theta=inp["table_theta"])
        return state["free"], state["amo2"]

    def thouless(which, E, x0):
        v = ctx.free if which == "free" else ctx.amo_two

        def call():
            L = cocycle.lyapunov(E, v, ctx.alpha, sz.lyap_n, sz.lyap_phases, x0=x0)
            return spectral.thouless_check(E, v, ctx.alpha, state[which], L)

        return Task("lyapunov_thouless", call, lambda rec: rec.residual < THOULESS_TOL)

    lo, hi = HOLDER_SLOPE
    return [
        Task("ids_gaps", largest_gaps, lambda g: _gap_labels_ok(g, ctx.alpha, sz.ids_size)),
        Task("gap_edge_holder", edge_fit, lambda fit: lo <= fit.slope <= hi),
        Task("thouless_tables", tables, lambda ts: all(_ids_ok(t) for t in ts)),
    ] + [thouless(*args) for args in inp["lyapunov"]]


# ---------------------------------------------------------------------------
# short_mix


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_manifest(path: Path) -> dict:
    with open(str(path) + ".manifest.json") as fh:
        return json.load(fh)


def _cli_task(name: str, argv: list[str], out: Path, check) -> Task:
    def call():
        try:
            rc = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        if rc != 0:
            raise CliExit(f"quasispec {argv[0]} exited {rc}")
        return out

    return Task("cli_" + name, call, check)


def _cli_tasks(inp: dict, sz: Sizes, tmp: Path, r: int) -> list[Task]:
    th = repr(inp["cli_theta"])
    k, rr, t_hat, tx_theta, tx_x = inp["tx"]
    amo = ["--potential", "amo", "--lambda", "0.5", "--alpha", "golden", "--theta", th]
    grid = ["--e-min", "-3.2", "--e-max", "3.2", "--e-points", str(sz.cli_ids_points),
            "--size", str(sz.cli_ids_size)]

    def rows_ok(pred):
        return lambda out: pred(_read_csv(out))

    def holder_ok(rows):
        return len(rows) == 16 and all(float(x["w"]) > 0 for x in rows)

    def ids_ok(rows):
        N = [float(x["N"]) for x in rows]
        return len(N) == sz.cli_ids_points and all(0 <= a <= b <= 1 for a, b in zip(N, N[1:]))

    def gaps_ok(rows):
        return len(rows) >= 4 and all(float(x["E_left"]) < float(x["E_right"]) for x in rows)

    def reduce_ok(out):
        m = _read_manifest(out)["params"]
        return m["residual"] < REDUCTION_RESIDUAL and m["iterations"] <= 4

    def lyap_ok(rows):  # Herman: L >= ln(lambda) for AMO at lambda = 2
        return len(rows) == 5 and all(float(x["lyapunov"]) > math.log(2.0) - 0.05 for x in rows)

    def mfun_ok(rows):
        return len(rows) == 6 and all(float(x["im_m_plus"]) > 0 and float(x["im_M"]) > 0
                                      for x in rows)

    specs = [
        ("holder", ["holder", *amo, "--e", "0.0", "--eps-min", repr(sz.cli_eps_min),
                    "--eps-max", "1e-1", "--points", "16"], rows_ok(holder_ok)),
        ("subordinacy", ["subordinacy", *amo, "--e", "0.0", "--k-max", str(sz.cli_k_max)],
         rows_ok(lambda rows: _jl_bracket_ok([float(x["ratio_jl"]) for x in rows]))),
        ("ids", ["ids", *amo, *grid], rows_ok(ids_ok)),
        ("gaps", ["gaps", *amo, *grid], rows_ok(gaps_ok)),
        ("tx_oracle", ["tx-oracle", "--k", str(k), f"--r={rr}",
                       f"--t-hat={t_hat.real!r}:{t_hat.imag!r}", "--theta", repr(tx_theta),
                       "--x", repr(tx_x), "--alpha", "golden"],
         rows_ok(lambda rows: float(rows[0]["rel_error"]) < TX_REL_TOL)),
        ("reduce", ["reduce", "--potential", "trigpoly", "--coeffs", "0:3:0,1:-0.5:0,-1:-0.5:0",
                    "--band", "0.05", "--w-norm", "1e-3", "--seed", str(inp["reduce_seed"])],
         reduce_ok),
        ("lyapunov", ["lyapunov", "--potential", "amo", "--lambda", "2.0", "--theta", th,
                      "--e-min", "-2", "--e-max", "2", "--e-points", "5", "--n", "2000",
                      "--x-grid", "8"], rows_ok(lyap_ok)),
        ("thouless", ["thouless", "--potential", "zero", "--theta", th, "--e", "2.5",
                      "--n", "2000", "--x-grid", "8", "--size", "2000",
                      "--table-points", "1001"],
         rows_ok(lambda rows: float(rows[0]["residual"]) < THOULESS_TOL)),
        ("mfunction", ["mfunction", *amo, "--e", "0.0", "--eps-min", "1e-3",
                       "--eps-max", "1e-1", "--points", "6"], rows_ok(mfun_ok)),
        ("resonances", ["resonances", "--alpha", "golden", "--theta", th, "--eps0", "1.0",
                        "--k-max", "100"], lambda out: out.is_file()),
    ]
    return [_cli_task(name, argv, tmp / f"{name}-{r}.csv", check) for name, argv, check in specs]


def short_mix(ctx: Context, inp: dict, sz: Sizes, tmp: Path, r: int) -> list[Task]:
    def det_pair(E, x, k):
        def call():
            d1 = subordinacy.p_matrix(E, ctx.amo_half, ctx.alpha, x, k).det
            d2 = subordinacy.det_via_beta_scan(E, ctx.amo_half, ctx.alpha, x, k)
            return abs(d1 - d2) / d1

        return Task("det_oracle", call, lambda rel: rel <= DET_REL_TOL)

    def herglotz(E, eps, theta):
        return Task("m_triple",
                    lambda: weyl.m_triple(complex(E, eps), ctx.amo_half, ctx.alpha, theta, 1e-8),
                    lambda t: t.m_plus.imag > 0 and t.m_minus.imag > 0 and t.M.imag > 0)

    def reduction(entries):
        def call():
            band = 0.05
            scaled = []
            for co in entries:
                nrm = conjugation.BandFunction(co, band).norm()
                scaled.append(conjugation.BandFunction({k: 1e-3 * c / nrm for k, c in co.items()},
                                                       band))
            A = conjugation.perturbed_schrodinger(ctx.reduce_p, scaled, band)
            return conjugation.schrodinger_reduction(A, ctx.reduce_p, ctx.alpha, band)

        return Task("reduction", call,
                    lambda res: res.residual < REDUCTION_RESIDUAL and res.iterations <= 4
                    and all(q < 1e3 for q in res.contraction_ratios if q > 0))

    E_in = inp["membership"]
    tasks = _cli_tasks(inp, sz, tmp, r)
    tasks += [det_pair(E, x, k) for E, x in inp["oracle"] for k in sz.oracle_ks]
    tasks += [herglotz(*args) for args in inp["m_triple"]]
    tasks.append(Task("in_spectrum",
                      lambda: spectral.in_spectrum(ctx.amo_half, ctx.alpha, E_in, 1e-2,
                                                   size=sz.membership_size),
                      lambda inside: inside is True))
    tasks += [reduction(entries) for entries in inp["reductions"]]
    return tasks


#: name -> round builder (ctx, round inputs, sizes, scratch dir, round index)
WORKLOADS = {"jl_ladder": jl_ladder, "ids_edges": ids_edges, "short_mix": short_mix}


def cycle(workload: str, sz: Sizes) -> int:
    """Rounds in one pass over a workload's fixed inputs: jl_ladder takes
    its ``jl_energies`` energies in turn, one a round; the others draw
    every round afresh."""
    return sz.jl_energies if workload == "jl_ladder" else 1
