"""quasispec command line: reproducible spectral experiments with CSV/JSON
outputs and run manifests.

Every subcommand is one entry of ``COMMANDS``: its row generator, its
columns, its own flags and the shared inputs it reads.  ``build_parser``
gives the subcommand being run only the flags it reads (and the others
none), and ``run`` is the one writer: with --out it writes the data file
plus <out>.manifest.json echoing all resolved parameters, the tool
version and the precision mode.  Data files are byte-identical across
repeated runs with the same config on one platform (fixed reduction
orders, no wall clock in data); manifest timestamps are excluded from
that contract.

Exit codes: 0 success, 2 validation error (nothing written), 3 numerical
non-convergence (the rows completed before the failure, at least the
header, plus a failure record in the manifest).

Per-vector spectral measures mu^{e_k} are never computed independently:
they are bounded through the shift identity mu^{e_k}_x = mu^{e_0}_{x+k
alpha}, which is how the `holder` and window outputs should be read for
f other than e_0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .arithmetic import (
    RationalDetected,
    resolve_alpha,
    resonance_distance,
    resonance_repulsion_check,
    resonances,
)
from .cocycle import Potential, lyapunov
from .conjugation import (
    BandFunction,
    NotContracting,
    TriangularCocycle,
    perturbed_schrodinger,
    schrodinger_reduction,
    tx_bruteforce,
    tx_closed_form,
)
from .spectral import gap_edges, holder_fit, ids, thouless_check
from .subordinacy import default_k_list, profile
from .weyl import NoConvergence, _m_triples

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write(args, cmd, rows, params, error=None):
    """The one writer: the data file (stdout for no --out or '-', and
    nothing else), then the manifest, and on success the gnuplot stub
    when asked for.  ``error`` is the failure record of an exit 3."""
    header = cmd.columns.split(",")
    if args.format == "json":
        payload = [dict(zip(header, r)) for r in rows]
        text = json.dumps(payload, indent=1, sort_keys=True, default=int) + "\n"
    else:
        text = "\n".join([",".join(header)] + [",".join(map(_fmt, r)) for r in rows]) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    with open(args.out, "w") as fh:
        fh.write(text)
    manifest = {
        "command": args.command,
        "params": params,
        "version": __version__,
        "precision_mode": os.environ.get("QUASISPEC_PRECISION", "extended"),
        "status": "ok" if error is None else "error",
        "created_unix": time.time(),  # excluded from the determinism contract
    }
    if error is not None:
        manifest["error"] = error
    with open(args.out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if error is None and getattr(args, "gnuplot_stub", False):
        xi, yi, logscale = cmd.plot
        lines = [
            "set datafile separator ','",
            f"set xlabel '{header[xi]}'",
            f"set ylabel '{header[yi]}'",
        ]
        if logscale:
            lines.append("set logscale xy")
        lines.append(f"plot '{args.out}' every ::1 using {xi + 1}:{yi + 1} with linespoints")
        with open(args.out + ".gp", "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _potential_from_args(args) -> Potential:
    if args.potential == "amo":
        return Potential.amo(args.lam)
    if args.potential == "zero":
        return Potential.zero()
    coeffs = {}
    if not args.coeffs:
        raise ValueError("trigpoly potential needs --coeffs 'k:re:im,...'")
    for item in args.coeffs.split(","):
        k, re, im = item.split(":")
        coeffs[int(k)] = complex(float(re), float(im))
    return Potential.trig(coeffs)


def _check_eps_floor(args):
    if min(args.eps_min, args.eps_max) < 1e-6 and not args.allow_deep:
        raise ValueError("eps below 1e-6 needs --allow-deep "
                         "(recursion depth grows like 1/eps)")


def _check_finite(args):
    """Every float the command reads, flags and the parts of --coeffs and
    --t-hat, must be finite."""
    values = [(name, v) for name, v in vars(args).items() if isinstance(v, float)]
    for name in ("coeffs", "t_hat"):
        text = getattr(args, name, None) or ""
        values += [(name, float(part)) for item in text.split(",") if item
                   for part in item.split(":")]
    for name, value in values:
        if not math.isfinite(value):
            flag = "lambda" if name == "lam" else name.replace("_", "-")
            raise ValueError(f"--{flag} must be finite, got {value}")


def _energy_grid(args) -> np.ndarray:
    if args.e is not None:
        if args.e_min is not None or args.e_max is not None:
            raise ValueError("--e excludes --e-min/--e-max")
        return np.array([args.e])
    if args.e_min is None or args.e_max is None:
        raise ValueError("need --e or both --e-min/--e-max")
    if args.e_points < 1:
        raise ValueError("--e-points must be >= 1")
    if args.e_points >= 2 and args.e_min >= args.e_max:
        raise ValueError(f"an energy grid needs --e-min < --e-max, got "
                         f"{args.e_min} and {args.e_max}")
    return np.linspace(args.e_min, args.e_max, args.e_points)


def _resonances(args, freq, v, params):
    rs = resonances(freq, args.theta, args.eps0, args.k_max)
    nabs = {j: n for j, n, _ in resonance_repulsion_check(rs, freq)}
    for j, k in enumerate(rs.indices):
        yield [j, k, resonance_distance(freq, args.theta, k),
               math.exp(-abs(k) * args.eps0), nabs.get(j, 0)]


def _lyapunov(args, freq, v, params):
    for E in _energy_grid(args):
        yield [float(E), lyapunov(float(E), v, freq.alpha, args.n, args.x_grid,
                                  args.theta, args.grid)]


def _mfunction(args, freq, v, params):
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    _check_eps_floor(args)
    eps = np.geomspace(args.eps_min, args.eps_max, args.points)
    triples = _m_triples([complex(args.e, e) for e in eps], v, freq.alpha, args.theta,
                         args.tol, args.depth_cap)
    return [[float(e), t.m_plus.real, t.m_plus.imag, t.M.real, t.M.imag,
             t.est_error, t.truncation_depth] for e, t in zip(eps, triples)]


def _subordinacy(args, freq, v, params):
    prof = profile(args.e, v, freq.alpha, args.theta, default_k_list(args.k_max),
                   args.tol, args.eps_floor, args.depth_cap)
    return [[r.k, r.norm_P, r.det_P, r.eps_k, r.psi_mplus, r.ratio_jl, r.ratio_blabl]
            for r in prof.rows]


def _holder(args, freq, v, params):
    _check_eps_floor(args)
    fit = holder_fit(args.e, v, freq.alpha, args.theta, (args.eps_min, args.eps_max),
                     args.points, args.tol, depth_cap=args.depth_cap)
    params["fitted_slope"] = fit.slope
    params["fit_residual"] = fit.residual
    return [[fit.E, e, w, im] for e, w, im in zip(fit.eps, fit.w, fit.im_M)]


def _ids(args, freq, v, params):
    table = ids(v, freq.alpha, _energy_grid(args), "finite_box", args.size, args.theta)
    return [[float(a), float(b)] for a, b in zip(table.energies, table.N_values)]


def _thouless(args, freq, v, params):
    grid = _energy_grid(args)
    if args.table_points < 2:
        raise ValueError("--table-points must be >= 2 (the IDS table "
                         "needs at least one cell)")
    bound = 2.0 + v.sup_bound() + args.table_span
    table = ids(v, freq.alpha, np.linspace(-bound, bound, args.table_points),
                "finite_box", args.size, args.theta)
    for E in grid:
        L = lyapunov(float(E), v, freq.alpha, args.n, args.x_grid, args.theta)
        rec = thouless_check(float(E), v, freq.alpha, table, L)
        yield [float(E), L, rec.integral, rec.residual]


def _gaps(args, freq, v, params):
    grid = _energy_grid(args)
    if len(grid) < 2:
        raise ValueError("gaps needs --e-min/--e-max with --e-points >= 2")
    table = ids(v, freq.alpha, grid, "finite_box", args.size, args.theta)
    return [[r.e_left, r.e_right, r.n_plateau] for r in gap_edges(table, args.plateau_tol)]


def _tx_oracle(args, freq, v, params):
    parts = args.t_hat.split(":")
    t_hat = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
    tc = TriangularCocycle(theta=args.theta, alpha=freq.alpha, r=args.r,
                           t_hat=t_hat, k=args.k)
    a = tx_closed_form(tc, args.x)
    b = tx_bruteforce(tc, args.x)
    scale = max(1.0, abs(b.detX))
    rel = max(abs(a.normX - b.normX) / max(b.normX, 1.0),
              abs(a.detX - b.detX) / scale, abs(a.x1 - b.x1) / scale)
    return [[args.k, a.normX, b.normX, a.detX, b.detX, rel]]


def _reduce(args, freq, v, params):
    rng = np.random.default_rng(args.seed)

    def rand_entry():
        co = {0: complex(rng.standard_normal(), 0.0)}
        for k in range(1, 4):
            c = complex(rng.standard_normal(), rng.standard_normal())
            co[k], co[-k] = c, c.conjugate()
        nrm = BandFunction(co, args.band).norm()
        return BandFunction({k: args.w_norm * c / nrm for k, c in co.items()}, args.band)

    A = perturbed_schrodinger(v, (rand_entry(), rand_entry(), rand_entry()), args.band)
    res = schrodinger_reduction(A, v, freq.alpha, args.band, args.max_iter, args.reduce_tol)
    params["residual"] = res.residual
    params["iterations"] = res.iterations
    ratios = res.contraction_ratios
    return [[i, wn, ratios[i] if i < len(ratios) else float("nan")]
            for i, wn in enumerate(res.w_norms)]


def _arg(*names, **kwargs):
    """One argparse flag, as (names, keyword arguments)."""
    return names, kwargs


#: flags of every subcommand
COMMON = (
    _arg("--alpha", default="golden",
         help="frequency: preset (golden/silver), decimal string, or cf:a1,a2,..."),
    _arg("--out", default=None, help="output path ('-' = stdout)"),
    _arg("--format", choices=["csv", "json"], default="csv"),
)

#: the shared flag groups, named in ``Command.reads``; "e" (one energy,
#: required) and "grid" (one energy or a linspace) exclude each other
SHARED = {
    "theta": (_arg("--theta", type=float, default=0.0, help="phase"),),
    "potential": (
        _arg("--potential", choices=["amo", "trigpoly", "zero"], default="amo"),
        _arg("--lambda", dest="lam", type=float, default=0.5,
             help="AMO coupling (potential 2*lambda*cos)"),
        _arg("--coeffs", default=None, help="trigpoly modes 'k:re:im,...'"),
    ),
    "e": (_arg("--e", type=float, required=True, help="energy"),),
    "grid": (
        _arg("--e", type=float, default=None, help="single energy"),
        _arg("--e-min", type=float, default=None),
        _arg("--e-max", type=float, default=None),
        _arg("--e-points", type=int, default=101),
    ),
    "mfun": (
        _arg("--tol", type=float, default=1e-8, help="m-function tolerance"),
        _arg("--depth-cap", type=int, default=10**7, help="m-function recursion depth cap"),
    ),
}

EPS_LADDER = (
    _arg("--eps-min", type=float, default=1e-4),
    _arg("--eps-max", type=float, default=1e-1),
    _arg("--points", type=int, default=16),
    _arg("--allow-deep", action="store_true",
         help="permit eps below 1e-6 (depth grows like 1/eps)"),
)


@dataclass(frozen=True)
class Command:
    """One subcommand.  ``rows(args, freq, v, params)`` returns or yields
    the data rows in the order of ``columns`` (``v`` is None unless it
    reads the potential) and may add fields to the manifest ``params``.
    ``plot`` is the (x column, y column, log scale) of its gnuplot stub;
    only a subcommand with one takes --gnuplot-stub."""

    help: str
    columns: str
    rows: Callable
    reads: tuple = ()
    flags: tuple = ()
    plot: tuple | None = None
    notes: str = ""


COMMANDS = {
    "resonances": Command(
        "eps0-resonances of a phase",
        "j,n_j,torus_dist_2theta_minus_nj_alpha,decay_bound,next_abs", _resonances,
        ("theta",),
        (_arg("--eps0", type=float, default=1.0),
         _arg("--k-max", type=int, default=200, help="scan limit K"),
         _arg("--cf-depth", type=int, default=40))),
    "lyapunov": Command(
        "finite-n Lyapunov exponent over an energy grid", "E,lyapunov", _lyapunov,
        ("theta", "potential", "grid"),
        (_arg("--n", type=int, default=10000),
         _arg("--x-grid", type=int, default=32),
         _arg("--grid", choices=["orbit", "uniform"], default="orbit")),
        plot=(0, 1, False),
        notes="the phase grid starts at --theta"),
    "mfunction": Command(
        "m-functions and M on an eps ladder",
        "eps,re_m_plus,im_m_plus,re_M,im_M,est_error,depth", _mfunction,
        ("theta", "potential", "e", "mfun"), EPS_LADDER, plot=(0, 4, True),
        notes="M is the Borel transform of the corner measure"),
    "subordinacy": Command(
        "P_(k) ladder with JL ratios",
        "k,norm_P,det_P,eps_k,psi_mplus,ratio_jl,ratio_blabl", _subordinacy,
        ("theta", "potential", "e", "mfun"),
        (_arg("--k-max", type=int, default=1000),
         _arg("--eps-floor", type=float, default=0.0,
              help="stop the ladder at the first row whose eps_k falls "
                   "below this (eps_k never grows with k)")),
        plot=(0, 5, True),
        notes="eps_k = (4 det)^-1/2, psi_mplus = psi(m+(E+i eps_k)), "
              "ratio_jl = psi/(2 eps_k norm_P), ratio_blabl = norm_P / ||P^-1||^-3"),
    "holder": Command(
        "window-proxy scaling fit on an eps ladder", "E,eps,w,im_M", _holder,
        ("theta", "potential", "e", "mfun"), EPS_LADDER, plot=(1, 2, True),
        notes="w = 2 eps Im M(E+i eps) is an upper proxy for the corner-measure "
              "window; the fitted log-log slope lands in the manifest"),
    "ids": Command(
        "integrated density of states", "E,N", _ids,
        ("theta", "potential", "grid"),
        (_arg("--size", type=int, default=3000),),
        plot=(0, 1, False),
        notes="N is the eigenvalue count per site of the --size box at --theta"),
    "thouless": Command(
        "Thouless-formula residual on an energy grid",
        "E,lyapunov,thouless_integral,residual", _thouless,
        ("theta", "potential", "grid"),
        (_arg("--n", type=int, default=20000),
         _arg("--x-grid", type=int, default=32),
         _arg("--size", type=int, default=5000),
         _arg("--table-span", type=float, default=2.0,
              help="margin added around the spectrum for the IDS table"),
         _arg("--table-points", type=int, default=4001))),
    "gaps": Command(
        "gap edges from IDS plateaus", "E_left,E_right,N_plateau", _gaps,
        ("theta", "potential", "grid"),
        (_arg("--size", type=int, default=4000),
         _arg("--plateau-tol", type=float, default=None)),
        notes="the gap label N sits on k*alpha mod 1"),
    "tx-oracle": Command(
        "triangular cocycle closed form vs brute force",
        "k,normX_closed,normX_brute,detX_closed,detX_brute,rel_error", _tx_oracle,
        ("theta",),
        (_arg("--k", type=int, default=200),
         _arg("--r", type=int, default=3),
         _arg("--t-hat", default="0.7", help="complex 're' or 're:im'"),
         _arg("--x", type=float, default=0.0))),
    "reduce": Command(
        "Schrodinger-form reduction of a perturbed cocycle",
        "iteration,w_norm,contraction_ratio", _reduce,
        ("potential",),
        (_arg("--band", type=float, default=0.05),
         _arg("--w-norm", type=float, default=1e-3),
         _arg("--seed", type=int, default=0),
         _arg("--max-iter", type=int, default=12),
         _arg("--reduce-tol", type=float, default=1e-12))),
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of every subcommand, with flags for ``command`` only (for
    none if it names no subcommand): a run builds no flag it cannot read,
    and the other subcommands, registered bare, still show in the
    top-level help and usage errors."""
    ap = argparse.ArgumentParser(
        prog="quasispec",
        description="spectral diagnostics of one-frequency quasiperiodic Schrodinger operators")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, description="; ".join(
            filter(None, [f"columns: {cmd.columns}", cmd.notes])))
        flags = COMMON + sum((SHARED[group] for group in cmd.reads), ()) + cmd.flags
        if cmd.plot:
            flags += (_arg("--gnuplot-stub", action="store_true",
                           help="emit a ready-to-run gnuplot script next to the data file"),)
        for names, kwargs in flags if name == command else ():
            p.add_argument(*names, **kwargs)
    return ap


def run(args) -> int:
    """Run one parsed command and write its output; returns the exit
    status.  Exit 2 writes nothing.  Exit 3 writes the rows completed
    before the failure (the header alone when none were) and a manifest
    with status "error" and the failure record."""
    cmd = COMMANDS[args.command]
    params = {name: value for name, value in sorted(vars(args).items()) if name != "command"}
    rows = []
    try:
        _check_finite(args)
        if getattr(args, "gnuplot_stub", False) and args.format == "json":
            raise ValueError("--gnuplot-stub plots a CSV data file, not --format json")
        freq = resolve_alpha(args.alpha, getattr(args, "cf_depth", 40))
        v = _potential_from_args(args) if "potential" in cmd.reads else None
        for row in cmd.rows(args, freq, v, params):
            rows.append(row)
    except (NoConvergence, NotContracting, OverflowError) as exc:
        _write(args, cmd, rows, params, {"code": type(exc).__name__, "message": str(exc)})
        print(f"quasispec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RationalDetected, ValueError) as exc:
        print(f"quasispec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write(args, cmd, rows, params)
    return EXIT_OK


def main(argv=None) -> int:
    # the top-level parser takes no flag but -h, so the first word that
    # names a subcommand is the one argparse runs
    command = next((w for w in (sys.argv[1:] if argv is None else argv) if w in COMMANDS), "")
    return run(build_parser(command).parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
