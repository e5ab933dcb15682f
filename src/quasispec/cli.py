"""quasispec command line: reproducible spectral experiments with CSV/JSON
outputs and run manifests.

Every run with --out writes the data file plus <out>.manifest.json
echoing all resolved parameters, the tool version and the precision
mode.  Data files are byte-identical across repeated runs with the same
config on one platform (fixed reduction orders, no wall clock in data);
manifest timestamps are excluded from that contract.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence
(partial output plus a failure record in the manifest).

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
    if isinstance(x, float):
        return repr(float(x))
    if isinstance(x, (np.integer,)):
        return str(int(x))
    return str(x)


def write_rows(path, header, rows, fmt="csv"):
    """Serialize rows deterministically; '-' writes CSV to stdout."""
    if fmt == "json":
        def conv(x):
            if isinstance(x, float):
                return float(x)
            if isinstance(x, (np.integer,)):
                return int(x)
            return x
        payload = [{k: conv(x) for k, x in zip(header, r)} for r in rows]
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in r) for r in rows]
        text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_manifest(path, command, params, status="ok", error=None):
    if path is None or path == "-":
        return
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "precision_mode": os.environ.get("QUASISPEC_PRECISION", "extended"),
        "status": status,
        "created_unix": time.time(),  # excluded from the determinism contract
    }
    if error is not None:
        manifest["error"] = error
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_gnuplot_stub(path, header, xi=0, yi=1, logscale=False):
    if path is None or path == "-":
        return
    lines = [
        "set datafile separator ','",
        f"set xlabel '{header[xi]}'",
        f"set ylabel '{header[yi]}'",
    ]
    if logscale:
        lines.append("set logscale xy")
    lines.append(f"plot '{path}' every ::1 using {xi + 1}:{yi + 1} with linespoints")
    with open(str(path) + ".gp", "w") as fh:
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
        return np.array([args.e])
    if args.e_min is None or args.e_max is None:
        raise ValueError("need --e or both --e-min/--e-max")
    if args.e_points < 1:
        raise ValueError("--e-points must be >= 1")
    return np.linspace(args.e_min, args.e_max, args.e_points)


def _add_common(p, potential=True, energy=True):
    p.add_argument("--alpha", default="golden",
                   help="frequency: preset (golden/silver), decimal string, or cf:a1,a2,...")
    p.add_argument("--theta", type=float, default=0.0, help="phase")
    p.add_argument("--tol", type=float, default=1e-8, help="m-function tolerance")
    p.add_argument("--out", default=None, help="output path ('-' = stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--gnuplot-stub", action="store_true",
                   help="emit a ready-to-run gnuplot script next to the data file")
    p.add_argument("--depth-cap", type=int, default=10**7,
                   help="m-function recursion depth cap")
    if potential:
        p.add_argument("--potential", choices=["amo", "trigpoly", "zero"], default="amo")
        p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                       help="AMO coupling (potential 2*lambda*cos)")
        p.add_argument("--coeffs", default=None, help="trigpoly modes 'k:re:im,...'")
    if energy:
        p.add_argument("--e", type=float, default=None, help="single energy")
        p.add_argument("--e-min", type=float, default=None)
        p.add_argument("--e-max", type=float, default=None)
        p.add_argument("--e-points", type=int, default=101)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasispec",
        description="spectral diagnostics of one-frequency quasiperiodic Schrodinger operators")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resonances", help="eps0-resonances of a phase")
    _add_common(p, potential=False, energy=False)
    p.add_argument("--eps0", type=float, default=1.0)
    p.add_argument("--k-max", type=int, default=200, help="scan limit K")
    p.add_argument("--cf-depth", type=int, default=40)

    p = sub.add_parser("lyapunov", help="finite-n Lyapunov exponent over an energy grid")
    _add_common(p)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--x-grid", type=int, default=32)
    p.add_argument("--grid", choices=["orbit", "uniform"], default="orbit")

    p = sub.add_parser(
        "mfunction", help="m-functions and M on an eps ladder",
        description="columns: eps, re_m_plus, im_m_plus, re_M, im_M "
                    "(Borel transform of the corner measure), est_error, depth")
    _add_common(p)
    p.add_argument("--eps-min", type=float, default=1e-4)
    p.add_argument("--eps-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--allow-deep", action="store_true",
                   help="permit eps below 1e-6 (depth grows like 1/eps)")

    p = sub.add_parser(
        "subordinacy", help="P_(k) ladder with JL ratios",
        description="columns: k, norm_P, det_P, eps_k = (4 det)^-1/2, "
                    "psi_mplus = psi(m+(E+i eps_k)), "
                    "ratio_jl = psi/(2 eps_k norm_P), "
                    "ratio_blabl = norm_P / ||P^-1||^-3")
    _add_common(p)
    p.add_argument("--k-max", type=int, default=1000)
    p.add_argument("--eps-floor", type=float, default=0.0,
                   help="stop the ladder at the first row whose eps_k falls "
                        "below this (eps_k never grows with k)")
    p.add_argument("--slack", type=float, default=0.05,
                   help="numerical slack on the closed brackets")

    p = sub.add_parser(
        "holder", help="window-proxy scaling fit on an eps ladder",
        description="columns: E, eps, w = 2 eps Im M(E+i eps) (upper proxy "
                    "for the corner-measure window), im_M; the fitted "
                    "log-log slope lands in the manifest")
    _add_common(p)
    p.add_argument("--eps-min", type=float, default=1e-4)
    p.add_argument("--eps-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--allow-deep", action="store_true",
                   help="permit eps below 1e-6 (depth grows like 1/eps)")

    p = sub.add_parser(
        "ids", help="integrated density of states",
        description="columns: E, N (phase-averaged spectral distribution)")
    _add_common(p)
    p.add_argument("--method", choices=["finite-box", "phase-average"], default="finite-box")
    p.add_argument("--size", type=int, default=3000)
    p.add_argument("--phases", type=int, default=64)

    p = sub.add_parser("thouless", help="Thouless-formula residual on an energy grid")
    _add_common(p)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--x-grid", type=int, default=32)
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--table-span", type=float, default=2.0,
                   help="margin added around the spectrum for the IDS table")
    p.add_argument("--table-points", type=int, default=4001)

    p = sub.add_parser(
        "gaps", help="gap edges from IDS plateaus",
        description="columns: E_left, E_right, N_plateau (the gap label "
                    "N sits on k*alpha mod 1)")
    _add_common(p)
    p.add_argument("--size", type=int, default=4000)
    p.add_argument("--plateau-tol", type=float, default=None)

    p = sub.add_parser("tx-oracle", help="triangular cocycle closed form vs brute force")
    _add_common(p, potential=False, energy=False)
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--t-hat", default="0.7", help="complex 're' or 're:im'")
    p.add_argument("--x", type=float, default=0.0)

    p = sub.add_parser("reduce", help="Schrodinger-form reduction of a perturbed cocycle")
    _add_common(p, potential=True, energy=False)
    p.add_argument("--band", type=float, default=0.05)
    p.add_argument("--w-norm", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=12)
    p.add_argument("--reduce-tol", type=float, default=1e-12)
    return ap


def _params_dict(args):
    skip = {"command", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def run(args) -> int:
    """Dispatch one parsed command; returns the process exit status."""
    cmd = args.command
    params = _params_dict(args)
    try:
        _check_finite(args)
        freq = resolve_alpha(args.alpha, getattr(args, "cf_depth", 40))
        alpha = freq.alpha

        if cmd == "resonances":
            rs = resonances(freq, args.theta, args.eps0, args.k_max)
            pairs = {j: (nabs, gap) for j, nabs, gap in resonance_repulsion_check(rs, freq)}
            header = ["j", "n_j", "torus_dist_2theta_minus_nj_alpha", "decay_bound", "next_abs"]
            rows = []
            for j, k in enumerate(rs.indices):
                nabs = pairs[j][0] if j in pairs else 0
                rows.append([j, k, resonance_distance(freq, args.theta, k),
                             math.exp(-abs(k) * args.eps0), nabs])
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)

        elif cmd == "lyapunov":
            v = _potential_from_args(args)
            grid = _energy_grid(args)
            header = ["E", "lyapunov"]

            rows = [[float(E), lyapunov(float(E), v, alpha, args.n, args.x_grid, grid=args.grid)]
                    for E in grid]
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)
            if args.gnuplot_stub:
                write_gnuplot_stub(args.out, header)

        elif cmd == "mfunction":
            v = _potential_from_args(args)
            if args.e is None:
                raise ValueError("mfunction needs --e")
            if args.points < 1:
                raise ValueError("--points must be >= 1")
            _check_eps_floor(args)
            eps = np.geomspace(args.eps_min, args.eps_max, args.points)
            header = ["eps", "re_m_plus", "im_m_plus", "re_M", "im_M", "est_error", "depth"]
            triples = _m_triples([complex(args.e, e) for e in eps], v, alpha, args.theta,
                                 args.tol, args.depth_cap)
            rows = [[float(e), t.m_plus.real, t.m_plus.imag, t.M.real, t.M.imag,
                     t.est_error, t.truncation_depth] for e, t in zip(eps, triples)]
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)
            if args.gnuplot_stub:
                write_gnuplot_stub(args.out, header, 0, 4, logscale=True)

        elif cmd == "subordinacy":
            v = _potential_from_args(args)
            if args.e is None:
                raise ValueError("subordinacy needs --e")
            prof = profile(args.e, v, alpha, args.theta, default_k_list(args.k_max),
                           args.tol, args.eps_floor, args.depth_cap)
            header = prof.CSV_HEADER.split(",")
            write_rows(args.out, header, list(prof.csv_rows()), args.format)
            write_manifest(args.out, cmd, params)
            if args.gnuplot_stub:
                write_gnuplot_stub(args.out, header, 0, 5, logscale=True)

        elif cmd == "holder":
            v = _potential_from_args(args)
            if args.e is None:
                raise ValueError("holder needs --e")
            _check_eps_floor(args)
            fit = holder_fit(args.e, v, alpha, args.theta, (args.eps_min, args.eps_max),
                             args.points, args.tol, depth_cap=args.depth_cap)
            header = fit.CSV_HEADER.split(",")
            write_rows(args.out, header, list(fit.csv_rows()), args.format)
            params["fitted_slope"] = fit.slope
            params["fit_residual"] = fit.residual
            write_manifest(args.out, cmd, params)
            if args.gnuplot_stub:
                write_gnuplot_stub(args.out, header, 1, 2, logscale=True)

        elif cmd == "ids":
            v = _potential_from_args(args)
            grid = _energy_grid(args)
            method = args.method.replace("-", "_")
            table = ids(v, alpha, grid, method, args.size, args.theta, args.phases)
            header = ["E", "N"]
            rows = [[float(a), float(b)] for a, b in zip(table.energies, table.N_values)]
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)
            if args.gnuplot_stub:
                write_gnuplot_stub(args.out, header)

        elif cmd == "thouless":
            v = _potential_from_args(args)
            grid = _energy_grid(args)
            if args.table_points < 2:
                raise ValueError("--table-points must be >= 2 (the IDS table "
                                 "needs at least one cell)")
            bound = 2.0 + v.sup_bound() + args.table_span
            table = ids(v, alpha, np.linspace(-bound, bound, args.table_points),
                        "finite_box", args.size, args.theta)
            header = ["E", "lyapunov", "thouless_integral", "residual"]
            rows = []
            for E in grid:
                L = lyapunov(float(E), v, alpha, args.n, args.x_grid)
                rec = thouless_check(float(E), v, alpha, table, L)
                rows.append([float(E), L, rec.integral, rec.residual])
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)

        elif cmd == "gaps":
            v = _potential_from_args(args)
            grid = _energy_grid(args)
            if len(grid) < 2:
                raise ValueError("gaps needs --e-min/--e-max with --e-points >= 2")
            table = ids(v, alpha, grid, "finite_box", args.size, args.theta)
            recs = gap_edges(table, args.plateau_tol)
            header = ["E_left", "E_right", "N_plateau"]
            rows = [[r.e_left, r.e_right, r.n_plateau] for r in recs]
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)

        elif cmd == "tx-oracle":
            parts = args.t_hat.split(":")
            t_hat = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
            tc = TriangularCocycle(theta=args.theta, alpha=alpha, r=args.r,
                                   t_hat=t_hat, k=args.k)
            a = tx_closed_form(tc, args.x)
            b = tx_bruteforce(tc, args.x)
            scale = max(1.0, abs(b.detX))
            header = ["k", "normX_closed", "normX_brute", "detX_closed", "detX_brute",
                      "rel_error"]
            rel = max(abs(a.normX - b.normX) / max(b.normX, 1.0),
                      abs(a.detX - b.detX) / scale, abs(a.x1 - b.x1) / scale)
            rows = [[args.k, a.normX, b.normX, a.detX, b.detX, rel]]
            write_rows(args.out, header, rows, args.format)
            write_manifest(args.out, cmd, params)

        elif cmd == "reduce":
            v = _potential_from_args(args)
            rng = np.random.default_rng(args.seed)

            def rand_entry():
                co = {0: complex(rng.standard_normal(), 0.0)}
                for k in range(1, 4):
                    c = complex(rng.standard_normal(), rng.standard_normal())
                    co[k], co[-k] = c, c.conjugate()
                f = BandFunction(co, args.band)
                nrm = f.norm()
                return BandFunction({k: args.w_norm * c / nrm for k, c in co.items()},
                                    args.band)

            A = perturbed_schrodinger(v, (rand_entry(), rand_entry(), rand_entry()),
                                      args.band)
            res = schrodinger_reduction(A, v, alpha, args.band, args.max_iter,
                                        args.reduce_tol)
            header = ["iteration", "w_norm", "contraction_ratio"]
            rows = [[i, wn, res.contraction_ratios[i] if i < len(res.contraction_ratios)
                     else float("nan")] for i, wn in enumerate(res.w_norms)]
            write_rows(args.out, header, rows, args.format)
            params["residual"] = res.residual
            params["iterations"] = res.iterations
            write_manifest(args.out, cmd, params)

        else:  # pragma: no cover
            raise SystemExit(f"unknown command {cmd}")
        return EXIT_OK

    except (NoConvergence, NotContracting, OverflowError) as exc:
        write_manifest(getattr(args, "out", None), cmd, params, status="error",
                       error={"code": type(exc).__name__, "message": str(exc)})
        print(f"quasispec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (RationalDetected, ValueError) as exc:
        print(f"quasispec: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
