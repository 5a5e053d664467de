"""Batch entry point: simulations and verification suites with report files.

Each subcommand takes only the options it reads (_SUBCOMMANDS), with its
own defaults; any other flag is a usage error.  Every subcommand takes
--seed, falling back to the GIGWALK_SEED environment variable.  `verify`
runs intertwine, dufresne and reconstruct, each on its own parser's
defaults for what verify does not set.  Reports are flat arrays of check
records carrying a schema_version field.  Exit status: 0 when all invoked
checks pass, 1 when any check fails, 2 on usage or domain errors and on
a computation that gives up (a RuntimeError, such as a diverging series or
a Monte Carlo lane process that died).

Monte Carlo (dufresne, converge, verify) uses every CPU this process may
use by default (the library's default is workers=1): the 16 fixed sample
shards are split into up to --workers contiguous lanes of at least
stats.LANE_FLOOR samples on average, the caller runs the first and one
forked process each other lane, and every lane steps its shards in
lockstep groups of at most 20000 samples (stats._sharded).  No result
depends on --workers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import kernels, stats, walk
from .gig import (GigParams, gig_log_moment_asymptotic, gig_log_moment_numeric,
                  gig_pdf, gig_sample)
from .kernels import LogGrid
from .walk import WalkConfig, simulate_path

DEFAULT_SEED = 20260810
# reconstruct's increments per sampler call.  Swept over 2000-100000 on a
# 2-core x86-64 host: 200 x 30 paths take 15-20 ms at any size; 20000 x 100
# take 1.5-1.8 s below 20000 and 1.1-1.5 s from 20000 up, where peak RSS
# grows from 57 MB (20000) to 63 MB (100000)
RECONSTRUCT_DRAWS = 20000


def _usable_cpus() -> int:
    """The CPUs this process may run on, else the CPUs of the host."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1000.0


def _record(test, params, seed, statistic, threshold, passed, runtime_ms):
    """JSON-ready record of one check."""
    return {"schema_version": 1, "test": test, "params": params, "seed": seed,
            "statistic": float(statistic), "threshold": float(threshold),
            "pass": bool(passed), "runtime_ms": round(runtime_ms, 3)}


def _write_report(records, fmt, out):
    if fmt == "json":
        payload = json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        fields = ["schema_version", "test", "seed", "statistic", "threshold",
                  "pass", "runtime_ms", "params"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            row = dict(rec)
            row["params"] = json.dumps(rec["params"], sort_keys=True)
            writer.writerow(row)
        payload = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _echo(records):
    for rec in records:
        tag = "PASS" if rec["pass"] else "FAIL"
        print(f"[{tag}] {rec['test']}: statistic={rec['statistic']:.6g} "
              f"threshold={rec['threshold']:.6g}", file=sys.stderr)


def _cmd_simulate(args):
    config = WalkConfig(GigParams.symmetric(args.lam, args.a),
                        args.delta, args.steps, args.seed)
    path = simulate_path(config)
    with open(args.out, "w") as fh:
        walk.path_to_csv(path, fh)
    print(f"wrote {args.steps} rows to {args.out}", file=sys.stderr)
    return [], True


def _grid(args):
    """The --grid-points grid, or None: each check then sizes its own."""
    return None if args.grid_points is None else LogGrid.make(n=args.grid_points)


def _cmd_intertwine(args):
    grid = _grid(args)
    z_sources = [float(z) for z in args.z.split(",")]
    records = []
    residuals, ms = _timed(lambda: kernels.intertwining_residuals(
        args.lam, args.a, z_sources, grid))
    for z, res in residuals.items():
        records.append(_record(
            "intertwining", {"lambda": args.lam, "a": args.a, "z": z},
            args.seed, res, args.tol, res < args.tol, ms / len(residuals)))
    rng = np.random.default_rng(args.seed)
    pairs = np.exp(rng.normal(0.0, 1.0, (100, 2)))
    res, ms = _timed(lambda: kernels.check_detailed_balance(args.lam, args.a, pairs))
    records.append(_record("detailed_balance",
                           {"lambda": args.lam, "a": args.a, "pairs": 100},
                           args.seed, res, 1e-12, res < 1e-12, ms))
    if args.lam > 0.0:
        res, ms = _timed(lambda: kernels.check_stationarity(args.lam, args.a, grid))
        records.append(_record("stationarity", {"lambda": args.lam, "a": args.a},
                               args.seed, res, 1e-7, res < 1e-7, ms))
    return records, all(r["pass"] for r in records)


def _cmd_dufresne(args):
    res, ms = _timed(lambda: stats.dufresne_test(
        args.lam, args.a, args.samples, args.seed, workers=args.workers))
    rec = _record("dufresne",
                  {"lambda": args.lam, "a": args.a, "samples": args.samples},
                  args.seed, res.statistic, res.critical_1pct, res.passed, ms)
    return [rec], rec["pass"]


def _lognormal_pdf(x):
    """lognormal(0, sigma = 1/2) density, evaluated in log space."""
    return np.exp(-2.0 * np.log(x) ** 2 - np.log(0.5 * x * np.sqrt(2.0 * np.pi)))


def _gamma2_pdf(x):
    """gamma(2, 1) density x e^(-x), evaluated in log space."""
    return np.exp(np.log(x) - x)


def _cmd_characterize(args):
    grid = _grid(args)
    params = GigParams.symmetric(args.lam, args.a)
    laws = [
        ("gig", lambda x: gig_pdf(params, x), 1e-7, True),
        ("lognormal", _lognormal_pdf, 1e-3, False),
        ("gamma", _gamma2_pdf, 1e-3, False),
    ]
    records = []
    for name, pdf, threshold, below in laws:
        d, ms = _timed(lambda: kernels.characterization_discrepancy(
            pdf, args.z, args.u, grid))
        ok = (d < threshold) if below else (d > threshold)
        records.append(_record(
            f"characterization_{name}",
            {"lambda": args.lam, "a": args.a, "z": args.z, "u": args.u},
            args.seed, d, threshold, ok, ms))
    return records, all(r["pass"] for r in records)


def _cmd_converge(args):
    marks = sorted({10, 50, args.steps})
    res, ms = _timed(lambda: stats.n_part_statistics(
        args.lam, args.a, marks, args.samples, args.seed, workers=args.workers))
    records = []
    for m in marks:
        r = res[m]
        params = {"lambda": args.lam, "a": args.a, "n": m,
                  "samples": args.samples}
        if m == args.steps:
            records.append(_record("n_part_convergence", params, args.seed,
                                   r.statistic, r.critical_1pct, r.passed,
                                   ms / len(marks)))
        else:
            # transient checkpoints: reported for the decay profile, not gated
            records.append(_record("n_part_transient", params, args.seed,
                                   r.statistic, 1.0, True, ms / len(marks)))
    return records, all(r["pass"] for r in records)


def _cmd_moments(args):
    params = GigParams.symmetric(args.lam, args.a)
    records = []
    rows = []
    for m in (1, 2, 3, 4):
        num, ms = _timed(lambda: gig_log_moment_numeric(params, m))
        asym = gig_log_moment_asymptotic(args.lam, args.a, m)
        ratio = num / asym if asym != 0.0 else float("nan")
        rows.append((m, num, asym, ratio))
        records.append(_record(
            "log_moment_ratio", {"lambda": args.lam, "a": args.a, "m": m},
            args.seed, ratio, args.tol, abs(ratio - 1.0) < args.tol, ms))
    print(f"{'m':>2} {'numeric':>16} {'asymptotic':>16} {'ratio':>10}",
          file=sys.stderr)
    for m, num, asym, ratio in rows:
        print(f"{m:>2} {num:>16.9e} {asym:>16.9e} {ratio:>10.6f}",
              file=sys.stderr)
    return records, all(r["pass"] for r in records)


def _cmd_reconstruct(args):
    if args.samples < 1:
        raise ValueError(f"samples must be at least 1, got {args.samples}")
    # one process draws every path: main only checks --workers, as elsewhere
    rng = np.random.default_rng(args.seed)
    horizon = max(args.steps, 4)
    params = GigParams.symmetric(args.lam, args.a)

    def worst_residual():
        # every path's (n, p) first, then the increments of consecutive
        # paths in sampler calls of about RECONSTRUCT_DRAWS draws: one call
        # per path spent its time on call overhead, and one call for all
        # paths held every draw at once (163 MB for 20000 paths of horizon
        # 100).  A call's paths are one WalkPath of rows padded with unit
        # increments, and the paths of equal p are reconstructed together,
        # in logs
        ns = rng.integers(1, horizon, args.samples)
        ps = rng.integers(0, horizon, args.samples)
        per_call = max(1, RECONSTRUCT_DRAWS // horizon)
        worst, non_finite = 0.0, 0
        for lo in range(0, args.samples, per_call):
            n, p = ns[lo:lo + per_call], ps[lo:lo + per_call]
            last = n + p - 1
            gammas = np.ones((n.size, last.max() + 1))
            gammas[np.arange(gammas.shape[1]) <= last[:, None]] = gig_sample(
                params, rng, int(last.sum()) + n.size)
            path = walk.WalkPath.from_gammas(gammas, 1.0)
            log_x, log_z = path.log_xs, path.log_zs
            rows = np.arange(n.size)
            log_n_future = log_z[rows, last] - log_x[rows, last]
            for q in np.unique(p).tolist():
                sel = (p == q).nonzero()[0]
                run = (n[sel] - 1)[:, None] + np.arange(q + 1)
                rec = walk.reconstruct_x_finite(log_z[sel[:, None], run],
                                                log_n_future[sel])
                residual = np.abs(np.expm1(rec - log_x[sel, n[sel] - 1]))
                finite = np.isfinite(residual)
                non_finite += int(np.count_nonzero(~finite))
                worst = max(worst, float(
                    residual.max(where=finite, initial=0.0)))
        return worst, non_finite

    (res, non_finite), ms = _timed(worst_residual)
    if non_finite:
        # the log-space inversion should never give one; a numerical
        # failure, never a pass
        print(f"reconstruct: {non_finite} of {args.samples} residuals are "
              "non-finite", file=sys.stderr)
    rec = _record("reconstruction_identity",
                  {"lambda": args.lam, "a": args.a, "paths": args.samples,
                   "horizon": horizon, "non_finite": non_finite},
                  args.seed, res, args.tol, res < args.tol and not non_finite,
                  ms)
    return [rec], rec["pass"]


def _cmd_verify(args):
    # each check on its own parser: its defaults for what verify does not set
    point = [f"--lambda={args.lam!r}", f"--a={args.a!r}", f"--seed={args.seed}"]
    grid = [] if args.grid_points is None else [f"--grid-points={args.grid_points}"]
    parser = _build_parser()
    records = []
    for argv in (["intertwine", *grid],
                 ["dufresne", f"--samples={args.samples}",
                  f"--workers={args.workers}"],
                 ["reconstruct"]):
        handler = _SUBCOMMANDS[argv[0]][0]
        records.extend(handler(parser.parse_args(argv + point))[0])
    return records, all(r["pass"] for r in records)


# every option a subcommand may take, by name: add_argument keywords, and
# the flag where it is not --name
_OPTIONS = {
    "lambda": dict(dest="lam", type=float,
                   help="GIG shape parameter (default %(default)s)"),
    "a": dict(type=float,
              help="GIG scale parameter, symmetric case (default %(default)s)"),
    "delta": dict(type=float,
                  help="lower-left increment entry (default %(default)s)"),
    "steps": dict(type=int, help="walk length (default %(default)s)"),
    "samples": dict(type=int,
                    help="Monte Carlo sample count (default %(default)s)"),
    "grid-points": dict(type=int,
                        help="log-grid size over [1e-6, 1e6] for every kernel "
                             "check (default: grids sized by the law, 1000 "
                             "points over [1e-6, 1e6], more where a is large, "
                             "and pi's quantiles for stationarity)"),
    "seed": dict(type=int, help="master seed; falls back to GIGWALK_SEED, "
                                f"then {DEFAULT_SEED}"),
    "tol": dict(type=float, help="check tolerance (default %(default)s)"),
    "out": dict(help="output file (default %(default)s); a report goes to "
                     "stdout without one"),
    "format": dict(dest="fmt", choices=["json", "csv"],
                   help="report format (default %(default)s)"),
    "workers": dict(type=int,
                    help="Monte Carlo processes (default: the usable CPUs); "
                         "splits the 16 fixed sample shards into up to N "
                         f"lanes of at least {stats.LANE_FLOOR} samples on "
                         "average, one forked process each beyond the first; "
                         "results never depend on it (reconstruct draws in "
                         "one process and only checks it)"),
    "sources": dict(flag="--z", dest="z",
                    help="comma-separated source points (default %(default)s)"),
    "z": dict(type=float, help="conditioning value Z (default %(default)s)"),
    "u": dict(type=float, help="conditioning value U (default %(default)s)"),
}

# what every subcommand takes, and every one that writes a report
_POINT = {"lambda": 1.0, "a": 1.0, "seed": None}
_REPORT = {"out": None, "format": "json"}
_CPUS = _usable_cpus()

# subcommand: (handler, help, the options it reads with their defaults)
_SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "dump one walk path as CSV",
                 {**_POINT, "delta": 1.0, "steps": 100, "out": "path.csv"}),
    "verify": (_cmd_verify,
               "intertwine + dufresne + reconstruct at their own defaults",
               {**_POINT, **_REPORT, "samples": 20000, "grid-points": None,
                "workers": _CPUS}),
    "dufresne": (_cmd_dufresne, "KS test of the perpetuity limit law",
                 {**_POINT, **_REPORT, "samples": 100000, "workers": _CPUS}),
    "intertwine": (_cmd_intertwine,
                   "intertwining, detailed balance, stationarity residuals",
                   {**_POINT, **_REPORT, "sources": "0.2,1,5", "tol": 1e-6,
                    "grid-points": None}),
    "characterize": (_cmd_characterize,
                     "conditional-law discrepancy for GIG and control laws",
                     {**_POINT, **_REPORT, "z": 1.5, "u": 2.0,
                      "grid-points": None}),
    "converge": (_cmd_converge, "NA-part convergence to the limit law",
                 {**_POINT, **_REPORT, "steps": 200, "samples": 20000,
                  "workers": _CPUS}),
    "moments": (_cmd_moments, "log-moment numeric vs asymptotic table",
                {**_POINT, **_REPORT, "tol": 0.02}),
    # takes --workers for the callers that pass it to every Monte Carlo
    # subcommand (perfbench's serial runs)
    "reconstruct": (_cmd_reconstruct, "finite-horizon reconstruction identity",
                    {**_POINT, **_REPORT, "steps": 30, "samples": 200,
                     "tol": 1e-10, "workers": _CPUS}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gigwalk",
        description="Simulate the GIG matrix walk and certify its limit identities.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option, default in defaults.items():
            spec = dict(_OPTIONS[option])
            p.add_argument(spec.pop("flag", "--" + option), default=default,
                           **spec)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        try:
            args.seed = int(os.environ.get("GIGWALK_SEED", DEFAULT_SEED))
        except ValueError:
            print("error: GIGWALK_SEED must be an integer", file=sys.stderr)
            return 2
    try:
        # refused before any check runs, also where one process does the work
        if "workers" in vars(args) and args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        records, ok = _SUBCOMMANDS[args.command][0](args)
    # RuntimeError covers walk.DivergenceError,
    # stats.InsufficientConditioningError and a Monte Carlo lane that died
    except (ValueError, IndexError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if records:
        _echo(records)
        _write_report(records, args.fmt, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
