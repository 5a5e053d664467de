"""The three certification workloads and the inputs each draws from its seed.

A job certifies one generated parameter point and returns the library's
verdicts as ``Check`` records.  The library sees only the generated inputs.

Jobs come in batches.  A box batch is a randomly shifted rank-1 lattice of
8 points in the unit square (generator (1, 3)) passed through the tent map
and scaled to lambda, a in [0.5, 2]: every point is uniform on the box, and
the batch as a whole covers it evenly.  Job time varies about 2.5x across
the box on ``perpetuity_mc``, so independent points would make the per-run
median depend on where a handful of points happened to fall.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as spstats

from gigwalk import cli, gig, kernels, stats

BOX = (0.5, 2.0)
LATTICE_SIZE = 8
LATTICE_GENERATOR = (1, 3)
Z_SOURCES = (0.2, 1.0, 5.0)
ZU_PAIRS = ((1.5, 2.0), (2.0, 1.5))
# criterion-10 points: every lambda at every t
SCALING_LAMBDAS = (0.0, 1.0)
SCALING_TIMES = (0.5, 1.0)
# the scalar path API, thousands of calls on tiny arrays: 2000 paths of
# horizon up to 100 (the CLI default is 200 paths of horizon up to 30)
RECONSTRUCT = ["reconstruct", "--samples", "2000", "--steps", "100"]
# CLI report tests that are Kolmogorov-Smirnov tests at the 1% level
KS_TESTS = {"dufresne", "n_part_convergence", "n_part_transient"}

# acceptance-suite thresholds (tests/test_acceptance.py)
INTERTWINING_TOL = 1e-6
STATIONARITY_TOL = 1e-7
GIG_DISCREPANCY_TOL = 1e-7
CONTROL_DISCREPANCY_MIN = 1e-3


@dataclass
class Check:
    test: str
    statistic: float
    threshold: float
    passed: bool
    statistical: bool  # a Monte Carlo test that rejects at its level by chance


@dataclass
class Outcome:
    checks: list = field(default_factory=list)
    exit_codes: list = field(default_factory=list)
    report_bytes: int = 0
    stderr: str = ""


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def box_points(rng) -> np.ndarray:
    """One batch of (lambda, a) points; see the module docstring."""
    i = np.arange(LATTICE_SIZE)[:, None]
    shifted = (i * np.array(LATTICE_GENERATOR) / LATTICE_SIZE + rng.random(2)) % 1.0
    unit = 1.0 - np.abs(2.0 * shifted - 1.0)
    lo, hi = BOX
    return (lo + (hi - lo) * unit)[rng.permutation(LATTICE_SIZE)]


def _run_cli(argv, scratch: str, out: Outcome) -> None:
    """One CLI call with its report in a file; records go into `out`."""
    path = os.path.join(scratch, f"report-{os.getpid()}.json")
    if os.path.exists(path):
        os.remove(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--out", path])
    out.exit_codes.append(code)
    out.stderr += err.getvalue()
    if not os.path.exists(path):
        return
    out.report_bytes += os.path.getsize(path)
    with open(path) as fh:
        records = json.load(fh)
    os.remove(path)
    for r in records:
        out.checks.append(Check(r["test"], r["statistic"], r["threshold"],
                                r["pass"], r["test"] in KS_TESTS))


def _cli_point(p) -> list[str]:
    return ["--lambda", repr(p["lambda"]), "--a", repr(p["a"]),
            "--seed", str(p["seed"])]


class Workload:
    name = ""
    workers = 1       # worker threads the job's Monte Carlo uses
    pooled = False    # job shards over a thread pool; has a serial twin

    def batch(self, rng) -> list[dict]:
        raise NotImplementedError

    def run(self, p: dict, scratch: str, workers: int | None = None) -> Outcome:
        raise NotImplementedError


class KernelCert(Workload):
    name = "kernel_cert"

    def batch(self, rng):
        return [{"lambda": float(lam), "a": float(a),
                 "zu": ZU_PAIRS[int(rng.integers(len(ZU_PAIRS)))]}
                for lam, a in box_points(rng)]

    def run(self, p, scratch, workers=None):
        lam, a = p["lambda"], p["a"]
        out = Outcome()
        residuals = kernels.intertwining_residuals(lam, a, Z_SOURCES)
        for z, r in residuals.items():
            out.checks.append(Check(f"intertwining_z{z:g}", r, INTERTWINING_TOL,
                                    r < INTERTWINING_TOL, False))
        r = kernels.check_stationarity(lam, a)
        out.checks.append(Check("stationarity", r, STATIONARITY_TOL,
                                r < STATIONARITY_TOL, False))
        params = gig.GigParams.symmetric(lam, a)
        z, u = p["zu"]
        laws = (("gig", lambda x: gig.gig_pdf(params, x)),
                ("lognormal", lambda x: spstats.lognorm.pdf(x, 0.5)),
                ("gamma", lambda x: spstats.gamma.pdf(x, 2.0)))
        for law, pdf in laws:
            d = kernels.characterization_discrepancy(pdf, z, u)
            if law == "gig":
                check = Check("characterization_gig", d, GIG_DISCREPANCY_TOL,
                              d < GIG_DISCREPANCY_TOL, False)
            else:
                check = Check(f"characterization_{law}", d, CONTROL_DISCREPANCY_MIN,
                              d > CONTROL_DISCREPANCY_MIN, False)
            out.checks.append(check)
        return out


class PerpetuityMC(Workload):
    name = "perpetuity_mc"
    workers = os.cpu_count() or 1  # the CLI's --workers default
    pooled = True

    def batch(self, rng):
        return [{"lambda": float(lam), "a": float(a), "seed": _seed(rng)}
                for lam, a in box_points(rng)]

    def run(self, p, scratch, workers=None):
        out = Outcome()
        extra = [] if workers is None else ["--workers", str(workers)]
        for command in (["dufresne"], ["converge"], RECONSTRUCT):
            _run_cli(command + _cli_point(p) + extra, scratch, out)
        return out


class ScalingLimit(Workload):
    name = "scaling_limit"

    def batch(self, rng):
        # one point at each t (job time doubles from t = 0.5 to t = 1), lambda
        # drawn: short rounds, so that a run holds several of them
        lams = rng.choice(SCALING_LAMBDAS, size=len(SCALING_TIMES))
        return [{"lambda": float(lam), "t": t, "seed": _seed(rng)}
                for lam, t in zip(lams, SCALING_TIMES)]

    def run(self, p, scratch, workers=None):
        res = stats.scaling_limit_test(p["lambda"], 200, p["t"], 20000, 1e-4,
                                       p["seed"], workers=1)
        return Outcome([Check("scaling_limit", res.ks.statistic, res.threshold,
                              res.passed, True)])


WORKLOADS = {w.name: w for w in (KernelCert(), PerpetuityMC(), ScalingLimit())}
