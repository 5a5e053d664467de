"""Certification benchmark for gigwalk.

Run one workload (closed loop, one client) from the root of a checkout:

    python3 perfbench/run.py --workload perpetuity_mc --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
every job both untraced and traced and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
with units.  ``--all`` runs every workload both ways and prints one table.
Details, span dumps and CLI reports go to ``.perfbench/`` in the checkout.

This module imports only the standard library at the top, so that the
library's own import can be timed in this process as one set-up sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("kernel_cert", "perpetuity_mc", "scaling_limit")
SETUP_SAMPLES = 3  # two fresh interpreters plus this process
TAIL_BEYOND = 10

# name -> (unit, better, bound); the metrics every untraced run reports
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s_p50": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
# printed by every run, not gated: zero on most workloads, or undefined
# below 11 jobs (job_s_tail)
UNGATED = {
    "job_s_tail": "s",
    "fail_ratio": "ratio",
    "numeric_warnings": "count/job",
}

QUANTITIES = {
    "calls": ("count/job", "lower"),
    "elements": ("count/job", "lower"),
    "draws": ("count/job", "lower"),
    "steps": ("count/job", "lower"),
    "path_steps": ("count/job", "lower"),
    "flops": ("flop/job", "lower"),
    "self_s": ("s/job", "lower"),
    "ns_per_element": ("ns", "lower"),
    "ns_per_draw": ("ns", "lower"),
    "ns_per_path_step": ("ns", "lower"),
    "gflops": ("GFLOP/s", "higher"),
    "mean_batch": ("count", "higher"),
    "accept_ratio": ("ratio", "higher"),
    "terms_per_draw": ("count", "lower"),
    "cpu_per_wall": ("ratio", "higher"),
    "report_bytes": ("B/job", "lower"),
}
DENSITY = ("elements", "self_s", "ns_per_element")
LAYERS = {
    "kernels.p_density": DENSITY,
    "kernels.lambda_density": DENSITY,
    "kernels.q_density": DENSITY,
    "kernels.ktilde_density": DENSITY,
    "kernels.intertwining_residuals": ("calls", "self_s", "flops", "gflops"),
    "kernels.check_stationarity": ("calls", "self_s", "flops"),
    "kernels.characterization_discrepancy": ("calls", "self_s"),
    "specfun.log_bessel_k": ("calls", "elements", "self_s"),
    "gig.gig_sample": ("calls", "draws", "mean_batch", "self_s", "ns_per_draw",
                       "accept_ratio"),
    "walk.n_infinity_batch": ("calls", "draws", "terms_per_draw", "self_s"),
    "gig.inverse_gamma_cdf": ("calls", "elements", "self_s"),
    "stats.dufresne_test": ("self_s", "cpu_per_wall"),
    "stats.n_part_statistics": ("self_s", "cpu_per_wall"),
    "stats.scaling_limit_test": ("self_s", "cpu_per_wall"),
    "stats.simulate_my_continuous": ("calls", "path_steps", "self_s",
                                     "ns_per_path_step"),
    "stats.ks_one_sample": ("calls", "self_s"),
    "stats.ks_two_sample": ("calls", "self_s"),
    "walk.simulate_path": ("calls", "steps", "self_s"),
    "walk.reconstruct_x_finite": ("calls", "self_s"),
    "cli.main": ("calls", "self_s", "report_bytes"),
}
OTHER_LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "setup.grid_s": ("s", "lower"),
    "stats.sharded.serial_speedup": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "numeric_warnings": ("count/job", "lower"),
}


def per_layer_specs() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every metric a traced run reports."""
    specs = {f"{layer}.{q}": QUANTITIES[q]
             for layer, qs in LAYERS.items() for q in qs}
    specs.update(OTHER_LAYER_METRICS)
    return specs


SETUP_PROBE = """\
import sys, time
sys.path.insert(0, "src")
t0 = time.perf_counter()
import gigwalk
from gigwalk import kernels
t1 = time.perf_counter()
kernels.default_grid()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup() -> list[tuple[float, float]]:
    """(import_s, grid_s) samples; the last one imports into this process."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        imp, grid = proc.stdout.split()
        samples.append((float(imp), float(grid)))
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import gigwalk  # noqa: F401
    from gigwalk import kernels
    t1 = time.perf_counter()
    kernels.default_grid()
    t2 = time.perf_counter()
    samples.append((t1 - t0, t2 - t1))
    return samples


# ---------------------------------------------------------------- jobs

class JobResult:
    """One execution of one job: timing, verdicts and what went wrong."""

    def __init__(self, params, start, wall, outcome, error, warnings_seen):
        self.params = params
        self.start = start
        self.wall = wall
        self.outcome = outcome
        self.error = error
        self.warnings = warnings_seen
        self.problems = []  # reasons the outputs are not correct
        if error is not None:
            self.problems.append(f"raised {error.strip().splitlines()[-1]}")
            return
        checks, codes = outcome.checks, outcome.exit_codes
        if not checks:
            self.problems.append("no check records")
        if any(c not in (0, 1) for c in codes):
            self.problems.append(f"CLI exit codes {codes}")
        elif codes and (all(c == 0 for c in codes)
                        != all(c.passed for c in checks)):
            self.problems.append("CLI exit code disagrees with the verdicts")
        for c in checks:
            if not math.isfinite(c.statistic):
                self.problems.append(f"{c.test}: non-finite statistic")
            elif not c.passed and not c.statistical:
                self.problems.append(f"{c.test}: deterministic check failed")

    @property
    def failed(self) -> bool:
        return (self.error is not None or bool(self.problems)
                or any(c != 0 for c in self.outcome.exit_codes)
                or not all(c.passed for c in self.outcome.checks))

    def identity(self):
        if self.outcome is None:
            return None
        return [(c.test, c.statistic) for c in self.outcome.checks]

    def summary(self) -> dict:
        out = {"params": self.params, "wall_s": self.wall,
               "failed": self.failed, "runtime_warnings": self.warnings}
        if self.problems:
            out["problems"] = self.problems
        if self.error is not None:
            out["traceback"] = self.error
        if self.outcome is not None:
            out["checks"] = [{"test": c.test, "statistic": c.statistic,
                              "threshold": c.threshold, "pass": c.passed}
                             for c in self.outcome.checks]
            if self.failed and self.outcome.stderr:
                out["stderr"] = self.outcome.stderr[-2000:]
        return out


def execute(workload, params, scratch, workers=None) -> JobResult:
    """Run one job, recording every RuntimeWarning (none deduplicated)."""
    outcome = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            outcome = workload.run(params, scratch, workers)
        except Exception:  # a raising job is a failed job, not a crash
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return JobResult(params, start, wall, outcome, error, n_warn)


def tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------- runs

def run_untraced(workload, rng, seconds, scratch):
    """One batch, executed in whole rounds, closed loop; no round starts that
    would end past `seconds` if it took as long as the last one.

    Job time swings up to 2.5x while a shared host is busy, in phases of
    seconds; a point's fastest execution, over rounds spread across the run,
    is steadier than a single execution."""
    jobs = []
    batch = workload.batch(rng)
    # warm-up: lazy imports and first-call set-up in the library; the first
    # round runs this point again, timed and checked
    execute(workload, batch[0], scratch)
    t_start = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        for params in batch:
            jobs.append(execute(workload, params, scratch))
        now = time.perf_counter()
        if now - t_start + (now - b0) > seconds:
            return jobs, now - t_start


def run_traced(workload, rng, seconds, scratch, tracer):
    """Each job untraced and traced, in alternating order; a pooled job is
    repeated at one worker, and every repeat must give identical statistics."""
    rows = []
    t_start = time.perf_counter()
    while True:
        for params in workload.batch(rng):
            job = len(rows)
            plain = traced = None
            for traced_turn in ((False, True) if job % 2 == 0 else (True, False)):
                if traced_turn:
                    tracer.install(job)
                    try:
                        traced = execute(workload, params, scratch)
                    finally:
                        tracer.uninstall()
                else:
                    plain = execute(workload, params, scratch)
            serial = execute(workload, params, scratch, workers=1) \
                if workload.pooled else None
            rows.append((plain, traced, serial))
            for other in (traced, serial):
                if other is not None and other.identity() != plain.identity():
                    other.problems.append(
                        "statistics differ from the untraced default run")
            if time.perf_counter() - t_start >= seconds:
                return rows


def point_key(params) -> str:
    return json.dumps(params, sort_keys=True)


def best_times(jobs) -> dict[str, float]:
    """Each distinct point's fastest execution among those that did not raise."""
    best = {}
    for j in jobs:
        if j.error is None:
            key = point_key(j.params)
            best[key] = min(j.wall, best.get(key, math.inf))
    return best


def check_repeats(jobs) -> None:
    """Executions of one point must give identical statistics."""
    first = {}
    for j in jobs:
        key = point_key(j.params)
        if key in first and j.identity() != first[key]:
            j.problems.append("statistics differ between repeats of one point")
        first.setdefault(key, j.identity())


def end_to_end(jobs, setup):
    times = [j.wall for j in jobs]
    best = list(best_times(jobs).values())
    metrics = {
        "setup_s": statistics.median(i + g for i, g in setup),
        "job_s_p50": statistics.median(best) if best else 0.0,
        "jobs_per_s": len(best) / sum(best) if best else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    t = tail(times)
    extra = {
        "job_s_tail": None if t is None else t[0],
        "job_s_tail_percentile": None if t is None else t[1],
        "job_s_tail_samples": len(times),
        "fail_ratio": sum(j.failed for j in jobs) / len(jobs),
        "numeric_warnings": sum(j.warnings for j in jobs) / len(jobs),
    }
    return metrics, extra


def accept_ratio(lam: float, c: float) -> float:
    """Closed-form acceptance of gig._sample_log_symmetric (its docstring):
    p = 2 K_lam(c) exp(c cosh t* - lam t*) sqrt(c / (2 pi)), t* = asinh(lam/c)."""
    from scipy import special

    tstar = math.asinh(lam / c)
    log_k = math.log(special.kve(abs(lam), c)) - c
    return math.exp(math.log(2.0) + log_k + c * math.cosh(tstar) - lam * tstar
                    + 0.5 * math.log(c / (2.0 * math.pi)))


def layer_metrics(rows, spans, self_time, setup, pooled):
    """Per-layer metrics, per traced job, from the spans of the traced runs."""
    from tracer import union_length

    n_jobs = len(rows)
    agg = defaultdict(lambda: {"calls": 0, "count": 0, "self": 0.0,
                               "wall": 0.0, "cpu": 0.0})
    by_id = {s.sid: s for s in spans}
    accept_w = defaultdict(int)
    nested_draws = 0
    for s in spans:
        a = agg[s.name]
        a["calls"] += 1
        a["count"] += s.count or 0
        a["self"] += self_time[s.sid]
        a["wall"] += s.end - s.start
        a["cpu"] += s.cpu
        if s.name == "gig.gig_sample":
            accept_w[s.key] += s.count
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "walk.n_infinity_batch":
                nested_draws += s.count

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, quantities in LAYERS.items():
        a = agg[layer]
        for q in quantities:
            if q == "calls":
                v = a["calls"] / n_jobs
            elif q in ("elements", "draws", "steps", "path_steps", "flops"):
                v = a["count"] / n_jobs
            elif q == "self_s":
                v = a["self"] / n_jobs
            elif q.startswith("ns_per_"):
                v = ratio(a["self"] * 1e9, a["count"])
            elif q == "gflops":
                v = ratio(a["count"] / 1e9, a["self"])
            elif q == "mean_batch":
                v = ratio(a["count"], a["calls"])
            elif q == "accept_ratio":
                v = ratio(sum(w * accept_ratio(*k) for k, w in accept_w.items()),
                          sum(accept_w.values()))
            elif q == "terms_per_draw":
                v = ratio(nested_draws, a["count"])
            elif q == "cpu_per_wall":
                v = ratio(a["cpu"], a["wall"])
            elif q == "report_bytes":
                v = sum(t.outcome.report_bytes for _, t, _ in rows
                        if t.outcome is not None) / n_jobs
            out[f"{layer}.{q}"] = v

    plain_wall = sum(p.wall for p, _, _ in rows)
    traced_wall = sum(t.wall for _, t, _ in rows)
    roots = defaultdict(list)
    for s in spans:
        if s.parent is None:
            roots[s.job].append((s.start, s.end))
    covered = sum(union_length(roots[job], t.start, t.start + t.wall)
                  for job, (_, t, _) in enumerate(rows))
    out["setup.import_s"] = statistics.median(i for i, _ in setup)
    out["setup.grid_s"] = statistics.median(g for _, g in setup)
    out["stats.sharded.serial_speedup"] = ratio(
        sum(s.wall for _, _, s in rows), plain_wall) if pooled else 0.0
    out["trace.overhead_frac"] = ratio(traced_wall - plain_wall, plain_wall)
    out["trace.unattributed_frac"] = ratio(traced_wall - covered, traced_wall)
    out["fail_ratio"] = sum(any(r is not None and r.failed for r in row)
                            for row in rows) / n_jobs
    out["numeric_warnings"] = sum(p.warnings for p, _, _ in rows) / n_jobs
    return out


# ---------------------------------------------------------------- output

def provenance(workload, seed, seconds) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "git_commit": commit,
        "workload": workload.name,
        "workload_seed": seed,
        "workers": workload.workers,
        "run_seconds": seconds,
        "computed": ["kernels.intertwining_residuals.flops",
                     "kernels.intertwining_residuals.gflops",
                     "kernels.check_stationarity.flops",
                     "gig.gig_sample.accept_ratio",
                     "elements, draws, steps and path_steps counts "
                     "(from argument shapes)"],
    }


def _getconf(name):
    if not shutil.which("getconf"):
        return None
    proc = subprocess.run(["getconf", name], capture_output=True, text=True,
                          timeout=30)
    try:
        return int(proc.stdout.strip())
    except ValueError:
        return None


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def print_table(title, rows):
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14}  {unit}")


def result_line(correct, attempted, failed, metrics, specs):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": specs[k][0]} for k in specs},
    })


def run_one(args) -> int:
    if not (ROOT / "src" / "gigwalk" / "__init__.py").is_file():
        print(f"error: no gigwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup = measure_setup()
    import gigwalk
    if not Path(gigwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: gigwalk imported from {gigwalk.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2

    import numpy as np

    from tracer import Tracer, self_times
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)  # also makes OUT_DIR
    rng = np.random.default_rng(args.seed)
    stem = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = {"provenance": provenance(workload, args.seed, args.seconds)}

    if args.trace:
        tracer = Tracer()
        rows = run_traced(workload, rng, args.seconds, str(scratch), tracer)
        tracer.write_csv(f"{stem}-spans.csv")
        metrics = layer_metrics(rows, tracer.spans, self_times(tracer.spans),
                                setup, workload.pooled)
        specs = per_layer_specs()
        executions = [r for row in rows for r in row if r is not None]
        attempted = len(rows)
        failed = sum(any(r is not None and r.failed for r in row) for row in rows)
        details["jobs"] = [[r.summary() for r in row if r is not None]
                           for row in rows]
        print_table(f"{workload.name} traced: {attempted} jobs, {failed} failed",
                    [(k, _fmt(metrics[k]), specs[k][0]) for k in specs])
    else:
        jobs, run_wall = run_untraced(workload, rng, args.seconds, str(scratch))
        check_repeats(jobs)
        metrics, extra = end_to_end(jobs, setup)
        specs = {k: v[:2] for k, v in END_TO_END.items()}
        executions = jobs
        attempted = len(jobs)
        failed = sum(j.failed for j in jobs)
        details["jobs"] = [j.summary() for j in jobs]
        details["ungated"] = extra
        tail_note = (f"p{extra['job_s_tail_percentile']:.4g} of "
                     f"{extra['job_s_tail_samples']} jobs"
                     if extra["job_s_tail"] is not None else
                     f"{extra['job_s_tail_samples']} jobs, needs "
                     f">= {TAIL_BEYOND + 1}")
        table = [(k, _fmt(metrics[k]), specs[k][0]) for k in specs]
        table.insert(2, ("job_s_tail", _fmt(extra["job_s_tail"]),
                         f"s ({tail_note})"))
        table += [(k, _fmt(extra[k]), UNGATED[k])
                  for k in ("fail_ratio", "numeric_warnings")]
        print_table(f"{workload.name}: {attempted} jobs in {run_wall:.1f} s, "
                    f"{failed} failed", table)

    problems = [p for r in executions for p in r.problems]
    details.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                    "problems": problems,
                    "failures": [r.summary() for r in executions if r.failed]})
    with open(f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    for p in problems:
        print(f"problem: {p}")
    print(result_line(not problems, attempted, failed, metrics, specs))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary[name][f"trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
        with open(OUT_DIR / f"{name}-seed{args.seed}-trace0.json") as fh:
            summary[name]["ungated"] = json.load(fh)["ungated"]

    print(f"\nall workloads, seed {args.seed}, {args.seconds} s a run")
    header = ["workload"] + [f"{k} [{v[0]}]" for k, v in END_TO_END.items()] + \
        [f"{k} [{u}]" for k, u in UNGATED.items()] + \
        ["top self-time layer", "overhead", "unattributed"]
    print(" | ".join(header))
    for name, s in summary.items():
        e2e, ungated = s["trace0"]["metrics"], s["ungated"]
        layers = s["trace1"]["metrics"]
        top = max((k for k in layers if k.endswith(".self_s")),
                  key=lambda k: layers[k]["value"])
        n = ungated["job_s_tail_samples"]
        tail_txt = (f"n/a (n={n})" if ungated["job_s_tail"] is None else
                    f"{_fmt(ungated['job_s_tail'])} "
                    f"(p{ungated['job_s_tail_percentile']:.4g}, n={n})")
        cells = [name] + [_fmt(e2e[k]["value"]) for k in END_TO_END] + \
            [tail_txt, _fmt(ungated["fail_ratio"]),
             _fmt(ungated["numeric_warnings"]),
             f"{top[:-len('.self_s')]} ({_fmt(layers[top]['value'])} s/job)",
             _fmt(layers["trace.overhead_frac"]["value"]),
             _fmt(layers["trace.unattributed_frac"]["value"])]
        print(" | ".join(cells))
    with open(OUT_DIR / f"all-seed{args.seed}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
