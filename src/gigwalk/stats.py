"""Statistical verification harness for the walk's limit theorems.

Kolmogorov-Smirnov machinery plus the Monte Carlo checks: the discrete
Dufresne identity, convergence of the NA-part to its stationary law, the
drifted CLT for log-increment sums, the diffusion scaling limit of the Z
coordinate, the empirical generator of the scaled chain, and independence
of the Z process from the limiting NA-part.

Every check is deterministic given (seed, parameters): sample generation is
split over a fixed number of logical shards with independently derived
streams, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gig import GigParams, InvGammaParams, inverse_gamma_cdf, spawn_rngs
from .gig import gig_sample  # noqa: F401  (perfbench's tracer test reads stats.gig_sample)
from .kernels import my_generator_coefficients
from .walk import n_infinity_batch, simulate_batch

__all__ = [
    "BrownianConfig",
    "EmpiricalSample",
    "GeneratorDriftResult",
    "InsufficientConditioningError",
    "KsResult",
    "ScalingLimitResult",
    "ZIndependenceResult",
    "donsker_check",
    "dufresne_test",
    "generator_drift_check",
    "kolmogorov_critical",
    "ks_one_sample",
    "ks_two_sample",
    "n_part_convergence_test",
    "n_part_statistics",
    "report_record",
    "scaling_limit_test",
    "simulate_my_continuous",
    "z_independence_check",
]

SHARDS = 16  # fixed logical stream count; workers only affect scheduling


class InsufficientConditioningError(RuntimeError):
    """Too few path steps fell inside the conditioning window."""


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted Monte Carlo sample with provenance."""

    values: np.ndarray
    seed: int
    tag: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size < 2:
            raise ValueError("sample needs at least two values")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("values must be sorted ascending")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_draws(cls, draws, seed: int, tag: str = "") -> "EmpiricalSample":
        return cls(np.sort(np.asarray(draws, dtype=float)), seed, tag)

    @property
    def size(self) -> int:
        return self.values.size

    def to_csv(self, fileobj) -> None:
        """Full-precision dump with provenance columns, one row per value."""
        fileobj.write("index,value,seed,tag\n")
        for i, v in enumerate(self.values):
            fileobj.write(f"{i},{float(v)!r},{self.seed},{self.tag}\n")


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    m: int | None
    critical_1pct: float
    passed: bool


def kolmogorov_critical(alpha: float, n: int, m: int | None = None) -> float:
    """Asymptotic Kolmogorov critical value, scaled for one or two samples."""
    c = float(special.kolmogi(alpha))
    if m is None:
        return c / np.sqrt(n)
    return c * np.sqrt((n + m) / (n * m))


def _values(sample) -> np.ndarray:
    if isinstance(sample, EmpiricalSample):
        xs = sample.values
    else:
        xs = np.sort(np.asarray(sample, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample holds non-finite values: numerical overflow "
                         "upstream, not a statistical verdict")
    return xs


def ks_one_sample(sample, cdf, alpha: float = 0.01) -> KsResult:
    """Exact sup distance between the empirical CDF and a model CDF."""
    xs = _values(sample)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")
    i = np.arange(n)
    stat = float(max(np.max(f - i / n), np.max((i + 1) / n - f)))
    crit = kolmogorov_critical(alpha, n)
    return KsResult(stat, n, None, crit, stat < crit)


def ks_two_sample(sample1, sample2, alpha: float = 0.01) -> KsResult:
    xs, ys = _values(sample1), _values(sample2)
    pooled = np.concatenate([xs, ys])
    pooled.sort()
    fx = np.searchsorted(xs, pooled, side="right") / xs.size
    fy = np.searchsorted(ys, pooled, side="right") / ys.size
    stat = float(np.max(np.abs(fx - fy)))
    crit = kolmogorov_critical(alpha, xs.size, ys.size)
    return KsResult(stat, xs.size, ys.size, crit, stat < crit)


def _shard_counts(total: int) -> list[int]:
    base, extra = divmod(int(total), SHARDS)
    return [base + (1 if i < extra else 0) for i in range(SHARDS)]


def _sharded(draw, total: int, seed: int, workers: int = 1) -> np.ndarray:
    """Run draw(count, rng) over the fixed shards and concatenate along the
    last axis in shard order; the result never depends on the worker count."""
    counts = _shard_counts(total)
    rngs = spawn_rngs(seed, SHARDS)
    jobs = [(c, r) for c, r in zip(counts, rngs) if c > 0]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda cr: draw(*cr), jobs))
    else:
        parts = [draw(c, r) for c, r in jobs]
    return np.concatenate(parts, axis=-1)


def dufresne_test(lam: float, a: float, samples: int, seed: int,
                  tail_tol: float = 1e-10, workers: int = 1,
                  alpha: float = 0.01) -> KsResult:
    """KS of truncated perpetuity-series draws against inverse-gamma(lam, a^2/2)."""
    if lam <= 0.0:
        raise ValueError("the limit law requires lambda > 0")
    draws = _sharded(lambda c, r: n_infinity_batch(lam, a, c, r, tail_tol),
                     samples, seed, workers)
    target = InvGammaParams(lam, a * a / 2.0)
    return ks_one_sample(EmpiricalSample.from_draws(draws, seed, "n_infinity"),
                         lambda x: inverse_gamma_cdf(target, x), alpha)


def n_part_statistics(lam: float, a: float, checkpoints, samples: int,
                      seed: int, tail_tol: float = 1e-10, workers: int = 1,
                      alpha: float = 0.01) -> dict[int, KsResult]:
    """Two-sample KS of N_n against N_inf draws at several n, nested paths.

    All checkpoints observe the same trajectories and share one reference
    N_inf sample, so statistics are comparable across n: since the path's
    remaining tail only shrinks, transient error cannot grow with n.
    """
    if lam <= 0.0:
        raise ValueError("convergence requires lambda > 0")
    marks = sorted(set(int(c) for c in checkpoints))
    params = GigParams.symmetric(lam, a)
    table = _sharded(lambda c, r: simulate_batch(params, 1.0, c, r, marks)[1],
                     samples, seed, workers)
    ref_seed = int(np.random.SeedSequence(seed).generate_state(2)[1])
    reference = _sharded(lambda c, r: n_infinity_batch(lam, a, c, r, tail_tol),
                         samples, ref_seed, workers)
    ref = EmpiricalSample.from_draws(reference, ref_seed, "n_infinity")
    return {m: ks_two_sample(table[i], ref, alpha) for i, m in enumerate(marks)}


def n_part_convergence_test(lam: float, a: float, n: int, samples: int,
                            seed: int, tail_tol: float = 1e-10,
                            workers: int = 1, alpha: float = 0.01) -> KsResult:
    return n_part_statistics(lam, a, [n], samples, seed, tail_tol,
                             workers, alpha)[int(n)]


def donsker_check(lam: float, n: int, t: float, samples: int, seed: int,
                  workers: int = 1, alpha: float = 0.01) -> KsResult:
    """KS of sum_{j < floor(nt)} log gamma_j^(sqrt n) against Normal(lam*t, t)."""
    params = GigParams.symmetric(lam, np.sqrt(n))
    m = int(np.floor(n * t))
    # the walk's log X row is the sum of log increments
    draws = _sharded(lambda c, r: simulate_batch(params, 1.0, c, r, [m])[0, 0],
                     samples, seed, workers)
    sd = np.sqrt(t)
    return ks_one_sample(EmpiricalSample.from_draws(draws, seed, "log_sum"),
                         lambda x: special.ndtr((x - lam * t) / sd), alpha)


@dataclass(frozen=True)
class BrownianConfig:
    """Euler mesh for the exponential Brownian functional."""

    drift: float
    t: float
    dt: float
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.drift, self.t, self.dt))):
            raise ValueError("drift, t and dt must be finite")
        if not (0.0 < self.dt < self.t):
            raise ValueError("need 0 < dt < t")

    @property
    def steps(self) -> int:
        return int(round(self.t / self.dt))


def simulate_my_continuous(config: BrownianConfig, rng=None, size=None,
                           normals=None):
    """Draws of e^{B_t} * int_0^t e^{-2 B_s} ds on the config mesh.

    Left-endpoint Riemann sum of the integrand, O(dt) bias.  `normals`
    (scalar, per-step vector, or (steps, size) array) replaces the Gaussian
    stream for deterministic checks; normals=0 with drift 0 gives exactly t.
    """
    count = 1 if size is None else int(size)
    steps = config.steps
    sdt = np.sqrt(config.dt)
    inj = None if normals is None else np.asarray(normals, dtype=float)
    if rng is None and inj is None:
        raise ValueError("either rng or injected normals is required")
    b = np.zeros(count)
    acc = np.zeros(count)
    for k in range(steps):
        acc += np.exp(-2.0 * b) * config.dt
        if inj is None:
            xi = rng.standard_normal(count)
        elif inj.ndim == 0:
            xi = inj
        elif inj.ndim == 1:
            xi = inj[k]
        else:
            xi = inj[k, :]
        b = b + config.drift * config.dt + sdt * xi
    out = np.exp(b) * acc
    if size is None:
        return float(out[0])
    return out


@dataclass(frozen=True)
class ScalingLimitResult:
    ks: KsResult
    threshold: float
    passed: bool


def scaling_limit_test(lam: float, n: int, t: float, samples: int, dt: float,
                       seed: int, workers: int = 1,
                       threshold: float = 0.02) -> ScalingLimitResult:
    """Two-sample KS between Z_{floor(nt)} of the walk at delta = 1/n with
    GIG(lam, sqrt n, sqrt n) increments and the Brownian-functional simulator.

    The limit theorem carries no rate, so the pass criterion is the fixed
    engineering threshold on the statistic (0.02 by default), not an
    asymptotic critical value.
    """
    m = int(np.floor(n * t))
    params = GigParams.symmetric(lam, np.sqrt(n))
    delta = 1.0 / n

    def draw_walk(count, rng):
        log_x, n_na = simulate_batch(params, delta, count, rng, [m])[:, 0]
        return n_na * np.exp(log_x)

    config = BrownianConfig(lam, t, dt)
    seeds = np.random.SeedSequence(seed).generate_state(2)
    walk_z = _sharded(draw_walk, samples, int(seeds[0]), workers)
    cont_z = _sharded(lambda c, r: simulate_my_continuous(config, r, c),
                      samples, int(seeds[1]), workers)
    ks = ks_two_sample(walk_z, cont_z)
    return ScalingLimitResult(ks, threshold, bool(ks.statistic < threshold))


@dataclass(frozen=True)
class GeneratorDriftResult:
    drift_estimate: float
    drift_reference: float
    diffusion_estimate: float
    diffusion_reference: float
    window_hits: int

    @property
    def drift_rel_err(self) -> float:
        return abs(self.drift_estimate / self.drift_reference - 1.0)

    @property
    def diffusion_rel_err(self) -> float:
        return abs(self.diffusion_estimate / self.diffusion_reference - 1.0)


def generator_drift_check(lam: float, z: float, n: int, samples: int,
                          seed: int, eps_frac: float = 0.05,
                          workers: int = 1,
                          min_hits: int = 1000) -> GeneratorDriftResult:
    """Empirical drift and diffusion of the scaled Z chain near level z.

    Runs the walk at delta = 1/n, a = sqrt(n); after burn-in n/2 every step
    with Z inside (z +- eps_frac*z) contributes its increment, pooled over
    paths and steps.  n * mean and n * variance of the pooled increments
    estimate the generator coefficients; `samples` is the target pooled count
    of post-burn-in steps.
    """
    params = GigParams.symmetric(lam, np.sqrt(n))
    delta = 1.0 / n
    burn = n // 2
    paths_total = max(SHARDS, int(np.ceil(samples / max(n - burn, 1))))
    eps = eps_frac * z

    def accumulate(count, rng):
        log_x, n_na = simulate_batch(params, delta, count, rng,
                                     range(burn, n + 1))
        zz = n_na * np.exp(log_x)  # Z_burn .. Z_n
        dz = np.diff(zz, axis=0)[np.abs(zz[:-1] - z) < eps]
        return np.array([[float(dz.size)], [float(dz.sum())], [float(dz @ dz)]])

    table = _sharded(accumulate, paths_total, seed, workers)
    hits = int(table[0].sum())
    if hits < min_hits:
        raise InsufficientConditioningError(
            f"only {hits} steps fell in the window around z={z}; "
            "increase samples or widen eps_frac")
    mean = table[1].sum() / hits
    var = table[2].sum() / hits - mean * mean
    drift_ref, diff_ref = my_generator_coefficients(lam, z)
    return GeneratorDriftResult(float(n * mean), drift_ref,
                                float(n * var), diff_ref, hits)


@dataclass(frozen=True)
class ZIndependenceResult:
    correlations: dict
    max_abs_correlation: float
    bound: float
    distance_correlation: float
    statistic: str

    @property
    def passed(self) -> bool:
        return self.max_abs_correlation < self.bound


def _dcor_unbiased(x: np.ndarray, y: np.ndarray) -> float:
    """U-centered distance correlation (bias-corrected); ~0 under independence."""
    n = x.size

    def ucenter(v):
        d = np.abs(v[:, None] - v[None, :])
        rs = d.sum(axis=0)
        out = (d - rs[None, :] / (n - 2) - rs[:, None] / (n - 2)
               + rs.sum() / ((n - 1) * (n - 2)))
        np.fill_diagonal(out, 0.0)
        return out

    ax, ay = ucenter(x), ucenter(y)
    scale = n * (n - 3)
    dxy = float((ax * ay).sum()) / scale
    dxx = float((ax * ax).sum()) / scale
    dyy = float((ay * ay).sum()) / scale
    if dxx <= 0.0 or dyy <= 0.0:
        return 0.0
    return float(np.sqrt(max(dxy / np.sqrt(dxx * dyy), 0.0)))


def z_independence_check(lam: float, a: float, n: int, samples: int,
                         seed: int, statistic: str = "n_na",
                         workers: int = 1,
                         dcor_subsample: int = 2000) -> ZIndependenceResult:
    """Correlation of the early Z coordinates with the (near-)limiting NA-part.

    statistic="n_na" uses N_n = Z_n/X_n as the N_inf proxy, which should be
    uncorrelated with every Z_k; statistic="log_x" substitutes log X_n, the
    deliberate-fault control that keeps a visible dependence on the early
    increments (raw X_n would not: its correlation is washed out by the
    exploding variance of the product).
    """
    if lam <= 0.0:
        raise ValueError("requires lambda > 0")
    if statistic not in ("n_na", "log_x"):
        raise ValueError("statistic must be 'n_na' or 'log_x'")
    z_marks = [2, 3, 4, 5, 6]
    marks = sorted(set(z_marks + [int(n)]))
    params = GigParams.symmetric(lam, a)
    log_x, n_na = _sharded(lambda c, r: simulate_batch(params, 1.0, c, r, marks),
                           samples, seed, workers)
    idx = {m: i for i, m in enumerate(marks)}
    target = (n_na if statistic == "n_na" else log_x)[idx[int(n)]]
    zs = {m: n_na[idx[m]] * np.exp(log_x[idx[m]]) for m in z_marks}

    def corr(u, v):
        um, vm = u - u.mean(), v - v.mean()
        return float((um @ vm) / np.sqrt((um @ um) * (vm @ vm)))

    correlations = {f"Z{m}": corr(zs[m], target) for m in z_marks}
    sub = min(dcor_subsample, samples)
    dcor = _dcor_unbiased(zs[2][:sub], target[:sub])
    max_abs = max(abs(v) for v in correlations.values())
    return ZIndependenceResult(correlations, max_abs, 3.0 / np.sqrt(samples),
                               dcor, statistic)


def report_record(test: str, params: dict, seed, statistic: float,
                  threshold: float, passed: bool, runtime_ms: float) -> dict:
    """JSON-ready record of one statistical check."""
    return {
        "schema_version": 1,
        "test": test,
        "params": params,
        "seed": seed,
        "statistic": statistic,
        "threshold": threshold,
        "pass": bool(passed),
        "runtime_ms": runtime_ms,
    }
