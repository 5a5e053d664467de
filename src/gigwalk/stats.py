"""Statistical verification harness for the walk's limit theorems.

Kolmogorov-Smirnov machinery plus the Monte Carlo checks: the discrete
Dufresne identity, convergence of the NA-part to its stationary law, the
drifted CLT for log-increment sums, the diffusion scaling limit of the Z
coordinate, the empirical generator of the scaled chain, and independence
of the Z process from the limiting NA-part.

Every check is deterministic given (seed, parameters): sample generation is
split over 16 fixed logical shards with independently derived streams.
Consecutive shards are joined into lockstep groups of at most
GROUP_ELEMENTS samples, all 16 at the default 20000 samples.  A group
draws each shard's numbers from that shard's own generator and does the
arithmetic once over the group, so results are bit-identical for any
grouping and any worker count (see _sharded).

`workers` > 1 splits the shards into contiguous lanes of at least
LANE_FLOOR samples on average: the caller runs the first lane and one
forked child process runs each other lane.  An in-process tracer sees no
call made in a child lane, and Python >= 3.12 emits a DeprecationWarning
when it forks while other threads of the process are alive.

The Euler reference of the scaling limit (simulate_my_continuous) spends
its time filling Gaussians, so it fills them a block of EULER_BLOCK_STEPS
steps at a time, shared between the calling thread and one helper thread
of its own, with every draw and every output bit that of the one step at a
time loop (see _euler_blocks).  That helper is internal and always on; the
lanes are a separate, opt-in layer over the groups.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gig import (GigParams, InvGammaParams, Streams, inverse_gamma_cdf,
                  spawn_rngs)
from .gig import gig_sample  # noqa: F401  (perfbench's tracer test reads stats.gig_sample)
from .kernels import my_generator_coefficients
from .walk import n_infinity_batch, simulate_batch

__all__ = [
    "BrownianConfig",
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
    "n_part_statistics",
    "scaling_limit_test",
    "simulate_my_continuous",
    "z_independence_check",
]

SHARDS = 16  # fixed logical stream count; workers only affect scheduling
# most samples a lockstep group of shards holds (see _sharded)
GROUP_ELEMENTS = 20000
# fewest samples a forked Monte Carlo lane holds (see _sharded)
LANE_FLOOR = 4000
# Euler steps whose Gaussians one generator call fills (see _euler_blocks)
EULER_BLOCK_STEPS = 8
# level of every KS gate (KsResult.critical_1pct)
KS_LEVEL = 0.01
# most two-sample KS distance scaling_limit_test passes: the limit theorem
# carries no rate, so no asymptotic critical value applies
SCALING_KS_BOUND = 0.02


class InsufficientConditioningError(RuntimeError):
    """Too few path steps fell inside the conditioning window."""


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    m: int | None
    critical_1pct: float
    passed: bool


def kolmogorov_critical(alpha: float, n: int, m: int | None = None) -> float:
    """Asymptotic Kolmogorov critical value at level alpha, scaled for one or
    two samples.  Every KS gate of this module is at KS_LEVEL = 1%; this
    gives the critical value at any other level."""
    c = float(special.kolmogi(alpha))
    if m is None:
        return c / np.sqrt(n)
    return c * np.sqrt((n + m) / (n * m))


def _values(sample) -> np.ndarray:
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size < 2:
        raise ValueError("sample needs at least two values")
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample holds non-finite values: numerical overflow "
                         "upstream, not a statistical verdict")
    return xs


def ks_one_sample(sample, cdf) -> KsResult:
    """Exact sup distance between the empirical CDF and a model CDF, gated
    at the 1% level."""
    xs = _values(sample)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")
    i = np.arange(n)
    stat = float(max(np.max(f - i / n), np.max((i + 1) / n - f)))
    crit = kolmogorov_critical(KS_LEVEL, n)
    return KsResult(stat, n, None, crit, stat < crit)


def ks_two_sample(sample1, sample2) -> KsResult:
    """Sup distance between two empirical CDFs, gated at the 1% level."""
    xs, ys = _values(sample1), _values(sample2)
    pooled = np.concatenate([xs, ys])
    pooled.sort()
    fx = np.searchsorted(xs, pooled, side="right") / xs.size
    fy = np.searchsorted(ys, pooled, side="right") / ys.size
    stat = float(np.max(np.abs(fx - fy)))
    crit = kolmogorov_critical(KS_LEVEL, xs.size, ys.size)
    return KsResult(stat, xs.size, ys.size, crit, stat < crit)


def _shard_counts(total: int) -> list[int]:
    base, extra = divmod(int(total), SHARDS)
    return [base + (1 if i < extra else 0) for i in range(SHARDS)]


def _groups(total: int, seed: int, shards=range(SHARDS)) -> list[Streams]:
    """The fixed shards `shards` of `total` samples, joined in order into
    groups of at most GROUP_ELEMENTS samples (at least one shard each);
    empty shards are left out."""
    if total < 1:
        raise ValueError(f"samples must be at least 1, got {total}")
    counts = _shard_counts(total)
    rngs = spawn_rngs(seed, SHARDS)
    jobs = [(rngs[i], counts[i]) for i in shards if counts[i] > 0]
    per = max(1, GROUP_ELEMENTS // counts[0])
    return [Streams(*zip(*jobs[i:i + per])) for i in range(0, len(jobs), per)]


def _sharded(draw, total: int, seed: int, workers: int = 1) -> np.ndarray:
    """Run draw(count, streams) over the shard groups and concatenate along
    the last axis in shard order.

    Each group steps its shards in lockstep: every sampler call fills each
    shard's segment from that shard's own generator and does the arithmetic
    once over the group (gig.Streams).  Every generator so yields exactly
    the numbers it yields when its shard runs alone, and the result never
    depends on the grouping, the lanes or the worker count.  A draw whose
    output is not per sample (a sum, say) must reduce each shard's segment
    on its own.

    Lockstep pays because at 20000 samples the cost is numpy calls on small
    arrays, not draws.  On a 2-core host, n_part_statistics at 20000
    samples, summed over (lam, a) = (1.25, 1.25), (2, 0.5), (0.5, 2) and
    (2, 2), took 3.3 s one shard at a time, 2.0 s in groups of 4 shards,
    1.7 s in groups of 8 and 1.6 s with all 16 joined (best of 3).  At 1e5
    samples (6250 a shard) larger groups stop paying as the arrays leave
    the cache: dufresne_test took 2.9 s one shard at a time, 2.3-2.6 s in
    groups of 3, 5 or 8 and 2.8 s with all 16 joined; hence the budget of
    20000 samples.

    `workers` > 1 splits the non-empty shards into contiguous lanes of
    about equal sample count, as many as the workers, the non-empty shards
    and LANE_FLOOR samples a lane on average allow, each lane joined into
    groups as above.  The caller runs lane 0 and one forked child process
    runs each other lane, sending its array back through a pipe (see
    _fork_lane).  Threads cannot share this work: numpy calls on arrays
    this small spend their time holding the interpreter lock, and
    dufresne_test over four points took 2.3 s on one thread and 2.3-2.7 s
    on two.  Nor can spawned processes: a draw is a closure, which does
    not pickle, and a fresh interpreter takes 0.4 s to import gigwalk.
    The forks start from this thread while no thread of gigwalk's runs
    (the Euler helper lives inside one draw).  A lane whose fork is
    missing or fails runs in this process after lane 0.  An exception in
    a child reaches the caller with its own type, and every warning a
    child lets through its inherited filters is issued again here; an
    exception in the caller's own lane kills and reaps the children, so no
    child outlives the call.  An in-process tracer sees no call made in a
    child lane, and Python >= 3.12 emits a DeprecationWarning when it
    forks while other threads of the process are alive.

    A lane's fork, pipe and reaping cost 6-8 ms in a 105 MB process, so a
    lane must hold enough samples to pay for them.  On a 2-core x86-64
    host, per point over (lam, a) = (1, 1), (2, 0.5), (0.5, 2) and
    (1.25, 1.25) (medians of 5), dufresne_test on two forked lanes took
    62 ms against 43 ms on one at 2000 samples, 76 against 64 ms at 5000,
    65 against 82 ms at 6000 and 67 against 75 ms at 8000;
    n_part_statistics, which draws twice per sample, gained from 2000
    samples on.  Hence LANE_FLOOR = 4000: below 8000 samples everything
    runs in the caller as one lane.  At the CLI defaults the lanes pay:
    dufresne_test at 1e5 samples took 0.38-0.40 s on one lane and
    0.25-0.35 s on two.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    filled = min(SHARDS, total)  # the non-empty shards come first
    lanes = max(1, min(workers, filled, total // LANE_FLOOR))
    runs = [_groups(total, seed, range(k * filled // lanes,
                                       (k + 1) * filled // lanes))
            for k in range(lanes)]
    children = []
    try:
        for groups in runs[1:]:
            children.append(_fork_lane(draw, groups))
        parts = [_lane(draw, runs[0])]
        for k, child in enumerate(children, 1):
            children[k - 1] = None  # _join_lane reaps it, even if it raises
            parts.append(_lane(draw, runs[k]) if child is None
                         else _join_lane(*child))
    finally:
        for child in children:  # still running only when a lane raised
            if child is not None:
                os.close(child[1])
                _kill(child[0])
    return np.concatenate(parts, axis=-1)


def _lane(draw, groups: list[Streams]) -> np.ndarray:
    return np.concatenate([draw(g.size, g) for g in groups], axis=-1)


def _fork_lane(draw, groups: list[Streams]):
    """(pid, read end of its pipe) of a child process that runs one lane,
    or None where os.fork is missing or fails.

    The child sends back one pickled tuple: (True, array, warnings) or
    (False, exception, warnings), where warnings are the (text, category,
    filename, lineno) of every warning the lane issued that the inherited
    filters let through.  It then leaves with os._exit, so no exit handler
    or buffered output of the caller runs twice."""
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    read, write = os.pipe()
    try:
        pid = fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, read
    try:  # the child
        os.close(read)
        with warnings.catch_warnings(record=True) as caught:
            try:
                out = (True, _lane(draw, groups))
            except BaseException as exc:  # noqa: BLE001  (sent to the caller)
                out = (False, _portable(exc))
        seen = [(str(w.message), w.category, w.filename, w.lineno)
                for w in caught]
        payload = pickle.dumps(out + (seen,), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _kill(pid: int) -> None:
    """Kill the child lane `pid` and reap it."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _portable(exc: BaseException) -> BaseException:
    """`exc` with its lane's traceback as a note, or a RuntimeError naming
    it where it does not survive pickling."""
    if hasattr(exc, "add_note"):  # Python >= 3.11
        exc.add_note("raised in a forked Monte Carlo lane:\n"
                     + "".join(traceback.format_tb(exc.__traceback__)))
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _join_lane(pid: int, read: int) -> np.ndarray:
    """The array of the child lane `pid`, once it has exited; its warnings
    are issued again here and its exception raised here."""
    try:
        with os.fdopen(read, "rb") as fh:
            payload = fh.read()
    except BaseException:
        _kill(pid)
        raise
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"Monte Carlo lane process {pid} died with exit "
                           f"code {os.waitstatus_to_exitcode(status)}")
    ok, value, seen = pickle.loads(payload)
    # this module's registry, so that a "default" filter shows a warning
    # once however many lanes and calls issue it, as without lanes
    registry = globals().setdefault("__warningregistry__", {})
    for text, category, filename, lineno in seen:
        warnings.warn_explicit(text, category, filename, lineno,
                               registry=registry)
    if not ok:
        raise value
    return value


def dufresne_test(lam: float, a: float, samples: int, seed: int,
                  tail_tol: float = 1e-6, workers: int = 1) -> KsResult:
    """KS at the 1% level of truncated perpetuity-series draws against
    inverse-gamma(lam, a^2/2); tail_tol is the eps = delta of
    walk.n_infinity_batch's stopping rule."""
    if lam <= 0.0:
        raise ValueError("the limit law requires lambda > 0")
    draws = _sharded(lambda c, r: n_infinity_batch(lam, a, c, r, tail_tol),
                     samples, seed, workers)
    target = InvGammaParams(lam, a * a / 2.0)
    return ks_one_sample(draws, lambda x: inverse_gamma_cdf(target, x))


def n_part_statistics(lam: float, a: float, checkpoints, samples: int,
                      seed: int, workers: int = 1) -> dict[int, KsResult]:
    """Two-sample KS at the 1% level of N_n against N_inf draws at several
    n, nested paths.

    All checkpoints observe the same trajectories and share one reference
    N_inf sample, so statistics are comparable across n: since the path's
    remaining tail only shrinks, transient error cannot grow with n.
    """
    if lam <= 0.0:
        raise ValueError("convergence requires lambda > 0")
    marks = sorted(set(int(c) for c in checkpoints))
    if not marks or marks[0] < 1:
        raise ValueError(f"checkpoints must be at least 1, got {marks[:1]}")
    params = GigParams.symmetric(lam, a)
    table = _sharded(lambda c, r: simulate_batch(params, 1.0, c, r, marks)[1],
                     samples, seed, workers)
    ref_seed = int(np.random.SeedSequence(seed).generate_state(2)[1])
    reference = _sharded(lambda c, r: n_infinity_batch(lam, a, c, r),
                         samples, ref_seed, workers)
    return {m: ks_two_sample(table[i], reference) for i, m in enumerate(marks)}


def _walk_steps(n: int, t: float) -> int:
    """floor(n t), the steps of the walk at delta = 1/n up to time t;
    ValueError when it never steps."""
    m = int(np.floor(n * t))
    if m < 1:
        raise ValueError(f"floor(n*t) = {m} at n={n}, t={t}: the walk takes "
                         "no step, so there is nothing to test")
    return m


def donsker_check(lam: float, n: int, t: float, samples: int, seed: int,
                  workers: int = 1) -> KsResult:
    """KS at the 1% level of sum_{j < floor(nt)} log gamma_j^(sqrt n) against
    Normal(lam*t, t); ValueError when floor(nt) = 0, a walk that never steps."""
    params = GigParams.symmetric(lam, np.sqrt(n))
    m = _walk_steps(n, t)
    # the walk's log X row is the sum of log increments
    draws = _sharded(lambda c, r: simulate_batch(params, 1.0, c, r, [m])[0, 0],
                     samples, seed, workers)
    sd = np.sqrt(t)
    return ks_one_sample(draws, lambda x: special.ndtr((x - lam * t) / sd))


@dataclass(frozen=True)
class BrownianConfig:
    """Euler mesh for the exponential Brownian functional."""

    drift: float
    t: float
    dt: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.drift, self.t, self.dt))):
            raise ValueError("drift, t and dt must be finite")
        if not (0.0 < self.dt < self.t):
            raise ValueError("need 0 < dt < t")

    @property
    def steps(self) -> int:
        return int(round(self.t / self.dt))


def simulate_my_continuous(config: BrownianConfig, rng, size: int) -> np.ndarray:
    """`size` draws of e^{B_T} * int_0^T e^{-2 B_s} ds on the config mesh.

    Left-endpoint Riemann sum of the integrand, O(dt) bias.  The mesh runs
    config.steps = round(t/dt) steps, so it ends at T = steps*dt, which is
    t only when dt divides t.  `rng` may be a gig.Streams of `size` draws.

    The steps run in blocks of EULER_BLOCK_STEPS (see _euler_blocks): each
    shard's generator fills a block's Gaussians in one call, and one helper
    thread fills the next block while this thread does the arithmetic of
    the current one.  The result equals the plain loop
        acc += exp(-2*b) * dt;  b = b + drift*dt + sqrt(dt)*xi
    with one standard_normal call per shard and step, bit for bit.
    """
    count = int(size)
    b = np.zeros(count)
    acc = np.zeros(count)
    _euler_blocks(config, Streams.of(rng, count), b, acc)
    return np.exp(b) * acc


def _euler_blocks(config: BrownianConfig, streams: Streams, b: np.ndarray,
                  acc: np.ndarray) -> None:
    """Advance b and acc in place over config.steps Euler steps, the
    Gaussians drawn from `streams` a block of EULER_BLOCK_STEPS steps at a
    time.

    A shard's generator fills a contiguous (rows, count) array in one
    standard_normal call, which yields exactly the numbers of `rows` calls
    of `count` draws in row order: each draw takes whole words from the bit
    generator and keeps nothing between calls.  The filler scales the rows
    by sqrt(dt) into the shard's columns of one of two block arrays.  While
    this thread steps block j, one helper thread fills block j+1; both take
    shard indices from one shared iterator (its next() is atomic under the
    interpreter lock, so each shard is filled once), and this thread joins
    the fills when its arithmetic is done, so the split balances itself.
    Generator fills and large ufunc loops release the lock, so the two
    threads overlap; shards fill into disjoint columns.  The arithmetic is
    the plain loop's, in-place and in its order (acc += exp(-2*b)*dt, then
    b += drift*dt and b += sqrt(dt)*xi), so every output bit is the plain
    loop's whatever the grouping of the shards.  The helper exists only
    inside this call; an error in either thread's fills reaches the caller
    once both threads have stopped.

    On a 2-core x86-64 host, 20000 samples at dt = 1e-4 and (drift, t) =
    (1, 1) took 2.2-2.5 s, against 3.8-4.0 s one step at a time.  Longer
    blocks hold more memory and did not pay: 16 steps took 2.3-2.7 s.
    """
    steps, dt = config.steps, config.dt
    sdt = np.sqrt(dt)
    drift_dt = config.drift * dt
    edges = streams.edges.tolist()
    segs = [(rng, lo, hi) for rng, lo, hi
            in zip(streams.rngs, edges[:-1], edges[1:]) if hi > lo]
    widest = max((hi - lo for _, lo, hi in segs), default=0)
    blocks = np.empty((2, EULER_BLOCK_STEPS, b.size))
    spares = np.empty((2, EULER_BLOCK_STEPS * widest))  # one per thread
    work = np.empty(b.size)

    def fill(shards, rows, dest, spare):
        for i in shards:
            rng, lo, hi = segs[i]
            part = spare[:rows * (hi - lo)].reshape(rows, hi - lo)
            rng.standard_normal(out=part)
            np.multiply(part, sdt, out=dest[:rows, lo:hi])

    def advance(scaled):
        for xi in scaled:
            np.multiply(b, -2.0, out=work)
            np.exp(work, out=work)
            np.multiply(work, dt, out=work)
            np.add(acc, work, out=acc)
            np.add(b, drift_dt, out=b)
            np.add(b, xi, out=b)

    ready = blocks[1, :0]  # no steps before the first block is filled
    with ThreadPoolExecutor(1) as helper:
        for j, start in enumerate(range(0, steps, EULER_BLOCK_STEPS)):
            rows = min(EULER_BLOCK_STEPS, steps - start)
            dest = blocks[j % 2]
            shards = iter(range(len(segs)))
            job = helper.submit(fill, shards, rows, dest, spares[1])
            advance(ready)
            fill(shards, rows, dest, spares[0])
            job.result()
            ready = dest[:rows]
    advance(ready)


@dataclass(frozen=True)
class ScalingLimitResult:
    ks: KsResult
    threshold: float
    passed: bool


def scaling_limit_test(lam: float, n: int, t: float, samples: int, dt: float,
                       seed: int, workers: int = 1) -> ScalingLimitResult:
    """Two-sample KS between Z_{floor(nt)} of the walk at delta = 1/n with
    GIG(lam, sqrt n, sqrt n) increments and the Brownian-functional simulator.

    The limit theorem carries no rate, so the pass criterion is the fixed
    engineering bound SCALING_KS_BOUND = 0.02 on the statistic, not an
    asymptotic critical value.  ValueError when floor(nt) = 0, a walk that
    never steps.
    """
    m = _walk_steps(n, t)
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
    return ScalingLimitResult(ks, SCALING_KS_BOUND,
                              bool(ks.statistic < SCALING_KS_BOUND))


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
                          seed: int, workers: int = 1,
                          min_hits: int = 1000) -> GeneratorDriftResult:
    """Empirical drift and diffusion of the scaled Z chain near level z.

    Runs the walk at delta = 1/n, a = sqrt(n); after burn-in n/2 every step
    with Z inside (z +- 0.05 z) contributes its increment, pooled over
    paths and steps.  n * mean and n * variance of the pooled increments
    estimate the generator coefficients; `samples` is the target pooled count
    of post-burn-in steps.
    """
    params = GigParams.symmetric(lam, np.sqrt(n))
    delta = 1.0 / n
    burn = n // 2
    paths_total = max(SHARDS, int(np.ceil(samples / max(n - burn, 1))))
    eps = 0.05 * z

    def accumulate(count, streams):
        log_x, n_na = simulate_batch(params, delta, count, streams,
                                     range(burn, n + 1))
        zz = n_na * np.exp(log_x)  # Z_burn .. Z_n
        sums = []
        edges = streams.edges
        for lo, hi in zip(edges[:-1], edges[1:]):  # one column per shard
            zs = zz[:, lo:hi]
            dz = np.diff(zs, axis=0)[np.abs(zs[:-1] - z) < eps]
            sums.append([float(dz.size), float(dz.sum()), float(dz @ dz)])
        return np.array(sums).T

    table = _sharded(accumulate, paths_total, seed, workers)
    hits = int(table[0].sum())
    if hits < min_hits:
        raise InsufficientConditioningError(
            f"only {hits} steps fell in the window around z={z}; "
            "increase samples")
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


def _distance_row_sums(v: np.ndarray) -> np.ndarray:
    """sum_j |v_i - v_j| for every i, from one sort and one cumsum: the value
    ranked k among n has k values below it and n - 1 - k above."""
    order = np.argsort(v)
    ranked = v[order]
    below = np.cumsum(ranked) - ranked
    out = np.empty(v.size)
    out[order] = (ranked * (2.0 * np.arange(v.size) - v.size)
                  + ranked.sum() - 2.0 * below)
    return out


# rows of the |x_i - x_j| |y_i - y_j| sum taken at once: two strips of
# 64 x 2000 doubles stay in cache, where whole matrices do not
_DCOV_STRIP = 64


def _dcov_sums(x: np.ndarray, y: np.ndarray, block: int) -> list[float]:
    """The U-statistics dCov^2(x, y), dCov^2(x, x) and dCov^2(y, y) of each
    disjoint block of `block` samples, summed over the blocks; a tail
    shorter than a block is left out.

    With distances a_ij = |x_i - x_j|, b_ij = |y_i - y_j|, row sums a_i.
    and totals a.., the U-centred matrices of a block of n samples have

        sum_(i != j) A~_ij B~_ij = sum a_ij b_ij - 2/(n - 2) sum_i a_i. b_i.
                                   + a.. b.. / ((n - 1)(n - 2)),

    and dCov^2 is that over n (n - 3) (Szekely and Rizzo 2014).  Only
    sum a_ij b_ij takes a pass over the n x n pairs, in strips of rows;
    sum a_ij^2 = 2n sum x_i^2 - 2 (sum x_i)^2 is closed-form in the centred
    block, and the row sums come from _distance_row_sums.  On a 2-core
    x86-64 host, 1e5 samples in blocks of 2000 took 0.7 s, against 4.2 s
    forming the two U-centred matrices and their three products, with the
    three sums equal to 3e-15 relative.
    """
    n = block
    d, e = np.empty((_DCOV_STRIP, n)), np.empty((_DCOV_STRIP, n))
    sums = [0.0, 0.0, 0.0]
    for lo in range(0, x.size - n + 1, n):
        u = x[lo:lo + n] - x[lo:lo + n].mean()
        v = y[lo:lo + n] - y[lo:lo + n].mean()
        cross = 0.0
        for i in range(0, n, _DCOV_STRIP):
            j = min(i + _DCOV_STRIP, n)
            du, dv = d[:j - i], e[:j - i]
            np.abs(np.subtract.outer(u[i:j], u, out=du), out=du)
            np.abs(np.subtract.outer(v[i:j], v, out=dv), out=dv)
            cross += float(np.vdot(du, dv))
        ru, rv = _distance_row_sums(u), _distance_row_sums(v)
        pairs = ((cross, ru, rv),
                 (2.0 * n * float(u @ u) - 2.0 * float(u.sum()) ** 2, ru, ru),
                 (2.0 * n * float(v @ v) - 2.0 * float(v.sum()) ** 2, rv, rv))
        for k, (ab, ra, rb) in enumerate(pairs):
            sums[k] += (ab - 2.0 / (n - 2) * float(ra @ rb)
                        + float(ra.sum()) * float(rb.sum()) / ((n - 1) * (n - 2))
                        ) / (n * (n - 3))
    return sums


def _dcor_unbiased(dxy: float, dxx: float, dyy: float) -> float:
    """U-centered distance correlation from the _dcov_sums; ~0 under
    independence."""
    if dxx <= 0.0 or dyy <= 0.0:
        return 0.0
    return float(np.sqrt(max(dxy / np.sqrt(dxx * dyy), 0.0)))


def z_independence_check(lam: float, a: float, n: int, samples: int,
                         seed: int, statistic: str = "n_na",
                         workers: int = 1) -> ZIndependenceResult:
    """Correlation of the early Z coordinates with the (near-)limiting NA-part.

    statistic="n_na" uses N_n = Z_n/X_n as the N_inf proxy, which should be
    uncorrelated with every Z_k; statistic="log_x" substitutes log X_n, the
    deliberate-fault control that keeps a visible dependence on the early
    increments (raw X_n would not: its correlation is washed out by the
    exploding variance of the product).  The distance correlation needs
    blocks of at least 4 samples, so fewer raise ValueError.
    """
    if lam <= 0.0:
        raise ValueError("requires lambda > 0")
    if samples < 4:
        raise ValueError(f"samples must be at least 4, got {samples}")
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
    # pooled over every disjoint block of 2000 samples: one block read
    # above 0.02 under the null, or below it on the control, on chance alone
    dcor = _dcor_unbiased(*_dcov_sums(zs[2], target, min(2000, samples)))
    max_abs = max(abs(v) for v in correlations.values())
    return ZIndependenceResult(correlations, max_abs, 3.0 / np.sqrt(samples),
                               dcor, statistic)
