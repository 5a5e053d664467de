"""The matrix random walk, its X/Z coordinates, and reconstruction formulas.

State lives in the group of lower-triangular SL2 matrices [[x, 0], [z, 1/x]].
One step right-multiplies by [[gamma, 0], [delta, 1/gamma]], so

    X_{k+1} = gamma_k X_k,      Z_{k+1} = gamma_k Z_k + delta / X_k,

with X_1 = gamma_0 and Z_1 = delta.  Walks run in log X and the NA-part
N = Z/X, the partial sum of the discrete Dufresne perpetuity

    N_{k+1} = N_k + delta gamma_k^-1 X_k^-2,

and derive Z = N X (a WalkPath keeps log Z = log N + log X): for
|E log gamma| > 0 the raw coordinates drift exponentially and leave the
double range long before the horizons used by the scaling-limit and
reconstruction checks, while N only adds positive terms.  The
reconstruction formulas take and return logs for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gig import GigParams, Streams, gig_sample

__all__ = [
    "DivergenceError",
    "InsufficientTailError",
    "NParts",
    "WalkConfig",
    "WalkPath",
    "f_n",
    "n_infinity_batch",
    "n_parts",
    "path_to_csv",
    "phi_forward",
    "phi_inverse",
    "phi_jacobian_det",
    "reconstruct_x_finite",
    "reconstruct_x_limit",
    "simulate_batch",
    "simulate_path",
]


class DivergenceError(RuntimeError):
    """Perpetuity series failed to converge within the iteration cap."""


class InsufficientTailError(ValueError):
    """Reconstruction tail too short for the requested tolerance."""


@dataclass(frozen=True)
class WalkConfig:
    gig: GigParams
    delta: float
    steps: int
    seed: int

    def __post_init__(self):
        if not self.gig.is_symmetric:
            raise ValueError("walk increments use the symmetric GIG(lam, a, a) law")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError("delta must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


@dataclass(frozen=True)
class WalkPath:
    """Realized trajectory: gammas[k] = gamma_k, log_xs[k] = log X_{k+1}, etc.

    The arrays may hold several paths of equal length, one a row along the
    last axis (see from_gammas).
    """

    gammas: np.ndarray
    log_xs: np.ndarray
    log_zs: np.ndarray
    delta: float

    @property
    def steps(self) -> int:
        return self.gammas.shape[-1]

    @property
    def xs(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_xs)

    @property
    def zs(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_zs)

    @classmethod
    def from_gammas(cls, gammas, delta: float) -> "WalkPath":
        """The path of the increments along the last axis of `gammas`.

        A 2-D `gammas` holds one path a row, and each row comes out as it
        does alone, bit for bit: cumsum and logaddexp.accumulate run along
        the row in order.  Rows of unequal length may be padded at the end
        with unit increments, which leave every earlier step unchanged.
        """
        gammas = np.asarray(gammas, dtype=float)
        if gammas.ndim not in (1, 2) or gammas.shape[-1] < 1:
            raise ValueError("need at least one increment")
        if np.any(gammas <= 0.0):
            raise ValueError("increments must be positive")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        log_g = np.log(gammas)
        log_xs = np.cumsum(log_g, axis=-1)
        # log N_k over the perpetuity terms delta gamma_k^-1 X_k^-2, X_0 = 1,
        # then log Z = log N + log X, all in the array log_g was in
        terms = np.subtract(np.log(delta), log_g, out=log_g)
        terms[..., 1:] -= 2.0 * log_xs[..., :-1]
        log_zs = np.logaddexp.accumulate(terms, axis=-1, out=terms)
        log_zs += log_xs
        return cls(gammas, log_xs, log_zs, delta)


def simulate_path(config: WalkConfig, rng=None) -> WalkPath:
    """Simulate a path from `rng`, by default a generator seeded with config.seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return WalkPath.from_gammas(gig_sample(config.gig, rng, config.steps),
                                config.delta)


def _step(params: GigParams, delta: float, rng, log_x, n, term) -> None:
    """One step of the walks whose log X and N are `log_x` and `n`, in place:
    N += delta exp(-2 log X - log gamma), then log X += log gamma, one
    gig_sample call of one draw a walk; `term` is a work array of their size.

    The recursion runs in the callers' work arrays, reused from step to
    step, with the operations of the plain expression in order.
    (-2 log X) - log gamma and (-log gamma) - 2 log X are one real number
    (doubling and negation are exact): the same double.
    """
    log_g = gig_sample(params, rng, log_x.size)
    np.log(log_g, out=log_g)
    np.multiply(log_x, -2.0, out=term)
    term -= log_g
    np.exp(term, out=term)
    term *= delta
    n += term
    log_x += log_g


def simulate_batch(params: GigParams, delta: float, count: int, rng,
                   marks) -> np.ndarray:
    """Step `count` independent walks to max(marks), one gig_sample call of
    `count` draws per step (`rng` may be a Streams of `count` draws);
    returns (log X, N) stacked at the sorted marks, shape
    (2, len(marks), count).  Mark 0 is the identity: log X = N = 0; a
    negative mark raises ValueError.

    N grows by the positive terms delta exp(-log gamma - 2 log X), which may
    underflow to 0 but overflow only for log X below -354; callers derive
    Z = N exp(log X) at the marks they need.
    """
    marks = sorted(set(int(m) for m in marks))
    if marks and marks[0] < 0:
        raise ValueError(f"marks must be nonnegative, got {marks[0]}")
    log_x = np.zeros(count)
    n = np.zeros(count)
    term = np.empty(count)
    out = np.empty((2, len(marks), count))
    step = 0
    with np.errstate(under="ignore"):
        for i, mark in enumerate(marks):
            for _ in range(mark - step):
                _step(params, delta, rng, log_x, n, term)
            step = mark
            out[0, i] = log_x
            out[1, i] = n
    return out


@dataclass(frozen=True)
class NParts:
    """Unipotent entries of the two factorizations: n_na = Z/X, n_an = X*Z."""

    n_na: float
    n_an: float


def n_parts(path: WalkPath, index: int) -> NParts:
    """N-parts at 1-based step index (N_index, Ntilde_index)."""
    if not 1 <= index <= path.steps:
        raise IndexError("index out of range")
    lx, lz = path.log_xs[index - 1], path.log_zs[index - 1]
    with np.errstate(over="ignore"):
        return NParts(float(np.exp(lz - lx)), float(np.exp(lx + lz)))


def phi_forward(ys):
    """(y_0..y_{n-1}) -> (z_2..z_n, x_n) through the walk recursion at delta = 1."""
    ys = np.asarray(ys, dtype=float)
    if ys.size < 2:
        raise ValueError("need n >= 2 inputs")
    if np.any(ys <= 0.0):
        raise ValueError("inputs must be positive")
    x, z = ys[0], 1.0
    zs = np.empty(ys.size - 1)
    for k in range(1, ys.size):
        z = ys[k] * z + 1.0 / x
        x = ys[k] * x
        zs[k - 1] = z
    return zs, float(x)


def phi_inverse(zs, x):
    """Invert phi_forward: recover (y_0..y_{n-1}) from (z_2..z_n, x_n).

    Backward pass x_{k-1} = (x_k z_{k-1} + 1)/z_k with z_1 = 1; positivity of
    the inputs forces positivity of every reconstructed increment, matching
    the bijectivity of the transformation on the positive orthant.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.size < 1:
        raise ValueError("need n >= 2, i.e. at least z_2")
    if np.any(zs <= 0.0) or x <= 0.0:
        raise ValueError("non-invertible input: all z and x must be positive")
    zfull = np.concatenate(([1.0], zs))  # z_1..z_n
    xs = np.empty(zs.size + 1)
    xs[-1] = x
    for k in range(zs.size, 0, -1):
        xs[k - 1] = (xs[k] * zfull[k - 1] + 1.0) / zfull[k]
    ys = np.empty_like(xs)
    ys[0] = xs[0]
    ys[1:] = xs[1:] / xs[:-1]
    if np.any(ys <= 0.0):
        raise ValueError("non-invertible input: reconstructed increment <= 0")
    return ys


def phi_jacobian_det(zs) -> float:
    """Jacobian determinant of phi_forward in image coordinates: (-1)^(n-1) z_2..z_n."""
    zs = np.asarray(zs, dtype=float)
    if zs.size < 1:
        raise ValueError("need at least z_2")
    n = zs.size + 1
    return float((-1.0) ** (n - 1) * np.prod(zs))


def f_n(zs) -> float:
    """F_n(z_1..z_n) = sum_{k=1}^{n-1} (z_{k+1}^2 + z_k^2 + 1) / (z_{k+1} z_k)."""
    zs = np.asarray(zs, dtype=float)
    if zs.size < 2:
        raise ValueError("need n >= 2 values z_1..z_n")
    if np.any(zs <= 0.0):
        raise ValueError("z values must be positive")
    z0, z1 = zs[:-1], zs[1:]
    return float(np.sum((z1 * z1 + z0 * z0 + 1.0) / (z1 * z0)))


# relative allowance for the rounding of each kve ratio in the moment bound;
# kve's relative error was at most 2.2e-14 against 40-digit mpmath at 400
# random orders in [-5, 5] and arguments in [0.01, 900]
_KVE_SLACK = 1e-12


def _log_moment_bound(lam: float, a: float, s) -> np.ndarray:
    """log M_s, with M_s >= E N_inf^s for 0 < s < lam, from GIG moments alone.

    N_inf = sum_k t_k with t_k = gamma_k^-1 (gamma_0 .. gamma_{k-1})^-2, so
    E t_k^s = E gamma^-s (E gamma^-2s)^k, E gamma^q = K_{lam+q}(a^2)/K_lam(a^2)
    and E gamma^-2s < 1 exactly for 0 < s < lam.  For s <= 1,
    (sum t_k)^s <= sum t_k^s gives M_s = E gamma^-s / (1 - E gamma^-2s); for
    s > 1 Minkowski's inequality gives
    M_s^(1/s) = (E gamma^-s)^(1/s) / (1 - (E gamma^-2s)^(1/s)).  Both
    ratios are raised by _KVE_SLACK so that the rounding of kve cannot lower
    the bound; +inf where the denominator is not positive.
    """
    s = np.asarray(s, dtype=float)
    z = a * a
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norm = special.kve(lam, z)
        slack = 1.0 + _KVE_SLACK
        log_m1 = np.log(special.kve(lam - s, z) / norm * slack)
        m2 = special.kve(lam - 2.0 * s, z) / norm * slack
        p = np.maximum(s, 1.0)
        # 1 - m2^(1/p), without cancellation for m2 near 1
        gap = -np.expm1(np.log(m2) / p)
        return np.where(gap > 0.0, log_m1 - p * np.log(gap), np.inf)


def _stop_level(lam: float, a: float, tail_tol: float) -> float:
    """The stop level L = max_s [log eps + (log delta - log M_s) / s] of
    n_infinity_batch, eps = delta = tail_tol, over 256 values of s evenly
    spaced in (0, lam), in about 0.2 ms: within 0.03 of the maximum over
    8192 values at 11 points with lam in [0.02, 5] and a in [0.1, 30]."""
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    s = lam * (np.arange(1, 257) / 257.0)
    log_tol = math.log(tail_tol)
    level = float(np.max(log_tol + (log_tol - _log_moment_bound(lam, a, s)) / s))
    if not math.isfinite(level):
        raise ValueError(f"no finite perpetuity stop level at lambda={lam}, "
                         f"a={a}: K_lambda(a^2) leaves the double range")
    return level


def n_infinity_batch(lam: float, a: float, size: int, rng,
                     tail_tol: float = 1e-6,
                     max_terms: int = 10**6) -> np.ndarray:
    """Vectorized draws of N_inf = sum_k gamma_k^-1 (prod_{i<k} gamma_i^-1)^2.

    Requires lam > 0, where E[log gamma] > 0 and the series converges a.s.;
    lam <= 0 raises ValueError before any draw.  Exceeding `max_terms`
    raises DivergenceError.

    Stopping rule.  After K terms N_inf = S_K + P_K N', with S_K the partial
    sum, P_K = (gamma_0 .. gamma_{K-1})^-2 and N' a copy of N_inf
    independent of the first K increments.  For 0 < s < lam Markov's
    inequality gives

        P(P_K N' > eps S_K | gamma_0 .. gamma_{K-1}) <= M_s (P_K / (eps S_K))^s

    with M_s >= E N'^s from GIG moments alone (_log_moment_bound; never the
    inverse-gamma law under test).  A draw stops at the first K with
    log P_K - log S_K <= L, L = max_s [log eps + (log delta - log M_s) / s]
    (_stop_level, once per call), where that bound is at most delta.  K is
    a stopping time of the i.i.d. increments, so N' stays independent of
    it: with probability at least 1 - delta the dropped tail is at most eps
    times the returned sum S_K <= N_inf, and at every x the CDF of S_K
    exceeds that of N_inf by at most delta + P(x < N_inf <= (1 + eps) x).
    Here eps = delta = tail_tol, in (0, 1).  The test reads
    -2 log X - log N <= L, in logs: e^L underflows for lam below about 0.02.

    Each term is one walk step at delta = 1 (_step), the partial sum being
    N and the squared prefix product exp(-2 log X).  The loop carries only
    the live draws' state, compacted whenever some stop, in work arrays
    allocated once, and writes a draw to the output once.
    `rng` may be a Streams of `size` draws: each live sample then keeps
    drawing from its own segment's generator.
    """
    params = GigParams.symmetric(lam, a)
    if lam <= 0.0:
        raise ValueError(f"the perpetuity series requires lambda > 0, got {lam}")
    level = _stop_level(lam, a, tail_tol)
    streams = live_streams = Streams.of(rng, size)
    out = np.empty(size)
    live = np.arange(size)
    # the live draws' state in the leading `k` slots of each work array
    total = np.zeros(size)
    log_x = np.zeros(size)
    term = np.empty(size)
    log_n = np.empty(size)
    stop = np.empty(size, dtype=bool)
    k = size
    for _ in range(max_terms):
        if not k:
            return out
        tot, lx = total[:k], log_x[:k]
        tm, ln, st = term[:k], log_n[:k], stop[:k]
        with np.errstate(over="ignore", under="ignore"):
            _step(params, 1.0, live_streams, lx, tot, tm)
            if not np.isfinite(tot).all():
                raise DivergenceError(
                    "perpetuity series overflowed; "
                    "requires E[log gamma] > 0 (lambda > 0)")
            # log P_K - log S_K against the stop level
            np.multiply(lx, -2.0, out=tm)
            np.log(tot, out=ln)
            tm -= ln
            np.less_equal(tm, level, out=st)
        if st.any():
            out[live[st]] = tot[st]
            keep = (~st).nonzero()[0]
            live = live[keep]
            k = keep.size
            total[:k], log_x[:k] = tot[keep], lx[keep]
            live_streams = streams.kept(live)
    raise DivergenceError(
        f"perpetuity series still active after {max_terms} terms; "
        "requires E[log gamma] > 0 (lambda > 0)")


def _log_x_hat(log_zs, log_n=None):
    """log X_n = log Z_n + logaddexp(-log N, log S) along the last axis, with
    S = sum_k 1/(Z_{n+k-1} Z_{n+k}) over `log_zs` = log Z_n .. log Z_{n+p}.

    log S is a log-sum-exp shifted by its largest exponent, -inf for p = 0;
    `log_n` None stands for N = inf, so 1/N = 0.  Every step runs along the
    last axis, so each row of a 2-D `log_zs` comes out as it does alone, bit
    for bit (numpy sums a row of a C-contiguous array along the last axis as
    it sums that row alone).  No Z or 1/(Z Z) is ever formed, so nothing
    leaves the double range however far the walk drifts.
    """
    log_zs = np.asarray(log_zs, dtype=float)
    if log_zs.ndim not in (1, 2) or log_zs.shape[-1] < 1:
        raise ValueError("need at least log Z_n")
    inv_n = -np.inf if log_n is None else -np.asarray(log_n, dtype=float)
    if not (np.isfinite(log_zs).all() and np.all(inv_n < np.inf)):
        raise ValueError("log Z and log N must be finite")
    expo = -(log_zs[..., :-1] + log_zs[..., 1:])
    if expo.shape[-1]:
        top = expo.max(axis=-1)
        log_s = top + np.log(np.sum(np.exp(expo - top[..., None]), axis=-1))
    else:
        log_s = np.full(expo.shape[:-1], -np.inf)
    return log_zs[..., 0] + np.logaddexp(inv_n, log_s)


def reconstruct_x_finite(log_zs, log_n_future):
    """Finite-horizon inversion; returns log X_n from
    X_n = Z_n/N_{n+p} + Z_n sum_k 1/(Z_{n+k-1} Z_{n+k}).

    `log_zs` holds log Z_n .. log Z_{n+p} from one path and `log_n_future`
    the log NA-part log N_{n+p} of the same path; the identity is exact for
    every n, p >= 0.  A 2-D `log_zs` holds one path's run a row, all of the
    same p, with one `log_n_future` a row; each row's value, returned as an
    array, is the one its row gives alone, bit for bit.
    """
    out = _log_x_hat(log_zs, log_n_future)
    return float(out) if out.ndim == 0 else out


def reconstruct_x_limit(log_zs_tail, log_n_inf=None, tol: float = 1e-6) -> float:
    """Infinite-horizon inversion: the finite form with N_{n+p} -> N_inf;
    returns log X_n.

    `log_zs_tail` holds log Z_n onwards and `log_n_inf` the log of the
    limiting NA-part; None stands for nonpositive drift, where
    N_{n+p} -> inf and 1/N_inf = 0.  The series is truncated at the
    available tail: raises InsufficientTailError when the trailing
    min(100, half) terms still contribute more than `tol` relative to S.
    """
    lz = np.asarray(log_zs_tail, dtype=float)
    if lz.size < 8:
        raise InsufficientTailError("tail must contain at least 8 values")
    probe = min(100, (lz.size - 1) // 2)
    # log S of the whole tail and of its last `probe` terms
    log_s = _log_x_hat(lz) - lz[0]
    log_tail = _log_x_hat(lz[-probe - 1:]) - lz[-probe - 1]
    if log_tail - log_s > math.log(tol):
        raise InsufficientTailError(
            f"last {probe} series terms exceed the requested tolerance")
    return float(_log_x_hat(lz, log_n_inf))


def path_to_csv(path: WalkPath, fileobj) -> None:
    """Dump (k, gamma, x, z, n_na, n_an) rows, full precision, with header."""
    fileobj.write("k,gamma,x,z,n_na,n_an\n")
    xs, zs = path.xs, path.zs
    for k in range(path.steps):
        n_na = float(np.exp(path.log_zs[k] - path.log_xs[k]))
        n_an = float(np.exp(path.log_xs[k] + path.log_zs[k]))
        fileobj.write(f"{k + 1},{float(path.gammas[k])!r},{float(xs[k])!r},"
                      f"{float(zs[k])!r},{n_na!r},{n_an!r}\n")
