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
reconstruction checks, while N only adds positive terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gig import GigParams, gig_sample

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
    """Realized trajectory: gammas[k] = gamma_k, log_xs[k] = log X_{k+1}, etc."""

    gammas: np.ndarray
    log_xs: np.ndarray
    log_zs: np.ndarray
    delta: float

    @property
    def steps(self) -> int:
        return self.gammas.size

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
        gammas = np.asarray(gammas, dtype=float)
        if gammas.ndim != 1 or gammas.size < 1:
            raise ValueError("need at least one increment")
        if np.any(gammas <= 0.0):
            raise ValueError("increments must be positive")
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        log_g = np.log(gammas)
        log_xs = np.cumsum(log_g)
        # log N_k over the perpetuity terms delta gamma_k^-1 X_k^-2, X_0 = 1
        terms = np.log(delta) - log_g
        terms[1:] -= 2.0 * log_xs[:-1]
        log_zs = np.logaddexp.accumulate(terms) + log_xs
        return cls(gammas, log_xs, log_zs, delta)


def simulate_path(config: WalkConfig, rng=None, gammas=None) -> WalkPath:
    """Simulate a path; a deterministic gamma stream may be injected for oracles."""
    if gammas is None:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        gammas = gig_sample(config.gig, rng, config.steps)
    else:
        gammas = np.asarray(gammas, dtype=float)
        if gammas.size != config.steps:
            raise ValueError("injected stream length must equal steps")
    return WalkPath.from_gammas(gammas, config.delta)


def simulate_batch(params: GigParams, delta: float, count: int, rng,
                   marks) -> np.ndarray:
    """Step `count` independent walks to max(marks), one gig_sample call of
    `count` draws per step; returns (log X, N) stacked at the sorted marks,
    shape (2, len(marks), count).  Mark 0 is the identity: log X = N = 0.

    N grows by the positive terms delta exp(-log gamma - 2 log X), which may
    underflow to 0 but overflow only for log X below -354; callers derive
    Z = N exp(log X) at the marks they need.
    """
    marks = sorted(set(int(m) for m in marks))
    log_x = np.zeros(count)
    n = np.zeros(count)
    out = np.empty((2, len(marks), count))
    step = 0
    with np.errstate(under="ignore"):
        for i, mark in enumerate(marks):
            for _ in range(mark - step):
                log_g = np.log(gig_sample(params, rng, count))
                n += delta * np.exp(-log_g - 2.0 * log_x)
                log_x += log_g
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


def n_infinity_batch(lam: float, a: float, size: int, rng,
                     tail_tol: float = 1e-10, window: int = 50,
                     max_terms: int = 10**6) -> np.ndarray:
    """Vectorized draws of N_inf = sum_k gamma_k^-1 (prod_{i<k} gamma_i^-1)^2.

    A sample stops once the squared prefix product has stayed below
    tail_tol times its partial sum for `window` consecutive terms; the
    persistence requirement survives downward excursions of the underlying
    log-gamma walk.  Exceeding `max_terms` raises DivergenceError (the
    series only converges a.s. for lam > 0).
    """
    params = GigParams.symmetric(lam, a)
    total = np.zeros(size)
    log_prefix = np.zeros(size)
    persist = np.zeros(size, dtype=np.int64)
    active = np.arange(size)
    for _ in range(max_terms):
        if not active.size:
            return total
        g = gig_sample(params, rng, active.size)
        log_g = np.log(g)
        with np.errstate(over="ignore", under="ignore"):
            total[active] += np.exp(log_prefix[active] - log_g)
            log_prefix[active] -= 2.0 * log_g
            if not np.all(np.isfinite(total[active])):
                raise DivergenceError(
                    "perpetuity series overflowed; "
                    "requires E[log gamma] > 0 (lambda > 0)")
            small = np.exp(log_prefix[active]) < tail_tol * total[active]
        persist[active] = np.where(small, persist[active] + 1, 0)
        active = active[persist[active] < window]
    raise DivergenceError(
        f"perpetuity series still active after {max_terms} terms; "
        "requires E[log gamma] > 0 (lambda > 0)")


def reconstruct_x_finite(zs, n_future: float) -> float:
    """Finite-horizon inversion: X_n = Z_n/N_{n+p} + Z_n sum_k 1/(Z_{n+k-1} Z_{n+k}).

    `zs` holds Z_n .. Z_{n+p} from one path and `n_future` the NA-part
    N_{n+p} of the same path; the identity is exact for every n, p >= 0.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.size < 1:
        raise ValueError("need at least Z_n")
    if np.any(zs <= 0.0) or n_future <= 0.0:
        raise ValueError("inputs must be positive")
    with np.errstate(over="ignore"):  # Z_k Z_(k+1) = inf adds 1/inf = 0, exact
        series = np.sum(1.0 / (zs[:-1] * zs[1:]))
    return float(zs[0] / n_future + zs[0] * series)


def reconstruct_x_limit(zs_tail=None, *, log_zs_tail=None, n_inf=None,
                        positive_lambda: bool = True, tol: float = 1e-6) -> float:
    """Infinite-horizon inversion; returns log X_n.

    positive_lambda=True needs the limiting NA-part `n_inf` and computes
        log X_n = log(Z_n / N_inf) + log1p(N_inf * S),
    otherwise (drift nonpositive, N_{n+p} -> inf)
        log X_n = log Z_n + log S,
    with S = sum_{k>=1} 1/(Z_{n+k-1} Z_{n+k}) truncated at the available
    tail.  Either plain Z values or their logs may be supplied; raises
    InsufficientTailError when the trailing min(100, half) terms still
    contribute more than `tol` relative to S.
    """
    if (zs_tail is None) == (log_zs_tail is None):
        raise ValueError("supply exactly one of zs_tail / log_zs_tail")
    if zs_tail is not None:
        zs_tail = np.asarray(zs_tail, dtype=float)
        if np.any(zs_tail <= 0.0):
            raise ValueError("Z values must be positive")
        lz = np.log(zs_tail)
    else:
        lz = np.asarray(log_zs_tail, dtype=float)
    if lz.size < 8:
        raise InsufficientTailError("tail must contain at least 8 values")
    with np.errstate(under="ignore"):
        terms = np.exp(-(lz[:-1] + lz[1:]))
    s = float(np.sum(terms))
    if s <= 0.0:
        raise InsufficientTailError("series underflowed to zero")
    probe = min(100, terms.size // 2)
    if float(np.sum(terms[-probe:])) > tol * s:
        raise InsufficientTailError(
            f"last {probe} series terms exceed the requested tolerance")
    if positive_lambda:
        if n_inf is None or n_inf <= 0.0:
            raise ValueError("positive-drift reconstruction needs n_inf > 0")
        return float(lz[0] - np.log(n_inf) + np.log1p(n_inf * s))
    return float(lz[0] + np.log(s))


def path_to_csv(path: WalkPath, fileobj) -> None:
    """Dump (k, gamma, x, z, n_na, n_an) rows, full precision, with header."""
    fileobj.write("k,gamma,x,z,n_na,n_an\n")
    xs, zs = path.xs, path.zs
    for k in range(path.steps):
        n_na = float(np.exp(path.log_zs[k] - path.log_xs[k]))
        n_an = float(np.exp(path.log_xs[k] + path.log_zs[k]))
        fileobj.write(f"{k + 1},{float(path.gammas[k])!r},{float(xs[k])!r},"
                      f"{float(zs[k])!r},{n_na!r},{n_an!r}\n")
