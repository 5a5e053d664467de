"""Closed-form transition densities and their numerical certification.

Four kernel families on the positive half-line, all tied to GIG(lam, a, a)
increments:

    Q(x, dy)      transition law of the lower-corner chain Z
    P(x, dy)      transition law of the diagonal chain X (x -> x * gamma)
    Lambda(z, dx) conditional law of X given Z = z (the link kernel)
    Ktilde(x, dy) transition law of the AN-part chain (y = gamma^2 x + gamma
                  with gamma of inverted shape parameter)

together with the inverse-gamma stationary density pi.  Compositions are
evaluated on a log-spaced grid whose trapezoid rule is spectrally accurate
for these doubly-exponentially decaying integrands, so the certified
identities (Lambda P = Q Lambda, pi Ktilde = pi, detailed balance) are
limited only by double precision.

A composition "lead @ kernel block" never holds the whole n x n block:
_apply_kernel evaluates the kernel over small row blocks of source points
and accumulates, so the temporaries stay small and every per-source term
(such as the Bessel normalizer of Lambda) is computed once.  P is never tabulated
as a block at all: P(x, y) = P(1, y/x)/x, and on a log-uniform grid y_j/x_i
depends only on j - i, so Lambda P is a Toeplitz convolution against one
row of 2n - 1 values of P(1, .).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gig import InvGammaParams, inverse_gamma_pdf
from .specfun import log_bessel_k

__all__ = [
    "GridCoverageError",
    "KernelDensity",
    "LogGrid",
    "characterization_discrepancy",
    "check_detailed_balance",
    "check_intertwining",
    "intertwining_residuals",
    "check_stationarity",
    "compose",
    "conditional_x2_given_z2",
    "conditional_x3_given_z3_z2",
    "ktilde_density",
    "lambda_density",
    "my_generator_coefficients",
    "p_density",
    "pi_density",
    "q_density",
    "residual_record",
]


class GridCoverageError(ValueError):
    """Quadrature grid does not cover the mass of the integrand."""


@dataclass(frozen=True)
class LogGrid:
    """Log-spaced points with weights for integrals over (0, inf).

    Weights are trapezoid in u = log x times the Jacobian x, so
    sum(w * f(points)) approximates the integral of f dx.  For integrands
    smooth in u and decaying to zero at both ends the rule inherits the
    Euler-Maclaurin spectral accuracy of the trapezoid on the line.
    """

    points: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    @property
    def size(self) -> int:
        return self.points.size

    @classmethod
    def make(cls, lo: float = 1e-6, hi: float = 1e6, n: int = 4000) -> "LogGrid":
        if not (0.0 < lo < hi) or n < 2:
            raise ValueError("need 0 < lo < hi and n >= 2 grid points")
        u = np.linspace(np.log(lo), np.log(hi), n)
        pts = np.exp(u)
        du = u[1] - u[0]
        w = np.full(n, du)
        w[0] = w[-1] = 0.5 * du
        return cls(pts, w * pts, lo, hi)

    def refined(self, factor: int = 2) -> "LogGrid":
        return LogGrid.make(self.lo, self.hi, (self.size - 1) * factor + 1)

    def integrate(self, values) -> float:
        return float(np.sum(self.weights * values))


_DEFAULT_GRID: LogGrid | None = None


def default_grid() -> LogGrid:
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = LogGrid.make()
    return _DEFAULT_GRID


def _pos(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"{name} must be positive")
    return x


def _as_out(logv):
    with np.errstate(over="ignore"):
        out = np.exp(logv)
    if np.ndim(out) == 0:
        return float(out)
    return out


def q_density(lam: float, a: float, x, y):
    """Z-chain kernel: (2K_lam(a^2))^-1 K_lam(a^2/y)/K_lam(a^2/x) y^-1
    exp(-a^2 (x^2+y^2+1)/(2xy))."""
    x, y = _pos(x, "x"), _pos(y, "y")
    a2 = a * a
    logv = (-np.log(2.0) - log_bessel_k(lam, a2)
            + log_bessel_k(lam, a2 / y) - log_bessel_k(lam, a2 / x)
            - np.log(y) - a2 * (x * x + y * y + 1.0) / (2.0 * x * y))
    return _as_out(logv)


def p_density(lam: float, a: float, x, y):
    """X-chain kernel: (2K_lam(a^2))^-1 y^(lam-1) x^-lam exp(-(a^2/2)(y/x + x/y)).

    Identical to the GIG(lam, a, a) density scaled by x, i.e. the law of
    x * gamma.
    """
    x, y = _pos(x, "x"), _pos(y, "y")
    a2 = a * a
    logv = (-np.log(2.0) - log_bessel_k(lam, a2)
            + (lam - 1.0) * np.log(y) - lam * np.log(x)
            - 0.5 * a2 * (y / x + x / y))
    return _as_out(logv)


def lambda_density(lam: float, a: float, z, x):
    """Link kernel (X given Z = z): the GIG(lam, a/sqrt(z), a/sqrt(z)) density."""
    z, x = _pos(z, "z"), _pos(x, "x")
    a2 = a * a
    logv = (-np.log(2.0) - log_bessel_k(lam, a2 / z)
            + (lam - 1.0) * np.log(x) - 0.5 * (a2 / z) * (x + 1.0 / x))
    return _as_out(logv)


def ktilde_density(lam: float, a: float, x, y):
    """AN-part kernel: pushforward of gamma ~ GIG(-lam, a, a) under
    y = gamma^2 x + gamma, written with the stable root
    gamma(y) = 2y / (1 + sqrt(1 + 4xy))."""
    x, y = _pos(x, "x"), _pos(y, "y")
    a2 = a * a
    s = np.sqrt(1.0 + 4.0 * x * y)
    g = 2.0 * y / (1.0 + s)
    logv = (-np.log(2.0) - log_bessel_k(lam, a2) - np.log(s)
            + (-lam - 1.0) * np.log(g) - 0.5 * a2 * (g + 1.0 / g))
    return _as_out(logv)


def pi_density(lam: float, a: float, x):
    """Stationary density of the AN-part chain: inverse-gamma(lam, a^2/2)."""
    if lam <= 0.0:
        raise ValueError("stationary law requires lambda > 0")
    return inverse_gamma_pdf(InvGammaParams(lam, a * a / 2.0), x)


_FAMILIES = {
    "Q": q_density,
    "P": p_density,
    "Lambda": lambda_density,
    "Ktilde": ktilde_density,
}


@dataclass(frozen=True)
class KernelDensity:
    """A tagged kernel family with fixed (lam, a); callable as k(source, target)."""

    family: str
    lam: float
    a: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {sorted(_FAMILIES)}")
        if self.a <= 0.0:
            raise ValueError("a must be positive")

    def __call__(self, source, target):
        return _FAMILIES[self.family](self.lam, self.a, source, target)


# largest kernel block evaluated at once: 2**14 doubles, 128 KiB.  The
# temporaries of a density evaluation then stay below glibc's default
# 128 KiB mmap threshold and are reused from the heap.  Larger blocks were
# mapped afresh and page-faulted in on every block (78k-92k minor faults per
# n = 4000 Ktilde pass, 2**15 to 2**19); smaller ones pay more per-call
# overhead.
_BLOCK_ELEMENTS = 1 << 14


def _apply_kernel(leads, kernel, pts: np.ndarray) -> np.ndarray:
    """leads @ [kernel(pts[i], pts[j])]_ij without forming the n x n block.

    leads has shape (..., n).  The kernel is evaluated over row blocks of
    source points, at most _BLOCK_ELEMENTS at a time, and the partial
    products are accumulated.
    """
    out = np.zeros(leads.shape[:-1] + pts.shape)
    rows = max(1, _BLOCK_ELEMENTS // pts.size)
    for i in range(0, pts.size, rows):
        src = pts[i:i + rows]
        out += leads[..., i:i + rows] @ np.asarray(kernel(src[:, None], pts[None, :]))
    return out


def _apply_p(lam: float, a: float, leads, pts: np.ndarray) -> np.ndarray:
    """leads @ [P(pts[i], pts[j])]_ij as a convolution on a log-uniform grid.

    leads has shape (k, n).  P(x, y) = P(1, y/x)/x and pts[j]/pts[i] =
    r^(j-i), so with phi[m] = P(1, r^(m-n+1)) for m < 2n - 1 the product is
    sum_i (leads_i / pts_i) phi[j - i + n - 1]: the n fully overlapping
    terms of a direct convolution, n^2 multiply-adds per row of leads.
    Raises ValueError when the grid is not log-uniform.
    """
    n = pts.size
    u = np.log(pts)
    uniform = u[0] + (u[-1] - u[0]) / (n - 1) * np.arange(n)
    if np.max(np.abs(u - uniform)) > 1e-12 * max(1.0, np.max(np.abs(u))):
        raise ValueError("the P kernel is applied as a convolution and needs "
                         "a log-uniform grid such as LogGrid.make")
    ratios = np.concatenate((pts[0] / pts[:0:-1], pts / pts[0]))
    phi = np.asarray(p_density(lam, a, 1.0, ratios))
    return np.array([np.convolve(phi, c, mode="valid") for c in leads / pts])


def compose(first, second, source: float, grid: LogGrid | None = None) -> np.ndarray:
    """(first second)(source, v) = int second(y, v) first(source, dy) on the grid.

    Returns the composed density tabulated at grid.points.  Raises
    GridCoverageError when the intermediate law puts more than 1e-10 of its
    mass on the outermost grid cells (the integral would silently truncate).
    """
    grid = grid or default_grid()
    pts, w = grid.points, grid.weights
    inner = np.asarray(first(source, pts), dtype=float)
    lead = w * inner
    edge = float(lead[:2].sum() + lead[-2:].sum())
    total = float(lead.sum())
    if edge > 1e-10 or abs(total - 1.0) > 1e-8:
        raise GridCoverageError(
            f"intermediate law poorly covered: boundary mass {edge:.2e}, "
            f"total mass {total:.6f}; widen the grid")
    return _apply_kernel(lead, second, pts)


def intertwining_residuals(lam: float, a: float, zs,
                           grid: LogGrid | None = None) -> dict[float, float]:
    """Sup-norm residuals of (Lambda P)(z, .) - (Q Lambda)(z, .) for several z.

    Lambda P is a Toeplitz convolution on the log-uniform grid (see
    _apply_p), with P evaluated once on the 2n - 1 grid ratios; Q Lambda
    takes one row-blocked pass of the Lambda kernel (_apply_kernel) shared
    by all source points.  Raises ValueError when the grid is not
    log-uniform.
    """
    grid = grid or default_grid()
    pts, w = grid.points, grid.weights
    zs = list(zs)
    lam_leads = np.array([w * np.asarray(lambda_density(lam, a, z, pts)) for z in zs])
    q_leads = np.array([w * np.asarray(q_density(lam, a, z, pts)) for z in zs])
    for z, lam_lead, q_lead in zip(zs, lam_leads, q_leads):
        for lead in (lam_lead, q_lead):
            if abs(float(lead.sum()) - 1.0) > 1e-8:
                raise GridCoverageError(
                    f"kernel from source {z} poorly covered by the grid")
    diff = (_apply_p(lam, a, lam_leads, pts)
            - _apply_kernel(q_leads, partial(lambda_density, lam, a), pts))
    worst = np.max(np.abs(diff), axis=-1)
    return {z: float(r) for z, r in zip(zs, worst)}


def check_intertwining(lam: float, a: float, z: float,
                       grid: LogGrid | None = None) -> float:
    """Sup-norm residual of (Lambda P)(z, .) - (Q Lambda)(z, .) on the grid."""
    return intertwining_residuals(lam, a, [z], grid)[z]


def check_stationarity(lam: float, a: float,
                       grid: LogGrid | None = None) -> float:
    """Sup-norm residual of int pi(x) ktilde(x, y) dx - pi(y) on the grid."""
    if lam <= 0.0:
        raise ValueError("stationarity check requires lambda > 0")
    grid = grid or default_grid()
    pts, w = grid.points, grid.weights
    lead = w * np.asarray(pi_density(lam, a, pts))
    out = _apply_kernel(lead, partial(ktilde_density, lam, a), pts)
    return float(np.max(np.abs(out - pi_density(lam, a, pts))))


def check_detailed_balance(lam: float, a: float, pairs) -> float:
    """Max |pi(x) ktilde(x,y) / (pi(y) ktilde(y,x)) - 1| over the given pairs."""
    pairs = np.asarray(pairs, dtype=float)
    x, y = pairs[:, 0], pairs[:, 1]
    log_ratio = (np.log(pi_density(lam, a, x)) + np.log(ktilde_density(lam, a, x, y))
                 - np.log(pi_density(lam, a, y)) - np.log(ktilde_density(lam, a, y, x)))
    return float(np.max(np.abs(np.expm1(log_ratio))))


def conditional_x2_given_z2(f, z: float, x, grid: LogGrid | None = None):
    """Conditional density of X_2 given Z_2 = z for generic increment density f:

        proportional to f((x+1)/z) * f(x z/(x+1)),

    normalized by quadrature over the grid.
    """
    grid = grid or default_grid()
    x = _pos(x, "x")
    if z <= 0.0:
        raise ValueError("z must be positive")

    def unnorm(t):
        return np.asarray(f((t + 1.0) / z)) * np.asarray(f(t * z / (t + 1.0)))

    norm = grid.integrate(unnorm(grid.points))
    if not norm > 0.0:
        raise ValueError("conditional normalization underflowed")
    out = unnorm(x) / norm
    if np.ndim(out) == 0:
        return float(out)
    return out


def conditional_x3_given_z3_z2(f, z: float, u: float, x,
                               grid: LogGrid | None = None):
    """Conditional density of X_3 given (Z_3, Z_2) = (z, u) for generic f:

        proportional to f((ux+z+1)/(uz)) * f((u^2 x+u)/(ux+z+1)) * f(xz/(ux+1)),

    normalized by quadrature over the grid.
    """
    grid = grid or default_grid()
    x = _pos(x, "x")
    if z <= 0.0 or u <= 0.0:
        raise ValueError("z and u must be positive")

    def unnorm(t):
        return (np.asarray(f((u * t + z + 1.0) / (u * z)))
                * np.asarray(f((u * u * t + u) / (u * t + z + 1.0)))
                * np.asarray(f(t * z / (u * t + 1.0))))

    norm = grid.integrate(unnorm(grid.points))
    if not norm > 0.0:
        raise ValueError("conditional normalization underflowed")
    out = unnorm(x) / norm
    if np.ndim(out) == 0:
        return float(out)
    return out


def characterization_discrepancy(f, z: float, u: float,
                                 grid: LogGrid | None = None) -> float:
    """Sup gap between the one-step and two-step conditionals over the grid.

    Vanishes (to quadrature precision) exactly when f is a GIG(lam, a, a)
    density; strictly positive for every other smooth positive law, which is
    the computable face of the characterization theorem.
    """
    grid = grid or default_grid()
    c2 = conditional_x2_given_z2(f, z, grid.points, grid)
    c3 = conditional_x3_given_z3_z2(f, z, u, grid.points, grid)
    return float(np.max(np.abs(c2 - c3)))


def my_generator_coefficients(lam: float, z: float) -> tuple[float, float]:
    """Drift and diffusion coefficients of the limiting Z diffusion at z.

    Generator (1/2) z^2 d^2/dz^2 + b(z) d/dz with

        b(z) = (1/2 + lam) z + K_(1-lam)(1/z) / K_lam(1/z),

    the Bessel ratio evaluated at argument 1/z (this reading is adjudicated
    empirically by stats.generator_drift_check).  Returns (b(z), z^2).
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    ratio = float(np.exp(log_bessel_k(1.0 - lam, 1.0 / z)
                         - log_bessel_k(lam, 1.0 / z)))
    return (0.5 + lam) * z + ratio, z * z


def residual_record(family: str, lam: float, a: float, source: float,
                    residual: float, grid: LogGrid, tolerance: float) -> dict:
    """JSON-ready record of one kernel residual check."""
    return {
        "family": family,
        "lambda": lam,
        "a": a,
        "source": source,
        "residual": residual,
        "grid_spec": {"lo": grid.lo, "hi": grid.hi, "n": grid.size},
        "tolerance": tolerance,
        "pass": bool(residual < tolerance),
    }
