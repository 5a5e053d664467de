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

Grids are sized by what the integrand needs, not by a point count.  The
log step LOG_STEP is an eighth of the step at which a certified residual
first breaks (1.6e-8 for intertwining at 125 points over [1e-6, 1e6],
against 1e-15 at 250), so the default span [1e-6, 1e6] gets 1000 points.
That step is certified for integrands no sharper than the sharpest one of
the acceptance points; intertwining_residuals and check_stationarity work
the width of their integrands out from (lam, a) and the sources, and a
sharper integrand gets a step shrunk in proportion to its log-width
(_step_for), so that every integrand gets as many points per width.  The
GIG characterization discrepancy needs no such sizing: its two conditionals
are one function up to a constant factor, so the quadrature errors of their
normalizers cancel.

The span is sized by the law being integrated: the kernels from the
certified source points decay doubly exponentially inside [1e-6, 1e6], but
pi = inverse-gamma(lam, a^2/2) has an x^(-lam-1) tail, so
check_stationarity by default spans pi's PI_TAIL and 1 - PI_TAIL quantiles
instead.

A composition "lead @ kernel" never holds the whole n x n block:
_apply_kernel takes the kernel in blocks of a few targets, each row holding
one target's values over every source, and fills the output slice by slice.
The structured passes build their blocks from 1-D tables, leaving one exp
per element that can be nonzero: a closed-form bound over each block's
targets finds the source columns whose log-density lies below exp's
underflow point, and those entries are set to 0.0 without an exp.
Lambda's log-density is a source term plus a target term plus a source
term times a target term (a rank-one exponent; the Bessel normalizers are
one call over the grid).  Ktilde depends on x y through s = sqrt(1 + 4xy)
and otherwise on y alone, and on a log-uniform grid x_i y_j depends only on
i + j, so its x y terms are tables over the 2n - 1 values of i + j, and a
block's exponents are one small matrix product of target terms with those
tables.  P is never tabulated as a block at all: P(x, y) = P(1, y/x)/x, and
on a log-uniform grid y_j/x_i depends only on j - i, so Lambda P is a
Toeplitz convolution against one row of 2n - 1 values of P(1, .).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import gammainccinv, gammaincinv, gammaln

from .gig import InvGammaParams
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


# log step of every grid sized by LogGrid.make: log(1e12)/999, so that the
# default span [1e-6, 1e6] gets 1000 points.  Halving it moves no certified
# residual by more than 1e-12 (tests/test_kernels.py); at 8x it does.
LOG_STEP = float(np.log(1e12) / 999)
# mass of pi left outside the default stationarity grid at each end
PI_TAIL = 1e-14


def _gig_curvature(lam: float, b: float) -> float:
    """Curvature at the mode, in u = log x, of the log-density
    (lam - 1) u - (b/2)(x + 1/x) of a GIG law: b cosh(u*) with b sinh(u*) =
    lam.  Its inverse square root is the law's width in log x."""
    return float(np.hypot(lam, b))


def _intertwining_curvature(lam: float, a: float, z: float) -> float:
    """Curvature in log y of the Lambda(z, y) P(y, .) integrand: that of
    Lambda(z, .) = GIG(lam, a/sqrt(z), a/sqrt(z)) plus that of P(., v), a GIG
    in b = a^2.  The Q(z, y) Lambda(y, .) integrand of the other side has the
    same leading term a^2 (1 + 1/z)."""
    return _gig_curvature(lam, a * a / z) + _gig_curvature(lam, a * a)


# sharpest integrand of the points LOG_STEP is certified at: Lambda P from
# z = 0.2 at lam = a = 2, a point of the acceptance suite and a corner of
# the benchmark box [0.5, 2]^2 (its log-width is 0.20, 7.3 steps)
_CERTIFIED_CURVATURE = _intertwining_curvature(2.0, 2.0, 0.2)


def _step_for(curvature: float) -> float:
    """LOG_STEP, shrunk in proportion to the log-width curvature^(-1/2) of a
    sharper integrand than the certified one, so that it gets as many points
    per width; the trapezoid error depends on the step through that ratio."""
    return LOG_STEP * min(1.0, float(np.sqrt(_CERTIFIED_CURVATURE / curvature)))


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
    def make(cls, lo: float = 1e-6, hi: float = 1e6, n: int | None = None,
             step: float | None = None) -> "LogGrid":
        """n log-uniform points from lo to hi.

        With n None, n = ceil(log(hi/lo) / step) + 1, step defaulting to
        LOG_STEP, so the log step is at most step; a span within rounding of
        a whole number of steps takes that number.  step is ignored when n
        is given.
        """
        if not (0.0 < lo < hi < np.inf):
            raise ValueError("need 0 < lo < hi < inf")
        if n is None:
            step = LOG_STEP if step is None else step
            n = int(np.ceil((np.log(hi) - np.log(lo)) / step - 1e-9)) + 1
        if n < 2:
            raise ValueError("need n >= 2 grid points")
        u, du = np.linspace(np.log(lo), np.log(hi), n, retstep=True)
        pts = np.exp(u)
        # linspace's own step: u[1] - u[0] differences two rounded logs and
        # is off by up to eps |log x| / du, 7e-14 at du = LOG_STEP and
        # |log x| = 9, an error every weight carries
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


def _ktilde_terms(lam: float, a: float, x, y):
    """The x, y-dependent terms of log ktilde: log s, the power term
    -(lam + 1) log g and the scale term -(a^2/2)(g + 1/g), with
    s = sqrt(1 + 4xy) and the stable root g = 2y / (1 + s) of g^2 x + g = y.
    Evaluated in the precision of x and y."""
    s = np.sqrt(1.0 + 4.0 * x * y)
    g = 2.0 * y / (1.0 + s)
    return np.log(s), (-lam - 1.0) * np.log(g), -(0.5 * (a * a) * (g + 1.0 / g))


def _ktilde_logpdf(lam: float, a: float, x, y):
    x, y = _pos(x, "x"), _pos(y, "y")
    log_s, power, scale = _ktilde_terms(lam, a, x, y)
    return -np.log(2.0) - log_bessel_k(lam, a * a) - log_s + power + scale


def ktilde_density(lam: float, a: float, x, y):
    """AN-part kernel: pushforward of gamma ~ GIG(-lam, a, a) under
    y = gamma^2 x + gamma, written with the stable root
    gamma(y) = 2y / (1 + sqrt(1 + 4xy))."""
    return _as_out(_ktilde_logpdf(lam, a, x, y))


def _pi_terms(lam: float, a: float, x):
    """The x-dependent terms of log pi: the power term -(lam + 1) log x and
    the scale term -(a^2/2) / x, in the precision of x."""
    return -(lam + 1.0) * np.log(x), -(a * a / 2.0) / x


def _pi_logpdf(lam: float, a: float, x):
    """Inverse-gamma(lam, a^2/2) log-density, summed in the order of
    gig._inverse_gamma_logpdf."""
    if lam <= 0.0:
        raise ValueError("stationary law requires lambda > 0")
    beta = InvGammaParams(lam, a * a / 2.0).scale  # rejects a = 0
    power, scale = _pi_terms(lam, a, _pos(x, "x"))
    return lam * np.log(beta) - gammaln(lam) + power + scale


def pi_density(lam: float, a: float, x):
    """Stationary density of the AN-part chain: inverse-gamma(lam, a^2/2)."""
    return _as_out(_pi_logpdf(lam, a, x))


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
# temporaries of a block then stay below glibc's default 128 KiB mmap
# threshold and are reused from the heap.  Larger blocks were mapped afresh
# and page-faulted in on every block (78k-92k minor faults per n = 4000
# Ktilde pass, 2**15 to 2**19); smaller ones pay more per-call overhead.
_BLOCK_ELEMENTS = 1 << 14
# exponent below which a block entry is set to 0.0 without an exp (see
# _lambda_rows and _ktilde_rows): exp underflows to 0.0 below -745.13.  A
# bound and the exponents it bounds are sums of the same few terms, so they
# round by about eps times the largest term, far inside the margin of 4.9 for
# terms below 1e15.  numpy's exp takes a slow path on every element below
# about -708: about 20 ns, and 150 ns where the result is subnormal, against
# about 1.2 ns in range (numpy 2.4 on a 2-core x86-64 host).
_UNDERFLOW = -750.0


def _apply_kernel(leads, block, n: int) -> np.ndarray:
    """leads @ K without forming the n x n kernel K.

    leads has shape (..., n) and block(i, j) returns the columns i:j of K
    transposed, K[:, i:j].T: the kernel from every source to the targets i:j,
    one target per row.  Blocks of at most _BLOCK_ELEMENTS give the output
    slices i:j in turn.  Each row is contiguous along the sources, which is
    the summed axis, so a block costs one matrix product with a long inner
    dimension; at n = 4000 these products run 4x (one lead) to 8x (three
    leads) faster than those of blocks of a few source rows.

    A block may be mostly exact zeros: the structured blocks (_lambda_rows,
    _ktilde_rows) bound each source column's log-density over the block's
    targets in closed form and set the entries whose bound is below
    _UNDERFLOW to 0.0 without an exp, as exp would.  The product is taken
    over the whole block all the same.
    """
    out = np.empty(leads.shape[:-1] + (n,))
    rows = max(1, _BLOCK_ELEMENTS // n)
    for i in range(0, n, rows):
        j = min(i + rows, n)
        out[..., i:j] = leads @ block(i, j).T
    return out


def _require_log_uniform(pts: np.ndarray) -> None:
    """Raise ValueError unless pts is log-uniform (as from LogGrid.make)."""
    n = pts.size
    u = np.log(pts)
    uniform = u[0] + (u[-1] - u[0]) / (n - 1) * np.arange(n)
    if np.max(np.abs(u - uniform)) > 1e-12 * max(1.0, np.max(np.abs(u))):
        raise ValueError("the P and Ktilde passes use the structure of a "
                         "log-uniform grid; build it with LogGrid.make")


def _span(live: np.ndarray) -> tuple[int, int]:
    """(first, one past the last) index of the True entries of live; (0, 0)
    when there are none."""
    lo = int(live.argmax())
    if not live[lo]:
        return 0, 0
    return lo, live.size - int(live[::-1].argmax())


def _lambda_rows(lam: float, a: float, pts: np.ndarray):
    """Target blocks (see _apply_kernel) of [Lambda(pts[i], pts[j])]_ij.

    log Lambda(z, x) = norm_z + power_x - slope_z * t_x with t = x + 1/x: a
    rank-one exponent, so the Bessel normalizer of every source z is one
    log_bessel_k call over pts.  The operations are those of lambda_density,
    so the blocks are bit-identical to it.

    A block is mostly exact zeros when the kernel is sharp.  Since slope_z >
    0, over the block's target rows

        log Lambda(z, x) <= norm_z + max_r power_r - slope_z * min_r t_r,

    and only the span of source columns whose bound is above _UNDERFLOW is
    built and exponentiated; every other entry is set to 0.0, which is what
    exp gives there.
    """
    n = pts.size
    a2 = a * a
    norm = -np.log(2.0) - log_bessel_k(lam, a2 / pts)
    slope = 0.5 * (a2 / pts)
    power = (lam - 1.0) * np.log(pts)
    t = pts + 1.0 / pts

    def block(i, j):
        out = np.empty((j - i, n))
        if j == i:
            return out
        bound = norm - slope * t[i:j].min()
        lo, hi = _span(bound > _UNDERFLOW - power[i:j].max())
        logv = norm[lo:hi] + power[i:j, None]
        logv -= slope[lo:hi] * t[i:j, None]
        np.exp(logv, out=out[:, lo:hi])
        out[:, :lo] = 0.0
        out[:, hi:] = 0.0
        return out

    return block


def _ktilde_rows(lam: float, a: float, pts: np.ndarray):
    """Target blocks (see _apply_kernel) of [Ktilde(pts[i], pts[j])]_ij.

    With s = sqrt(1 + 4xy) and gamma = 2y/(1 + s), so that gamma + 1/gamma =
    2y/(1 + s) + (1 + s)/(2y), the log-density of ktilde_density is

        ay * 1/(1 + s) + by * (1 + s) + H + c,
        ay = -a^2 y,  by = -a^2 / (4y),  H = -log s + (lam + 1) log(1 + s),
        c = -log 2 - log K_lam(a^2) - (lam + 1)(log 2 + log y).

    On a log-uniform grid pts[i] * pts[j] depends only on m = i + j, so
    1/(1 + s), 1 + s and H are tables over the 2n - 1 values of m, and ay,
    by and c are terms of the target y.  A block's exponents are one
    (rows x 4) @ (4 x columns) product of the target terms [ay, by, 1, c]
    with the tables [1/(1 + s), 1 + s, H, 1] over the block's values of m,
    read through a skewed view (row r, column j at m = r + j); they differ
    from ktilde_density's by a few ulp of the largest term.

    A block is mostly exact zeros when the kernel is sharp.  Over the rows
    i..k of a block, with m = row + column:
      - 1/(1 + s) falls and 1 + s rises with m;
      - ay < 0 with |ay| rising along the rows, and by < 0 with |by| falling;
      - c is monotone along the rows (it falls for lam > -1);
      - H is quasi-convex in m: dH/ds = (lam s - 1) / (s (1 + s)) changes
        sign at most once, from - to +.
    So for column j

        log Ktilde <= ay_i 1/(1 + s)[k + j] + by_k (1 + s)[i + j]
                      + max(H[i + j], H[k + j]) + max(c_i, c_k),

    and only the span of columns whose bound is above _UNDERFLOW is built
    and exponentiated; every other entry is set to 0.0, which is what exp
    gives there.  Raises ValueError when pts is not log-uniform.
    """
    _require_log_uniform(pts)
    n = pts.size
    a2 = a * a
    xy = np.concatenate((pts[0] * pts, pts[-1] * pts[1:]))
    s = np.sqrt(1.0 + 4.0 * xy)
    tables = np.stack((1.0 / (1.0 + s), 1.0 + s,
                       -np.log(s) + (lam + 1.0) * np.log1p(s), np.ones_like(s)))
    inv, one_s, h = tables[:3]
    c = (-np.log(2.0) - log_bessel_k(lam, a2)
         - (lam + 1.0) * (np.log(2.0) + np.log(pts)))
    terms = np.stack((-a2 * pts, -a2 / (4.0 * pts), np.ones(n), c), axis=1)
    ay, by = terms[:, 0], terms[:, 1]

    def block(i, j):
        out = np.empty((j - i, n))
        if j == i:
            return out
        k = j - 1
        bound = ay[i] * inv[k:k + n]
        bound += by[k] * one_s[i:i + n]
        bound += np.maximum(h[i:i + n], h[k:k + n])
        lo, hi = _span(bound > _UNDERFLOW - max(c[i], c[k]))
        exps = terms[i:j] @ tables[:, i + lo:k + hi]
        step = exps.strides[1]
        skew = as_strided(exps, (j - i, hi - lo), (exps.strides[0] + step, step),
                          writeable=False)
        np.exp(skew, out=out[:, lo:hi])
        out[:, :lo] = 0.0
        out[:, hi:] = 0.0
        return out

    return block


def _apply_p(lam: float, a: float, leads, pts: np.ndarray) -> np.ndarray:
    """leads @ [P(pts[i], pts[j])]_ij as a convolution on a log-uniform grid.

    leads has shape (k, n).  P(x, y) = P(1, y/x)/x and pts[j]/pts[i] =
    r^(j-i), so with phi[m] = P(1, r^(m-n+1)) for m < 2n - 1 the product is
    sum_i (leads_i / pts_i) phi[j - i + n - 1]: the n fully overlapping
    terms of a direct convolution, n^2 multiply-adds per row of leads.
    Raises ValueError when the grid is not log-uniform.
    """
    _require_log_uniform(pts)
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
    return _apply_kernel(lead, lambda i, j: second(pts[None, :], pts[i:j, None]),
                         pts.size)


def intertwining_residuals(lam: float, a: float, zs,
                           grid: LogGrid | None = None) -> dict[float, float]:
    """Sup-norm residuals of (Lambda P)(z, .) - (Q Lambda)(z, .) for several z.

    Without a grid, the grid spans [1e-6, 1e6] with the step _step_for
    gives the sharpest integrand, that from the smallest source: LOG_STEP
    over the benchmark box lam, a in [0.5, 2] with z >= 0.2, and about in
    proportion to 1/a at large a.

    Lambda P is a Toeplitz convolution on the log-uniform grid (see
    _apply_p), with P evaluated once on the 2n - 1 grid ratios; Q Lambda
    takes one blocked pass of the Lambda kernel (_apply_kernel) shared by
    all source points, its blocks built from per-source and per-target terms
    (_lambda_rows).  Raises ValueError when the grid is not log-uniform.
    """
    zs = list(zs)
    _pos(zs, "z")
    grid = grid or LogGrid.make(step=_step_for(max(
        (_intertwining_curvature(lam, a, z) for z in zs), default=0.0)))
    pts, w = grid.points, grid.weights
    lam_leads = np.array([w * np.asarray(lambda_density(lam, a, z, pts)) for z in zs])
    q_leads = np.array([w * np.asarray(q_density(lam, a, z, pts)) for z in zs])
    for z, lam_lead, q_lead in zip(zs, lam_leads, q_leads):
        for lead in (lam_lead, q_lead):
            if abs(float(lead.sum()) - 1.0) > 1e-8:
                raise GridCoverageError(
                    f"kernel from source {z} poorly covered by the grid")
    with np.errstate(over="ignore"):
        q_lambda = _apply_kernel(q_leads, _lambda_rows(lam, a, pts), pts.size)
    diff = _apply_p(lam, a, lam_leads, pts) - q_lambda
    worst = np.max(np.abs(diff), axis=-1)
    return {z: float(r) for z, r in zip(zs, worst)}


def check_intertwining(lam: float, a: float, z: float,
                       grid: LogGrid | None = None) -> float:
    """Sup-norm residual of (Lambda P)(z, .) - (Q Lambda)(z, .) on the grid."""
    return intertwining_residuals(lam, a, [z], grid)[z]


def _pi_grid(lam: float, a: float) -> LogGrid:
    """Log grid over the PI_TAIL and 1 - PI_TAIL quantiles of pi =
    inverse-gamma(lam, beta), beta = a^2/2, with the step _step_for gives
    the pi(x) Ktilde(x, .) integrand: LOG_STEP unless a or lam is large.

    Its curvature in log x is lam, pi's at its mode, plus at most a quarter
    of that of gamma ~ GIG(-lam, a, a): log gamma moves with log x at a rate
    (s - 1)/(2s) < 1/2.

    pi is beta / G with G ~ Gamma(lam, 1), so its quantiles are closed-form
    gamma quantiles: lo = beta / Q^-1(lam, PI_TAIL) and hi = beta /
    P^-1(lam, PI_TAIL), with P and Q the regularized incomplete gammas.  The
    Ktilde tables hold 1 + 4xy up to 1 + 4 hi^2, so GridCoverageError is
    raised when that leaves the double range (lam below about 0.09, where
    the x^(-lam-1) tail reaches past 1e154): such a grid cannot hold the law.
    """
    beta = InvGammaParams(lam, 0.5 * a * a).scale  # rejects a = 0
    lo = beta / gammainccinv(lam, PI_TAIL)
    q = gammaincinv(lam, PI_TAIL)
    log_hi = np.log(beta) - np.log(q) if q > 0.0 else np.inf
    if not np.log(4.0) + 2.0 * log_hi < np.log(np.finfo(float).max):
        raise GridCoverageError(
            f"pi = inverse-gamma({lam:g}, {beta:g}) keeps mass {PI_TAIL:g} "
            f"beyond exp({log_hi:.4g}), past the double range of the "
            f"stationarity tables; pass a grid explicitly")
    curvature = lam + 0.25 * _gig_curvature(lam, a * a)
    return LogGrid.make(lo, float(np.exp(log_hi)), step=_step_for(curvature))


def check_stationarity(lam: float, a: float,
                       grid: LogGrid | None = None) -> float:
    """Sup-norm residual of int pi(x) ktilde(x, y) dx - pi(y) on the grid.

    Without a grid, the grid spans pi's PI_TAIL and 1 - PI_TAIL quantiles
    with a step sized by the integrand (see _pi_grid), so that no more than
    2 PI_TAIL of pi's mass is cut off; this raises GridCoverageError when lambda is so
    small that pi's tail leaves the double range.  A grid passed in is used
    as it is, whatever mass of pi it misses.

    One blocked pass of the Ktilde kernel (_apply_kernel) whose blocks come
    from tables over i + j and over the target y (_ktilde_rows): on a
    log-uniform grid x_i y_j depends only on i + j.  Raises ValueError when
    lambda <= 0 or the grid is not log-uniform.
    """
    if lam <= 0.0:
        raise ValueError("stationarity check requires lambda > 0")
    grid = grid or _pi_grid(lam, a)
    pts, w = grid.points, grid.weights
    lead = w * np.asarray(pi_density(lam, a, pts))
    with np.errstate(over="ignore"):
        out = _apply_kernel(lead, _ktilde_rows(lam, a, pts), pts.size)
    return float(np.max(np.abs(out - pi_density(lam, a, pts))))


def check_detailed_balance(lam: float, a: float, pairs) -> float:
    """Max |pi(x) ktilde(x,y) / (pi(y) ktilde(y,x)) - 1| over the given pairs,
    formed from the terms of the two log-densities (_pi_terms, _ktilde_terms).

    The normalizers appear once with each sign, so they are left out, not
    summed; that is the only cancellation taken on trust.  The power,
    Jacobian and scale terms are the densities' own, evaluated again in
    extended precision (np.longdouble): the scale terms grow like a^2 / x,
    and in float64 their sum kept rounding of order a^2 eps / x, 1.8e-12 at
    a = 30.  Where longdouble is no wider than float64 that rounding returns.
    """
    if lam <= 0.0:
        raise ValueError("stationary law requires lambda > 0")
    InvGammaParams(lam, a * a / 2.0)  # rejects a = 0
    pairs = np.asarray(pairs, dtype=float)
    x = _pos(pairs[:, 0], "x").astype(np.longdouble)
    y = _pos(pairs[:, 1], "y").astype(np.longdouble)
    pi_pow_x, pi_scale_x = _pi_terms(lam, a, x)
    pi_pow_y, pi_scale_y = _pi_terms(lam, a, y)
    log_s_xy, k_pow_xy, k_scale_xy = _ktilde_terms(lam, a, x, y)
    log_s_yx, k_pow_yx, k_scale_yx = _ktilde_terms(lam, a, y, x)
    log_ratio = ((pi_pow_x - pi_pow_y + k_pow_xy - k_pow_yx - log_s_xy + log_s_yx)
                 + (pi_scale_x - pi_scale_y + k_scale_xy - k_scale_yx))
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
