"""Generalized Inverse Gaussian and inverse-gamma distributions.

GIG(lambda, a, b) has density on (0, inf)

    (b/a)^lambda / (2 K_lambda(ab)) * x^(lambda-1) * exp(-(a^2/x + b^2 x)/2)

with the symmetric case a = b used throughout the walk.  The sampler is an
exact rejection scheme on the log scale, the log-moments come from
non-cancelling quadrature, and the inverse-gamma family is the walk's
stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import _unwrap, log_bessel_k

__all__ = [
    "GigParams",
    "InvGammaParams",
    "Streams",
    "gig_cdf",
    "gig_log_moment_asymptotic",
    "gig_log_moment_numeric",
    "gig_logpdf",
    "gig_mean",
    "gig_pdf",
    "gig_sample",
    "gig_scale",
    "inverse_gamma_cdf",
    "inverse_gamma_mean",
    "inverse_gamma_pdf",
    "inverse_gamma_sample",
    "spawn_rngs",
]


@dataclass(frozen=True)
class GigParams:
    """Parameter triple (lambda, a, b) of a GIG law; a couples to 1/x, b to x."""

    lam: float
    a: float
    b: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.a, self.b))):
            raise ValueError("GIG parameters must be finite")
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("GIG parameters a and b must be positive")

    @property
    def is_symmetric(self) -> bool:
        return self.a == self.b

    @property
    def ab(self) -> float:
        return self.a * self.b

    @classmethod
    def symmetric(cls, lam: float, a: float) -> "GigParams":
        return cls(lam, a, a)


@dataclass(frozen=True)
class InvGammaParams:
    """Inverse-gamma with density scale^shape/Gamma(shape) x^(-shape-1) e^(-scale/x)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.shape, self.scale))):
            raise ValueError("inverse-gamma shape and scale must be finite")
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("inverse-gamma shape and scale must be positive")


def spawn_rngs(seed: int, n: int) -> list:
    """n independent generators derived deterministically from one master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def _check_positive(x, name="x"):
    """x as a float array, or ValueError naming it unless every entry is > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError(f"{name} must be positive")
    return x


def gig_logpdf(params: GigParams, x):
    x = _check_positive(x)
    lam, a, b = params.lam, params.a, params.b
    lognorm = lam * (np.log(b) - np.log(a)) - np.log(2.0) - log_bessel_k(lam, a * b)
    return _unwrap(lognorm + (lam - 1.0) * np.log(x)
                   - 0.5 * (a * a / x + b * b * x))


def gig_pdf(params: GigParams, x):
    return _unwrap(np.exp(gig_logpdf(params, x)))


def gig_scale(params: GigParams, c: float) -> GigParams:
    """Law of c*X for X ~ GIG(lambda, a, b): GIG(lambda, a sqrt(c), b / sqrt(c))."""
    if c <= 0.0:
        raise ValueError("scale factor must be positive")
    rc = np.sqrt(c)
    return GigParams(params.lam, params.a * rc, params.b / rc)


def gig_mean(params: GigParams) -> float:
    """E[X] = (a/b) K_(lambda+1)(ab) / K_lambda(ab)."""
    lam, ab = params.lam, params.ab
    return params.a / params.b * float(
        np.exp(log_bessel_k(lam + 1.0, ab) - log_bessel_k(lam, ab))
    )


class Streams:
    """Generators stepped in lockstep over one batch of draws.

    Segment i of a batch holds counts[i] draws, all taken from rngs[i] in the
    order a call on rngs[i] alone for counts[i] draws takes them.  A batch
    drawn through Streams is therefore the concatenation of the per-generator
    batches bit for bit, while the arithmetic on it runs once over the whole
    batch (see stats._sharded).  gig_sample, walk.simulate_batch,
    walk.n_infinity_batch and stats.simulate_my_continuous take a Streams
    of `size` draws in place of a Generator.
    """

    __slots__ = ("rngs", "counts", "_edges")

    def __init__(self, rngs, counts):
        self.rngs = tuple(rngs)
        self.counts = [int(c) for c in counts]
        if len(self.rngs) != len(self.counts) or min(self.counts, default=0) < 0:
            raise ValueError("need one nonnegative count per generator")
        self._edges = None

    @classmethod
    def of(cls, rng, size: int) -> "Streams":
        """`rng` itself if it is a Streams of `size` draws, else one segment."""
        if not isinstance(rng, Streams):
            return cls((rng,), (size,))
        if rng.size != size:
            raise ValueError(f"streams hold {rng.size} draws, not {size}")
        return rng

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def edges(self) -> np.ndarray:
        """Segment i of a batch runs from edges[i] to edges[i + 1]."""
        if self._edges is None:  # kept reads it once a rejection round
            self._edges = np.cumsum([0] + self.counts)
        return self._edges

    @classmethod
    def _trusted(cls, rngs: tuple, counts: list) -> "Streams":
        """A Streams of counts already known to be valid, built unchecked."""
        self = object.__new__(cls)
        self.rngs, self.counts, self._edges = rngs, counts, None
        return self

    def kept(self, index) -> "Streams":
        """The streams of the sorted batch positions `index` (say, the draws
        still pending), each kept position staying with its generator."""
        if len(self.rngs) == 1:
            return Streams._trusted(self.rngs, [len(index)])
        ends = np.searchsorted(index, self.edges)
        return Streams._trusted(self.rngs, (ends[1:] - ends[:-1]).tolist())

    def standard_normal(self, out: np.ndarray) -> None:
        self._fill("standard_normal", out)

    def random(self, out: np.ndarray) -> None:
        self._fill("random", out)

    def _fill(self, method: str, out: np.ndarray) -> None:
        start = 0
        for rng, count in zip(self.rngs, self.counts):
            if count:
                getattr(rng, method)(out=out[start:start + count])
                start += count


def _sample_log_symmetric(lam: float, c: float, streams: Streams,
                          size: int) -> np.ndarray:
    """Draw T = log X for X ~ GIG(lam, sqrt(c), sqrt(c)), density prop. to
    exp(psi(t)) with psi(t) = lam*t - c*cosh(t).

    psi'' = -c cosh t <= -c, so psi(t) <= psi(t*) - c (t - t*)^2 / 2 at the
    mode t* = asinh(lam/c): a N(t*, 1/c) proposal dominates, every trial
    accepts with the fixed probability
        p = 2 K_lam(c) exp(c cosh t* - lam t*) sqrt(c / (2 pi)) > 0,
    so the loop terminates a.s. with geometric tail.  p is at least 0.2
    throughout |lam| <= 5, c >= 0.2 and tends to 1 for large c, but it falls
    like sqrt(c) as c -> 0 (7.4e-4 at lam = 2, c = 1e-6, i.e. a = 1e-3):
    after 10,000 rounds the draw gives up with ValueError.

    Each round fills the pending draws of every segment of `streams` from
    its own generator, normals first, then uniforms, and tests them all at
    once.  Every trial is written to its slot, so an accepted draw is never
    overwritten; the rejected slots are kept by integer index, as gathers
    through the random acceptance mask cost about 8 ns an element, against
    1 ns for nonzero.  The first round draws straight into the output, and
    every round evaluates the log-acceptance in reused work arrays, operation
    for operation as
        lam*t - c*cosh(t) - psistar + 0.5*c*(t - t*)**2,
    so the draws are those of the plain expression bit for bit.  On a
    2-core x86-64 host a call of 20000 draws took 37, 94 and 29 ns a draw
    at (lam, c) = (1, 1), (2, 0.25) and (0.5, 4) (best of 4), against 59,
    120 and 48 ns with a new array for every intermediate.
    """
    tstar = float(np.arcsinh(lam / c))
    psistar = lam * tstar - c * np.cosh(tstar)
    sd = 1.0 / np.sqrt(c)
    half_c = 0.5 * c
    out = np.empty(size)
    uniforms = np.empty(size)
    log_accept = np.empty(size)
    work = np.empty(size)
    reject = np.empty(size, dtype=bool)
    t = out  # the first round's trials fill every slot in place
    live = streams
    # a cosh that overflows (|t| > 710, reached at small c) gives log_accept =
    # -inf: a correct rejection, so the warning is silenced for the whole call
    with np.errstate(over="ignore"):
        for _ in range(10_000):  # a cap that valid parameters reach at small c
            k = t.size
            u, la, w, rej = uniforms[:k], log_accept[:k], work[:k], reject[:k]
            live.standard_normal(t)
            live.random(u)
            t *= sd
            t += tstar
            np.multiply(t, lam, out=la)
            np.cosh(t, out=w)
            w *= c
            la -= w
            la -= psistar
            np.subtract(t, tstar, out=w)
            np.square(w, out=w)
            w *= half_c
            la += w
            np.log(u, out=u)
            np.less(u, la, out=rej)
            np.logical_not(rej, out=rej)  # a NaN log_accept rejects
            if t is out:
                pending = rej.nonzero()[0]
                normals = np.empty(pending.size)
            else:
                out[pending] = t
                pending = pending[rej.nonzero()[0]]
            if not pending.size:
                return out
            live = streams.kept(pending)
            t = normals[:pending.size]
    raise ValueError(
        f"GIG rejection sampler gave up after 10000 rounds at "
        f"lam={lam:g}, c={c:g} with {pending.size} draws left: "
        f"acceptance per round is too low at these parameters")


def gig_sample(params: GigParams, rng, size: int) -> np.ndarray:
    """`size` exact GIG draws from a Generator, or from a Streams of `size`
    draws.

    The asymmetric case reduces to the symmetric one through the scaling
    property: X = (a/b) U with U ~ GIG(lambda, sqrt(ab), sqrt(ab)).
    """
    n = int(size)
    x = _sample_log_symmetric(params.lam, params.ab, Streams.of(rng, n), n)
    np.exp(x, out=x)
    x *= params.a / params.b
    return x


def gig_cdf(params: GigParams, x):
    """CDF by cumulative log-scale trapezoid quadrature of the density.

    The grid covers both the distribution bulk and the query points; the
    doubly-exponential decay of the integrand in log x makes the trapezoid
    rule spectrally accurate, far below statistical (KS) resolution.
    """
    x = _check_positive(x)
    xmin, xmax = float(np.min(x)), float(np.max(x))
    scale = params.a / params.b
    lo = min(1e-9 * scale, 0.5 * xmin)
    hi = max(1e9 * scale, 2.0 * xmax)
    u = np.linspace(np.log(lo), np.log(hi), 20001)
    pts = np.exp(u)
    du = u[1] - u[0]
    integ = gig_pdf(params, pts) * pts  # d(cdf)/du
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (integ[1:] + integ[:-1]) * du)))
    cum /= cum[-1]
    return _unwrap(np.interp(np.log(x), u, cum))


def gig_log_moment_numeric(params: GigParams, m: int) -> float:
    """E[log^m X] for symmetric GIG, by quadrature with no sign cancellation.

    With t = log x the density is proportional to exp(lam*t - a^2 cosh t);
    splitting into even/odd parts gives positive integrands

        m even:  2 t^m cosh(lam t) exp(-a^2 cosh t),   t >= 0
        m odd:   2 t^m sinh(lam t) exp(-a^2 cosh t)

    so the result carries full relative precision even when it is O(a^-4)
    small (needed by the large-a asymptotics checks).  Absolute error is
    far below 1e-9 throughout m <= 8.
    """
    # imported here: nothing else in the package needs scipy.integrate,
    # which loads scipy.optimize, linalg and sparse with it
    from scipy import integrate

    if not params.is_symmetric:
        raise ValueError("log-moment quadrature assumes the symmetric case a == b")
    m = int(m)
    if not 0 <= m <= 8:
        raise ValueError("m must lie in [0, 8]")
    if m == 0:
        return 1.0
    lam, c = params.lam, params.a * params.a
    if m % 2 == 1 and lam == 0.0:
        return 0.0

    # factor e^{-c} out of both numerator and normalization
    if m % 2 == 0:
        def f(t):
            return 2.0 * t**m * np.cosh(lam * t) * np.exp(-c * (np.cosh(t) - 1.0))
    else:
        def f(t):
            return 2.0 * t**m * np.sinh(lam * t) * np.exp(-c * (np.cosh(t) - 1.0))

    hi = np.arccosh(1.0 + (760.0 + 60.0 * (1.0 + abs(lam))) / c) + 2.0
    peak = min(np.sqrt((m + abs(lam)) / c), hi / 2.0)  # quad needs a hint inside
    num, _ = integrate.quad(f, 0.0, hi, points=[peak], limit=400,
                            epsabs=0.0, epsrel=1e-12)
    norm = 2.0 * special.kve(abs(lam), c)
    return num / norm


def gig_log_moment_asymptotic(lam: float, a: float, m: int) -> float:
    """Leading behaviour of E[log^m X] for GIG(lam, a, a) as a -> inf.

    m even: 2^(m/2) Gamma((m+1)/2) / (a^m sqrt(pi))
    m odd:  lam 2^((m+1)/2) Gamma((m+2)/2) / (a^(m+1) sqrt(pi))
    """
    m = int(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if a <= 0.0:
        raise ValueError("a must be positive")
    if m % 2 == 0:
        return float(2.0 ** (m / 2.0) * special.gamma((m + 1) / 2.0)
                     / (a**m * np.sqrt(np.pi)))
    return float(lam * 2.0 ** ((m + 1) / 2.0) * special.gamma((m + 2) / 2.0)
                 / (a ** (m + 1) * np.sqrt(np.pi)))


def _inverse_gamma_terms(params: InvGammaParams, x):
    """The x-dependent terms of the log-density, the power term
    -(shape + 1) log x and the scale term -scale / x, in the precision of x."""
    return -(params.shape + 1.0) * np.log(x), -params.scale / x


def _inverse_gamma_logpdf(params: InvGammaParams, x):
    power, scale = _inverse_gamma_terms(params, _check_positive(x))
    sh = params.shape
    return sh * np.log(params.scale) - special.gammaln(sh) + power + scale


def inverse_gamma_pdf(params: InvGammaParams, x):
    return _unwrap(np.exp(_inverse_gamma_logpdf(params, x)))


def inverse_gamma_cdf(params: InvGammaParams, x):
    """P(X <= x) = Q(shape, scale/x), the regularized upper incomplete gamma."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("x must be nonnegative")
    with np.errstate(divide="ignore"):
        out = special.gammaincc(params.shape, params.scale / x)
    return _unwrap(np.where(x == 0.0, 0.0, out))


def inverse_gamma_sample(params: InvGammaParams, rng, size: int) -> np.ndarray:
    """`size` draws X = scale / G with G ~ Gamma(shape, 1)."""
    return params.scale / rng.gamma(params.shape, 1.0, size)


def inverse_gamma_mean(params: InvGammaParams) -> float:
    if params.shape <= 1.0:
        raise ValueError("mean requires shape > 1")
    return params.scale / (params.shape - 1.0)
