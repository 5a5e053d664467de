"""Macdonald function K_lambda, log-gamma, and truncated asymptotic series.

Everything downstream (GIG densities, transition kernels, log-moment
asymptotics) is built on these three primitives.  K_lambda is evaluated in
log space through the exponentially scaled routine ``scipy.special.kve`` so
that ratios K_lambda(u)/K_lambda(v) stay finite even when u, v span many
orders of magnitude.  An independent quadrature of the integral
representation

    K_lambda(z) = 1/2 * int_0^inf x^(lambda-1) exp(-(z/2)(x + 1/x)) dx

is exposed as ``bessel_k_quadrature`` and serves as the cross-check oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

__all__ = [
    "AsymptoticSeries",
    "bessel_k",
    "bessel_k_quadrature",
    "bessel_k_small_z",
    "log_bessel_k",
    "log_bessel_k_quadrature",
    "log_gamma",
    "watson_partial_sum",
]

_LOG_HALF = -np.log(2.0)


def _validate_positive(z, name):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0) or np.any(~np.isfinite(z)):
        raise ValueError(f"{name} must be positive and finite")
    return z


def log_bessel_k(order, argument):
    """log K_order(argument), elementwise.

    Symmetric in the order by construction (evaluates at |order|).  Where
    ``kve`` overflows (tiny argument together with a large order) the
    small-argument form K_nu(z) ~ (1/2) Gamma(nu) (z/2)^(-nu) is used in log
    space, which is accurate precisely in that regime.
    """
    z = _validate_positive(argument, "argument")
    nu = np.abs(np.asarray(order, dtype=float))
    nu, z = np.broadcast_arrays(nu, z)
    with np.errstate(over="ignore"):
        out = np.log(special.kve(nu, z)) - z
    bad = ~np.isfinite(out)
    if np.any(bad):
        nub, zb = nu[bad], z[bad]
        out = np.array(out)
        out[bad] = _LOG_HALF + special.gammaln(nub) - nub * np.log(zb / 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def bessel_k(order, argument):
    """Macdonald function K_order(argument) for argument > 0.

    Exactly even in the order.  Values beyond the double range come back as
    +inf with a RuntimeWarning rather than raising, so grid sweeps degrade
    gracefully.
    """
    logk = np.asarray(log_bessel_k(order, argument))
    with np.errstate(over="ignore"):
        out = np.exp(logk)
    if np.any(np.isinf(out)):
        warnings.warn("bessel_k overflow: returning +inf marker", RuntimeWarning)
    if out.ndim == 0:
        return float(out)
    return out


def bessel_k_small_z(order, argument):
    """Leading small-argument form K_lambda(z) ~ (1/2) Gamma(lambda) (z/2)^(-lambda).

    Requires order > 0; used as an oracle for ``bessel_k`` near z = 0.
    """
    nu = np.asarray(order, dtype=float)
    if np.any(nu <= 0.0):
        raise ValueError("order must be positive for the small-z asymptotic")
    z = _validate_positive(argument, "argument")
    with np.errstate(over="ignore"):
        out = np.exp(_LOG_HALF + special.gammaln(nu) - nu * np.log(z / 2.0))
    if out.ndim == 0:
        return float(out)
    return out


def log_bessel_k_quadrature(order, argument):
    """log K_order(argument) by adaptive quadrature of the integral form.

    Substituting x = e^u turns the integrand into exp(nu*u - z*cosh(u)),
    which is smooth, unimodal in u and symmetric under nu -> -nu together
    with u -> -u.  The peak value is factored out before integrating so the
    result is usable far outside the double range of K itself.
    """
    nu = float(abs(order))
    z = float(argument)
    if z <= 0.0:
        raise ValueError("argument must be positive")
    ustar = np.arcsinh(nu / z)
    peak = nu * ustar - z * np.cosh(ustar)

    def shifted(u):
        return np.exp(nu * u - z * np.cosh(u) - peak)

    # crude outer bound: z*cosh(u) alone must eat ~800 nats past the peak.
    # Left of the peak (ustar >= 0) the integrand decays only at rate nu
    # until z*cosh(u) grows again, so the interval must hold all of
    # |u| < reach, where z*cosh(u) is still small.
    reach = np.arccosh(1.0 + (800.0 + 60.0 * (1.0 + nu)) / z) + 2.0
    lo, hi = -reach, ustar + reach
    val, _ = integrate.quad(shifted, lo, hi, points=[ustar], limit=300,
                            epsabs=1e-14, epsrel=1e-12)
    return peak + np.log(0.5 * val)


def bessel_k_quadrature(order, argument):
    """K_order(argument) via the integral representation; the cross-check route."""
    return float(np.exp(log_bessel_k_quadrature(order, argument)))


def log_gamma(x):
    """log Gamma(x) for x > 0, via scipy's Lanczos-type ``gammaln``."""
    x = _validate_positive(x, "x")
    out = special.gammaln(x)
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class AsymptoticSeries:
    """Coefficients c_n and exponents a_n of an expansion sum c_n t^(a_n), t -> 0+.

    Exponents must be strictly increasing with a_0 > -1 so that each term of
    the transformed series is integrable at the origin.
    """

    coefficients: tuple = field()
    exponents: tuple = field()

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        expos = tuple(float(a) for a in self.exponents)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exponents", expos)
        if len(coeffs) != len(expos) or len(coeffs) < 1:
            raise ValueError("coefficients and exponents need equal length >= 1")
        if expos[0] <= -1.0:
            raise ValueError("first exponent must exceed -1")
        if any(b <= a for a, b in zip(expos, expos[1:])):
            raise ValueError("exponents must be strictly increasing")

    def __len__(self):
        return len(self.coefficients)


def watson_partial_sum(series: AsymptoticSeries, x, terms: int):
    """Truncated large-x expansion of the Laplace transform of the series.

    Returns sum_{n < terms} c_n Gamma(a_n + 1) / x^(a_n + 1).  The series is
    asymptotic, not convergent: adding terms is not guaranteed to improve the
    approximation, so callers compare against direct quadrature.
    """
    if not 0 <= terms <= len(series):
        raise ValueError("terms must lie in [0, len(series)]")
    x = float(x)
    if x <= 0.0:
        raise ValueError("x must be positive")
    total = 0.0
    for c, a in zip(series.coefficients[:terms], series.exponents[:terms]):
        total += c * np.exp(special.gammaln(a + 1.0) - (a + 1.0) * np.log(x))
    return total
