"""Independent special-function oracles that the library is checked against.

``log_bessel_k_quadrature`` integrates the representation

    K_lambda(z) = 1/2 * int_0^inf x^(lambda-1) exp(-(z/2)(x + 1/x)) dx

directly, so it shares no code path with ``gigwalk.specfun.log_bessel_k``
(which goes through ``scipy.special.kve``).  The small-argument form, the
log-gamma wrapper and the truncated Watson series are reference values for
the same tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special


def _validate_positive(z, name):
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0) or np.any(~np.isfinite(z)):
        raise ValueError(f"{name} must be positive and finite")
    return z


def bessel_k_small_z(order, argument):
    """Leading small-argument form K_lambda(z) ~ (1/2) Gamma(lambda) (z/2)^(-lambda).

    Requires order > 0; used as an oracle for ``bessel_k`` near z = 0.
    """
    nu = np.asarray(order, dtype=float)
    if np.any(nu <= 0.0):
        raise ValueError("order must be positive for the small-z asymptotic")
    z = _validate_positive(argument, "argument")
    with np.errstate(over="ignore"):
        out = np.exp(-np.log(2.0) + special.gammaln(nu) - nu * np.log(z / 2.0))
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
