"""Macdonald function K_lambda in log space.

Everything downstream (GIG densities, transition kernels, log-moment
normalizers) is built on this primitive.  K_lambda is evaluated in log space
through the exponentially scaled routine ``scipy.special.kve`` so that ratios
K_lambda(u)/K_lambda(v) stay finite even when u, v span many orders of
magnitude.  The module needs ``scipy.special`` only; the quadrature oracle it
is checked against lives with the tests.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special

__all__ = ["bessel_k", "log_bessel_k"]

_LOG_HALF = -np.log(2.0)


def _unwrap(out):
    """`out` as a Python float when it holds one value as a 0-d array or
    numpy scalar, else the array itself: the return convention of every
    elementwise function of the package."""
    return float(out) if np.ndim(out) == 0 else out


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
    return _unwrap(out)


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
    return _unwrap(out)
