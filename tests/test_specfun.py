import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gigwalk import kernels
from gigwalk.gig import (GigParams, InvGammaParams, gig_logpdf, gig_pdf,
                         inverse_gamma_cdf, inverse_gamma_pdf)
from gigwalk.kernels import LogGrid
from gigwalk.specfun import bessel_k, log_bessel_k
from gigwalk.walk import reconstruct_x_finite
from specfun_oracles import (AsymptoticSeries, bessel_k_quadrature,
                             bessel_k_small_z, log_bessel_k_quadrature,
                             log_gamma, watson_partial_sum)

# closed form K_{1/2}(z) = sqrt(pi/(2z)) e^{-z} at z = 2
K_HALF_AT_2 = 0.11993777196806145


def test_bessel_k_half_closed_form():
    assert bessel_k(0.5, 2.0) == pytest.approx(K_HALF_AT_2, rel=1e-12)
    # cross-check by quadrature of the integral representation
    assert bessel_k_quadrature(0.5, 2.0) == pytest.approx(K_HALF_AT_2, rel=1e-10)


@pytest.mark.parametrize("z", [1e-8, 1e-4, 1.0, 50.0])
def test_quadrature_oracle_half_order_closed_form(z):
    # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}; at small z the integrand stays flat
    # far to the left of its peak
    closed = 0.5 * np.log(np.pi / (2.0 * z)) - z
    for route in (log_bessel_k_quadrature, log_bessel_k):
        assert np.exp(route(0.5, z) - closed) == pytest.approx(1.0, rel=1e-10)


def test_bessel_k_order_symmetry_exact():
    assert bessel_k(-1.5, 3.0) == bessel_k(1.5, 3.0)
    rng = np.random.default_rng(0)
    lam = rng.uniform(-30, 30, 50)
    z = np.exp(rng.uniform(np.log(1e-4), np.log(200), 50))
    assert np.all(log_bessel_k(lam, z) == log_bessel_k(-lam, z))


def test_bessel_k_small_argument():
    # K_2(0.001) ~ (1/2) Gamma(2) (z/2)^{-2} = 2e6
    assert bessel_k(2.0, 0.001) == pytest.approx(2.0e6, rel=1e-3)
    assert bessel_k_small_z(1.0, 0.01) == pytest.approx(100.0, rel=1e-14)
    assert bessel_k_small_z(2.0, 0.001) == pytest.approx(2.0e6, rel=1e-14)
    # quadrature oracle agrees with the asymptotic within 1% deep in the tail
    q = bessel_k_quadrature(1.5, 1e-4)
    assert q / bessel_k_small_z(1.5, 1e-4) == pytest.approx(1.0, abs=0.01)
    assert bessel_k(1.5, 1e-4) == pytest.approx(q, rel=1e-10)


def test_bessel_k_recurrence():
    # K_{l+1}(z) = K_{l-1}(z) + (2l/z) K_l(z), standard numeric cross-check.
    # For l < 0 at small z the two right-hand terms cancel to produce the
    # tiny left side, so the residual is scaled by the largest term.
    rng = np.random.default_rng(1)
    lam = rng.uniform(-29, 29, 100)
    z = np.exp(rng.uniform(np.log(1e-4), np.log(200), 100))
    t1 = bessel_k(lam + 1.0, z)
    t2 = bessel_k(lam - 1.0, z)
    t3 = (2.0 * lam / z) * bessel_k(lam, z)
    resid = np.abs(t1 - t2 - t3) / np.maximum.reduce([t1, t2, np.abs(t3)])
    assert np.max(resid) < 1e-8


def test_bessel_k_against_quadrature_box():
    rng = np.random.default_rng(2)
    for _ in range(25):
        lam = rng.uniform(-30, 30)
        z = np.exp(rng.uniform(np.log(1e-4), np.log(200)))
        assert np.log(bessel_k(lam, z)) == pytest.approx(
            np.log(bessel_k_quadrature(lam, z)), abs=1e-10)


def test_bessel_k_normalization_probe_on_loggrid():
    grid = LogGrid.make()
    for lam in (0.5, 1.0, 2.0, 5.0):
        for z in (0.1, 1.0, 10.0, 50.0):
            integrand = grid.points ** (lam - 1.0) * np.exp(
                -0.5 * z * (grid.points + 1.0 / grid.points))
            probe = 0.5 * grid.integrate(integrand)
            assert probe == pytest.approx(bessel_k(lam, z), rel=1e-8)


def test_bessel_k_domain_and_overflow():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.warns(RuntimeWarning):
        assert bessel_k(30.0, 1e-12) == np.inf


def test_log_gamma_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(np.log(np.sqrt(np.pi)), rel=1e-14)
    assert log_gamma(10.0) == pytest.approx(np.log(362880.0), rel=1e-14)
    with pytest.raises(ValueError):
        log_gamma(0.0)
    # relative error check on a wide range against exact factorials
    for k in (3, 7, 20, 50, 150):
        exact = np.sum(np.log(np.arange(1, k)))
        assert log_gamma(float(k)) == pytest.approx(exact, rel=1e-12)


def test_asymptotic_series_validation():
    AsymptoticSeries((1.0,), (0.0,))
    with pytest.raises(ValueError):
        AsymptoticSeries((1.0, 2.0), (0.0,))
    with pytest.raises(ValueError):
        AsymptoticSeries((1.0,), (-1.0,))
    with pytest.raises(ValueError):
        AsymptoticSeries((1.0, 1.0), (0.5, 0.5))


def test_watson_partial_sum_single_terms():
    s = AsymptoticSeries((1.0,), (0.0,))
    assert watson_partial_sum(s, 10.0, 1) == pytest.approx(0.1, rel=1e-14)
    s = AsymptoticSeries((1.0,), (-0.5,))
    assert watson_partial_sum(s, 4.0, 1) == pytest.approx(
        np.sqrt(np.pi) / 2.0, rel=1e-14)


def test_watson_vs_numeric_laplace_integral():
    # f(t) = 1/(1+t) ~ 1 - t + ... ; two-term sum vs direct quadrature at x=10
    series = AsymptoticSeries((1.0, -1.0), (0.0, 1.0))
    oracle, _ = integrate.quad(lambda t: np.exp(-10.0 * t) / (1.0 + t), 0, np.inf)
    two_terms = watson_partial_sum(series, 10.0, 2)
    assert two_terms == pytest.approx(oracle, rel=0.025)


def test_watson_terms_bounds():
    s = AsymptoticSeries((1.0, -1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        watson_partial_sum(s, 10.0, 3)
    with pytest.raises(ValueError):
        watson_partial_sum(s, -1.0, 1)


_COARSE = LogGrid.make(n=200)

# the public elementwise functions that return a float for one value and an
# array otherwise, as functions of (lam in [-3, 3], a, x)
ELEMENTWISE = {
    "log_bessel_k": lambda lam, a, x: log_bessel_k(lam, x),
    "bessel_k": lambda lam, a, x: bessel_k(lam, x),
    "gig_logpdf": lambda lam, a, x: gig_logpdf(GigParams(lam, a, 1.0 / a), x),
    "gig_pdf": lambda lam, a, x: gig_pdf(GigParams.symmetric(lam, a), x),
    "inverse_gamma_pdf": lambda lam, a, x: inverse_gamma_pdf(
        InvGammaParams(abs(lam) + 0.1, a), x),
    "inverse_gamma_cdf": lambda lam, a, x: inverse_gamma_cdf(
        InvGammaParams(abs(lam) + 0.1, a), x),
    "q_density": lambda lam, a, x: kernels.q_density(lam, a, 1.3, x),
    "p_density": lambda lam, a, x: kernels.p_density(lam, a, x, 0.7),
    "lambda_density": lambda lam, a, x: kernels.lambda_density(lam, a, 0.7, x),
    "ktilde_density": lambda lam, a, x: kernels.ktilde_density(lam, a, x, 0.7),
    "pi_density": lambda lam, a, x: kernels.pi_density(abs(lam) + 0.1, a, x),
    "conditional_x2_given_z2": lambda lam, a, x: kernels.conditional_x2_given_z2(
        lambda t: gig_pdf(GigParams.symmetric(lam, a), t), 1.5, x, _COARSE),
    "conditional_x3_given_z3_z2": lambda lam, a, x:
        kernels.conditional_x3_given_z3_z2(
            lambda t: gig_pdf(GigParams.symmetric(lam, a), t), 1.5, 2.0, x,
            _COARSE),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ELEMENTWISE)), lam=st.floats(-3.0, 3.0),
       a=st.floats(0.3, 3.0),
       xs=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
       column=st.booleans())
def test_scalar_in_float_out_array_in_array_out(name, lam, a, xs, column):
    fn = ELEMENTWISE[name]
    x = np.array(xs).reshape((-1, 1) if column else -1)
    out = fn(lam, a, x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    for xi, oi in zip(x.ravel(), out.ravel()):
        alone = fn(lam, a, float(xi))
        assert type(alone) is float
        assert np.array_equal(alone, oi, equal_nan=True)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 5), p=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruction_rows_unwrap_like_single_paths(rows, p, seed):
    rng = np.random.default_rng(seed)
    log_zs, log_n = rng.normal(0.0, 2.0, (rows, p + 1)), rng.normal(0.0, 2.0, rows)
    out = reconstruct_x_finite(log_zs, log_n)
    assert isinstance(out, np.ndarray) and out.shape == (rows,)
    for row, ln, o in zip(log_zs, log_n, out):
        alone = reconstruct_x_finite(row, float(ln))
        assert type(alone) is float and alone == o
