import numpy as np
import pytest
from scipy import integrate

from gigwalk.kernels import LogGrid
from gigwalk.specfun import bessel_k, log_bessel_k
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
