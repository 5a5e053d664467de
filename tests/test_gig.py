import numpy as np
import pytest
from scipy import stats as spstats

from gigwalk.gig import (GigParams, InvGammaParams, gig_cdf,
                         gig_log_moment_asymptotic, gig_log_moment_numeric,
                         gig_mean, gig_pdf, gig_sample, gig_scale,
                         inverse_gamma_cdf, inverse_gamma_mean,
                         inverse_gamma_pdf, inverse_gamma_sample, spawn_rngs)
from gigwalk.kernels import LogGrid
from gigwalk.stats import ks_one_sample

SEED = 20260810


def quadrature_mean(params, grid):
    return grid.integrate(grid.points * gig_pdf(params, grid.points))


def test_pdf_normalization():
    grid = LogGrid.make()
    assert grid.integrate(gig_pdf(GigParams(1.0, 1.0, 1.0), grid.points)) == \
        pytest.approx(1.0, abs=1e-8)


def test_inverse_variable_symmetry():
    # X ~ GIG(lam, a, a)  =>  1/X ~ GIG(-lam, a, a)
    lam, a, x = 0.7, 1.3, 2.0
    lhs = gig_pdf(GigParams(lam, a, a), x) * x
    rhs = gig_pdf(GigParams(-lam, a, a), 1.0 / x) / x
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mode_location():
    # stationary point of the log-density: (lam-1 + sqrt((lam-1)^2+a^2 b^2))/b^2
    params = GigParams(1.0, 1.0, 1.0)
    xs = np.linspace(0.5, 1.5, 100001)
    assert xs[np.argmax(gig_pdf(params, xs))] == pytest.approx(1.0, abs=1e-3)


def test_domain_errors():
    with pytest.raises(ValueError):
        GigParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        gig_pdf(GigParams(1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        gig_scale(GigParams(1.0, 1.0, 1.0), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(bad):
    for args in [(bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)]:
        with pytest.raises(ValueError, match="finite"):
            GigParams(*args)
    for args in [(bad, 1.0), (1.0, bad)]:
        with pytest.raises(ValueError, match="finite"):
            InvGammaParams(*args)


def test_scale_rules():
    assert gig_scale(GigParams(1.0, 2.0, 3.0), 1.0) == GigParams(1.0, 2.0, 3.0)
    assert gig_scale(GigParams(1.0, 1.0, 1.0), 4.0) == GigParams(1.0, 2.0, 0.5)
    p = GigParams(0.7, 1.4, 0.6)
    q = gig_scale(gig_scale(p, 2.5), 1.0 / 2.5)
    assert q.lam == p.lam and q.a == pytest.approx(p.a, rel=1e-15) \
        and q.b == pytest.approx(p.b, rel=1e-15)


def test_sampler_positive_and_deterministic():
    params = GigParams.symmetric(1.0, 1.0)
    draws = gig_sample(params, np.random.default_rng(SEED), 10000)
    assert np.all(draws > 0.0)
    again = gig_sample(params, np.random.default_rng(SEED), 10000)
    assert np.array_equal(draws, again)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_sampler_small_a_without_overflow_warnings(lam):
    # at a = 1e-3 proposals reach |log x| > 710, where cosh overflows to a
    # log-acceptance of -inf: a correct rejection that must not warn
    draws = gig_sample(GigParams.symmetric(lam, 1e-3), np.random.default_rng(SEED),
                       10**4)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)


@pytest.mark.parametrize("lam,a,b", [
    (1.0, 1.0, 1.0), (0.5, 2.0, 2.0), (2.0, 0.5, 0.5),
    (-1.5, 1.0, 1.0), (0.0, 1.5, 1.5), (2.0, 1.0, 3.0),
])
def test_sampler_ks_against_quadrature_cdf(lam, a, b):
    params = GigParams(lam, a, b)
    draws = gig_sample(params, np.random.default_rng(SEED + int(10 * a)), 100000)
    res = ks_one_sample(np.sort(draws), lambda x: gig_cdf(params, x))
    assert res.passed, f"KS={res.statistic} crit={res.critical_1pct}"


def test_sampler_mean_matches_quadrature():
    params = GigParams(2.0, 2.0, 2.0)
    grid = LogGrid.make()
    target = quadrature_mean(params, grid)
    assert gig_mean(params) == pytest.approx(target, rel=1e-10)
    draws = gig_sample(params, np.random.default_rng(SEED), 100000)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3.0 * se


def test_inverse_draws_follow_negated_shape():
    params = GigParams.symmetric(1.2, 1.0)
    flipped = GigParams.symmetric(-1.2, 1.0)
    draws = 1.0 / gig_sample(params, np.random.default_rng(SEED + 1), 100000)
    res = ks_one_sample(np.sort(draws), lambda x: gig_cdf(flipped, x))
    assert res.passed


def test_scaled_draws_follow_scaled_law():
    params = GigParams.symmetric(1.0, 1.0)
    scaled = gig_scale(params, 2.5)
    draws = 2.5 * gig_sample(params, np.random.default_rng(SEED + 2), 100000)
    res = ks_one_sample(np.sort(draws), lambda x: gig_cdf(scaled, x))
    assert res.passed


def test_log_moment_basics():
    assert gig_log_moment_numeric(GigParams.symmetric(1.0, 1.0), 0) == 1.0
    assert gig_log_moment_numeric(GigParams.symmetric(0.0, 2.0), 1) == 0.0
    # E[log gamma] ~ lam/a^2 deep in the large-a regime
    val = gig_log_moment_numeric(GigParams.symmetric(1.0, 30.0), 1)
    assert val == pytest.approx(1.0 / 900.0, rel=0.02)
    with pytest.raises(ValueError):
        gig_log_moment_numeric(GigParams(1.0, 1.0, 2.0), 1)
    with pytest.raises(ValueError):
        gig_log_moment_numeric(GigParams.symmetric(1.0, 1.0), 9)


def test_log_moment_asymptotic_values():
    assert gig_log_moment_asymptotic(1.0, 2.0, 2) == pytest.approx(0.25, rel=1e-12)
    assert gig_log_moment_asymptotic(3.0, 2.0, 1) == pytest.approx(0.75, rel=1e-12)
    assert gig_log_moment_asymptotic(5.0, 7.0, 0) == pytest.approx(1.0, rel=1e-12)


def test_log_moment_sign_law():
    # sign of E[log gamma] equals sign of lambda
    for a in (0.5, 1.0, 3.0):
        for lam in (-2.0, -0.5, 0.0, 0.5, 2.0):
            val = gig_log_moment_numeric(GigParams.symmetric(lam, a), 1)
            if lam == 0.0:
                assert abs(val) < 1e-12
            else:
                assert np.sign(val) == np.sign(lam)


def test_log_moment_asymptotic_ratio():
    for lam in (0.5, 1.0, 2.0):
        for m in (1, 2, 3, 4):
            num = gig_log_moment_numeric(GigParams.symmetric(lam, 30.0), m)
            asym = gig_log_moment_asymptotic(lam, 30.0, m)
            assert num / asym == pytest.approx(1.0, abs=0.02)


def test_inverse_gamma_pdf_cdf():
    p = InvGammaParams(1.0, 1.0)
    assert inverse_gamma_cdf(p, np.inf) == 1.0
    assert inverse_gamma_cdf(p, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)
    grid = LogGrid.make()
    p2 = InvGammaParams(2.0, 0.5)
    assert grid.integrate(inverse_gamma_pdf(p2, grid.points)) == \
        pytest.approx(1.0, abs=1e-8)
    # pin against scipy's independent implementation
    xs = np.array([0.1, 0.7, 2.0, 9.0])
    assert inverse_gamma_pdf(p2, xs) == pytest.approx(
        spstats.invgamma.pdf(xs, 2.0, scale=0.5), rel=1e-12)
    assert inverse_gamma_cdf(p2, xs) == pytest.approx(
        spstats.invgamma.cdf(xs, 2.0, scale=0.5), rel=1e-12)


def test_inverse_gamma_sampler():
    p = InvGammaParams(3.0, 2.0)
    draws = inverse_gamma_sample(p, np.random.default_rng(SEED), 100000)
    assert np.all(draws > 0)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - inverse_gamma_mean(p)) < 3.0 * se
    res = ks_one_sample(np.sort(draws), lambda x: inverse_gamma_cdf(p, x))
    assert res.passed


def test_spawn_rngs_independent_and_reproducible():
    r1 = spawn_rngs(SEED, 4)
    r2 = spawn_rngs(SEED, 4)
    a = [r.standard_normal(3) for r in r1]
    b = [r.standard_normal(3) for r in r2]
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    assert not np.array_equal(a[0], a[1])
