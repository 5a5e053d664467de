import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from gigwalk.gig import GigParams, InvGammaParams, gig_log_moment_numeric, inverse_gamma_cdf
from gigwalk.stats import (BrownianConfig, EmpiricalSample,
                           InsufficientConditioningError, donsker_check,
                           dufresne_test, generator_drift_check,
                           kolmogorov_critical, ks_one_sample, ks_two_sample,
                           n_part_statistics, report_record,
                           scaling_limit_test, simulate_my_continuous,
                           z_independence_check)

SEED = 16180339


def test_kolmogorov_critical_values():
    # ~0.00515 at n = 1e5 for the 1% level
    assert kolmogorov_critical(0.01, 100000) == pytest.approx(0.005147, abs=2e-6)
    assert kolmogorov_critical(0.01, 50000, 50000) == pytest.approx(
        1.6276 * np.sqrt(2.0 / 50000.0), rel=1e-3)


def test_empirical_sample_validation():
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([2.0, 1.0]), 0)
    with pytest.raises(ValueError):
        EmpiricalSample(np.array([1.0]), 0)
    s = EmpiricalSample.from_draws([3.0, 1.0, 2.0], 7, "x")
    assert np.array_equal(s.values, [1.0, 2.0, 3.0])


def test_empirical_sample_csv_dump():
    import io

    s = EmpiricalSample.from_draws([0.30000000000000004, 0.1], 7, "demo")
    buf = io.StringIO()
    s.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "index,value,seed,tag"
    assert lines[1].split(",") == ["0", "0.1", "7", "demo"]
    assert float(lines[2].split(",")[1]) == 0.30000000000000004


def test_ks_one_sample_null_shifted_degenerate():
    rng = np.random.default_rng(SEED)
    draws = rng.standard_normal(100000)
    assert ks_one_sample(draws, special.ndtr).passed
    assert not ks_one_sample(draws + 0.5, special.ndtr).passed
    tiny = ks_one_sample(np.array([0.1, 0.4]), special.ndtr)
    assert 0.0 <= tiny.statistic <= 1.0


def test_ks_one_sample_monotone_diagnostic():
    with pytest.raises(ValueError):
        ks_one_sample(np.linspace(0, 6, 100), np.sin)


def test_ks_two_sample_null_shifted_degenerate():
    rng = np.random.default_rng(SEED + 1)
    a = rng.standard_normal(50000)
    b = rng.standard_normal(50000)
    assert ks_two_sample(a, b).passed
    assert not ks_two_sample(a, b + 0.5).passed
    tiny = ks_two_sample(np.array([0.0, 1.0]), np.array([0.5, 2.0]))
    assert 0.0 <= tiny.statistic <= 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_rejects_non_finite_samples(bad):
    # an overflowed sample must not come back as a KS statistic
    draws = np.array([0.1, 0.5, bad, 2.0])
    with pytest.raises(ValueError, match="overflow"):
        ks_one_sample(draws, special.ndtr)
    with pytest.raises(ValueError, match="overflow"):
        ks_two_sample(draws, np.array([0.2, 0.3]))
    with pytest.raises(ValueError, match="overflow"):
        ks_two_sample(np.array([0.2, 0.3]), EmpiricalSample.from_draws(draws, 1))


def test_dufresne_null_and_power():
    res = dufresne_test(1.0, np.sqrt(2.0), 30000, SEED)
    assert res.passed, f"KS={res.statistic}"
    # wrong-law control: shifting the shape by 0.5 must be detected
    from gigwalk.walk import n_infinity_batch
    draws = n_infinity_batch(1.0, np.sqrt(2.0), 30000,
                             np.random.default_rng(SEED))
    target = InvGammaParams(1.5, 1.0)
    res_bad = ks_one_sample(np.sort(draws), lambda x: inverse_gamma_cdf(target, x))
    assert not res_bad.passed


def test_dufresne_truncation_tolerance_stability():
    loose = dufresne_test(1.0, np.sqrt(2.0), 20000, SEED + 2, tail_tol=1e-6)
    tight = dufresne_test(1.0, np.sqrt(2.0), 20000, SEED + 2, tail_tol=1e-10)
    assert tight.statistic <= loose.statistic + 2.0 / np.sqrt(20000)


def test_dufresne_requires_positive_lambda():
    with pytest.raises(ValueError):
        dufresne_test(-1.0, 1.0, 100, SEED)


def test_dufresne_deterministic_and_worker_independent():
    a = dufresne_test(2.0, np.sqrt(2.0), 5000, SEED)
    b = dufresne_test(2.0, np.sqrt(2.0), 5000, SEED)
    c = dufresne_test(2.0, np.sqrt(2.0), 5000, SEED, workers=4)
    assert a.statistic == b.statistic == c.statistic


def test_n_part_transient_then_convergence():
    res = n_part_statistics(1.0, 1.0, [5, 200], 200000, 1)
    assert not res[5].passed          # expected-fail: not yet converged
    assert res[200].passed


def test_n_part_monotone_for_pinned_seed():
    res = n_part_statistics(1.0, 1.0, [10, 50, 200], 50000, 5)
    s10, s50, s200 = (res[n].statistic for n in (10, 50, 200))
    assert s10 >= s50 >= s200
    assert res[200].passed


def test_donsker_moment_precheck():
    # n * Var(log gamma^(sqrt n)) -> 1, within 2% at n = 900
    n = 900
    params = GigParams.symmetric(1.0, np.sqrt(n))
    m1 = gig_log_moment_numeric(params, 1)
    m2 = gig_log_moment_numeric(params, 2)
    assert n * (m2 - m1 * m1) == pytest.approx(1.0, abs=0.02)


def test_donsker_small():
    res = donsker_check(0.0, 400, 1.0, 20000, SEED)
    assert res.passed, f"KS={res.statistic}"
    res = donsker_check(1.0, 400, 1.0, 20000, SEED + 1)
    assert res.passed, f"KS={res.statistic}"


def test_brownian_config_validation():
    with pytest.raises(ValueError):
        BrownianConfig(0.0, 1.0, 2.0)
    for args in [(np.nan, 1.0, 0.1), (0.0, np.inf, 0.1), (0.0, 1.0, np.nan)]:
        with pytest.raises(ValueError, match="finite"):
            BrownianConfig(*args)


def test_continuous_simulator_deterministic_injection():
    config = BrownianConfig(0.0, 0.5, 1e-3)
    assert simulate_my_continuous(config, normals=0.0) == pytest.approx(
        0.5, rel=1e-12)


def test_continuous_simulator_small_time_mean():
    # E[Z_t]/t = e^{t/2} ~ 1.005 at t = 0.01
    config = BrownianConfig(0.0, 0.01, 1e-5)
    draws = simulate_my_continuous(config, np.random.default_rng(SEED), 20000)
    assert draws.mean() / 0.01 == pytest.approx(1.0, abs=0.02)


def test_dufresne_integral_percentile_stable_in_horizon():
    # with positive drift, int_0^t e^{-2B_s} ds converges a.s.; its upper
    # percentile stabilizes as the horizon grows
    rng = np.random.default_rng(SEED)

    def integral(t, rng):
        config = BrownianConfig(2.0, t, 1e-3 * t)
        b = np.zeros(10000)
        acc = np.zeros(10000)
        sdt = np.sqrt(config.dt)
        for _ in range(config.steps):
            acc += np.exp(-2.0 * b) * config.dt
            b += config.drift * config.dt + sdt * rng.standard_normal(b.size)
        return acc

    q5 = np.quantile(integral(5.0, np.random.default_rng(SEED)), 0.99)
    q10 = np.quantile(integral(10.0, np.random.default_rng(SEED + 1)), 0.99)
    assert np.isfinite(q5) and np.isfinite(q10)
    assert q10 / q5 == pytest.approx(1.0, abs=0.15)


def test_scaling_limit_converged_and_transient():
    res = scaling_limit_test(1.0, 200, 1.0, 20000, 1e-3, SEED)
    assert res.ks.statistic < 0.02 and res.passed
    ctrl = scaling_limit_test(1.0, 10, 0.5, 20000, 1e-3, SEED)
    assert ctrl.ks.statistic > 0.05          # pre-asymptotic expected-fail
    assert res.ks.statistic < ctrl.ks.statistic


def test_generator_drift_check():
    res = generator_drift_check(0.5, 1.0, 500, 2 * 10**6, SEED)
    assert res.drift_reference == pytest.approx(2.0, rel=1e-12)
    assert res.drift_rel_err < 0.05
    assert res.diffusion_rel_err < 0.05
    with pytest.raises(InsufficientConditioningError):
        generator_drift_check(0.5, 30.0, 200, 10**4, SEED)


def test_z_independence_null_and_control():
    res = z_independence_check(1.0, 1.0, 300, 100000, 7)
    assert res.passed and res.max_abs_correlation < 0.01
    assert res.distance_correlation < 0.02
    ctrl = z_independence_check(1.0, 1.0, 300, 100000, 7, statistic="log_x")
    assert ctrl.max_abs_correlation > ctrl.bound
    assert ctrl.distance_correlation > 0.02


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(0.5, 3.0), a=st.floats(0.3, 5.0), n=st.integers(1, 60),
       samples=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
def test_n_part_statistics_do_not_depend_on_workers(lam, a, n, samples, seed):
    assert (n_part_statistics(lam, a, [1, n], samples, seed, workers=1)
            == n_part_statistics(lam, a, [1, n], samples, seed, workers=2))


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(-2.0, 3.0), n=st.integers(1, 60), t=st.floats(0.2, 1.0),
       samples=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
def test_scaling_limit_does_not_depend_on_workers(lam, n, t, samples, seed):
    assert (scaling_limit_test(lam, n, t, samples, 0.05, seed, workers=1)
            == scaling_limit_test(lam, n, t, samples, 0.05, seed, workers=2))


def test_report_record_fields():
    rec = report_record("dufresne", {"lambda": 1.0}, 7, 0.001, 0.005, True, 12.3)
    assert rec["schema_version"] == 1
    assert set(rec) == {"schema_version", "test", "params", "seed",
                        "statistic", "threshold", "pass", "runtime_ms"}
