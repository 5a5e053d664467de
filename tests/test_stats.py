import os
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from gigwalk import stats, walk
from gigwalk.gig import (GigParams, InvGammaParams, Streams,
                         gig_log_moment_numeric, gig_sample, inverse_gamma_cdf,
                         spawn_rngs)
from gigwalk.stats import (BrownianConfig, InsufficientConditioningError,
                           donsker_check, dufresne_test, generator_drift_check,
                           kolmogorov_critical, ks_one_sample, ks_two_sample,
                           n_part_statistics, scaling_limit_test,
                           simulate_my_continuous, z_independence_check)
from gigwalk.walk import n_infinity_batch, simulate_batch

SEED = 16180339


def test_kolmogorov_critical_values():
    # ~0.00515 at n = 1e5 for the 1% level
    assert kolmogorov_critical(0.01, 100000) == pytest.approx(0.005147, abs=2e-6)
    assert kolmogorov_critical(0.01, 50000, 50000) == pytest.approx(
        1.6276 * np.sqrt(2.0 / 50000.0), rel=1e-3)


def test_ks_one_sample_null_shifted_degenerate():
    rng = np.random.default_rng(SEED)
    draws = rng.standard_normal(100000)
    assert ks_one_sample(draws, special.ndtr).passed
    assert not ks_one_sample(draws + 0.5, special.ndtr).passed
    tiny = ks_one_sample(np.array([0.1, 0.4]), special.ndtr)
    assert 0.0 <= tiny.statistic <= 1.0


def test_ks_needs_two_values():
    # one draw would pass any law: the critical value exceeds 1
    with pytest.raises(ValueError, match="two values"):
        ks_one_sample(np.array([0.1]), special.ndtr)
    with pytest.raises(ValueError, match="two values"):
        ks_two_sample(np.array([0.2, 0.3]), np.array([0.1]))
    with pytest.raises(ValueError, match="two values"):
        dufresne_test(1.0, 1.0, 1, SEED)


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
        ks_two_sample(np.array([0.2, 0.3]), draws)


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


class _ZeroGenerator:
    """A Generator stand-in whose Gaussians are all 0."""

    def standard_normal(self, out):
        out.fill(0.0)


def test_continuous_simulator_deterministic_injection():
    # zero Gaussians with drift 0 keep B at 0, so the integral is exactly t
    config = BrownianConfig(0.0, 0.5, 1e-3)
    b, acc = np.zeros(1), np.zeros(1)
    stats._euler_blocks(config, Streams.of(_ZeroGenerator(), 1), b, acc)
    assert float(np.exp(b[0]) * acc[0]) == pytest.approx(0.5, rel=1e-12)


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


def _no_draws(*args):
    raise AssertionError("drew samples")


@pytest.mark.parametrize("samples", [1, 2, 3])
def test_z_independence_refuses_fewer_than_4_samples_before_drawing(
        samples, monkeypatch):
    # dCov's U-statistics divide by n - 2 and n (n - 3)
    monkeypatch.setattr(stats, "_sharded", _no_draws)
    with pytest.raises(ValueError, match="at least 4"):
        z_independence_check(1.0, 1.0, 10, samples, 1)


def test_z_independence_runs_at_4_samples():
    res = z_independence_check(1.0, 1.0, 10, 4, 1)
    assert np.isfinite(res.distance_correlation)


@pytest.mark.parametrize("check", [
    lambda n, t: scaling_limit_test(1.0, n, t, 200, 0.01, 1),
    lambda n, t: donsker_check(1.0, n, t, 200, 1)],
    ids=["scaling_limit_test", "donsker_check"])
@pytest.mark.parametrize("n, t", [(10, 0.05), (1, 0.5), (200, 0.0)])
def test_walk_that_never_steps_raises(check, n, t, monkeypatch):
    # floor(n t) = 0: a KS verdict on the start point would say nothing
    monkeypatch.setattr(stats, "_sharded", _no_draws)
    with pytest.raises(ValueError, match="no step"):
        check(n, t)


def _u_centred(v):
    d = np.abs(np.subtract.outer(v, v))
    n, rows = v.size, d.sum(axis=0)
    out = d - rows[None, :] / (n - 2) - rows[:, None] / (n - 2) \
        + rows.sum() / ((n - 1) * (n - 2))
    np.fill_diagonal(out, 0.0)
    return out


@settings(max_examples=30, deadline=None)
@given(block=st.integers(4, 150), blocks=st.integers(1, 3), tail=st.integers(0, 3),
       ties=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dcov_sums_equal_the_u_centred_matrices(block, blocks, tail, ties, seed):
    # reference: the U-centred distance matrices of each block and their
    # products, formed in full; a tail shorter than a block is left out
    rng = np.random.default_rng(seed)
    x = np.exp(rng.standard_normal(block * blocks + tail))
    y = 0.3 * x + rng.standard_normal(x.size)
    if ties:
        x = np.round(x, 1)
    ref, raw = np.zeros(3), np.zeros(3)
    for lo in range(0, block * blocks, block):
        u, v = x[lo:lo + block], y[lo:lo + block]
        a, b = _u_centred(u), _u_centred(v)
        ref += [np.sum(a * b), np.sum(a * a), np.sum(b * b)]
        # the sums of the uncentred distances, which the rounding scales with
        a, b = np.abs(np.subtract.outer(u, u)), np.abs(np.subtract.outer(v, v))
        raw += [np.sum(a * b), np.sum(a * a), np.sum(b * b)]
    got = np.array(stats._dcov_sums(x, y, block)) * (block * (block - 3))
    assert np.all(np.abs(got - ref) <= 1e-13 * raw)


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
    assume(n * t >= 1.0)  # the walk takes a step
    assert (scaling_limit_test(lam, n, t, samples, 0.05, seed, workers=1)
            == scaling_limit_test(lam, n, t, samples, 0.05, seed, workers=2))


def _euler_one_step_at_a_time(config, rng, count):
    """The plain Euler loop: one standard_normal call per shard and step."""
    streams = Streams.of(rng, count)
    b, acc, drawn = np.zeros(count), np.zeros(count), np.empty(count)
    sdt = np.sqrt(config.dt)
    for _ in range(config.steps):
        acc += np.exp(-2.0 * b) * config.dt
        streams.standard_normal(drawn)
        b = b + config.drift * config.dt + sdt * drawn
    return np.exp(b) * acc


@settings(max_examples=40, deadline=None)
@given(blocks=st.integers(1, 3), offset=st.sampled_from([-1, 0, 1]),
       drift=st.floats(-2.0, 3.0),
       source=st.sampled_from(["generator", "streams", "sharded"]),
       counts=st.lists(st.integers(0, 187), min_size=1, max_size=16).filter(
           lambda c: sum(c) >= 1),
       seed=st.integers(0, 2**32 - 1))
def test_euler_blocks_equal_one_step_at_a_time(blocks, offset, drift, source,
                                               counts, seed):
    # step counts just below, at and just past a block multiple; the mesh
    # ends at steps*dt, short of t
    steps = blocks * stats.EULER_BLOCK_STEPS + offset
    config = BrownianConfig(drift, (steps + 0.25) * 0.01, 0.01)
    assert config.steps == steps
    total = sum(counts)

    def fresh():
        if source == "generator":
            return np.random.default_rng(seed)
        return Streams(spawn_rngs(seed, len(counts)), counts)

    if source != "sharded":
        got = simulate_my_continuous(config, fresh(), total)
        want = _euler_one_step_at_a_time(config, fresh(), total)
    else:  # several lockstep groups on two workers
        with mock.patch.object(stats, "GROUP_ELEMENTS", max(1, total // 3)):
            assert len(stats._groups(total, seed)) > 1 or total == 1
            got = stats._sharded(
                lambda c, r: simulate_my_continuous(config, r, c), total, seed,
                workers=2)
        want = np.concatenate([
            _euler_one_step_at_a_time(config, r, c)
            for c, r in zip(stats._shard_counts(total),
                            spawn_rngs(seed, stats.SHARDS)) if c > 0])
    assert np.array_equal(got, want)


class _FailingGenerator:
    """A Generator whose third standard_normal fill raises."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def standard_normal(self, out):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("fill failed")
        self.rng.standard_normal(out=out)


def test_euler_helper_thread_ends_with_the_call_and_errors_propagate():
    config = BrownianConfig(0.5, 1.0, 0.01)  # 100 steps, 13 blocks
    before = threading.active_count()
    simulate_my_continuous(config, np.random.default_rng(1), 100)
    assert threading.active_count() == before
    outcomes = []

    def call(rngs):
        try:
            simulate_my_continuous(config, Streams(rngs, [50] * len(rngs)),
                                   50 * len(rngs))
        except RuntimeError as exc:
            outcomes.append(str(exc))

    # a failing fill in either thread: the helper and this thread both take
    # shards, so which one meets the failing generator is not fixed
    for rngs in ([np.random.default_rng(2), _FailingGenerator(3)],
                 [_FailingGenerator(4), np.random.default_rng(5)],
                 [_FailingGenerator(6), _FailingGenerator(7)]):
        caller = threading.Thread(target=call, args=(rngs,))
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive()
    assert outcomes == ["fill failed"] * 3
    assert threading.active_count() == before


LOCKSTEP_DRAWS = {
    "gig_sample": lambda lam, a: lambda c, r: gig_sample(
        GigParams.symmetric(lam, a), r, c),
    "simulate_batch": lambda lam, a: lambda c, r: simulate_batch(
        GigParams.symmetric(lam, a), 0.5, c, r, [0, 3, 7]),
    "n_infinity_batch": lambda lam, a: lambda c, r: n_infinity_batch(lam, a, c, r),
    "euler": lambda lam, a: lambda c, r: simulate_my_continuous(
        BrownianConfig(lam, 0.05, 0.01), r, c),
}


@settings(max_examples=40, deadline=None)
@given(draw=st.sampled_from(sorted(LOCKSTEP_DRAWS)), lam=st.floats(0.3, 3.0),
       a=st.floats(0.3, 3.0), total=st.integers(1, 3000),
       budget=st.sampled_from([1, 50, 400, 20000]), workers=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_lockstep_groups_equal_one_shard_at_a_time(draw, lam, a, total, budget,
                                                   workers, seed):
    fn = LOCKSTEP_DRAWS[draw](lam, a)
    alone = [fn(c, r) for c, r in zip(stats._shard_counts(total),
                                      spawn_rngs(seed, stats.SHARDS)) if c > 0]
    with mock.patch.object(stats, "GROUP_ELEMENTS", budget):
        groups = stats._groups(total, seed)
        joined = stats._sharded(fn, total, seed, workers)
    assert sum(g.size for g in groups) == total
    assert all(len(g.counts) == 1 or g.size <= budget for g in groups)
    assert np.array_equal(joined, np.concatenate(alone, axis=-1))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=15, deadline=None)
@given(draw=st.sampled_from(sorted(LOCKSTEP_DRAWS)), lam=st.floats(0.3, 3.0),
       a=st.floats(0.3, 3.0), total=st.integers(1, 3000),
       budget=st.sampled_from([50, 20000]), workers=st.sampled_from([2, 3, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_forked_lanes_equal_one_shard_at_a_time(draw, lam, a, total, budget,
                                                workers, seed):
    fn = LOCKSTEP_DRAWS[draw](lam, a)
    alone = [fn(c, r) for c, r in zip(stats._shard_counts(total),
                                      spawn_rngs(seed, stats.SHARDS)) if c > 0]
    with mock.patch.object(stats, "LANE_FLOOR", 1), \
            mock.patch.object(stats, "GROUP_ELEMENTS", budget):
        laned = stats._sharded(fn, total, seed, workers)
    assert np.array_equal(laned, np.concatenate(alone, axis=-1))
    _assert_no_children()


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_raise(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        dufresne_test(1.0, 1.0, 2000, 3, workers=workers)


@pytest.mark.parametrize("workers, total, forks", [
    (10**6, 16 * stats.LANE_FLOOR, 15),   # capped at the 16 shards
    (10**6, 5 * stats.LANE_FLOOR, 4),     # capped at the floor
    (10**6, stats.LANE_FLOOR, 0),
    (3, 16 * stats.LANE_FLOOR, 2)])
def test_lanes_are_capped_and_run_in_process_without_fork(monkeypatch, workers,
                                                          total, forks):
    def draw(c, r):
        return gig_sample(GigParams.symmetric(1.0, 1.0), r, c)

    serial = stats._sharded(draw, total, 5)
    attempts = []

    def fork():  # counts, then fails: every lane runs in this process
        attempts.append(1)
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", fork)
    assert np.array_equal(stats._sharded(draw, total, 5, workers), serial)
    assert len(attempts) == forks
    monkeypatch.delattr(os, "fork")  # a platform without fork
    assert np.array_equal(stats._sharded(draw, total, 5, workers), serial)


def _in_child(caller, action):
    """A draw that runs `action` in child lanes only."""
    def draw(c, r):
        if os.getpid() != caller:
            action()
        return np.zeros(c)
    return draw


def test_lanes_leave_no_child_process():
    caller = os.getpid()
    total = 2 * stats.LANE_FLOOR
    _assert_no_children()
    assert stats._sharded(_in_child(caller, lambda: None), total, 1, 2).size == total
    _assert_no_children()

    def stuck(c, r):  # the child would run for a minute unless killed
        if os.getpid() == caller:
            raise ValueError("caller lane failed")
        time.sleep(60.0)
        return np.zeros(c)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="caller lane failed"):
        stats._sharded(stuck, total, 1, 2)
    assert time.perf_counter() - start < 30.0
    _assert_no_children()


@pytest.mark.parametrize("error", [walk.DivergenceError, ValueError,
                                   InsufficientConditioningError])
def test_child_lane_errors_keep_their_type(error):
    def fail():
        raise error("lane failed")

    with pytest.raises(error, match="lane failed") as info:
        stats._sharded(_in_child(os.getpid(), fail), 3 * stats.LANE_FLOOR, 1, 3)
    notes = getattr(info.value, "__notes__", None)  # Python >= 3.11
    assert notes is None or any("forked Monte Carlo lane" in n for n in notes)
    _assert_no_children()


def test_child_lane_warnings_reach_the_caller():
    def warn():
        np.exp(np.array([1000.0]))  # overflow: a numpy RuntimeWarning
        warnings.warn("lane warning", RuntimeWarning)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stats._sharded(_in_child(os.getpid(), warn), 3 * stats.LANE_FLOOR, 1, 3)
    texts = [str(w.message) for w in caught
             if issubclass(w.category, RuntimeWarning)]
    assert texts.count("lane warning") == 2  # one per child lane
    assert texts.count("overflow encountered in exp") == 2
    _assert_no_children()


def test_default_sample_counts_join_all_shards_but_not_at_1e5():
    assert len(stats._groups(20000, 1)) == 1
    assert len(stats._groups(13, 1)) == 1  # empty shards are left out
    assert len(stats._groups(13, 1)[0].counts) == 13
    at_1e5 = stats._groups(10**5, 1)
    assert len(at_1e5) > 1 and all(g.size <= stats.GROUP_ELEMENTS for g in at_1e5)


def test_checkpoints_below_one_raise():
    for marks in ([0, 10], [-3], []):
        with pytest.raises(ValueError, match="checkpoints"):
            n_part_statistics(1.0, 1.0, marks, 100, 1)
