import io
from itertools import accumulate
from math import lgamma

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gigwalk.walk
from gigwalk.gig import GigParams, InvGammaParams, gig_sample, inverse_gamma_mean
from gigwalk.stats import ks_two_sample
from gigwalk.walk import (DivergenceError, InsufficientTailError, WalkConfig,
                          WalkPath, f_n, n_infinity_batch, n_parts,
                          path_to_csv, phi_forward, phi_inverse,
                          phi_jacobian_det, reconstruct_x_finite,
                          reconstruct_x_limit, simulate_batch, simulate_path)

SEED = 31415926


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_walk_config_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite"):
        WalkConfig(GigParams.symmetric(1.0, 1.0), delta, 10, 0)


def random_path(lam, a, steps, seed, delta=1.0):
    config = WalkConfig(GigParams.symmetric(lam, a), delta, steps, seed)
    return simulate_path(config)


@pytest.mark.parametrize("drift", [0.5, 0.0, -0.5])
def test_path_matches_matrix_products(drift):
    # X_k = M[0, 0] and Z_k = M[1, 0] of the chained group increments
    # [[gamma, 0], [delta, 1/gamma]], on growing and shrinking paths
    rng = np.random.default_rng(SEED + int(10 * drift))
    for _ in range(20):
        steps = int(rng.integers(1, 13))
        gammas = np.exp(rng.normal(drift, 0.7, steps))
        delta = float(np.exp(rng.normal()))
        path = WalkPath.from_gammas(gammas, delta)
        increments = [np.array([[g, 0.0], [delta, 1.0 / g]]) for g in gammas]
        prods = np.array(list(accumulate(increments, np.matmul)))
        np.testing.assert_allclose(path.xs, prods[:, 0, 0], rtol=1e-12)
        np.testing.assert_allclose(path.zs, prods[:, 1, 0], rtol=1e-12)


def test_single_step_path():
    path = random_path(1.0, 1.0, 1, SEED, delta=0.7)
    assert path.xs[0] == pytest.approx(path.gammas[0], rel=1e-15)
    assert path.zs[0] == pytest.approx(0.7, rel=1e-15)


def test_unit_gamma_path():
    path = WalkPath.from_gammas(np.ones(5), 1.0)
    assert np.allclose(path.zs, [1, 2, 3, 4, 5], rtol=1e-14)
    assert np.allclose(path.xs, 1.0)


def test_closed_form_matches_recursion():
    # X_n = prod gamma_i ; Z_n = delta * sum_k prod_{i<k} g_i^-1 prod_{j>k} g_j
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        gammas = np.exp(rng.normal(0.0, 0.4, 7))
        delta = 1.7
        path = WalkPath.from_gammas(gammas, delta)
        n = 7
        x_closed = np.prod(gammas)
        z_closed = delta * sum(
            np.prod(1.0 / gammas[:k]) * np.prod(gammas[k + 1:n])
            for k in range(n))
        assert path.xs[-1] == pytest.approx(x_closed, rel=1e-12)
        assert path.zs[-1] == pytest.approx(z_closed, rel=1e-12)


def test_recurrence_invariant():
    # Z_k X_{k-1} = X_k Z_{k-1} + delta for k >= 2
    for delta in (1.0, 0.3, 2.5):
        path = random_path(0.5, 1.0, 40, SEED + int(10 * delta), delta=delta)
        xs, zs = path.xs, path.zs
        lhs = zs[1:] * xs[:-1]
        rhs = xs[1:] * zs[:-1] + delta
        assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12


def test_conjugation_between_deltas():
    # P b^(delta) P^-1 = b^(1) on identical increments: X equal, Z scaled by delta
    rng = np.random.default_rng(SEED)
    gammas = np.exp(rng.normal(0.0, 0.5, 30))
    delta = 2.5
    base = WalkPath.from_gammas(gammas, 1.0)
    scaled = WalkPath.from_gammas(gammas, delta)
    assert np.array_equal(base.log_xs, scaled.log_xs)
    assert np.max(np.abs(scaled.zs / (delta * base.zs) - 1.0)) < 1e-12


def test_no_drift_after_many_multiplications():
    # alternating gamma, 1/gamma round trips: log-space accumulation stays put
    rng = np.random.default_rng(SEED)
    gammas = np.exp(rng.normal(0.0, 0.8, 500000))
    stream = np.empty(10**6)
    stream[0::2] = gammas
    stream[1::2] = 1.0 / gammas
    log_x = np.sum(np.log(stream[0::2])) + np.sum(np.log(stream[1::2]))
    assert abs(np.exp(log_x) - 1.0) < 1e-9


def test_phi_forward_examples():
    zs, x = phi_forward([1.0, 1.0])
    assert np.allclose(zs, [2.0]) and x == 1.0
    zs, x = phi_forward([1.0, 1.0, 1.0])
    assert np.allclose(zs, [2.0, 3.0]) and x == 1.0
    zs, x = phi_forward([2.0, 3.0])
    assert zs[0] == pytest.approx(3.5, rel=1e-15) and x == 6.0
    with pytest.raises(ValueError):
        phi_forward([2.0])


def test_phi_inverse_examples():
    assert np.allclose(phi_inverse([2.0], 1.0), [1.0, 1.0])
    assert np.allclose(phi_inverse([3.5], 6.0), [2.0, 3.0], rtol=1e-14)
    # n=3 inversion formula: gamma_0 = (Z2 X3 + Z3 + 1) / (Z2 Z3)
    ys = phi_inverse([2.0, 3.0], 1.0)
    assert ys[0] == pytest.approx((2.0 * 1.0 + 3.0 + 1.0) / 6.0, rel=1e-14)
    assert np.allclose(ys, [1.0, 1.0, 1.0], rtol=1e-14)
    with pytest.raises(ValueError):
        phi_inverse([2.0, -1.0], 1.0)


def test_phi_round_trip():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        ys = np.exp(rng.normal(0.0, 0.7, n))
        zs, x = phi_forward(ys)
        back = phi_inverse(zs, x)
        assert np.max(np.abs(back / ys - 1.0)) < 1e-10


def test_phi_jacobian_values():
    assert phi_jacobian_det([2.0]) == -2.0
    assert phi_jacobian_det([2.0, 3.0]) == 6.0


def fd_jacobian_det(ys, h=1e-6):
    ys = np.asarray(ys, dtype=float)
    n = ys.size

    def vec(y):
        zs, x = phi_forward(y)
        return np.concatenate([zs, [x]])

    jac = np.empty((n, n))
    for j in range(n):
        step = h * ys[j]
        up, dn = ys.copy(), ys.copy()
        up[j] += step
        dn[j] -= step
        jac[:, j] = (vec(up) - vec(dn)) / (2.0 * step)
    return float(np.linalg.det(jac))


def test_phi_jacobian_against_finite_differences():
    ys = np.array([0.7, 1.3, 2.1])
    zs, _ = phi_forward(ys)
    assert fd_jacobian_det(ys) == pytest.approx(phi_jacobian_det(zs), rel=1e-6)


def test_f_n_identity():
    # sum (gamma + 1/gamma) = (X_n + 1/X_n)/Z_n + F_n(Z_2..Z_n) at delta = 1
    def residual(gammas):
        path = WalkPath.from_gammas(gammas, 1.0)
        lhs = np.sum(gammas + 1.0 / gammas)
        x, z = path.xs[-1], path.zs[-1]
        rhs = (x + 1.0 / x) / z + f_n(path.zs)
        return abs(lhs / rhs - 1.0)

    assert residual(np.array([1.0, 1.0])) < 1e-15
    assert f_n([1.0, 2.0]) == pytest.approx(3.0, rel=1e-15)
    assert residual(np.array([2.0, 3.0])) < 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        assert residual(np.exp(rng.normal(0.0, 0.6, 6))) < 1e-12


def test_n_parts():
    path = WalkPath.from_gammas(np.ones(2), 1.0)
    parts = n_parts(path, 2)
    assert parts.n_na == pytest.approx(2.0, rel=1e-14)
    assert parts.n_an == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(IndexError):
        n_parts(path, 3)


def test_n_parts_series_forms():
    # N_n = sum gamma_k^-1 (prod_{i<k} gamma_i^-1)^2,
    # Ntilde_n = sum gamma_k (prod_{j>k} gamma_j)^2, at delta = 1
    rng = np.random.default_rng(SEED)
    gammas = np.exp(rng.normal(0.0, 0.5, 9))
    path = WalkPath.from_gammas(gammas, 1.0)
    n = 9
    n_series = sum(np.prod(1.0 / gammas[:k]) ** 2 / gammas[k] for k in range(n))
    an_series = sum(np.prod(gammas[k + 1:n]) ** 2 * gammas[k] for k in range(n))
    parts = n_parts(path, n)
    assert parts.n_na == pytest.approx(n_series, rel=1e-10)
    assert parts.n_an == pytest.approx(an_series, rel=1e-10)
    assert parts.n_na * path.xs[n - 1] ** 2 == pytest.approx(parts.n_an, rel=1e-12)


def test_an_part_recursion():
    # Ntilde_n(gamma^-1) = gamma_{n-1}^-2 Ntilde_{n-1}(gamma^-1) + gamma_{n-1}^-1
    rng = np.random.default_rng(SEED + 5)
    gammas = np.exp(rng.normal(0.0, 0.5, 12))
    inv_path = WalkPath.from_gammas(1.0 / gammas, 1.0)
    for n in range(2, 13):
        cur = n_parts(inv_path, n).n_an
        prev = n_parts(inv_path, n - 1).n_an
        g = gammas[n - 1]
        assert cur == pytest.approx(prev / g**2 + 1.0 / g, rel=1e-10)


def test_na_an_distributional_mirror():
    # N_n(gamma) law-equals Ntilde_n(gamma^-1) at n = 10
    lam, a, n, m = 1.0, 1.0, 10, 100000
    params = GigParams.symmetric(lam, a)
    from gigwalk.gig import gig_sample

    gam = gig_sample(params, np.random.default_rng(SEED + 10), m * n).reshape(n, m)
    # NA-part of the walk driven by gamma
    z = np.zeros(m)
    log_x = np.zeros(m)
    for k in range(n):
        z = gam[k] * z + np.exp(-log_x)
        log_x += np.log(gam[k])
    draws1 = z * np.exp(-log_x)
    # AN-part of the walk driven by 1/gamma (fresh draws)
    gam = 1.0 / gig_sample(params, np.random.default_rng(SEED + 11), m * n).reshape(n, m)
    z = np.zeros(m)
    log_x = np.zeros(m)
    for k in range(n):
        z = gam[k] * z + np.exp(-log_x)
        log_x += np.log(gam[k])
    draws2 = z * np.exp(log_x)
    res = ks_two_sample(draws1, draws2)
    assert res.passed, f"KS={res.statistic} crit={res.critical_1pct}"


def test_n_infinity_injected_streams(monkeypatch):
    def constant(c):
        monkeypatch.setattr(gigwalk.walk, "gig_sample",
                            lambda params, rng, size: np.full(size, c))

    constant(2.0)  # sum_k 2^-1 4^-k
    draws = n_infinity_batch(1.0, 1.0, 3, None)
    np.testing.assert_allclose(draws, 2.0 / 3.0, rtol=1e-9)
    constant(1.0)  # every term is 1: the series never stops
    with pytest.raises(DivergenceError, match="after 1000 terms"):
        n_infinity_batch(1.0, 1.0, 3, None, max_terms=1000)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-2.0, 3.0), a=st.floats(0.3, 5.0),
       delta=st.floats(0.1, 10.0), steps=st.integers(1, 60),
       count=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(lam=-2.0, a=0.3, delta=10.0, steps=60, count=8, seed=0)  # log X ~ -230
def test_batch_engine_replays_the_stream(lam, a, delta, steps, count, seed):
    params = GigParams.symmetric(lam, a)
    log_x, n_na = simulate_batch(params, delta, count,
                                 np.random.default_rng(seed),
                                 range(1, steps + 1))
    rng = np.random.default_rng(seed)
    gammas = np.array([gig_sample(params, rng, count) for _ in range(steps)])
    assert np.array_equal(log_x, np.cumsum(np.log(gammas), axis=0))
    for j in range(count):
        path = WalkPath.from_gammas(gammas[:, j], delta)
        np.testing.assert_allclose(n_na[:, j],
                                   np.exp(path.log_zs - path.log_xs),
                                   rtol=1e-12)


def test_batch_engine_marks():
    # mark 0 is the identity; repeated and unsorted marks collapse
    params = GigParams.symmetric(1.0, 1.0)
    out = simulate_batch(params, 1.0, 4, np.random.default_rng(SEED), [3, 0, 3])
    assert out.shape == (2, 2, 4)
    assert np.array_equal(out[:, 0], np.zeros((2, 4)))
    full = simulate_batch(params, 1.0, 4, np.random.default_rng(SEED), [1, 2, 3])
    assert np.array_equal(out[:, 1], full[:, 2])


def _n_infinity_gather_scatter(lam, a, size, rng, tail_tol=1e-6):
    """Oracle: the perpetuity loop that keeps every sample's state at full
    size and gathers and scatters the live ones through an index array."""
    params = GigParams.symmetric(lam, a)
    level = gigwalk.walk._stop_level(lam, a, tail_tol)
    total = np.zeros(size)
    log_prefix = np.zeros(size)
    active = np.arange(size)
    while active.size:
        log_g = np.log(gig_sample(params, rng, active.size))
        with np.errstate(over="ignore", under="ignore"):
            total[active] += np.exp(log_prefix[active] - log_g)
            log_prefix[active] -= 2.0 * log_g
        active = active[log_prefix[active] - np.log(total[active]) > level]
    return total


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.3, 3.0), a=st.floats(0.3, 3.0),
       size=st.integers(1, 3000), log_tol=st.floats(-10.0, -3.0),
       seed=st.integers(0, 2**32 - 1))
@example(lam=0.3, a=3.0, size=3000, log_tol=-10.0, seed=0)  # slowest corner
def test_n_infinity_compacted_loop_matches_gather_scatter(lam, a, size, log_tol,
                                                          seed):
    tail_tol = 10.0 ** log_tol
    draws = n_infinity_batch(lam, a, size, np.random.default_rng(seed),
                             tail_tol=tail_tol)
    oracle = _n_infinity_gather_scatter(lam, a, size,
                                        np.random.default_rng(seed),
                                        tail_tol=tail_tol)
    assert np.array_equal(draws, oracle)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.2, 5.0), a=st.floats(0.1, 30.0),
       frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_perpetuity_moment_bound_holds(lam, a, frac):
    # M_s against E N_inf^s of the inverse-gamma(lam, a^2/2) law of the
    # Dufresne identity, a closed form the library never uses
    s = lam * frac
    assume(0.0 < s < lam)
    exact = s * np.log(a * a / 2.0) + lgamma(lam - s) - lgamma(lam)
    assert gigwalk.walk._log_moment_bound(lam, a, s) >= exact
    levels = [gigwalk.walk._stop_level(lam, a, tol)
              for tol in (1e-10, 1e-6, 1e-3)]
    assert np.isfinite(levels).all()
    assert levels[0] < levels[1] < levels[2]


def test_n_infinity_rejects_tail_tol_outside_unit_interval():
    for tol in (0.0, -1e-6, 1.0, np.nan):
        with pytest.raises(ValueError, match="tail_tol"):
            n_infinity_batch(1.0, 1.0, 10, np.random.default_rng(SEED),
                             tail_tol=tol)


def test_n_infinity_nonpositive_shape_is_rejected(monkeypatch):
    # lambda <= 0: the series diverges a.s., so no draw may be returned
    monkeypatch.setattr(gigwalk.walk, "gig_sample", None)  # nothing is drawn
    for lam in (-0.3, 0.0):
        with pytest.raises(ValueError, match="lambda > 0"):
            n_infinity_batch(lam, 1.0, 100, np.random.default_rng(SEED),
                             max_terms=20000)


def test_n_infinity_mean_matches_inverse_gamma():
    lam, a = 2.0, np.sqrt(2.0)
    draws = n_infinity_batch(lam, a, 100000, np.random.default_rng(SEED))
    target = inverse_gamma_mean(InvGammaParams(lam, a * a / 2.0))
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - target) < 3.0 * se


def log_n_na(path, index):
    """log N_index = log Z_index - log X_index, for any drift."""
    return path.log_zs[index - 1] - path.log_xs[index - 1]


def test_reconstruct_finite_examples():
    path = WalkPath.from_gammas(np.ones(7), 1.0)
    # n=3, p=4 on the unit path: 3/7 + 3*(1/3 - 1/7) = 1 = X_3 by telescoping
    val = reconstruct_x_finite(path.log_zs[2:7], log_n_na(path, 7))
    assert np.exp(val) == pytest.approx(1.0, rel=1e-14)
    # p = 0 degenerates to Z_n / N_n = X_n
    val = reconstruct_x_finite(path.log_zs[2:3], log_n_na(path, 3))
    assert np.exp(val) == pytest.approx(1.0, rel=1e-14)


def test_reconstruct_finite_random_path():
    path = random_path(1.0, 1.0, 25, SEED)
    n, p = 5, 20
    val = reconstruct_x_finite(path.log_zs[n - 1:n + p], log_n_na(path, n + p))
    assert np.exp(val) == pytest.approx(path.xs[n - 1], rel=1e-10)


@pytest.mark.filterwarnings("error")
def test_reconstruct_finite_overflowing_products_are_silent():
    # Z_k Z_(k+1) = e^(+-1400) leaves the double range both ways, and so do
    # its inverse and 1/N; in logs, X = Z/N + 2 Z/Z^2 = 3 Z/N with N = Z^2
    for sign in (1.0, -1.0):
        val = reconstruct_x_finite(np.full(3, sign * 700.0), sign * 1400.0)
        assert val == pytest.approx(-sign * 700.0 + np.log(3.0), rel=1e-15)


def test_reconstruct_rejects_non_finite_logs():
    # log Z = -inf is Z = 0 and log N = -inf is N = 0: no walk gives either
    for log_zs, log_n in (([0.0, np.nan], 0.0), ([0.0, -np.inf], 0.0),
                          ([0.0, 1.0], -np.inf), ([0.0, 1.0], np.nan)):
        with pytest.raises(ValueError, match="finite"):
            reconstruct_x_finite(log_zs, log_n)
    with pytest.raises(ValueError, match="finite"):
        reconstruct_x_limit(np.r_[np.zeros(9), np.inf])


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-3.0, 3.0), a=st.floats(0.2, 5.0),
       steps=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@example(lam=2.0, a=0.5, steps=3000, seed=1, fracs=[0.0, 0.5, 0.99, 1.0])
@example(lam=-1.0, a=1.0, steps=3000, seed=2, fracs=[0.0, 0.5, 0.99, 1.0])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reconstruct_finite_is_exact_whatever_the_drift(lam, a, steps, seed,
                                                        fracs):
    # at fast drift of either sign X and Z leave the double range long
    # before step 3000; the log-space inversion must still recover X_n
    gammas = gig_sample(GigParams.symmetric(lam, a),
                        np.random.default_rng(seed), steps)
    path = WalkPath.from_gammas(gammas, 1.0)
    for frac in fracs:
        n = 1 + int(frac * (steps - 1))
        rec = reconstruct_x_finite(path.log_zs[n - 1:], log_n_na(path, steps))
        residual = abs(np.expm1(rec - path.log_xs[n - 1]))
        assert np.isfinite(residual) and residual < 1e-10, (n, residual)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-3.0, 3.0), a=st.floats(0.2, 5.0),
       delta=st.floats(0.1, 10.0),
       lengths=st.lists(st.integers(1, 150), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(lam=-3.0, a=0.2, delta=0.1, lengths=[150, 1, 149], seed=0)
def test_padded_rows_equal_one_path_at_a_time(lam, a, delta, lengths, seed):
    # ragged paths padded after their end with unit increments, as the CLI's
    # reconstruct check builds them, come out of one call bit for bit; the
    # explicit example's Z leaves the double range (log Z reaches 714)
    gammas = gig_sample(GigParams.symmetric(lam, a),
                        np.random.default_rng(seed), sum(lengths))
    paths = np.split(gammas, np.cumsum(lengths)[:-1])
    rows = np.ones((len(lengths), max(lengths)))
    for row, g in zip(rows, paths):
        row[:g.size] = g
    batch = WalkPath.from_gammas(rows, delta)
    assert batch.steps == max(lengths)
    for i, g in enumerate(paths):
        alone = WalkPath.from_gammas(g, delta)
        for got, want in ((batch.log_xs, alone.log_xs),
                          (batch.log_zs, alone.log_zs),
                          (batch.xs, alone.xs), (batch.zs, alone.zs)):
            assert np.array_equal(got[i, :g.size], want)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(0, 200), rows=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_reconstruct_finite_rows_equal_one_run_at_a_time(p, rows, seed):
    # p above 128 takes numpy's pairwise summation past its first block
    rng = np.random.default_rng(seed)
    log_zs = rng.normal(0.0, 20.0, (rows, p + 1))
    log_n_future = rng.normal(0.0, 5.0, rows)
    got = reconstruct_x_finite(log_zs, log_n_future)
    assert got.shape == (rows,)
    for i in range(rows):
        assert got[i] == reconstruct_x_finite(log_zs[i], log_n_future[i])


def test_reconstruct_limit_negative_drift_closed_form():
    # gamma = 1/2 gives Z_n = (2/3)(2^n - 2^-n) and X_n = 2^-n exactly
    n0 = 4
    ks = np.arange(n0, n0 + 60)
    zs = (2.0 / 3.0) * (2.0**ks - 2.0**(-ks))
    log_x = reconstruct_x_limit(np.log(zs), tol=1e-14)
    assert log_x == pytest.approx(-n0 * np.log(2.0), abs=1e-8)


def test_reconstruct_limit_positive_drift():
    # gentle drift so 1.2e4 steps stay well inside double range in log space
    lam, a, steps, n0 = 0.5, 3.0, 12000, 3
    path = random_path(lam, a, steps, SEED + 1)
    # N_steps stands in for N_inf: the remaining tail is ~exp(-2 E[log g] steps)
    log_x_hat = reconstruct_x_limit(path.log_zs[n0 - 1:],
                                    log_n_na(path, steps), tol=1e-6)
    assert abs(log_x_hat - path.log_xs[n0 - 1]) < 1e-4


def test_reconstruct_finite_limit_consistency():
    # p -> infinity: the exact finite-horizon identity approaches the limit form
    lam, a, steps, n0 = 0.5, 10.0, 10050, 3
    path = random_path(lam, a, steps, SEED + 2)
    p = 10000
    finite = np.exp(reconstruct_x_finite(path.log_zs[n0 - 1:n0 + p],
                                         log_n_na(path, n0 + p)))
    limit = np.exp(reconstruct_x_limit(path.log_zs[n0 - 1:],
                                       log_n_na(path, steps), tol=1e-8))
    assert finite == pytest.approx(limit, rel=1e-6)


def test_reconstruct_limit_insufficient_tail():
    # nearly-flat drift: 200 tail values cannot reach the tolerance
    path = random_path(0.5, 30.0, 200, SEED + 3)
    with pytest.raises(InsufficientTailError):
        reconstruct_x_limit(path.log_zs, 0.0, tol=1e-6)


def test_csv_export_schema():
    path = random_path(1.0, 1.0, 10, SEED)
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "k,gamma,x,z,n_na,n_an"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == path.gammas[0]
    assert float(first[3]) == pytest.approx(path.zs[0], rel=1e-16)


def test_simulate_batch_rejects_a_negative_mark():
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_batch(GigParams.symmetric(1.0, 1.0), 1.0, 10,
                       np.random.default_rng(0), [5, -3])
