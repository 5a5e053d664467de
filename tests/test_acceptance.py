"""Acceptance suite: one test per certified result, pinned seeds and
tolerances, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest
from scipy import stats as spstats

from gigwalk.gig import (GigParams, gig_log_moment_asymptotic,
                         gig_log_moment_numeric, gig_pdf)
from gigwalk.kernels import (LogGrid, characterization_discrepancy,
                             check_detailed_balance, check_stationarity,
                             intertwining_residuals)
from gigwalk.stats import (donsker_check, dufresne_test,
                           generator_drift_check, n_part_statistics,
                           scaling_limit_test)
from gigwalk.walk import (WalkConfig, WalkPath, phi_forward, phi_inverse,
                          phi_jacobian_det, f_n, reconstruct_x_finite,
                          reconstruct_x_limit, simulate_path)

GRID = LogGrid.make()


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_intertwining():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            res = intertwining_residuals(lam, a, [0.2, 1.0, 5.0], GRID)
            worst = max(worst, max(res.values()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report(1, "intertwining", ok,
           f"sup residual {worst:.3e} (tol 1e-6), {elapsed:.1f}s (limit 60s)")


def test_criterion_02_detailed_balance_and_stationarity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    worst_ratio = 0.0
    for lam in (0.5, 1.0, 2.0):
        pairs = np.exp(rng.normal(0.0, 1.0, (100, 2)))
        worst_ratio = max(worst_ratio, check_detailed_balance(lam, 1.0, pairs))
    worst_stat = max(check_stationarity(1.0, np.sqrt(2.0), GRID),
                     check_stationarity(3.0, 0.8, GRID))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio < 1e-12 and worst_stat < 1e-7 and elapsed < 30.0
    report(2, "detailed balance & stationarity", ok,
           f"ratio dev {worst_ratio:.3e} (tol 1e-12), "
           f"piK residual {worst_stat:.3e} (tol 1e-7), {elapsed:.1f}s")


def test_criterion_03_dufresne():
    t0 = time.perf_counter()
    seed = 101
    rows = []
    ok = True
    for lam, a in [(1.0, np.sqrt(2.0)), (2.0, np.sqrt(2.0)), (0.5, 1.0)]:
        res = dufresne_test(lam, a, 100000, seed)
        rows.append(f"({lam},{a:.3f}): {res.statistic:.5f}")
        ok = ok and res.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(3, "Dufresne identity", ok,
           f"KS {', '.join(rows)} (crit ~0.00515), {elapsed:.1f}s")


def test_criterion_04_reconstruction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    params = GigParams.symmetric(1.0, 1.0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        p = int(rng.integers(0, 51))
        path = simulate_path(WalkConfig(params, 1.0, n + p, 0), rng=rng)
        log_n = path.log_zs[n + p - 1] - path.log_xs[n + p - 1]
        got = reconstruct_x_finite(path.log_zs[n - 1:n + p], log_n)
        worst = max(worst, abs(np.expm1(got - path.log_xs[n - 1])))
    # positive-drift limit form on a long gentle path
    path = simulate_path(WalkConfig(GigParams.symmetric(0.5, 3.0), 1.0,
                                    12000, 405))
    log_x_hat = reconstruct_x_limit(path.log_zs[2:],
                                    path.log_zs[-1] - path.log_xs[-1], tol=1e-6)
    limit_err = abs(log_x_hat - path.log_xs[2])
    # nonpositive-drift limit form on the closed-form constant-gamma path
    ks = np.arange(4, 124)
    zs = (2.0 / 3.0) * (2.0**ks - 2.0**(-ks))
    neg_err = abs(reconstruct_x_limit(np.log(zs), tol=1e-14)
                  - (-4.0 * np.log(2.0)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and limit_err < 1e-4 and neg_err < 1e-8 and elapsed < 10.0
    report(4, "reconstruction", ok,
           f"identity residual {worst:.2e} (tol 1e-10), limit |dlogX| "
           f"{limit_err:.2e} (tol 1e-4), closed-form {neg_err:.2e} (tol 1e-8), "
           f"{elapsed:.1f}s")


def _fd_jacobian_det(ys, h=1e-6):
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


def test_criterion_05_change_of_variables():
    rng = np.random.default_rng(505)
    worst_jac = 0.0
    worst_rt = 0.0
    for n in range(2, 7):
        for _ in range(100):
            ys = np.exp(rng.normal(0.0, 0.5, n))
            zs, x = phi_forward(ys)
            worst_jac = max(worst_jac, abs(_fd_jacobian_det(ys)
                                           / phi_jacobian_det(zs) - 1.0))
            worst_rt = max(worst_rt,
                           float(np.max(np.abs(phi_inverse(zs, x) / ys - 1.0))))
    ok = worst_jac < 1e-6 and worst_rt < 1e-10
    report(5, "change of variables", ok,
           f"jacobian dev {worst_jac:.2e} (tol 1e-6), "
           f"round trip {worst_rt:.2e} (tol 1e-10)")


def test_criterion_06_lemma_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        gammas = np.exp(rng.normal(0.0, 0.6, n))
        path = WalkPath.from_gammas(gammas, 1.0)
        lhs = np.sum(gammas + 1.0 / gammas)
        x, z = path.xs[-1], path.zs[-1]
        rhs = (x + 1.0 / x) / z + f_n(path.zs)
        worst = max(worst, abs(lhs / rhs - 1.0))
    ok = worst < 1e-12
    report(6, "lemma identity", ok, f"residual {worst:.2e} (tol 1e-12)")


def test_criterion_07_log_moment_asymptotics():
    worst30 = 0.0
    worst100 = 0.0
    for lam in (0.5, 1.0, 2.0):
        for m in (1, 2, 3, 4):
            for a, bucket in ((30.0, "30"), (100.0, "100")):
                num = gig_log_moment_numeric(GigParams.symmetric(lam, a), m)
                asym = gig_log_moment_asymptotic(lam, a, m)
                dev = abs(num / asym - 1.0)
                if bucket == "30":
                    worst30 = max(worst30, dev)
                else:
                    worst100 = max(worst100, dev)
    ok = worst30 < 0.02 and worst100 < 0.005
    report(7, "log-moment asymptotics", ok,
           f"a=30 dev {worst30:.4f} (tol 0.02), a=100 dev {worst100:.5f} "
           f"(tol 0.005)")


def test_criterion_08_characterization():
    gig_points = [(0.7, 1.2), (1.0, 1.0), (2.0, 0.5)]
    zu_grid = [(1.5, 2.0), (2.0, 1.5)]
    worst_gig = 0.0
    for lam, a in gig_points:
        params = GigParams.symmetric(lam, a)
        for z, u in zu_grid:
            worst_gig = max(worst_gig, characterization_discrepancy(
                lambda t: gig_pdf(params, t), z, u, GRID))
    best_ctrl = np.inf
    for pdf in (lambda t: spstats.lognorm.pdf(t, 0.5),
                lambda t: spstats.gamma.pdf(t, 2.0)):
        for z, u in zu_grid:
            best_ctrl = min(best_ctrl,
                            characterization_discrepancy(pdf, z, u, GRID))
    ok = worst_gig < 1e-7 and best_ctrl > 1e-3
    report(8, "GIG characterization", ok,
           f"GIG discrepancy {worst_gig:.2e} (tol 1e-7), control min "
           f"{best_ctrl:.2e} (floor 1e-3)")


def test_criterion_09_drifted_donsker():
    seed = 201
    res0 = donsker_check(0.0, 400, 1.0, 50000, seed)
    res1 = donsker_check(1.0, 400, 1.0, 50000, seed)
    ok = res0.passed and res1.passed
    report(9, "drifted Donsker", ok,
           f"KS lam=0: {res0.statistic:.5f}, lam=1: {res1.statistic:.5f} "
           f"(crit {res0.critical_1pct:.5f})")


def test_criterion_10_scaling_limit():
    t0 = time.perf_counter()
    seed = 301
    rows = []
    ok = True
    for lam in (0.0, 1.0):
        for t in (0.5, 1.0):
            res = scaling_limit_test(lam, 200, t, 20000, 1e-4, seed)
            rows.append(f"lam={lam},t={t}: {res.ks.statistic:.4f}")
            ok = ok and res.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(10, "scaling limit", ok,
           f"KS {', '.join(rows)} (thresh 0.02), {elapsed:.0f}s (limit 600s)")


def test_criterion_11_generator():
    seed = 402
    res1 = generator_drift_check(0.5, 1.0, 500, 4 * 10**6, seed)
    res2 = generator_drift_check(1.0, 2.0, 500, 10**7, seed)
    ok = all(r.drift_rel_err < 0.05 and r.diffusion_rel_err < 0.05
             for r in (res1, res2))
    report(11, "generator coefficients", ok,
           f"(0.5,1): drift {res1.drift_rel_err:.3f} diff "
           f"{res1.diffusion_rel_err:.3f}; (1,2): drift {res2.drift_rel_err:.3f} "
           f"diff {res2.diffusion_rel_err:.3f} (tol 0.05)")


def test_criterion_12_n_part_convergence():
    seed = 5
    res = n_part_statistics(1.0, 1.0, [10, 50, 200], 50000, seed)
    s10, s50, s200 = (res[n].statistic for n in (10, 50, 200))
    ok = res[200].passed and s10 >= s50 >= s200
    report(12, "N-part convergence", ok,
           f"KS n=10: {s10:.5f} >= n=50: {s50:.5f} >= n=200: {s200:.5f}, "
           f"crit {res[200].critical_1pct:.5f}")
