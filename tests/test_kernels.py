from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy import stats as spstats
from scipy.special import gammainc, gammaincc

from gigwalk import kernels
from gigwalk.gig import GigParams, gig_pdf, gig_sample, gig_scale
from gigwalk.kernels import (LOG_STEP, PI_TAIL, GridCoverageError, LogGrid,
                             _apply_kernel, _apply_p, _density_rows,
                             _ktilde_rows, _lambda_rows, _pi_grid,
                             characterization_discrepancy,
                             check_detailed_balance, check_stationarity,
                             compose, conditional_x2_given_z2,
                             conditional_x3_given_z3_z2,
                             intertwining_residuals, ktilde_density,
                             lambda_density, my_generator_coefficients,
                             p_density, pi_density, q_density)
from gigwalk.specfun import log_bessel_k
from gigwalk.stats import ks_one_sample

SEED = 27182818
GRID = LogGrid.make()


def test_loggrid_weights_integrate_log_scale_densities():
    # lognormal density is a Gaussian in u = log x: integral is exactly 1
    u = np.log(GRID.points)
    vals = np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * GRID.points)
    assert GRID.integrate(vals) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(GRID.points) > 0)


def test_loggrid_validation():
    with pytest.raises(ValueError):
        LogGrid.make(1.0, 0.1)
    with pytest.raises(ValueError):
        LogGrid.make(0.0, 10.0)
    with pytest.raises(ValueError):
        LogGrid.make(1.0, np.inf)


def test_loggrid_size_follows_the_log_step():
    assert GRID.size == 1000 and (GRID.lo, GRID.hi) == (1e-6, 1e6)
    for lo, hi in [(1e-3, 1e3), (0.02, 7.0), (1e-40, 1e40)]:
        grid = LogGrid.make(lo, hi)
        steps = np.diff(np.log(grid.points))
        assert np.max(steps) <= LOG_STEP * (1.0 + 1e-9)
        assert np.log(hi / lo) / (grid.size - 2) > LOG_STEP
    # an explicit n is kept
    assert LogGrid.make(n=4000).size == 4000
    assert LogGrid.make(1e-3, 1e3, 7).size == 7


@pytest.mark.parametrize("family", ["Q", "P", "Lambda", "Ktilde"])
def test_kernel_normalization_box(family):
    kern = {"Q": q_density, "P": p_density, "Lambda": lambda_density,
            "Ktilde": ktilde_density}[family]
    for lam in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0, 2.0):
            for src in (0.1, 1.0, 10.0):
                total = GRID.integrate(kern(lam, a, src, GRID.points))
                assert total == pytest.approx(1.0, abs=1e-8), \
                    f"{family} lam={lam} a={a} src={src}"


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        q_density(1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_density(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pi_density(-1.0, 1.0, 1.0)


def test_q_symmetry_rearrangement():
    # q(x,y) K(a^2/x)/K(a^2/y) * y is symmetric under (x, y) swap
    from gigwalk.specfun import bessel_k
    lam, a, x, y = 1.0, 1.0, 0.5, 2.0
    a2 = a * a

    def g(u, v):
        return q_density(lam, a, u, v) * bessel_k(lam, a2 / u) \
            / bessel_k(lam, a2 / v) * v

    assert g(x, y) == pytest.approx(g(y, x), rel=1e-12)


def test_p_is_scaled_gig_density():
    lam, a, x, y = 2.0, 1.5, 0.7, 1.1
    oracle = gig_pdf(gig_scale(GigParams.symmetric(lam, a), x), y)
    assert p_density(lam, a, x, y) == pytest.approx(oracle, rel=1e-12)


def test_p_multiplicative_invariance():
    lam, a, x, y, c = 1.0, 1.0, 0.8, 1.7, 3.0
    assert p_density(lam, a, c * x, c * y) * c == pytest.approx(
        p_density(lam, a, x, y), rel=1e-12)


def test_lambda_matches_gig_parameters():
    lam, a, z, x = 1.0, 1.0, 2.0, 0.5
    oracle = gig_pdf(GigParams.symmetric(lam, a / np.sqrt(z)), x)
    assert lambda_density(lam, a, z, x) == pytest.approx(oracle, rel=1e-12)


def test_ktilde_pushforward_oracle():
    # density of gamma^2 x + gamma, gamma ~ GIG(-lam, a, a), by numerically
    # inverting the map and differencing the inverse
    lam, a, x, y = 1.0, 1.0, 1.0, 2.0

    def gamma_of(yv):
        return optimize.brentq(lambda g: g * g * x + g - yv, 1e-12, 1e6,
                               xtol=1e-14, rtol=1e-15)

    h = 1e-6
    dgdy = (gamma_of(y + h) - gamma_of(y - h)) / (2.0 * h)
    oracle = gig_pdf(GigParams.symmetric(-lam, a), gamma_of(y)) * abs(dgdy)
    assert ktilde_density(lam, a, x, y) == pytest.approx(oracle, rel=1e-8)
    # the stable-root form also holds where 4xy is tiny
    val = ktilde_density(lam, a, 1e-8, 1e-8)
    g = 1e-8  # gamma ~ y when xy -> 0
    assert val == pytest.approx(gig_pdf(GigParams.symmetric(-lam, a), g),
                                rel=1e-6)


def test_detailed_balance_pointwise():
    assert check_detailed_balance(1.0, 1.0, [[1.0, 2.0]]) < 1e-12
    rng = np.random.default_rng(SEED)
    pairs = np.exp(rng.normal(0.0, 1.0, (100, 2)))
    for lam in (0.5, 1.0, 2.0):
        assert check_detailed_balance(lam, 1.0, pairs) < 1e-12


@pytest.mark.filterwarnings("error")
def test_detailed_balance_where_densities_underflow():
    # at a = 20, pi(x) ktilde(x, y) underflows to 0 on 19 of these 100 pairs;
    # the ratio comes from log-densities, so it stays finite and certified
    x, y = np.exp(np.random.default_rng(7).normal(0.0, 1.0, (2, 100)))
    for lam in (0.5, 1.0, 2.0):
        assert np.any(pi_density(lam, 20.0, x) * ktilde_density(lam, 20.0, x, y) == 0.0)
        assert check_detailed_balance(lam, 20.0, np.column_stack([x, y])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.05, 10.0), a=st.floats(0.1, 60.0),
       seed=st.integers(0, 2**32 - 1))
def test_detailed_balance_holds_to_rounding_at_any_a(lam, a, seed):
    # the CLI's pairs; at a = 30 the summed log-densities read up to 1.8e-12
    pairs = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, (100, 2)))
    assert check_detailed_balance(lam, a, pairs) < 1e-12


def test_detailed_balance_at_a_30_on_the_cli_seeds():
    for seed in (1, 2, 7):
        pairs = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, (100, 2)))
        assert check_detailed_balance(1.0, 30.0, pairs) < 1e-12


def _faulty_ktilde_terms(fault):
    def terms(lam, a, x, y):
        s = np.sqrt(1.0 + 4.0 * x * y)
        g = 2.0 * y / (1.0 + s)
        power, coef = -lam - 1.0, 0.5
        if fault == "exponent":
            power = -lam
        elif fault == "scaled root":
            g = g * (1.0 + 1e-6)
        elif fault == "half root":  # g = y h(xy), the wrong root of g^2 x + g = y
            g = y / (1.0 + s)
        elif fault == "a2 coefficient":
            coef = 1.0
        return np.log(s), power * np.log(g), -(coef * (a * a) * (g + 1.0 / g))
    return terms


def _faulty_pi_terms(lam, a, x):
    return -(lam + 1.0) * np.log(x), -(a * a) / x  # scale a^2, not a^2/2


@pytest.mark.parametrize("fault", ["exponent", "scaled root", "half root",
                                   "a2 coefficient", "pi scale"])
def test_detailed_balance_fails_on_a_faulty_kernel(fault, monkeypatch):
    # negative control: the check evaluates the densities' own terms, so a
    # fault in either density must show at every a, large a included
    correct = pi_density(1.0, 1.0, 0.7) * ktilde_density(1.0, 1.0, 0.7, 1.3)
    if fault == "pi scale":
        monkeypatch.setattr(kernels, "_pi_terms", _faulty_pi_terms)
    else:
        monkeypatch.setattr(kernels, "_ktilde_terms", _faulty_ktilde_terms(fault))
    assert pi_density(1.0, 1.0, 0.7) * ktilde_density(1.0, 1.0, 0.7, 1.3) != correct
    for seed in (1, 2, 7):
        pairs = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, (100, 2)))
        for lam in (0.05, 1.0, 10.0):
            for a in (0.1, 1.0, 30.0, 60.0):
                with np.errstate(over="ignore"):
                    assert check_detailed_balance(lam, a, pairs) > 1e-8


def test_pi_is_inverse_gamma_alias():
    from gigwalk.gig import InvGammaParams, inverse_gamma_pdf
    xs = np.array([0.2, 1.0, 4.0])
    assert pi_density(1.5, 2.0, xs) == pytest.approx(
        inverse_gamma_pdf(InvGammaParams(1.5, 2.0), xs), rel=1e-15)


def test_compose_normalizes():
    table = compose(partial(q_density, 1.0, 1.0), partial(q_density, 1.0, 1.0),
                    1.0, GRID)
    assert GRID.integrate(table) == pytest.approx(1.0, abs=2e-8)


def test_compose_grid_refinement():
    fine = GRID.refined(2)
    coarse_tab = compose(partial(lambda_density, 1.0, 1.0),
                         partial(p_density, 1.0, 1.0), 1.0, GRID)
    fine_tab = compose(partial(lambda_density, 1.0, 1.0),
                       partial(p_density, 1.0, 1.0), 1.0, fine)
    # compare on the shared points (every other fine point is a coarse point)
    on_coarse = np.interp(np.log(GRID.points), np.log(fine.points), fine_tab)
    assert np.max(np.abs(on_coarse - coarse_tab)) < 1e-9


def test_compose_boundary_diagnostic():
    narrow = LogGrid.make(1e-2, 1e2, 400)
    with pytest.raises(GridCoverageError):
        compose(partial(p_density, 1.0, 1.0), partial(p_density, 1.0, 1.0),
                1e-5, narrow)


def test_intertwining_residuals():
    assert intertwining_residuals(1.0, 1.0, [1.0], GRID)[1.0] < 1e-6
    assert intertwining_residuals(0.5, 2.0, [3.0], GRID)[3.0] < 1e-6


@pytest.mark.parametrize("lo, hi", [(1e-6, 1e6), (1e-4, 1e5)])
@pytest.mark.parametrize("n", [301, 800])
def test_kernel_application_matches_dense_blocks(lo, hi, n, monkeypatch):
    # reference route: tabulate each n x n kernel block in full
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 7 * n)  # many row blocks
    grid = LogGrid.make(lo, hi, n)
    pts, w = grid.points, grid.weights
    src, tgt = pts[:, None], pts[None, :]
    zs = (0.2, 1.0, 5.0)
    for lam, a in [(1.0, 1.0), (3.0, 0.8), (0.5, 2.0), (-0.7, 1.5)]:
        lam_leads = np.array([w * lambda_density(lam, a, z, pts) for z in zs])
        q_leads = np.array([w * q_density(lam, a, z, pts) for z in zs])
        lp = lam_leads @ p_density(lam, a, src, tgt)
        ql = q_leads @ lambda_density(lam, a, src, tgt)
        assert np.max(np.abs(_apply_p(lam, a, lam_leads, pts) - lp)) < 1e-14
        got = list(intertwining_residuals(lam, a, zs, grid).values())
        assert np.max(np.abs(got - np.max(np.abs(lp - ql), axis=1))) < 1e-14
        assert np.max(np.abs(compose(partial(lambda_density, lam, a),
                                     partial(lambda_density, lam, a), 1.0, grid)
                             - w * lambda_density(lam, a, 1.0, pts)
                             @ lambda_density(lam, a, src, tgt))) < 1e-14
        if lam > 0.0:
            pi = pi_density(lam, a, pts)
            dense = np.max(np.abs(w * pi @ ktilde_density(lam, a, src, tgt) - pi))
            assert abs(check_stationarity(lam, a, grid) - dense) < 1e-14


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.1, 3.0), a=st.floats(0.5, 3.0), n=st.integers(20, 300),
       start=st.floats(0.0, 1.0), width=st.floats(0.0, 1.0),
       leads=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(lam=1.0, a=1.0, n=100, start=0.5, width=0.0, leads=3, seed=1)
@example(lam=1.0, a=1.0, n=100, start=0.5, width=0.03, leads=2, seed=1)
def test_kernel_passes_skip_zero_leads_exactly(lam, a, n, start, width, leads,
                                               seed):
    # leads of unit mass zeroed outside a window: the Lambda, Ktilde and
    # compose passes build only the window's sources, and must give the
    # product with the kernel their blocks tabulate over every source
    pts = LogGrid.make(1e-3, 1e3, n).points
    lo = int(start * (n - 1))
    hi = lo + int(width * (n - lo))  # the examples: no source, one source
    lead = np.zeros((leads, n))
    live = np.random.default_rng(seed).random((leads, hi - lo))
    lead[:, lo:hi] = live / live.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore"), \
            mock.patch.object(kernels, "_BLOCK_ELEMENTS", 7 * n):  # many row blocks
        for rows in (_link_rows(lam, a, pts), _ktilde_rows(lam, a, pts),
                     _density_rows(partial(q_density, lam, a), pts)):
            dense = lead @ _target_blocks(rows, n, n // 2).T
            got = _apply_kernel(lead, rows, n)
            assert np.max(np.abs(got - dense)) <= 1e-14 * max(1.0, np.max(dense))
            if lo == hi:
                assert np.array_equal(got, np.zeros((leads, n)))
                assert not np.signbit(got).any()


def test_intertwining_q_leads_are_q_density(monkeypatch):
    # the shared Bessel term gives Q's leads in q_density's own operations
    lam, a, zs = 1.3, 0.9, (0.2, 1.0, 5.0)
    seen = []
    apply_kernel = kernels._apply_kernel

    def spy(leads, block, n):
        seen.append(leads.copy())
        return apply_kernel(leads, block, n)

    monkeypatch.setattr(kernels, "_apply_kernel", spy)
    grid = LogGrid.make(n=801)
    intertwining_residuals(lam, a, zs, grid)
    ref = np.array([grid.weights * q_density(lam, a, z, grid.points) for z in zs])
    assert len(seen) == 1 and np.array_equal(seen[0], ref)


def test_p_convolution_rejects_non_log_uniform_grid():
    grid = LogGrid.make(n=801)
    bent = LogGrid(grid.points * (1.0 + 1e-9 * np.sin(np.arange(grid.size))),
                   grid.weights, grid.lo, grid.hi)
    with pytest.raises(ValueError, match="log-uniform"):
        intertwining_residuals(1.0, 1.0, [1.0], bent)
    with pytest.raises(ValueError, match="log-uniform"):
        _apply_p(1.0, 1.0, np.ones((1, 801)), np.linspace(1e-2, 1e2, 801))


def test_stationarity_rejects_non_log_uniform_grid():
    grid = LogGrid.make(n=801)
    bent = LogGrid(grid.points * (1.0 + 1e-9 * np.sin(np.arange(grid.size))),
                   grid.weights, grid.lo, grid.hi)
    with pytest.raises(ValueError, match="log-uniform"):
        check_stationarity(1.0, 1.0, bent)


def _table_grid(n, log_lo, log_hi):
    return LogGrid.make(10.0 ** log_lo, 10.0 ** log_hi, n).points


def _link_rows(lam, a, pts):
    return _lambda_rows(lam, a, pts, log_bessel_k(lam, a * a / pts))


def _target_blocks(rows, n, split):
    # two target blocks, so that a block not starting at row 0 is covered,
    # each from every source and laid into a zero matrix at its live span
    out = np.zeros((n, n))
    for i, j in ((0, split), (split, n)):
        if i < j:
            lo, hi, vals = rows(i, j, 0, n)
            out[i:j, lo:hi] = vals
    return out


_TABLE_CASES = dict(a=st.floats(0.3, 3.0), n=st.integers(50, 400),
                    log_lo=st.floats(-6.0, -1.0), log_hi=st.floats(1.0, 6.0),
                    split=st.floats(0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-3.0, 3.0), **_TABLE_CASES)
def test_lambda_table_blocks_match_pointwise_density(lam, a, n, log_lo, log_hi,
                                                     split):
    pts = _table_grid(n, log_lo, log_hi)
    with np.errstate(over="ignore"):
        got = _target_blocks(_link_rows(lam, a, pts), n, int(split * n))
    ref = lambda_density(lam, a, pts[None, :], pts[:, None])
    live = ref > 1e-250
    assert np.all(np.abs(got[live] / ref[live] - 1.0) <= 1e-13)
    # the same operations, so the same bits, zeros included
    assert np.array_equal(got, ref)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(1e-3, 3.0), **_TABLE_CASES)
def test_ktilde_table_blocks_match_pointwise_density(lam, a, n, log_lo, log_hi,
                                                     split):
    pts = _table_grid(n, log_lo, log_hi)
    with np.errstate(over="ignore"):
        got = _target_blocks(_ktilde_rows(lam, a, pts), n, int(split * n))
    ref = ktilde_density(lam, a, pts[None, :], pts[:, None])
    live = ref > 1e-250
    # the tables read x_i y_j at the grid index i + j, and the rounded grid
    # points make the product differ from pts[i] * pts[j] by a few ulp; exp
    # turns that into a relative error proportional to the log-density
    bound = 1e-13 * np.maximum(1.0, np.abs(np.log(ref[live])))
    assert np.all(np.abs(got[live] / ref[live] - 1.0) <= bound)
    # an entry set to 0.0 without an exp is one that underflows
    assert np.all(ref[got == 0.0] < 1e-300)


@settings(max_examples=40, deadline=None)
@given(link_lam=st.floats(-3.0, 3.0), an_lam=st.floats(1e-3, 5.0),
       **dict(_TABLE_CASES, a=st.floats(3.0, 30.0)))
def test_table_blocks_cut_only_entries_that_underflow(link_lam, an_lam, a, n,
                                                      log_lo, log_hi, split):
    # sharp kernels, where most of each block lies beyond the closed-form
    # bound and is set to 0.0 without an exp.  Only soundness is asserted:
    # Ktilde's relative error grows with a (see the test above) and is not
    # bounded here
    pts = _table_grid(n, log_lo, log_hi)
    split = int(split * n)
    link_ref = lambda_density(link_lam, a, pts[None, :], pts[:, None])
    an_ref = ktilde_density(an_lam, a, pts[None, :], pts[:, None])

    def blocks():
        with np.errstate(over="ignore"):
            return (_target_blocks(_link_rows(link_lam, a, pts), n, split),
                    _target_blocks(_ktilde_rows(an_lam, a, pts), n, split))

    link, an = blocks()
    assert np.array_equal(link, link_ref)
    assert np.all(an_ref[an == 0.0] < 1e-300)
    # the bounds themselves, at a cut where they decide many more entries
    with mock.patch.object(kernels, "_UNDERFLOW", -50.0):
        for got, ref in zip(blocks(), (link_ref, an_ref)):
            assert np.all(ref[got == 0.0] <= np.exp(-50.0) * (1.0 + 1e-9))


def test_intertwining_sensitivity_to_perturbed_link():
    # shifting lambda by 0.2 inside Lambda only must break the identity
    lam, a, z = 1.0, 1.0, 1.0
    wrong = partial(lambda_density, lam + 0.2, a)
    lp = compose(wrong, partial(p_density, lam, a), z, GRID)
    ql = compose(partial(q_density, lam, a), wrong, z, GRID)
    assert np.max(np.abs(lp - ql)) > 1e-3


def test_stationarity_residuals():
    assert check_stationarity(1.0, np.sqrt(2.0), GRID) < 1e-7
    assert check_stationarity(3.0, 0.8, GRID) < 1e-7
    wide = LogGrid.make(1e-8, 1e8, 5000)
    assert check_stationarity(0.1, 1.0, wide) < 1e-6


def test_stationarity_refuses_a_law_past_the_double_range():
    # pi = inverse-gamma(0.05, 1/2) keeps mass 1e-14 beyond exp(644)
    with pytest.raises(GridCoverageError, match="double range"):
        check_stationarity(0.05, 1.0)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.25, 5.0), a=st.floats(0.1, 5.0))
@example(lam=0.1, a=0.1)  # near the double-range cutoff: 11794 points
def test_pi_grid_holds_the_law(lam, a):
    grid = _pi_grid(lam, a)
    beta = 0.5 * a * a
    assert gammaincc(lam, beta / grid.lo) == pytest.approx(PI_TAIL, rel=1e-9)
    assert gammainc(lam, beta / grid.hi) == pytest.approx(PI_TAIL, rel=1e-9)
    pi = pi_density(lam, a, grid.points)
    closed = gammainc(lam, beta / grid.lo) - gammainc(lam, beta / grid.hi)
    assert abs(grid.integrate(pi) - closed) <= 3.0 * PI_TAIL
    # the mass the grid cuts off, at most 2 PI_TAIL, reaches the residual
    # through Ktilde(x, .), which never exceeds the largest density of
    # gamma ~ GIG(-lam, a, a) because dgamma/dy = 1/(2 gamma x + 1) <= 1;
    # where a is large that term exceeds 1e-13 max(pi) (1.2e-14 against
    # 8e-16 at lam = 0.25, a = 5)
    c = a * a
    mode = (np.hypot(lam + 1.0, c) - lam - 1.0) / c
    cut = 2.0 * PI_TAIL * gig_pdf(GigParams.symmetric(-lam, a), mode)
    assert check_stationarity(lam, a) <= 1e-13 * np.max(pi) + cut


# the acceptance suite's (lam, a) points (criteria 01 and 02), the centre
# of the benchmark box [0.5, 2]^2, whose corners are among them, and a = 20,
# where intertwining from z = 0.2 needs a tenth of LOG_STEP
_CERTIFIED_POINTS = ([(lam, a) for lam in (0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)]
                     + [(1.0, np.sqrt(2.0)), (3.0, 0.8), (1.25, 1.25), (1.0, 20.0)])
_ZU_PAIRS = [(1.5, 2.0), (2.0, 1.5)]
_CONTROLS = [partial(spstats.lognorm.pdf, s=0.5), partial(spstats.gamma.pdf, a=2.0)]


def _certified_residuals(lam, a):
    # the characterization has no law-sized grid: its GIG conditionals are
    # proportional, so the normalizers' quadrature errors cancel
    grid = LogGrid.make()
    params = GigParams.symmetric(lam, a)
    return np.array(
        list(intertwining_residuals(lam, a, (0.2, 1.0, 5.0)).values())
        + [check_stationarity(lam, a)]
        + [characterization_discrepancy(partial(gig_pdf, params), z, u, grid)
           for z, u in _ZU_PAIRS])


@pytest.mark.parametrize("lam, a", _CERTIFIED_POINTS)
def test_log_step_is_certified_by_refinement(lam, a, monkeypatch):
    # every residual the default grids certify moves by at most 1e-12 when
    # the log step is halved (at 8 LOG_STEP, intertwining at a = 2 moves by
    # up to 1.1e-8)
    coarse = _certified_residuals(lam, a)
    monkeypatch.setattr(kernels, "LOG_STEP", LOG_STEP / 2.0)
    fine = _certified_residuals(lam, a)
    assert np.max(np.abs(coarse - fine)) <= 1e-12


def test_intertwining_grid_shrinks_its_step_with_the_kernel_width():
    assert kernels._step_for(kernels._intertwining_curvature(2.0, 2.0, 0.2)) == LOG_STEP
    # the log-width 1/(a sqrt(1 + 1/z)) of Lambda(z, .) P(., v) falls as 1/a
    ratio = kernels._step_for(kernels._intertwining_curvature(1.0, 20.0, 0.2)) / LOG_STEP
    assert ratio == pytest.approx(0.1, rel=0.02)


def test_characterization_controls_separate_at_half_the_log_step(monkeypatch):
    # at LOG_STEP itself the acceptance suite checks them on GRID
    monkeypatch.setattr(kernels, "LOG_STEP", LOG_STEP / 2.0)
    grid = LogGrid.make()
    for pdf in _CONTROLS:
        for z, u in _ZU_PAIRS:
            assert characterization_discrepancy(pdf, z, u, grid) > 1e-3


def test_conditional_x2_matches_link_kernel():
    lam, a, z = 1.0, 1.0, 2.0
    params = GigParams.symmetric(lam, a)
    got = conditional_x2_given_z2(lambda t: gig_pdf(params, t), z, 1.0, GRID)
    assert got == pytest.approx(lambda_density(lam, a, z, 1.0), abs=1e-9)
    probe = np.linspace(0.05, 20.0, 50)
    got = conditional_x2_given_z2(lambda t: gig_pdf(params, t), z, probe, GRID)
    assert np.max(np.abs(got - lambda_density(lam, a, z, probe))) < 1e-9


def test_conditional_normalization_with_injected_uniform():
    def uniform(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= 0.5) & (t <= 2.0), 1.0 / 1.5, 0.0)

    total = GRID.integrate(conditional_x2_given_z2(uniform, 2.0, GRID.points,
                                                   GRID))
    assert total == pytest.approx(1.0, rel=1e-12)
    total = GRID.integrate(conditional_x3_given_z3_z2(uniform, 2.0, 1.5,
                                                      GRID.points, GRID))
    assert total == pytest.approx(1.0, rel=1e-12)


def test_conditional_tail_vanishes():
    params = GigParams.symmetric(1.0, 1.0)
    val = conditional_x2_given_z2(lambda t: gig_pdf(params, t), 2.0, 1e5, GRID)
    assert val < 1e-30


def test_conditional_x3_equals_x2_for_gig():
    params = GigParams.symmetric(1.0, 1.0)
    f = lambda t: gig_pdf(params, t)
    a3 = conditional_x3_given_z3_z2(f, 2.0, 1.5, 0.8, GRID)
    a2 = conditional_x2_given_z2(f, 2.0, 0.8, GRID)
    assert a3 == pytest.approx(a2, abs=1e-8)


def test_conditional_x3_differs_for_lognormal():
    f = lambda t: spstats.lognorm.pdf(t, 1.0)
    c2 = conditional_x2_given_z2(f, 2.0, GRID.points, GRID)
    c3 = conditional_x3_given_z3_z2(f, 2.0, 1.5, GRID.points, GRID)
    assert np.max(np.abs(c2 - c3)) > 1e-2


def test_characterization_is_the_gap_of_the_public_conditionals():
    # one evaluation of each conditional on the grid, bit for bit the values
    # and normalizers of conditional_x2_given_z2 and conditional_x3_given_z3_z2
    params = GigParams.symmetric(0.7, 1.2)
    for f in (partial(gig_pdf, params), partial(spstats.lognorm.pdf, s=0.5)):
        for z, u in _ZU_PAIRS:
            gap = np.max(np.abs(
                conditional_x2_given_z2(f, z, GRID.points, GRID)
                - conditional_x3_given_z3_z2(f, z, u, GRID.points, GRID)))
            assert characterization_discrepancy(f, z, u, GRID) == gap


def test_characterization_separation():
    params = GigParams.symmetric(0.7, 1.2)
    f_gig = lambda t: gig_pdf(params, t)
    f_ln = lambda t: spstats.lognorm.pdf(t, 0.5)
    f_gam = lambda t: spstats.gamma.pdf(t, 2.0)
    for (z, u) in [(1.5, 2.0), (2.0, 1.5)]:
        assert characterization_discrepancy(f_gig, z, u, GRID) < 1e-7
        assert characterization_discrepancy(f_ln, z, u, GRID) > 1e-3
        assert characterization_discrepancy(f_gam, z, u, GRID) > 1e-3


def test_generator_coefficients():
    drift, diffusion = my_generator_coefficients(1.0, 3.0)
    assert diffusion == 9.0
    drift, diffusion = my_generator_coefficients(0.5, 1.0)
    assert drift == pytest.approx(2.0, rel=1e-12)  # K_{1/2}/K_{1/2} = 1
    assert diffusion == 1.0
    with pytest.raises(ValueError):
        my_generator_coefficients(1.0, 0.0)


def _simulate_z2_z3_x3(lam, a, n_paths, seed):
    params = GigParams.symmetric(lam, a)
    rng = np.random.default_rng(seed)
    g = gig_sample(params, rng, 3 * n_paths).reshape(3, n_paths)
    z2 = 1.0 / g[0] + g[1]
    x2 = g[0] * g[1]
    x3 = x2 * g[2]
    z3 = (x3 * z2 + 1.0) / x2
    return z2, z3, x3


def test_q_kernel_against_simulation_chi2():
    # histogram of Z_3 given Z_2 in a narrow window vs the Q density
    lam, a, z = 1.0, 1.0, 2.0
    z2, z3, _ = _simulate_z2_z3_x3(lam, a, 10**6, SEED)
    eps = 0.01 * z
    sel = z3[np.abs(z2 - z) < eps]
    assert sel.size > 5000
    # equal-probability bins from the theoretical conditional
    cdf_grid = np.cumsum(GRID.weights * q_density(lam, a, z, GRID.points))
    cdf_grid /= cdf_grid[-1]
    n_bins = 25
    edges = np.interp(np.linspace(0, 1, n_bins + 1)[1:-1], cdf_grid, GRID.points)
    counts = np.histogram(sel, bins=np.concatenate(([0.0], edges, [np.inf])))[0]
    expected = sel.size / n_bins
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < spstats.chi2.ppf(0.999, n_bins - 1), chi2


def test_lambda_kernel_against_simulation_ks():
    # X_3 given Z_3 in a narrow window follows Lambda(z, .)
    lam, a, z = 1.0, 1.0, 1.5
    _, z3, x3 = _simulate_z2_z3_x3(lam, a, 10**6, SEED + 1)
    eps = 0.03 * z
    sel = np.sort(x3[np.abs(z3 - z) < eps])
    assert sel.size > 4000
    cdf_grid = np.cumsum(GRID.weights * lambda_density(lam, a, z, GRID.points))
    cdf_grid /= cdf_grid[-1]
    res = ks_one_sample(sel, lambda x: np.interp(x, GRID.points, cdf_grid))
    assert res.passed, f"KS={res.statistic} crit={res.critical_1pct}"
