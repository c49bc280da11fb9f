import math

import mpmath as mp
import numpy as np
import pytest

from ultrafriable import (
    DomainError,
    RegimeError,
    arithmetic_factors,
    build_table,
    gaussian_G,
    log_Z_q,
    modulus_context,
    phi1,
    phi_j_q,
    solve_alpha,
    solve_beta,
    xi,
)
from ultrafriable import saddle as sd
from ultrafriable.calibration import load_constants
from ultrafriable.estimators import L_eps
from ultrafriable.saddle import phi1_limit_at_zero

CONSTS = load_constants()


def logz_mp(s, table, q_primes=()):
    """Independent high-precision log Z_q for finite-difference oracles."""
    tot = mp.mpf(0)
    for p, nu, _ in table.entries:
        if p in q_primes:
            continue
        tot += mp.log((1 - mp.power(p, -(nu + 1) * s)) / (1 - mp.power(p, -s)))
    return tot


# ---------------------------------------------------------------------------
# xi
# ---------------------------------------------------------------------------

def test_xi_at_one():
    assert xi(1) == 0.0


def test_xi_defining_equation():
    for v in [1.0001, 1.5, 2, 10, 100, 1e4, 1e6, 1e9]:
        z = xi(v)
        assert abs(math.exp(z) - 1 - v * z) <= 1e-12 * (1 + v * z)
    with pytest.raises(DomainError):
        xi(0.5)


def test_xi_bracket_v10():
    z = xi(10)
    assert 0 < z < 10
    assert math.exp(z) == pytest.approx(1 + 10 * z, rel=1e-12)


def test_xi_asymptotic_band():
    assert abs(xi(1e6) - math.log(1e6 * math.log(1e6))) <= 0.5


@pytest.mark.parametrize("v", [1 + 1e-6, 1.0001, 1.5, 10, 1e6, 1e9])
def test_xi_against_mpmath(v):
    with mp.workdps(50):
        vm = mp.mpf(v)
        start = 2 * (vm - 1) if v < 2 else mp.log(vm * mp.log(vm))
        ref = float(mp.findroot(lambda z: mp.expm1(z) / z - vm, start))
    assert abs(xi(v) - ref) <= 1e-11 * ref


def test_xi_newton_steps_against_mpmath():
    """At most 10 Newton steps, and 1e-13 relative error from v = 1 + 1e-12 to 1.7e308."""
    vs = [1 + d for d in np.geomspace(1e-12, 1.0, 25)] + list(np.geomspace(2.0, 1e300, 25))
    vs += [math.e, 1.7e308]
    with mp.workdps(40):
        for v in map(float, vs):
            z, steps = sd._xi(v)
            assert steps <= 10, v
            vm = mp.mpf(v)
            # e^z = 1 + v z in logs, so that it stays finite for every v
            ref = mp.findroot(lambda t: t - mp.log1p(vm * t), mp.mpf(z))
            assert abs(z - ref) <= 1e-13 * ref, v


def test_xi_increasing():
    vs = np.geomspace(1.001, 1e9, 60)
    zs = [xi(float(v)) for v in vs]
    assert all(b > a for a, b in zip(zs, zs[1:]))


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_solve_beta_residual(table100):
    res = solve_beta(10**6, table100)
    assert res.kind == "BETA"
    assert res.residual <= 1e-10
    assert res.sigma_j[2] > 0


def test_beta_band_spec_point(table100):
    res = solve_beta(10**6, table100)
    eta = table100.psi_y / math.log(10**6) - 2
    ly = math.log(100)
    assert 0 < res.sigma < 1
    K = CONSTS["beta_approx_K"]
    assert abs(res.sigma * ly / math.log1p(eta) - 1) <= K / ly


def test_beta_monotone_in_x(table100):
    b1 = solve_beta(10**6, table100).sigma
    b2 = solve_beta(2 * 10**6, table100).sigma
    assert b2 < b1


def test_beta_regime_error(table10):
    with pytest.raises(RegimeError) as ei:
        solve_beta(10**6, table10)
    assert ei.value.phi1_limit == pytest.approx(table10.psi_y / 2, rel=1e-12)
    assert "symmetry" in str(ei.value)


@pytest.mark.parametrize("y", [3, 30, 200, 3000])
def test_beta_against_mpmath(y):
    """beta against an mpmath root of phi_1(beta) = log x, from x = 2 to eta = 1e-9.

    Newton takes at most 10 steps.  The error bound is 1e-12 relative plus
    the conditioning floor 2^-50 psi(y)/sigma_2: phi_1 is a sum of size
    psi(y)/2 whose rounding, ~2^-52 psi(y), moves beta by that over
    sigma_2 = -phi_1'.  The floor takes over below eta ~ 1e-3, where
    beta ~ eta log x/(2 sigma_2) makes its condition number ~2/eta.
    """
    table = build_table(y)
    with mp.workdps(30):
        terms = [(mp.log(p), nu + 1) for p, nu, _ in table.entries]

        def phi1_mp(s):
            return mp.fsum(lp / mp.expm1(s * lp) - m * lp / mp.expm1(m * s * lp)
                           for lp, m in terms)

        for lx in [math.log(2)] + [table.psi_y / (2 + eta) for eta in (1.0, 1e-3, 1e-9)]:
            if lx < math.log(2):
                continue
            res = solve_beta(None, table, log_x=lx)
            assert res.iterations <= 10, lx
            b = mp.mpf(res.sigma)
            ref = mp.findroot(lambda s: phi1_mp(s) - lx, (b, b * (1 + mp.mpf("1e-6"))))
            bound = 1e-12 * ref + 2.0**-50 * table.psi_y / res.sigma_j[2]
            assert abs(res.sigma - ref) <= bound, (lx, float(abs(res.sigma / ref - 1)))


def test_solve_beta_from_log_x(table100):
    a = solve_beta(10**6, table100)
    assert solve_beta(None, table100, log_x=math.log(10**6)) == a
    with pytest.raises(DomainError):
        solve_beta(None, table100, log_x=0.5)


def _beta_nodes_cleared():
    sd._beta_node.cache_clear()
    return sd._beta_node


def test_beta_start_does_not_depend_on_earlier_solves():
    # the bracket is a function of (log x, y) alone: the same double after a
    # sweep of other x on that y, in either order, as on a cleared memo
    t = build_table(700)
    lx = 0.31 * t.psi_y
    _beta_nodes_cleared()
    first = solve_beta(None, t, log_x=lx)
    sweep = [float(v) for v in np.linspace(0.02, 0.499, 40) * t.psi_y]
    for order in (sweep, sweep[::-1]):
        for other in order:
            solve_beta(None, t, log_x=other)
        again = solve_beta(None, t, log_x=lx)
        assert again.sigma == first.sigma and again.iterations == first.iterations


# Newton evaluations per solve over the in-domain points of BETA_GRID, as
# measured from the node start: 2.83, and 3.06 with the 0.23 node evaluations
# per solve of a cleared memo.  From the calibrated start alone it is 4.8;
# with the Hermite slope's sign flipped 4.36, the first bracket index one
# node low 3.66, and one node per decade 3.15.
BETA_GRID_ITERATIONS = 2.83
BETA_GRID = [(y, float(c) * y) for y in (50, 150, 1000, 3000) for c in np.linspace(0.05, 0.55, 45)]


def test_beta_grid_newton_evaluations():
    nodes = _beta_nodes_cleared()
    iterations = []
    for y, lx in BETA_GRID:
        t = build_table(y)
        if 2.0 * lx >= t.psi_y:
            continue
        res = solve_beta(None, t, log_x=lx)
        assert res.residual <= 1e-13 * max(1.0, lx) / lx, (y, lx)
        iterations.append(res.iterations)
    assert len(iterations) >= 150
    assert sum(iterations) / len(iterations) <= BETA_GRID_ITERATIONS + 0.1
    assert nodes.cache_info().misses <= 0.3 * len(iterations)


@pytest.mark.parametrize("y", [2, 3, 7, 1000, 10**6])
def test_beta_at_the_ends_of_the_domain(y):
    # log x = log 2, log x a relative 1e-12 below psi(y)/2, and the double
    # just below psi(y)/2, where at y = 7 and 1000 both nodes of the bracket
    # read eta(phi_1) within rounding of 0; at y = 2, psi(2)/2 < log 2
    # leaves no x >= 2 in the domain
    t = build_table(y)
    for lx in (math.log(2.0), t.psi_y / 2.0 * (1.0 - 1e-12), math.nextafter(t.psi_y / 2.0, 0.0)):
        if lx < math.log(2.0):
            with pytest.raises(DomainError):
                solve_beta(None, t, log_x=lx)
        elif 2.0 * lx >= t.psi_y:
            with pytest.raises(RegimeError):
                solve_beta(None, t, log_x=lx)
        else:
            _beta_nodes_cleared()
            res = solve_beta(None, t, log_x=lx)
            assert res.iterations <= 10, (y, lx)
            assert res.residual <= 1e-13 * max(1.0, lx) / lx, (y, lx)


@pytest.mark.parametrize("y", [10**3, 10**5, 10**6])
def test_lone_beta_solve_costs_at_most_three_evaluations_more(y):
    # Newton's evaluations plus the nodes a lone solve evaluates, against
    # Newton alone from the calibrated start log(1 + eta)/log y
    t = build_table(y)
    ser = sd._series(y, ())

    def fdf(s):
        f1, f2 = sd._phi(s, ser, (1, 2))
        return f1, -f2

    for lx in (math.log(2.0), 3.0, 50.0, 300.0, t.psi_y / 2.5):
        nodes = _beta_nodes_cleared()
        res = solve_beta(None, t, log_x=lx)
        start = math.log1p(t.psi_y / lx - 2.0) / math.log(y)
        calibrated = sd._newton(fdf, lx, start, 1e-13 * max(1.0, lx))[3]
        assert res.iterations + nodes.cache_info().misses <= calibrated + 3, (y, lx)


def test_phi1_limit_and_monotone(table100):
    lim = phi1_limit_at_zero(table100)
    assert lim == pytest.approx(table100.psi_y / 2, rel=1e-12)
    assert phi1(1e-9, table100) == pytest.approx(lim, rel=1e-6)
    grid = np.geomspace(1e-6, 5.0, 40)
    vals = [phi1(float(s), table100) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_one_minus_beta_bands():
    lo, hi = CONSTS["one_minus_beta_lo"], CONSTS["one_minus_beta_hi"]
    plo, phi_ = CONSTS["y_pow_one_minus_beta_lo"], CONSTS["y_pow_one_minus_beta_hi"]
    for y in (40, 80, 150, 600):
        table = build_table(y)
        for t in (0.1, 0.2, 0.35, 0.45):
            lx = table.psi_y * t
            if lx < math.log(y):
                continue
            res = solve_beta(math.exp(lx), table)
            u = lx / math.log(y)
            r = (1 - res.sigma) * math.log(y) / math.log(2 * u)
            assert lo <= r <= hi
            r2 = y ** (1 - res.sigma) / (u * math.log(2 * u))
            assert plo <= r2 <= phi_


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_solve_alpha_residual():
    res = solve_alpha(10**6, 100)
    assert res.kind == "ALPHA"
    assert res.residual <= 1e-10


def test_alpha_newton_steps():
    # the start 1 - xi(u)/log y, or pi(y)/(log x + pi(y)/2) where that is <= 0
    for y in (2, 3, 5, 30, 100, 1000, 10**4, 10**6):
        for lx in (math.log(y), 2 * math.log(y), 10.0, 30.0, 100.0, 300.0, 700.0):
            lx = max(lx, math.log(y) + 1e-9)
            res = solve_alpha(math.exp(lx), y)
            assert res.iterations <= 10, (y, lx)
            assert res.residual <= 1e-13 * max(1.0, lx) / lx, (y, lx)


def _exp_minus(s):
    return math.exp(-s), -math.exp(-s)


def test_newton_bisects_a_step_that_leaves_the_bracket():
    # exp(-s) = 1/2 from s = 10: the first step lands near s = -1.1e4, outside (0, 10)
    s, f, fp, steps = sd._newton(_exp_minus, 0.5, 10.0, 1e-16)
    assert abs(s - math.log(2.0)) <= 2 * math.ulp(math.log(2.0))
    assert steps < sd._MAX_STEPS


@pytest.mark.parametrize("bad_slope", [math.nan, -1e-320])
def test_newton_doubles_past_a_non_finite_step(bad_slope):
    # 1/s = 1/100 from s = 1, with a slope that makes the step NaN or infinite
    # below s = 30: while hi is infinite the step is replaced by doubling s
    def fdf(s):
        return 1.0 / s, (-1.0 / (s * s) if s > 30.0 else bad_slope)

    s, f, fp, steps = sd._newton(fdf, 0.01, 1.0, 1e-18)
    assert abs(s - 100.0) <= 2 * math.ulp(100.0)
    assert steps < sd._MAX_STEPS


def test_newton_stops_on_a_one_double_bracket():
    # with tol = 0 and no double s where exp(-s) is exactly 1/10, only the
    # bracket shrinking to one double ends the loop before the step cap
    s, f, fp, steps = sd._newton(_exp_minus, 0.1, 10.0, 0.0)
    assert f != 0.1
    assert abs(s - math.log(10.0)) <= 2 * math.ulp(math.log(10.0))
    assert steps < sd._MAX_STEPS


def test_alpha_at_x_equal_y():
    # direct evaluation of the defining sum at alpha = 1 places alpha(y, y)
    # relative to 1: above for y in {3, 5, 7}, below from y = 11 on
    for y, above in ((3, True), (5, True), (7, True), (11, False), (100, False)):
        table = build_table(y)
        s1 = float(np.dot(table.logp_arr, 1.0 / (table.p_arr.astype(float) - 1)))
        alpha = solve_alpha(y, y).sigma
        if above:
            assert s1 > math.log(y) and alpha > 1
        else:
            assert s1 < math.log(y) and alpha < 1


def test_alpha_asymptotic_band():
    res = solve_alpha(10**8, 10**4)
    u = math.log(10**8) / math.log(10**4)
    approx = 1 - xi(u) / math.log(10**4)
    K = CONSTS["alpha_approx_K"]
    assert abs(res.sigma - approx) <= K * (1 / (u * math.log(10**4) ** 2) + 1 / L_eps(10**4))


# ---------------------------------------------------------------------------
# phi_j and log Z
# ---------------------------------------------------------------------------

def test_phi_j1_matches_closed_form(table100):
    for s in (1e-4, 1e-2, 0.3, 1.0, 4.0):
        a = phi_j_q(1, s, table100)
        b = phi1(s, table100)
        assert abs(a - b) <= 1e-12 * abs(b)


def test_phi_j1_matches_closed_form_with_q(table100):
    ctx = modulus_context(30, table100)
    for s in (0.01, 0.2, 1.0):
        assert phi_j_q(1, s, table100, ctx) == pytest.approx(phi1(s, table100, ctx), rel=1e-12)


def test_phi_j_against_polylog():
    """phi_{j,q}(s) = sum (log p)^j [Li_{1-j}(p^-s) - m^j Li_{1-j}(p^-ms)], m = nu_p + 1.

    An mpmath reference at 50 digits, on both sides of the series crossover
    (m s log p = 1/2); the tolerances sit a few times above the worst
    errors seen (8e-16, 8e-14, 4.8e-11, 5.4e-10 for j = 1..4, all at s = 0.05).
    """
    tol = {1: 4e-15, 2: 4e-13, 3: 2.5e-10, 4: 2.5e-9}
    with mp.workdps(50):
        for y in (10, 100, 300):
            t = build_table(y)
            for s in (1e-4, 1e-2, 0.05, 0.2, 0.5, 1.0, 4.0):
                for j in (1, 2, 3, 4):
                    sm = mp.mpf(s)
                    terms = {
                        p: mp.log(p) ** j * (mp.polylog(1 - j, mp.power(p, -sm))
                                             - (nu + 1) ** j * mp.polylog(1 - j, mp.power(p, -(nu + 1) * sm)))
                        for p, nu, _ in t.entries
                    }
                    for q in (1, 30):
                        want = mp.fsum(v for p, v in terms.items() if q % p)
                        got = phi_j_q(j, s, t, modulus_context(q, t))
                        assert abs(got - want) <= tol[j] * abs(want), (j, y, q, s)


def test_sigma2_positive_and_q_restricted(table100):
    res = solve_beta(10**6, table100)
    b = res.sigma
    s2 = phi_j_q(2, b, table100)
    ctx = modulus_context(6, table100)
    s2q = phi_j_q(2, b, table100, ctx)
    assert 0 < s2q <= s2


def test_phi_j_vs_finite_differences(table100):
    mp.mp.dps = 40
    res = solve_beta(10**5, table100)
    b = mp.mpf(res.sigma)
    h = mp.mpf("1e-4")
    for q_primes, ctx in (((), None), ((2, 3), modulus_context(6, table100))):
        f = [logz_mp(b + k * h, table100, q_primes) for k in (-2, -1, 0, 1, 2)]
        d2 = (f[3] - 2 * f[2] + f[1]) / h**2
        d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
        d4 = (f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / h**4
        for j, fd in ((2, d2), (3, -d3), (4, d4)):
            got = phi_j_q(j, res.sigma, table100, ctx)
            assert abs(got - float(fd)) <= 1e-5 * abs(float(fd))


def test_log_Z_example_y10(table10):
    expect = math.log((15 / 8) * (13 / 9) * (6 / 5) * (8 / 7))
    assert log_Z_q(1.0, table10) == pytest.approx(expect, rel=1e-13)


def test_log_Z_empty_product(table10):
    ctx = modulus_context(210, table10)
    assert log_Z_q(1.0, table10, ctx) == 0.0


def test_log_Z_complex_consistency(table100):
    a = log_Z_q(0.4, table100)
    z = log_Z_q(complex(0.4, 0.0), table100)
    assert z.imag == pytest.approx(0.0, abs=1e-12)
    assert z.real == pytest.approx(a, rel=1e-12)
    with pytest.raises(DomainError):
        log_Z_q(complex(-0.1, 1.0), table100)


def test_log_Z_complex_near_zero_against_mpmath(table100):
    # 1 - e^{-w} cancels as |w| -> 0 unless it is taken as -expm1(-w)
    for s in (1e-12 + 0j, (1 + 1j) * 1e-9):
        with mp.workdps(40):
            ref = complex(logz_mp(mp.mpc(s), table100))
        assert abs(log_Z_q(s, table100) - ref) <= 1e-13 * abs(ref)


def test_Zq_g_identity(table100):
    # Z_q = g_q * Z: restricting the product divides out exactly the
    # factors that g_q reinstates
    res = solve_beta(10**7, table100)
    b = res.sigma
    for q in (2, 6, 30, 210):
        ctx = modulus_context(q, table100)
        g = arithmetic_factors(b, ctx, table100).g_q
        lhs = math.exp(log_Z_q(b, table100, ctx))
        rhs = g * math.exp(log_Z_q(b, table100))
        assert abs(lhs - rhs) <= 1e-11 * rhs


def test_sigma2_gap_is_gamma2(table100):
    res = solve_beta(10**6, table100)
    b = res.sigma
    for q in (6, 30):
        ctx = modulus_context(q, table100)
        gap = phi_j_q(2, b, table100) - phi_j_q(2, b, table100, ctx)
        g2 = arithmetic_factors(b, ctx, table100).gamma2_q
        assert abs(gap - (-g2)) <= 1e-9 * abs(gap)


# ---------------------------------------------------------------------------
# arithmetic factors
# ---------------------------------------------------------------------------

def test_factors_q1(table10):
    ctx = modulus_context(1, table10)
    f = arithmetic_factors(1.0, ctx, table10)
    assert f.g_q == 1.0 and f.f_q == 1.0
    assert f.gamma1_q == 0.0 and f.gamma2_q == 0.0


def log_g_derivatives(s, table, q_primes):
    """(log g_q)'(s) and (log g_q)''(s) by mpmath differentiation at 50 digits."""
    nu = {p: table.nu_of(p) for p in q_primes}

    def log_g(t):
        return mp.fsum(mp.log((1 - mp.power(p, -t)) / (1 - mp.power(p, -(n + 1) * t)))
                       for p, n in nu.items())

    with mp.workdps(50):
        return float(mp.diff(log_g, mp.mpf(s), 1)), float(mp.diff(log_g, mp.mpf(s), 2))


def test_gamma_limits_q12_y10(table10):
    # at s = 1e-8 the limits are 6.6e-9 off the true gammas, which the kernel gives;
    # at s = 1e-14 the kernel's constant terms, the limits, are all that is left
    ctx = modulus_context(12, table10)
    f = arithmetic_factors(1e-8, ctx, table10)
    g1, g2 = log_g_derivatives(1e-8, table10, (2, 3))
    assert f.gamma1_q == pytest.approx(g1, rel=1e-12)
    assert f.gamma2_q == pytest.approx(g2, rel=1e-12)
    f = arithmetic_factors(1e-14, ctx, table10)
    assert f.gamma1_q == pytest.approx(0.5 * (3 * math.log(2) + 2 * math.log(3)), rel=1e-13)
    expect_g2 = -(3 * 5 * math.log(2) ** 2 + 2 * 4 * math.log(3) ** 2) / 12
    assert f.gamma2_q == pytest.approx(expect_g2, rel=1e-13)


@pytest.mark.parametrize("y, q", [(10, 12), (100, 30), (1000, 210)])
def test_gamma_against_mpmath_at_every_s(y, q):
    # s log y on both sides of 1e-6, where the s -> 0 limits once stood in for the kernel
    table = build_table(y)
    ctx = modulus_context(q, table)
    one = modulus_context(1, table)
    for v in (1e-14, 1e-8, 0.999e-6, 1e-6, 1e-2, 1.0, 5.0):
        s = v / math.log(y)
        f = arithmetic_factors(s, ctx, table)
        g1, g2 = log_g_derivatives(s, table, ctx.prime_divisors)
        assert abs(f.gamma1_q - g1) <= 1e-12 * abs(g1), (y, q, v)
        assert abs(f.gamma2_q - g2) <= 1e-12 * abs(g2), (y, q, v)
        f1 = arithmetic_factors(s, one, table)
        assert (f1.g_q, f1.f_q, f1.gamma1_q, f1.gamma2_q) == (1.0, 1.0, 0.0, 0.0)
        assert math.copysign(1.0, f1.gamma2_q) == 1.0  # 0.0, not -0.0


def test_g_q_explicit_value(table10):
    ctx = modulus_context(6, table10)
    f = arithmetic_factors(1.0, ctx, table10)
    expect = ((1 - 1 / 2) / (1 - 2.0**-4)) * ((1 - 1 / 3) / (1 - 3.0**-3))
    assert f.g_q == pytest.approx(expect, rel=1e-13)
    assert f.f_q == pytest.approx((1 - 1 / 2) * (1 - 1 / 3), rel=1e-13)


def test_g_q_alone_is_the_factors_g_q(table100):
    # s * log p on both sides of _SERIES_CUT, down to s = 1e-8
    entries = {p: nu for p, nu, _ in table100.entries}
    for q in (1, 2, 6, 30, 210):
        ctx = modulus_context(q, table100)
        for s in (1e-8, 0.01, sd._SERIES_CUT / math.log(2), 0.3, 1.0, 3.0):
            g = sd.g_q(s, ctx, table100)
            assert g == arithmetic_factors(s, ctx, table100).g_q
            with mp.workdps(30):
                expect = mp.fprod((1 - mp.power(p, -s)) / (1 - mp.power(p, -(entries[p] + 1) * s))
                                  for p in ctx.prime_divisors)
            assert abs(g - float(expect)) <= 1e-13 * g, (q, s)
    with pytest.raises(DomainError):
        sd.g_q(0.0, modulus_context(6, table100), table100)


def test_g_q_range_and_gamma_signs(table100):
    for q in (2, 6, 30, 210):
        ctx = modulus_context(q, table100)
        for s in (0.05, 0.3, 1.0, 3.0):
            f = arithmetic_factors(s, ctx, table100)
            assert 0 < f.g_q <= 1
            assert f.gamma1_q >= 0
            assert f.gamma2_q <= 0


def test_gamma_vs_finite_differences(table100):
    mp.mp.dps = 40
    ctx = modulus_context(30, table100)

    def log_g(s):
        tot = mp.mpf(0)
        for p in (2, 3, 5):
            nu = dict((pp, n) for pp, n, _ in table100.entries)[p]
            tot += mp.log((1 - mp.power(p, -s)) / (1 - mp.power(p, -(nu + 1) * s)))
        return tot

    s0 = mp.mpf("0.37")
    h = mp.mpf("1e-4")
    g1 = (log_g(s0 + h) - log_g(s0 - h)) / (2 * h)
    g2 = (log_g(s0 + h) - 2 * log_g(s0) + log_g(s0 - h)) / h**2
    f = arithmetic_factors(0.37, ctx, table100)
    assert abs(f.gamma1_q - float(g1)) <= 1e-5 * abs(float(g1))
    assert abs(f.gamma2_q - float(g2)) <= 1e-5 * abs(float(g2))


def test_h_d(table10):
    ctx = modulus_context(6, table10)
    f = arithmetic_factors(1.0, ctx, table10, d=6)
    expect = ((1 - 2.0**-3) / (1 - 2.0**-4)) * ((1 - 3.0**-2) / (1 - 3.0**-3))
    assert f.h_d == pytest.approx(expect, rel=1e-13)
    with pytest.raises(DomainError, match=r"^h_d needs squarefree d, got d=4$"):
        arithmetic_factors(1.0, modulus_context(4, table10), table10, d=4)
    with pytest.raises(DomainError, match=r"^h_d needs P\+\(d\) <= y, got d=11, y=10$"):
        arithmetic_factors(1.0, modulus_context(1, table10), table10, d=11)


@pytest.mark.parametrize("d", [1, 2, 6, 30, 210])
def test_h_d_is_the_product_over_the_primes_of_d(table100, d):
    # the product over p | d of (1 - p^(-nu_p s)) / (1 - p^(-(nu_p+1) s)), nu_p read from
    # the table; W = (nu_p+1) s log p runs from 0.005 to 12, across the series cut 0.5
    primes = [p for p in (2, 3, 5, 7) if d % p == 0]
    dnu = np.array([table100.nu_of(p) for p in primes], dtype=np.float64)
    t = np.log(np.array(primes, dtype=np.float64))
    ctx = modulus_context(210, table100)
    for s in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0):
        want = float(np.prod(np.expm1(-dnu * s * t) / np.expm1(-(dnu + 1.0) * s * t)))
        assert arithmetic_factors(s, ctx, table100, d=d).h_d == want, (d, s)


# ---------------------------------------------------------------------------
# Gaussian factor
# ---------------------------------------------------------------------------

def test_G_at_zero():
    assert gaussian_G(0.0) == 0.5


def test_G_large_z_asymptote():
    z = 50.0
    expect = (1 / (math.sqrt(2 * math.pi) * z)) * (1 - 1 / z**2)
    assert gaussian_G(z) == pytest.approx(expect, rel=1e-5)


def test_G_decreasing_and_quadrature():
    # shift the tail integral: e^{z^2/2} Phi(z) = (2 pi)^{-1/2} *
    # integral_0^inf e^{-z s - s^2/2} ds, which quadrature handles at any z
    mp.mp.dps = 30
    zs = np.linspace(0, 50, 26)
    prev = math.inf
    for z in zs:
        g = gaussian_G(float(z))
        assert g < prev
        prev = g
        zm = mp.mpf(float(z))
        ref = float(mp.quad(lambda s: mp.exp(-zm * s - s * s / 2), [0, mp.inf])
                    / mp.sqrt(2 * mp.pi))
        assert abs(g - ref) <= 1e-12 * ref
    with pytest.raises(DomainError):
        gaussian_G(-11.0)


def test_G_against_mpmath_erfcx():
    """G(z) = exp(x^2) erfc(x) / 2 with x = z / sqrt 2, at 40 digits.

    Covers the reflected negative side, both sides of the switch to the
    asymptotic series at x = 26, and the series itself out to z = 60.
    """
    mp.mp.dps = 40
    xs_cut = [26.0 + d for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5)]
    zs = [float(z) for z in np.linspace(-10.0, 60.0, 701)] + [x * math.sqrt(2.0) for x in xs_cut]
    for z in zs:
        x = mp.mpf(z) / mp.sqrt(2)
        ref = mp.exp(x * x) * mp.erfc(x) / 2
        assert abs(gaussian_G(z) - ref) <= 2e-15 * ref, z
    prev = math.inf
    for z in np.linspace(-10.0, 60.0, 7001):
        g = gaussian_G(float(z))
        assert g < prev, z
        prev = g
    # z sqrt(2 pi) G(z) = 1 - 1/z^2 + 3/z^4 - ...
    for z in (1e2, 1e4, 1e8, 1e100):
        lead = z * math.sqrt(2 * math.pi) * gaussian_G(z)
        assert 0.0 <= 1.0 - lead <= 1.0 / z**2 + 1e-15, z


@pytest.mark.parametrize("call, message", [
    (lambda t: phi_j_q(0, 1.0, t), "need 1 <= j <= 4, got 0"),
    (lambda t: phi_j_q(5, 1.0, t), "need 1 <= j <= 4, got 5"),
    (lambda t: phi_j_q(2, 0.0, t), "need s > 0, got 0.0"),
    (lambda t: phi_j_q(1, -1.0, t), "need s > 0, got -1.0"),
    (lambda t: solve_beta(1.5, t), "need x >= 2, got 1.5"),
    (lambda t: solve_alpha(100, 1), "need y >= 2, got 1"),
    (lambda t: solve_alpha(5, 10), "need x >= y, got x=5, y=10"),
])
def test_saddle_input_checks(table10, call, message):
    with pytest.raises(DomainError) as ei:
        call(table10)
    assert str(ei.value) == message
