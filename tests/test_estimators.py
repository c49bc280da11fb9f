import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

from ultrafriable import (
    DomainError,
    NonCoprimeError,
    RegimeError,
    UnsupportedCaseError,
    build_table,
    character_sum,
    classify_regime,
    compare,
    count_ultrafriable,
    enumerate_characters,
    error_budget,
    estimate,
    estimate_noncoprime,
    estimate_progression,
    estimate_t2,
    estimate_upsilon,
    estimate_upsilon_q,
    exact_count,
    modulus_context,
    naive_oracle,
    t3_bound,
)
from ultrafriable import estimators as es
from ultrafriable.calibration import load_constants
from ultrafriable.estimators import VARIANTS, L_eps, Y_eps

CONSTS = load_constants()


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------

def test_budget_q1(table100):
    ctx = modulus_context(1, table100)
    bud = error_budget(10**6, table100, ctx)
    assert bud.theta_q == pytest.approx(math.log(2) / math.log(100))
    assert bud.dd_q == 0.0 and bud.cc_q == 0.0
    assert bud.delta_q > 0


def test_budget_first_branch(table100):
    # psi(100) ~ 94 < (log 1e6)^2 ~ 191: small-x branch selected
    ctx = modulus_context(6, table100)
    bud = error_budget(10**6, table100, ctx)
    lx, ly = math.log(10**6), math.log(100)
    eta = table100.psi_y / lx - 2
    theta = ctx.theta_q
    expect = lx**theta / ly * (1 + 1 / (theta * math.log1p(eta)))
    assert bud.delta_q == pytest.approx(expect, rel=1e-12)
    assert bud.dd_q == min(2, bud.delta_q)
    assert bud.cc_q == min(2, bud.delta_q**2)


def test_budget_second_branch():
    t = build_table(1000)
    ctx = modulus_context(6, t)
    bud = error_budget(10**4, t, ctx)
    u = math.log(10**4) / math.log(1000)
    theta = ctx.theta_q
    l2u = math.log(2 * u)
    expect = theta * (u * l2u) ** theta / (1 + theta * l2u)
    assert bud.delta_q == pytest.approx(expect, rel=1e-12)
    # the non-selected branch is carried for inspection
    assert bud.delta_q_alt == bud.delta_q_alt  # not NaN here: eta > 0


def test_budget_monotone_in_omega(table100):
    # D_q = min(omega, Delta_q) is nondecreasing in omega(q); Delta_q alone
    # is not (the small-x branch dips: 1/(theta log(1+eta)) shrinks faster
    # than (log x)^theta grows between theta(q=1) and theta(q=6) here)
    buds = [error_budget(10**6, table100, modulus_context(q, table100))
            for q in (1, 2, 6, 30)]
    dds = [b.dd_q for b in buds]
    assert dds == sorted(dds)
    d1 = error_budget(10**6, table100, modulus_context(1, table100)).delta_q
    d6 = error_budget(10**6, table100, modulus_context(6, table100)).delta_q
    assert d6 < d1  # the documented counterexample to Delta_q monotonicity

    # in the large-y branch Delta_q itself is monotone in omega
    t = build_table(1000)
    deltas = [error_budget(10**4, t, modulus_context(q, t)).delta_q
              for q in (1, 2, 6, 30)]
    assert deltas == sorted(deltas)


def test_delta_remark_band(table100):
    lo, hi = CONSTS["delta_remark_lo"], CONSTS["delta_remark_hi"]
    for eta in (0.25, 0.5, 1.0):
        lx = table100.psi_y / (2 + eta)
        x = math.exp(lx)
        for q in (2, 6, 30):
            ctx = modulus_context(q, table100)
            bud = error_budget(x, table100, ctx)
            r = bud.delta_q * eta / (1 + ctx.omega_q)
            assert lo <= r <= hi


def test_error_budget_is_computed_once_per_point(table100):
    # every variant row of (x, y, q) reads the one cached budget; another q
    # or y is another point
    x = math.exp(30)
    bud = error_budget(x, table100, modulus_context(6, table100))
    assert error_budget(x, table100, modulus_context(6, table100)) is bud
    ctx30 = modulus_context(30, table100)
    other_q = error_budget(x, table100, ctx30)
    assert (other_q.omega_q, other_q.theta_q) == (3, ctx30.theta_q) != (2, bud.theta_q)
    assert other_q.delta_q != bud.delta_q and other_q.u == bud.u
    t = build_table(200)
    other_y = error_budget(x, t, modulus_context(6, t))
    assert other_y is not bud
    lx = math.log(x)
    assert (other_y.u, other_y.eta) == (lx / math.log(200), t.psi_y / lx - 2)
    assert other_y.delta_q != bud.delta_q


def test_every_variant_budget_is_the_point_budget_with_its_bound():
    # _budget builds each variant's budget in one constructor call: every
    # field but the stated bound is the point's, as dataclasses.replace
    # would copy it
    small, large = build_table(100), build_table(10**4)
    points = [(small, lx) for lx in (10.0, 30.0, small.psi_y / 2.3, small.psi_y / 2.01)]
    points += [(large, lx) for lx in (9.0, 13.8, 20.0)]
    for variant in ("T1i", "T1ii", "T1iii", "REMC", "T2", "T4", "T5", "R6"):
        checked = 0
        for t, lx in points:
            for q in (1, 6, 30):
                ctx = modulus_context(q, t)
                try:
                    bud = es._budget(variant, math.exp(lx), t, ctx)
                except (DomainError, RegimeError):
                    continue
                want = dataclasses.replace(error_budget(math.exp(lx), t, ctx),
                                           stated_bound=bud.stated_bound)
                for f in dataclasses.fields(es.ErrorBudget):
                    a, b = getattr(bud, f.name), getattr(want, f.name)
                    assert a == b or a != a and b != b, (variant, t.y, lx, q, f.name)
                assert math.isfinite(bud.stated_bound), (variant, t.y, lx, q)
                checked += 1
        assert checked >= 3, variant


def _x_with_eta(table, eta: float) -> float:
    """An x whose eta = psi(y)/log x - 2, as error_budget rounds it, is eta exactly."""
    lx = table.psi_y / (2 + eta)
    for _ in range(20):
        if table.psi_y / lx - 2.0 == eta:
            break
        lx = math.nextafter(lx, math.inf if table.psi_y / lx - 2.0 > eta else 0.0)
    x = math.exp(lx)
    for _ in range(400):
        if math.log(x) == lx:
            return x
        x = math.nextafter(x, math.inf if math.log(x) < lx else 0.0)
    raise AssertionError(f"no x with eta = {eta} at y = {table.y}")


def test_t1ii_domain_includes_eta_one_half(table100):
    # T1(ii) holds for eta <= 1/2, the end point included
    ctx = modulus_context(6, table100)
    x = _x_with_eta(table100, 0.5)
    est = estimate_upsilon_q(x, table100, ctx, "T1ii")
    assert est.budget.eta == 0.5 and math.isfinite(est.budget.stated_bound)
    with pytest.raises(DomainError, match="T1ii needs eta <= 1/2"):
        estimate_upsilon_q(x * (1 - 1e-9), table100, ctx, "T1ii")


def test_t1iii_domain_excludes_eta_sqrt_u_one_fifth():
    # T1(iii) needs eta * sqrt(u) < 0.2, strictly; at this x the budget's own
    # eta * sqrt(u) is 0.2 exactly, and just above x it is below
    t = build_table(862)
    ctx = modulus_context(1, t)
    x = 1.3838089206049753e+185
    bud = error_budget(x, t, ctx)
    assert bud.eta * math.sqrt(bud.u) == 0.2
    with pytest.raises(DomainError, match="T1iii needs eta"):
        estimate("T1iii", x, t, ctx)
    assert math.isfinite(estimate("T1iii", x * (1 + 1e-9), t, ctx).budget.stated_bound)


@pytest.mark.parametrize("variant, q, a", [("T1i", 1, None), ("T1ii", 3, None),
                                           ("T1iii", 3, None), ("T4", 3, 1), ("R6", 6, 2)])
def test_saddle_variants_refuse_outside_the_saddle_domain(table10, variant, q, a):
    # psi(10) = log 2520 <= 2 log x: out of the small-y domain, and y = 10 is
    # not large either; the variant itself refuses, before any saddle or count
    assert not classify_regime(2520, table10).small_y
    with pytest.raises(RegimeError, match=f"{variant} needs the saddle domain"):
        estimate(variant, 2520, table10, modulus_context(q, table10), a)


# ---------------------------------------------------------------------------
# global and coprime estimates
# ---------------------------------------------------------------------------

def test_estimate_upsilon_regime_boundary(table10):
    # x = 100, y = 10 sits outside psi(y) > 2 log x (psi(10) = 7.83 < 9.21)
    with pytest.raises(RegimeError):
        estimate_upsilon(100, table10)


def test_estimate_upsilon_accuracy():
    t30 = build_table(30)
    ctx = modulus_context(1, t30)
    x = 10**3
    est = estimate_upsilon(x, t30)
    rec = compare(count_ultrafriable(x, t30, ctx), est)
    assert abs(rec.rel_error) < 0.5  # coarse sanity; tight band in acceptance
    assert est.main > 0 and math.isfinite(est.log_main)


def test_estimate_upsilon_band_frozen(table100):
    x = math.exp(30)
    est = estimate_upsilon(x, table100)
    exact = count_ultrafriable(x, table100, modulus_context(1, table100))
    rec = compare(exact, est)
    assert abs(rec.rel_error) <= CONSTS["t1_q1_u_C"] / est.budget.u


def test_estimate_upsilon_is_t1i_at_q1(table100):
    est = estimate_upsilon(math.exp(25), table100)
    assert est.theorem_tag == "T1i"
    assert est.budget.stated_bound == 1.0 / est.budget.u  # D_1 = 0
    assert est.factors["g_q_beta"] == 0.0
    assert set(est.flags) == {"psi_below_cube", "omega_small_vs_sqrt_y"}


def test_upsilon_q_reduces_at_q1(table100):
    x = math.exp(25)
    ctx1 = modulus_context(1, table100)
    a = estimate_upsilon(x, table100)
    b = estimate_upsilon_q(x, table100, ctx1, "T1i")
    assert a.log_main == pytest.approx(b.log_main, rel=1e-14)
    # T1ii/T1iii reduce too, inside their own eta windows
    t = build_table(60)
    xs = math.exp(t.psi_y / 2.02)
    c1 = modulus_context(1, t)
    base = estimate_upsilon_q(xs, t, c1, "T1i").log_main
    for variant in ("T1ii", "T1iii"):
        assert estimate_upsilon_q(xs, t, c1, variant).log_main == \
            pytest.approx(base, rel=1e-14)  # omega = 0 kills the correction


def test_upsilon_q_two_forms_agree(table100):
    # g_q(beta) * (q=1 main) vs the Z_q form
    x = math.exp(30)
    for q in (6, 30):
        ctx = modulus_context(q, table100)
        est1 = estimate_upsilon(x, table100)
        estq = estimate_upsilon_q(x, table100, ctx, "T1i")
        via_g = est1.log_main + estq.factors["g_q_beta"]
        assert abs(math.exp(estq.log_main) - math.exp(via_g)) <= 1e-11 * math.exp(via_g)


def test_upsilon_q_variant_preconditions(table100):
    x = math.exp(30)  # eta = 94/30 - 2 ~ 1.13 > 1/2
    ctx = modulus_context(6, table100)
    with pytest.raises(DomainError):
        estimate_upsilon_q(x, table100, ctx, "T1ii")
    with pytest.raises(DomainError):
        estimate_upsilon_q(x, table100, ctx, "T1iii")
    with pytest.raises(DomainError):
        estimate_upsilon_q(x, table100, ctx, "NOPE")
    # REMC needs large y
    with pytest.raises(RegimeError):
        estimate_upsilon_q(x, table100, ctx, "REMC")


def test_upsilon_q_t1ii_t1iii_near_sqrtN():
    # push x near sqrt(N) so eta is small and T1ii/T1iii apply; y is kept
    # small so the exact count near sqrt(N) stays enumerable
    t = build_table(60)
    lx = t.psi_y / 2.02  # eta ~ 0.02
    x = math.exp(lx)
    ctx = modulus_context(6, t)
    e2 = estimate_upsilon_q(x, t, ctx, "T1ii")
    e3 = estimate_upsilon_q(x, t, ctx, "T1iii")
    assert math.isfinite(e2.log_main) and math.isfinite(e3.log_main)
    assert e3.factors["correction_T1iii"] > 0
    exact = count_ultrafriable(x, t, ctx)
    for e in (e2, e3):
        rec = compare(exact, e)
        assert abs(rec.rel_error) <= 1.0  # sanity; bands are calibrated elsewhere


def test_remc_large_y():
    t = build_table(1000)
    ctx = modulus_context(6, t)
    est = estimate_upsilon_q(10**6, t, ctx, "REMC")
    exact = count_ultrafriable(10**6, t, ctx)
    rec = compare(exact, est)
    assert abs(rec.rel_error) <= est.budget.stated_bound  # 1/u term dominates here


# ---------------------------------------------------------------------------
# T2
# ---------------------------------------------------------------------------

def test_t2_main_is_exact_friable():
    est = estimate_t2(10**6, 1000, 6)
    assert est.factors["psi_q_exact"] == 83464.0
    assert est.budget.stated_bound > 0


def test_t2_y_ge_x_no_gap():
    t = build_table(1100)
    ctx = modulus_context(1, t)
    ups = count_ultrafriable(1000, t, ctx)
    est = estimate_t2(1000, 1100, 1)
    assert ups == int(round(est.main))  # Psi = Upsilon when y >= x


def test_t2_regime_error(table100):
    with pytest.raises(RegimeError):
        estimate_t2(10**6, 100, 1)  # 100 < (log 1e6)^2.1


# ---------------------------------------------------------------------------
# progressions
# ---------------------------------------------------------------------------

def test_progression_q1(table100):
    ctx = modulus_context(1, table100)
    x = math.exp(25)
    est = estimate_progression(x, table100, ctx, 0, "T4")
    assert int(round(est.main)) == count_ultrafriable(x, table100, ctx)


def test_progression_noncoprime_redirect(table100):
    ctx = modulus_context(6, table100)
    with pytest.raises(NonCoprimeError):
        estimate_progression(math.exp(25), table100, ctx, 2, "T4")


def test_progression_t5(table100):
    t = build_table(1000)
    ctx = modulus_context(11, t)
    est = estimate_progression(10**6, t, ctx, 3, "T5")
    assert est.flags["q_in_theorem_range"]
    assert est.budget.stated_bound == pytest.approx(
        math.log(11) / ((math.log(10**6) / math.log(1000)) ** 0.1 * math.log(1000))
        + 1 / math.log(1000), rel=1e-12)


def test_noncoprime_d1_reduces_to_t4(table100):
    x = math.exp(30)
    ctx7 = modulus_context(7, table100)
    a = estimate_progression(x, table100, ctx7, 3, "T4")
    b = estimate_noncoprime(x, table100, 7, 3)
    assert a.log_main == pytest.approx(b.log_main, rel=1e-13)


def test_noncoprime_unsupported_cases(table100, table50):
    x = math.exp(30)
    with pytest.raises(UnsupportedCaseError,
                       match=r"^d=\(a,q\)=4 is not squarefree; case not treated$"):
        estimate_noncoprime(x, table100, 8, 4)
    with pytest.raises(UnsupportedCaseError, match=r"^\(q/d, d\) = 2 > 1; case not treated$"):
        estimate_noncoprime(x, table100, 12, 2)
    with pytest.raises(UnsupportedCaseError, match=r"^d=53 is not a y-ultrafriable integer <= x$"):
        estimate_noncoprime(x, table50, 106, 53)  # P+(d) = 53 > y = 50
    with pytest.raises(UnsupportedCaseError, match=r"^d=30 is not a y-ultrafriable integer <= x$"):
        estimate_noncoprime(20, table50, 30, 0)  # d = 30 > x


@pytest.mark.parametrize("q, a", [(6, 2), (30, 15), (210, 0)])
def test_noncoprime_h_d_is_the_product_over_the_primes_of_d(table100, q, a):
    est = estimate_noncoprime(math.exp(30), table100, q, a)
    beta, d = est.beta, math.gcd(a, q)
    nu = {p: table100.nu_of(p) for p in (2, 3, 5, 7) if d % p == 0}
    want = math.prod((1 - p ** (-n * beta)) / (1 - p ** (-(n + 1) * beta)) for p, n in nu.items())
    assert est.factors["h_d"] == pytest.approx(want, rel=1e-12)


def test_noncoprime_value(table50):
    from ultrafriable import count_ultrafriable_residues
    x = math.exp(25)
    est = estimate_noncoprime(x, table50, 6, 2)
    exact = count_ultrafriable_residues(x, table50, 6)[2]
    rec = compare(exact, est)
    assert abs(rec.rel_error) <= CONSTS["r6_dev_band"]


# ---------------------------------------------------------------------------
# each variant paired with its count
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_exact_count_is_the_count_each_variant_estimates(variant):
    table = build_table(30)
    ctx = modulus_context(6, table)
    a = {"T4": 5, "T5": 5, "R6": 2}.get(variant)
    expected = naive_oracle(10**4, 30, a=a, q=1 if variant == "UPS" else 6)
    assert exact_count(variant, 10**4, table, ctx, a) == expected


def test_readme_variant_table_names_every_variant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Estimator variants", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    names = [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]
    assert sorted(names) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", ["T4", "T5", "R6"])
def test_class_variant_without_a_class_is_a_domain_error(table100, variant):
    ctx = modulus_context(6, table100)
    for fn in (estimate, exact_count):
        with pytest.raises(DomainError, match="residue class"):
            fn(variant, math.exp(30), table100, ctx)


def test_unknown_variant_is_a_domain_error(table100):
    with pytest.raises(DomainError, match="unknown variant"):
        estimate("T9", math.exp(30), table100, modulus_context(6, table100))


def test_ups_estimate_is_t1i_at_q1(table100):
    x = math.exp(30)
    ups = estimate("UPS", x, table100, modulus_context(210, table100))
    assert ups == estimate_upsilon_q(x, table100, modulus_context(1, table100), "T1i")
    assert ups.budget.omega_q == 0 and ups.budget.dd_q == 0.0


# ---------------------------------------------------------------------------
# T3 diagnostics
# ---------------------------------------------------------------------------

def test_t3_rejects_principal(table100):
    ctx = modulus_context(5, table100)
    chi0 = [c for c in enumerate_characters(5) if c.is_principal][0]
    with pytest.raises(DomainError):
        t3_bound(math.exp(30), table100, ctx, chi0)


def test_t3_rejects_character_of_another_modulus(table100):
    chi = [c for c in enumerate_characters(5) if not c.is_principal][0]
    with pytest.raises(DomainError):
        t3_bound(math.exp(30), table100, modulus_context(7, table100), chi)


def test_t3_ratio_uses_coprime_classes_of_residue_vector(table100):
    x = math.exp(30)
    ctx = modulus_context(7, table100)
    chi = [c for c in enumerate_characters(7) if not c.is_principal][0]
    d = t3_bound(x, table100, ctx, chi)
    upsilon_q = count_ultrafriable(x, table100, ctx)
    assert d.exact_ratio == abs(character_sum(x, table100, chi)) / upsilon_q


def test_t3_bound_ordering_and_floor(table100):
    ctx = modulus_context(5, table100)
    chi = [c for c in enumerate_characters(5) if not c.is_principal][0]
    prev0 = None
    for lx in (22.0, 30.0, 40.0):
        d = t3_bound(math.exp(lx), table100, ctx, chi)
        assert d.bound_theta1 >= d.bound_theta0
        assert d.bound_theta0 > 1 / Y_eps(100)
        if prev0 is not None:
            assert d.bound_theta0 < prev0  # exponential term shrinks with u
        prev0 = d.bound_theta0
    # the floor: for u -> infinity the bound tends to 1/Y_eps
    assert math.isclose(
        math.exp(-0.1 * 1e6) + 1 / Y_eps(100), 1 / Y_eps(100), rel_tol=1e-12)


def test_t3_exact_ratio_small_nontrivial(table10):
    # chi mod 3 at full divisor range: sum over the 48 divisors is ~0
    ctx = modulus_context(3, table10)
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    # x=2520 is out of the saddle domain for y=10; use the exact ratio directly
    from ultrafriable import character_sum
    s = character_sum(2520, table10, chi)
    uq = count_ultrafriable(2520, table10, ctx)
    assert abs(s) / uq <= 1e-12


# ---------------------------------------------------------------------------
# compare records
# ---------------------------------------------------------------------------

def test_compare_examples(table10):
    est = estimate_t2(10**6, 1000, 6)  # any breakdown works for the record math
    exact = int(round(est.main))
    rec = compare(exact, est)
    assert rec.rel_error == pytest.approx(0.0, abs=1e-12)

    class Fake:
        log_main = math.log(50)
        budget = est.budget
    rec = compare(48, Fake())
    assert rec.rel_error == pytest.approx(-1 / 24, rel=1e-12)

    rec = compare(0, est)
    assert rec.degenerate


def test_estimates_positive_finite(table100):
    for lx in (20, 25, 30, 40):
        x = math.exp(lx)
        for q in (1, 6, 30):
            ctx = modulus_context(q, table100)
            est = estimate_upsilon_q(x, table100, ctx, "T1i")
            assert math.isfinite(est.log_main)
            assert est.budget.stated_bound > 0


def test_eps_c0_c2_are_fixed_constants():
    # every frozen band was calibrated at eps = 0.1, c0 = 0.25, c2 = 0.1
    for f in (Y_eps, L_eps, classify_regime, error_budget, estimate_upsilon, estimate_upsilon_q,
              estimate_t2, estimate_progression, estimate_noncoprime, t3_bound):
        assert not {"epsilon", "c0", "c2"} & set(inspect.signature(f).parameters), f.__name__
    table = build_table(100)
    with pytest.raises(TypeError):
        estimate_progression(math.exp(20), table, modulus_context(7, table), 1, c0=0.5)


@pytest.mark.parametrize("c1", [math.nan, math.inf, 0.0, -1.0])
def test_meaningless_c1_is_a_domain_error(table100, c1):
    # a nan, infinite, zero or negative c1 gives no bound: nan, the bare 1/Y_eps,
    # or an exp term that grows with u
    ctx = modulus_context(7, table100)
    x = math.exp(30)
    for call in (lambda: estimate("T4", x, table100, ctx, a=3, c1=c1),
                 lambda: estimate("R6", x, table100, modulus_context(6, table100), a=2, c1=c1),
                 lambda: estimate_progression(x, table100, ctx, 3, "T4", c1=c1),
                 lambda: t3_bound(x, table100, ctx, enumerate_characters(7)[1], c1=c1)):
        with pytest.raises(DomainError, match="c1"):
            call()


@pytest.mark.parametrize("call, error, message", [
    (lambda t: estimate_progression(1e6, t, modulus_context(7, t), 3, "T1i"), DomainError,
     "unknown variant 'T1i'"),
    (lambda t: t3_bound(1e30, t, modulus_context(7, t), enumerate_characters(7)[1]), RegimeError,
     "the character-sum bound needs the saddle domain psi(y) > 2 log x"),
])
def test_estimator_input_checks(table100, call, error, message):
    with pytest.raises(error) as ei:
        call(table100)
    assert str(ei.value) == message
