"""Main-term formulas and structured error budgets.

Each estimator returns an EstimateBreakdown whose main term is kept in
natural-log space (the counts can overflow any fixed-width float) together
with the named multiplicative factors and an ErrorBudget carrying the
theorem's error expression.  The statements hold for a fixed eps > 0 with
unnamed absolute constants c0, c1, c2: eps (``primes.EPSILON``), c0 and c2
are fixed at the values the frozen bands were calibrated at (calibration.py),
and c1 stays a keyword, as the T3 ceiling is also evaluated at ``t3_c1``.

Reference factors at desk scale (the exact counts Upsilon_q, Psi_q and the
per-class counts) are taken from the exact engines rather than a second
level of asymptotics, which isolates the statement under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from . import counting as ct
from . import primes as pr
from . import saddle as sd
from .errors import DomainError, NonCoprimeError, RegimeError, UnsupportedCaseError

C0 = 0.25
DEFAULT_C1 = 0.1
C2 = 0.1
T1III_ETA_SQRT_U = 0.2

VARIANTS_UPSILON_Q = ("T1i", "T1ii", "T1iii", "REMC")
VARIANTS_PROGRESSION = ("T4", "T5")
# every theorem variant that ``estimate`` and ``exact_count`` pair up
VARIANTS = (*VARIANTS_UPSILON_Q, "T2", *VARIANTS_PROGRESSION, "R6", "UPS")


def Y_eps(y: float) -> float:
    """The quality threshold exp((log y)^{3/2 - eps})."""
    return math.exp(math.log(y) ** (1.5 - pr.EPSILON))


def L_eps(y: float) -> float:
    """The saddle-approximation threshold exp((log y)^{3/5 - eps})."""
    return math.exp(math.log(y) ** (0.6 - pr.EPSILON))


# ---------------------------------------------------------------------------
# error budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBudget:
    """The quantities entering the theorem error terms for (x, y, q)."""

    u: float
    eta: float
    omega_q: int
    theta_q: float
    delta_q: float
    delta_q_alt: float  # the non-selected branch, for inspection
    dd_q: float  # min(omega(q), delta_q)
    cc_q: float  # min(omega(q), delta_q^2)
    regime: pr.RegimeTag
    stated_bound: float = math.nan  # a theorem variant's, stated by _budget


def _delta_branch_small(lx: float, ly: float, theta: float, eta: float) -> float:
    # (log x)^theta / log y * (1 + 1/(theta log(1+eta)))
    if eta <= 0:
        return math.nan
    return lx**theta / ly * (1.0 + 1.0 / (theta * math.log1p(eta)))


def _delta_branch_large(u: float, theta: float) -> float:
    # theta (u log 2u)^theta / (1 + theta log 2u); undefined (nan) where
    # u log 2u < 0, i.e. u < 1/2, as a fractional power of it is not real
    if u < 0.5:
        return math.nan
    l2u = math.log(2.0 * u)
    return theta * (u * l2u) ** theta / (1.0 + theta * l2u)


# Each (x, y, q) point is evaluated once for all of its variant rows: the
# budget cells and the main-term factors are cached per point, keyed on y and
# q as every table is build_table(y).  2048 points hold a CLI sweep of 1,200
# (x, y, q) points, whose variant axis (outermost) revisits every one.
_POINTS = 2048


def error_budget(x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext) -> ErrorBudget:
    """Delta_q, D_q, C_q and friends for (x, y, q), computed once per point.

    The stated bound is left at nan: estimators do not attach their own, as
    ``_budget`` checks each theorem variant's domain and states its bound.

    Branch rule: the two Delta_q expressions overlap around y = (log x)^2;
    the first (small-y) branch is selected iff psi(y) <= (log x)^2 and the
    saddle domain 2 log x < psi(y) holds; the other branch's value is kept
    alongside for inspection.
    """
    return _budget_cells(x, table.y, ctx.q)


@lru_cache(maxsize=_POINTS)
def _budget_cells(x: float, y: int, q: int) -> ErrorBudget:
    table = pr.build_table(y)
    ctx = pr.modulus_context(q, table)
    regime = pr.classify_regime(x, table)
    lx = math.log(x)
    ly = math.log(y)
    u = regime.u
    eta = table.psi_y / lx - 2.0
    theta = ctx.theta_q
    b_small = _delta_branch_small(lx, ly, theta, eta)
    b_large = _delta_branch_large(u, theta)
    if regime.small_y and table.psi_y <= lx * lx:
        delta, alt = b_small, b_large
    else:
        delta, alt = b_large, b_small
    omega = ctx.omega_q
    return ErrorBudget(
        u=u,
        eta=eta,
        omega_q=omega,
        theta_q=theta,
        delta_q=delta,
        delta_q_alt=alt,
        dd_q=min(float(omega), delta) if delta == delta else float(omega),
        cc_q=min(float(omega), delta * delta) if delta == delta else float(omega),
        regime=regime,
    )


class MainFactors(NamedTuple):
    """The saddle main term's factors at (log x, y, q), shared by its variants."""

    beta: float
    sigma2: float
    log_zq: float  # log Z_q(beta, y)
    log_g: float  # log G(beta sqrt(sigma2))
    log_gq: float  # log g_q(beta)


@lru_cache(maxsize=_POINTS)
def _main_factors(log_x: float, y: int, q: int) -> MainFactors:
    """The root and sigma_2 of (log x, y), and the modulus's factors there."""
    table = pr.build_table(y)
    ctx = pr.modulus_context(q, table)
    res = sd.beta_cached(log_x, y)
    beta, s2 = res.sigma, res.sigma_j[2]
    return MainFactors(beta, s2, sd.log_Z_q(beta, table, ctx),
                       math.log(sd.gaussian_G(beta * math.sqrt(s2))),
                       math.log(sd.g_q(beta, ctx, table)))


# ---------------------------------------------------------------------------
# estimate records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateBreakdown:
    """A log-space main term with its multiplicative factors and budget."""

    theorem_tag: str
    log_main: float
    factors: dict[str, float]
    budget: ErrorBudget
    beta: float | None = None
    sigma2: float | None = None
    flags: dict[str, bool] = field(default_factory=dict)

    @property
    def main(self) -> float:
        return math.exp(self.log_main)


@dataclass(frozen=True)
class ComparisonRecord:
    """Exact count vs estimate, with the error measured against the budget."""

    exact: int
    log_exact: float
    log_main: float
    rel_error: float  # (exact - main) / exact, in log space
    budget: float
    error_over_budget: float
    degenerate: bool = False


def compare(exact: int, est: EstimateBreakdown) -> ComparisonRecord:
    """Relative error of an estimate against an exact count, in log space."""
    if exact <= 0:
        return ComparisonRecord(
            exact=exact, log_exact=math.nan, log_main=est.log_main,
            rel_error=math.nan, budget=est.budget.stated_bound,
            error_over_budget=math.nan, degenerate=True,
        )
    log_exact = math.log(exact)
    rel = -math.expm1(est.log_main - log_exact)  # 1 - main/exact
    bud = est.budget.stated_bound
    return ComparisonRecord(
        exact=exact,
        log_exact=log_exact,
        log_main=est.log_main,
        rel_error=rel,
        budget=bud,
        error_over_budget=abs(rel) / bud if bud and bud == bud else math.nan,
    )


# ---------------------------------------------------------------------------
# each theorem variant's domain and stated budget
# ---------------------------------------------------------------------------

def _check_c1(c1: float):
    """c1 scales u in exp(-c1 u / ...): only a finite c1 > 0 gives a bound."""
    if not (math.isfinite(c1) and c1 > 0):
        raise DomainError(f"need a finite c1 > 0, got {c1}")


def _budget(variant: str, x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext,
            c1: float = DEFAULT_C1) -> ErrorBudget:
    """The error budget of a variant at (x, y, q) with its stated bound, once x
    is in the variant's domain: P+(q) <= y, the large-y regime for REMC, T2 and
    T5 and the saddle domain for the rest, and the eta conditions of T1ii and
    T1iii.  R6 passes the reduced problem's x/d, so its cells are those of (x/d, y).
    """
    _check_c1(c1)
    ctx.require_p_plus_le_y()
    bud = error_budget(x, table, ctx)
    u, eta, omega = bud.u, bud.eta, bud.omega_q
    ly = math.log(table.y)
    if variant in ("REMC", "T2", "T5"):
        if not bud.regime.large_y:
            raise RegimeError(f"{variant} needs y >= (log x)^(2+eps)")
    elif not bud.regime.small_y:
        raise RegimeError(f"{variant} needs the saddle domain psi(y) > 2 log x")
    if variant == "T1ii" and eta > 0.5:
        raise DomainError(f"T1ii needs eta <= 1/2, got eta={eta:.4g}")
    if variant == "T1iii" and eta * math.sqrt(u) >= T1III_ETA_SQRT_U:
        raise DomainError(
            f"T1iii needs eta*sqrt(u) < {T1III_ETA_SQRT_U}, got {eta * math.sqrt(u):.4g}"
        )

    if variant == "T1i":
        dq = bud.dd_q
        stated = (1.0 + dq * dq) / u + dq * (1.0 + eta) / (math.sqrt(u) + eta * u)
    elif variant == "T1ii":
        stated = omega * (1.0 + eta) / (math.sqrt(u) + eta * u) + (1.0 + omega * omega) / u
    elif variant == "T1iii":
        stated = eta * omega + math.log(ctx.q) / (math.sqrt(u) * ly) + omega * omega / u
    elif variant in ("T4", "R6"):
        lu = math.log(max(u, 1.0 + 1e-12))
        stated = math.exp(-c1 * u / lu**4) + 1.0 / Y_eps(table.y)
    elif variant == "T5":
        stated = math.log(ctx.q) / (u**C2 * ly) + 1.0 / ly
    else:  # T2, the ultrafriable/friable gap, and REMC, the gap beside the saddle's 1/u
        stated = ctx.q * u * math.log(2.0 * u) / (ctx.phi_q * math.sqrt(table.y) * ly)
        if variant == "REMC":
            stated += 1.0 / u
    # one constructor call: dataclasses.replace takes half again as long
    return ErrorBudget(u=u, eta=eta, omega_q=omega, theta_q=bud.theta_q, delta_q=bud.delta_q,
                       delta_q_alt=bud.delta_q_alt, dd_q=bud.dd_q, cc_q=bud.cc_q,
                       regime=bud.regime, stated_bound=stated)


# ---------------------------------------------------------------------------
# Upsilon estimates (small-y saddle main terms)
# ---------------------------------------------------------------------------

def estimate_upsilon(x: float, table: pr.PrimePowerTable) -> EstimateBreakdown:
    """Saddle main term for the global count, x^beta Z(beta, y) G(beta sqrt(sigma2)):
    the T1i estimate at q = 1, whose budget is 1/u since D_1 = 0."""
    return estimate_upsilon_q(x, table, pr.modulus_context(1, table), "T1i")


def estimate_upsilon_q(x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext,
                       variant: str = "T1i") -> EstimateBreakdown:
    """Saddle main term for the coprime count, x^beta Z_q(beta, y) G(beta sqrt(sigma2)).

    Variants select the error budget:
      T1i   -- (1+D_q^2)/u + D_q(1+eta)/(sqrt(u)+eta u);
      T1ii  -- needs eta <= 1/2; omega(1+eta)/(sqrt(u)+eta u) + (1+omega^2)/u;
      T1iii -- needs eta sqrt(u) small; the main term gains the explicit
               correction (1 + omega/sqrt(pi u)), budget
               eta*omega + log q/(sqrt(u) log y) + omega^2/u;
      REMC  -- the same main term in the complementary large-y domain,
               budget q u log 2u/(phi(q) sqrt(y) log y) + 1/u.
    The upper regime bound psi(y) << (log x)^3 and omega(q) <= sqrt(y)/log y
    are recorded as flags, not enforced.
    """
    if variant not in VARIANTS_UPSILON_Q:
        raise DomainError(f"unknown variant {variant!r}")
    bud = _budget(variant, x, table, ctx)
    lx = math.log(x)
    ly = math.log(table.y)
    omega = ctx.omega_q
    f = _main_factors(lx, table.y, ctx.q)

    correction = math.log1p(omega / math.sqrt(math.pi * bud.u)) if variant == "T1iii" else 0.0
    factors = {
        "x_pow_beta": f.beta * lx,
        "Z_q_beta": f.log_zq,
        "G_factor": f.log_g,
        "g_q_beta": f.log_gq,
        "correction_T1iii": correction,
    }
    flags = {"psi_below_cube": table.psi_y <= lx**3,
             "omega_small_vs_sqrt_y": omega <= math.sqrt(table.y) / ly}
    return EstimateBreakdown(
        theorem_tag=variant,
        log_main=f.beta * lx + f.log_zq + f.log_g + correction,
        factors=factors,
        budget=bud,
        beta=f.beta,
        sigma2=f.sigma2,
        flags=flags,
    )


def estimate_t2(x: float, y: int, q: int) -> EstimateBreakdown:
    """Large-y estimate of Upsilon_q by the exact friable count Psi_q.

    stated_bound = q u log 2u / (phi(q) sqrt(y) log y).  The friable count is
    exact (desk scale), so the record isolates the ultrafriable/friable gap.
    """
    table = pr.build_table(y)
    ctx = pr.modulus_context(q, table)
    bud = _budget("T2", x, table, ctx)
    psi_q_exact = ct.count_friable(x, y, q)
    return EstimateBreakdown(
        theorem_tag="T2",
        log_main=math.log(psi_q_exact),
        factors={"psi_q_exact": float(psi_q_exact)},
        budget=bud,
        flags={"omega_small_vs_sqrt_y": ctx.omega_q <= math.sqrt(y)},
    )


def estimate_progression(x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext, a: int,
                         variant: str = "T4", c1: float = DEFAULT_C1, *,
                         classes: bool = False) -> EstimateBreakdown:
    """Equidistribution main term Upsilon_q(x, y) / phi(q) for a coprime class.

    T4 (small y): budget exp(-c1 u/(log u)^4) + 1/Y_eps, with the domain
    condition q <= y^(c0/log log y) recorded as a flag (it is vacuous at
    desk scale).  T5 (large y): budget log q/(u^c2 log y) + 1/log y, with
    q <= sqrt(y) flagged likewise.

    Upsilon_q is a plain count, or with classes=True the coprime total of
    the cached class vector mod q, which the exact class count of a
    ``compare`` row reads next: one vector serves both.
    """
    if variant not in VARIANTS_PROGRESSION:
        raise DomainError(f"unknown variant {variant!r}")
    if math.gcd(a, ctx.q) != 1:
        raise NonCoprimeError(
            f"(a, q) = {math.gcd(a, ctx.q)} > 1: use estimate_noncoprime for this class"
        )
    bud = _budget(variant, x, table, ctx, c1)
    y = table.y
    q_ok = ctx.q <= (y ** (C0 / math.log(math.log(y))) if variant == "T4" else math.sqrt(y))
    if classes:
        upsilon_q = ct.count_ultrafriable_residues(x, table, ctx.q).coprime_total()
    else:
        upsilon_q = ct.count_ultrafriable(x, table, ctx)
    beta = s2 = None
    if bud.regime.small_y:
        res = sd.beta_cached(math.log(x), y)
        beta, s2 = res.sigma, res.sigma_j[2]
    return EstimateBreakdown(
        theorem_tag=variant,
        log_main=math.log(upsilon_q) - math.log(ctx.phi_q),
        factors={"upsilon_q_exact": float(upsilon_q), "phi_q": float(ctx.phi_q)},
        budget=bud,
        beta=beta,
        sigma2=s2,
        flags={"q_in_theorem_range": bool(q_ok)},
    )


def estimate_noncoprime(x: float, table: pr.PrimePowerTable, q: int, a: int,
                        c1: float = DEFAULT_C1) -> EstimateBreakdown:
    """Progression estimate for d = (a, q) > 1 in the supported split case.

    Needs d squarefree, (q/d, d) = 1 and d itself y-ultrafriable and <= x;
    the main term is h_d(beta) Upsilon_{q/d}(x/d, y) / phi(q/d) with the
    T4-style budget.  The saddle is solved for the reduced problem (x/d, y):
    writing n = d*m turns the count into one over m <= x/d with a modified
    series Z_{q/d} * h_d, so x/d is where its saddle lives (asymptotically
    interchangeable with the saddle at x, but defined on a slightly larger
    domain).
    """
    d = math.gcd(a, q)
    ctx_d = pr.modulus_context(d, table)
    if math.prod(ctx_d.prime_divisors) != d:
        raise UnsupportedCaseError(f"d=(a,q)={d} is not squarefree; case not treated")
    if math.gcd(q // d, d) != 1:
        raise UnsupportedCaseError(f"(q/d, d) = {math.gcd(q // d, d)} > 1; case not treated")
    if not ctx_d.p_plus_le_y or d > x:
        raise UnsupportedCaseError(f"d={d} is not a y-ultrafriable integer <= x")
    # an integer x is divided exactly: x / d overflows a float past 1.8e308
    bud = _budget("R6", x // d if isinstance(x, int) else x / d, table,
                  pr.modulus_context(q, table), c1)
    res = sd.beta_cached(math.log(x) - math.log(d), table.y)
    beta = res.sigma
    h_d = sd.arithmetic_factors(beta, ctx_d, table, d=d).h_d
    ctx_qd = pr.modulus_context(q // d, table)
    ups = ct.count_ultrafriable(ct._floor_bound(x) // d, table, ctx_qd)
    return EstimateBreakdown(
        theorem_tag="R6",
        log_main=math.log(h_d) + math.log(ups) - math.log(ctx_qd.phi_q),
        factors={"h_d": h_d, "upsilon_qd_exact": float(ups), "phi_qd": float(ctx_qd.phi_q)},
        budget=bud,
        beta=beta,
        sigma2=res.sigma_j[2],
        flags={"d": True},
    )


# ---------------------------------------------------------------------------
# each theorem variant paired with the count it estimates
# ---------------------------------------------------------------------------

def _residue_class(variant: str, a: int | None) -> int:
    if a is None:
        raise DomainError(f"{variant} needs a residue class a")
    return a


def estimate(variant: str, x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext,
             a: int | None = None, c1: float = DEFAULT_C1, *,
             classes: bool = False) -> EstimateBreakdown:
    """The estimate of a variant at (x, y, q): of the class a mod q for T4, T5 and R6,
    and for UPS the T1i one at q = 1 whatever ctx is, so its budget reads omega_q = 0.
    classes=True, for a row that also counts the class (``exact_count``), has T4
    and T5 read Upsilon_q from the same class vector."""
    if variant == "UPS":
        return estimate_upsilon(x, table)
    if variant == "T2":
        return estimate_t2(x, table.y, ctx.q)
    if variant == "R6":
        return estimate_noncoprime(x, table, ctx.q, _residue_class(variant, a), c1)
    if variant in VARIANTS_PROGRESSION:
        return estimate_progression(x, table, ctx, _residue_class(variant, a), variant, c1,
                                    classes=classes)
    return estimate_upsilon_q(x, table, ctx, variant)  # a DomainError for an unknown variant


def exact_count(variant: str, x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext,
                a: int | None = None) -> int:
    """The count a variant estimates: the class a mod q for T4, T5 and R6,
    Upsilon(x, y) (q = 1) for UPS, and Upsilon_q(x, y) for the rest."""
    if variant in (*VARIANTS_PROGRESSION, "R6"):
        return ct.count_ultrafriable_residues(x, table, ctx.q)[_residue_class(variant, a)]
    return ct.count_ultrafriable(x, table, pr.modulus_context(1, table) if variant == "UPS" else ctx)


# ---------------------------------------------------------------------------
# character-sum bound diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class T3Diagnostic:
    """Both versions of the character-sum bound next to the exact ratio.

    theta = 1 models a possible exceptional real character (never detected
    here -- the artifact fixes theta = 0 and reports both right sides).
    """

    bound_theta0: float
    bound_theta1: float
    exact_ratio: float
    u: float
    regime: pr.RegimeTag


def t3_bound(x: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext, chi,
             c1: float = DEFAULT_C1) -> T3Diagnostic:
    """Evaluate the nonprincipal character-sum bound for theta in {0, 1}.

    Pairs exp(-c1 u / (1 + theta (log u)^4)) + 1/Y_eps with the exact ratio
    |sum chi(n)| / Upsilon_q, both from the one cached residue vector: its
    coprime classes add up to Upsilon_q.
    """
    _check_c1(c1)
    if chi.is_principal:
        raise DomainError("the character-sum bound concerns nonprincipal characters")
    if chi.modulus != ctx.q:
        raise DomainError(f"the character is mod {chi.modulus}, the context mod {ctx.q}")
    regime = pr.classify_regime(x, table)
    if not regime.small_y:
        raise RegimeError("the character-sum bound needs the saddle domain psi(y) > 2 log x")
    u = regime.u
    lu4 = math.log(max(u, 1.0 + 1e-12)) ** 4
    inv_y = 1.0 / Y_eps(table.y)
    b0 = math.exp(-c1 * u) + inv_y
    b1 = math.exp(-c1 * u / (1.0 + lu4)) + inv_y
    ctx.require_p_plus_le_y()
    s = ct.character_sum(x, table, chi)
    uq = ct.count_ultrafriable_residues(x, table, ctx.q).coprime_total()
    return T3Diagnostic(bound_theta0=b0, bound_theta1=b1,
                        exact_ratio=abs(s) / uq, u=u, regime=regime)
