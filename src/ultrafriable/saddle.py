"""Saddle points, Dirichlet-series derivatives and arithmetic factors.

The generating series of the ultrafriable integers coprime to q is the
finite Euler product

    Z_q(s, y) = prod_{p<=y, p∤q} (1 - p^{-(nu_p+1)s}) / (1 - p^{-s}),

and its negated logarithmic derivative

    phi_1(s, y) = sum_p { log p/(p^s - 1) - (nu_p+1) log p/(p^{(nu_p+1)s} - 1) }

is strictly decreasing from psi(y)/2 at 0+ to 0, so the saddle equation
phi_1(beta, y) = log x has a unique root whenever psi(y) > 2 log x.  The
friable analogue alpha solves sum_p log p/(p^alpha - 1) = log x.

Numerics: phi_1 and the higher log-derivatives phi_j share one code path.
Their double series over (p, k) is summed in closed form per prime
(geometric k-sums), which equals the fully converged series.  Each summand
is a difference of two terms that both blow up like 1/s^j as s -> 0 while
the difference stays bounded, so below a crossover the code switches to a
pole-free Bernoulli expansion of w/(e^w - 1), differentiated j - 1 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import primes as pr
from .errors import DomainError, RegimeError

RESIDUAL_TOL = 1e-10
_SERIES_CUT = 0.5  # use the Bernoulli expansion when (nu+1) * s * log p <= this

# w/(e^w - 1) = 1 - w/2 + sum B_{2m} w^{2m}/(2m)!  ==>
# M_1(w) := 1/(e^w - 1) = 1/w - 1/2 + sum a_m w^{2m-1}
_M1_TERMS: list[tuple[int, Fraction]] = [
    (0, Fraction(-1, 2)),
    (1, Fraction(1, 12)),
    (3, Fraction(-1, 720)),
    (5, Fraction(1, 30240)),
    (7, Fraction(-1, 1209600)),
    (9, Fraction(1, 47900160)),
    (11, Fraction(-691, 1307674368000)),
]


def _dj_coeffs(j: int) -> list[tuple[int, float]]:
    """(exponent, coefficient) pairs of R_j, the regular part of M_j.

    M_j = (-d/dw)^{j-1} M_1 = (j-1)!/w^j + R_j(w), and a term a*w^e of M_1
    gives the term a * (-1)^{j-1} e(e-1)...(e-j+2) * w^{e-j+1} of R_j.  The
    poles cancel in D_j(w, m) = M_j(w) - m^j M_j(m w) = R_j(w) - m^j R_j(m w).
    """
    out = []
    for e, a in _M1_TERMS:
        fall = 1
        for t in range(j - 1):
            fall *= e - t
        if fall == 0:
            continue
        out.append((e - j + 1, float(a * fall * (-1) ** (j - 1))))
    return out


_DJ = {j: _dj_coeffs(j) for j in (1, 2, 3, 4)}


def _rj(j: int, z: np.ndarray) -> np.ndarray:
    """R_j(z) by Horner's rule; consecutive exponents in _DJ[j] differ by 1 or 2."""
    terms = _DJ[j]
    zpow = {1: z, 2: z * z}
    p, r = terms[-1]
    for pn, c in reversed(terms[:-1]):
        r = c + zpow[p - pn] * r
        p = pn
    return r * zpow[p] if p else r


def _mj_closed(j: int, w: np.ndarray) -> np.ndarray:
    """M_j(w) = sum_{k>=1} k^{j-1} e^{-kw}, via the geometric closed forms."""
    if j == 1:
        return 1.0 / np.expm1(w)
    t = np.exp(-w)
    om = -np.expm1(-w)  # 1 - e^{-w}
    if j == 2:
        return t / om**2
    if j == 3:
        return t * (1.0 + t) / om**3
    if j == 4:
        return t * (1.0 + 4.0 * t + t * t) / om**4
    raise DomainError(f"j={j} outside the implemented range 1..4")


def _dj(j: int, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """D_j(w, m) = M_j(w) - m^j M_j(m w), stable down to w -> 0."""
    W = m * w
    small = W <= _SERIES_CUT
    if not small.any():
        return _mj_closed(j, w) - m**j * _mj_closed(j, W)
    out = np.empty_like(w)
    big = ~small
    out[big] = _dj(j, w[big], m[big])  # no entry left in the series branch
    ws = w[small]
    r = _rj(j, np.concatenate((ws, W[small])))
    out[small] = r[:len(ws)] - m[small] ** j * r[len(ws):]
    return out


def _table_arrays(table: pr.PrimePowerTable, ctx: pr.ModulusContext | None):
    if ctx is None or not ctx.prime_divisors:
        return table.logp_arr, table.nu_arr.astype(np.float64)
    mask = table.mask_coprime(ctx.prime_divisors)
    return table.logp_arr[mask], table.nu_arr[mask].astype(np.float64)


# ---------------------------------------------------------------------------
# phi_j, j = 1..4 (summed double series)
# ---------------------------------------------------------------------------

def phi1(sigma: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> float:
    """phi_1(sigma, y) = sum of t/(e^w - 1) - (nu+1) t/(e^{(nu+1)w} - 1), w = sigma t;
    the same series as phi_j_q(1, sigma, table, ctx)."""
    return phi_j_q(1, sigma, table, ctx)


def phi1_limit_at_zero(table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> float:
    """phi_1(0+, y) = psi_q(y) / 2."""
    t, nu = _table_arrays(table, ctx)
    return float(np.dot(t, nu) / 2.0)


def phi_j_q(j: int, s: float, table: pr.PrimePowerTable,
            ctx: pr.ModulusContext | None = None) -> float:
    """phi_{j,q}(s, y): the j-th saddle derivative of log Z_q, j = 1..4.

    Computed from the absolutely convergent double series
    sum_{p, k} k^{j-1} (log p)^j [p^{-ks} - (nu_p+1)^j p^{-(nu_p+1)ks}],
    with the k-sums carried out in closed form (so the truncation error is
    zero) and a pole-cancelling expansion near s log p = 0.
    """
    if not 1 <= j <= 4:
        raise DomainError(f"need 1 <= j <= 4, got {j}")
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    t, nu = _table_arrays(table, ctx)
    w = s * t
    m = nu + 1.0
    return float(np.dot(t if j == 1 else t**j, _dj(j, w, m)))


def log_Z_q(s, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None):
    """log Z_q(s, y) with principal-branch logs; real and positive for real s."""
    if s.real <= 0:
        raise DomainError(f"need Re s > 0, got {s}")
    t, nu = _table_arrays(table, ctx)
    w = s * t
    W = (nu + 1.0) * w
    # log(1 - e^{-w}) = log(-expm1(-w)), which keeps its digits as |w| -> 0
    out = np.sum(np.log(-np.expm1(-W)) - np.log(-np.expm1(-w)))
    return complex(out) if isinstance(s, complex) else float(out)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleResult:
    """A solved saddle point with its self-certifying residual."""

    kind: str  # "ALPHA" or "BETA"
    sigma: float
    residual: float  # |equation mismatch| / log x
    sigma_j: dict[int, float] = field(default_factory=dict)
    iterations: int = 0


def _solve_decreasing(f, fprime, target: float, tol: float):
    """Root of the strictly decreasing f(sigma) = target on (0, inf).

    Brackets by doubling/halving, bisects to a short interval, then runs
    guarded Newton (fprime < 0), falling back to bisection when a step
    leaves the bracket.  Returns (sigma, residual, iterations).
    """
    lo = hi = 1.0
    it = 0
    while f(hi) > target:
        lo = hi
        hi *= 2.0
        it += 1
        if hi > 2.0**200:
            raise DomainError("no saddle bracket found (target too small)")
    while f(lo) <= target:
        hi = lo
        lo /= 2.0
        it += 1
        if lo < 2.0**-200:
            raise DomainError("no saddle bracket found (target too large)")
    # now f(lo) > target >= f(hi)
    for _ in range(40):
        if hi - lo <= 1e-3 * lo:
            break
        mid = 0.5 * (lo + hi)
        it += 1
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    fx = f(x)
    it += 1
    for _ in range(60):
        if abs(fx - target) <= tol:
            break
        step = (fx - target) / fprime(x)  # fprime < 0
        xn = x - step
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        fxn = f(xn)
        it += 1
        if fxn > target:
            lo = xn
        else:
            hi = xn
        x, fx = xn, fxn
    return x, fx, it


def solve_beta(x: float, table: pr.PrimePowerTable) -> SaddleResult:
    """Solve phi_1(beta, y) = log x in the small-y regime psi(y) > 2 log x.

    The result carries sigma_j = phi_j(beta, y) for j = 2, 3, 4 (modulus 1)
    and a residual certified against log x.
    """
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    lx = math.log(x)
    if table.psi_y <= 2.0 * lx:
        raise RegimeError(
            f"psi({table.y})={table.psi_y:.6g} <= 2 log x={2*lx:.6g}: the saddle "
            "equation has no root; apply the divisor-symmetry identity instead",
            phi1_limit=table.psi_y / 2.0,
        )
    f = lambda s: phi1(s, table)
    fp = lambda s: -phi_j_q(2, s, table)
    tol = 1e-13 * max(1.0, lx)
    beta, fb, it = _solve_decreasing(f, fp, lx, tol)
    return SaddleResult(
        kind="BETA",
        sigma=beta,
        residual=abs(fb - lx) / lx,
        sigma_j={j: phi_j_q(j, beta, table) for j in (2, 3, 4)},
        iterations=it,
    )


def _alpha_sum(sigma: float, table: pr.PrimePowerTable) -> float:
    return float(np.dot(table.logp_arr, _mj_closed(1, sigma * table.logp_arr)))


def _alpha_sum_deriv(sigma: float, table: pr.PrimePowerTable) -> float:
    t = table.logp_arr
    return -float(np.dot(t * t, _mj_closed(2, sigma * t)))


def solve_alpha(x: float, y: int) -> SaddleResult:
    """Solve sum_{p<=y} log p / (p^alpha - 1) = log x for the friable saddle."""
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    if x < y:
        raise DomainError(f"need x >= y, got x={x}, y={y}")
    table = pr.build_table(y)
    lx = math.log(x)
    tol = 1e-13 * max(1.0, lx)
    alpha, fa, it = _solve_decreasing(
        lambda s: _alpha_sum(s, table), lambda s: _alpha_sum_deriv(s, table), lx, tol
    )
    return SaddleResult(kind="ALPHA", sigma=alpha, residual=abs(fa - lx) / lx, iterations=it)


@lru_cache(maxsize=256)
def beta_cached(log_x: float, y: int) -> SaddleResult:
    """Memoised solve_beta keyed on (log x, y)."""
    return solve_beta(math.exp(log_x), pr.build_table(y))


# ---------------------------------------------------------------------------
# xi(v): e^xi = 1 + v xi
# ---------------------------------------------------------------------------

def xi(v: float) -> float:
    """The positive solution of e^xi = 1 + v*xi for v > 1, with xi(1) = 0.

    xi is the root of the decreasing log(z / expm1(z)) = -log v.  In logs
    the target keeps the digits that 1/v rounds away as v -> 1, where
    xi ~ 2(v - 1).  Past z = 700, where expm1(z) nears overflow, the log
    is log z - z to double precision.
    """
    if v < 1:
        raise DomainError(f"need v >= 1, got {v}")
    if v == 1:
        return 0.0
    lv = math.log(v)
    f = lambda z: math.log(z / math.expm1(z)) if z < 700.0 else math.log(z) - z
    fp = lambda z: 1.0 / z + 1.0 / math.expm1(-z)
    return _solve_decreasing(f, fp, -lv, 1e-14 * (1.0 + lv))[0]


# ---------------------------------------------------------------------------
# Gaussian factor and arithmetic factors
# ---------------------------------------------------------------------------

_ERFC_CUT = 26.0  # erfc(x) underflows near x = 26.5; the asymptotic series takes over here
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for doubles


def _exp_sq(t: float, c: float = 1.0) -> float:
    """exp(c t^2) for c a power of two, without rounding c t^2 to one double.

    Veltkamp's split t = hi + lo leaves hi 26 significant bits, so
    t^2 = hi*hi + (t + hi)*lo with hi*hi exact and the second term small.
    """
    s = _SPLIT * t
    hi = s - (s - t)
    lo = t - hi
    return math.exp(c * hi * hi) * math.exp(c * (t + hi) * lo)


def _erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for x >= 0.

    Below _ERFC_CUT it is exp(x^2) * erfc(x) with x^2 split exactly; from
    there on the asymptotic series 1/(x sqrt(pi)) * sum_k (-1)^k
    (2k-1)!!/(2x^2)^k, whose terms reach double precision within ten.
    """
    if x < _ERFC_CUT:
        return _exp_sq(x) * math.erfc(x)
    h = 0.5 / (x * x)
    total = term = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * h
        total += term
        k += 1
    return total / (x * math.sqrt(math.pi))


def gaussian_G(z: float) -> float:
    """G(z) = e^{z^2/2} * (upper Gaussian tail at z) = erfcx(z / sqrt(2)) / 2.

    For z >= 0 it is _erfcx(z / sqrt(2)) / 2, which never overflows and is
    well conditioned, so rounding z / sqrt(2) costs nothing.  For z < 0 it
    is the reflection G(z) = e^{z^2/2} - G(-z), with z^2/2 formed exactly
    from z itself (through x = z / sqrt(2), e^{x^2} would carry a relative
    error of z^2 ulp).  The relative error stays below 2e-15 for z >= -10.
    """
    if z < -10.0:
        raise DomainError(f"G evaluated outside the supported range z >= -10: {z}")
    if z < 0.0:
        return _exp_sq(z, 0.5) - gaussian_G(-z)
    return 0.5 * _erfcx(z / math.sqrt(2.0))


@dataclass(frozen=True)
class ArithmeticFactors:
    """Euler-product correction factors at a real point s > 0.

    For real s > 0 each factor of g_q lies in (0, 1], so g_q in (0, 1];
    gamma1_q = (log g_q)'(s) >= 0 and gamma2_q = (log g_q)''(s) <= 0.
    """

    s: float
    g_q: float
    f_q: float
    gamma1_q: float
    gamma2_q: float
    h_d: float | None = None


_GAMMA_CROSSOVER = 1e-6  # use the s -> 0 limits below s * log y < this


def arithmetic_factors(s: float, ctx: pr.ModulusContext, table: pr.PrimePowerTable,
                       d: int | None = None) -> ArithmeticFactors:
    """g_q, f_q, gamma_q', gamma_q'' (and h_d for a squarefree divisor d | q)."""
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    ctx.require_p_plus_le_y()
    ps = np.array(ctx.prime_divisors, dtype=np.float64)
    nus = np.array(ctx.nu_divisors, dtype=np.float64)
    if len(ps) == 0:
        g = f = 1.0
        g1 = g2 = 0.0
    else:
        t = np.log(ps)
        w = s * t
        W = (nus + 1.0) * w
        g = float(np.prod(np.expm1(-w) / np.expm1(-W)))
        f = float(np.prod(-np.expm1(-w)))
        if s * math.log(table.y) < _GAMMA_CROSSOVER:
            g1 = 0.5 * float(np.dot(nus, t))
            g2 = -float(np.dot(nus * (nus + 2.0), t * t)) / 12.0
        else:
            m = nus + 1.0
            g1 = float(np.dot(t, _dj(1, w, m)))
            g2 = -float(np.dot(t * t, _dj(2, w, m)))
    h = None
    if d is not None:
        dfac = pr.factorize(d)
        if any(e > 1 for e in dfac.values()):
            raise DomainError(f"h_d needs squarefree d, got d={d}")
        dp = np.array(sorted(dfac), dtype=np.float64)
        dnu = np.array([table.nu_of(int(p)) for p in sorted(dfac)], dtype=np.float64)
        if np.any(dnu == 0):
            raise DomainError(f"h_d needs P+(d) <= y, got d={d}, y={table.y}")
        t = np.log(dp)
        h = float(np.prod(np.expm1(-dnu * s * t) / np.expm1(-(dnu + 1.0) * s * t)))
    return ArithmeticFactors(s=s, g_q=g, f_q=f, gamma1_q=g1, gamma2_q=g2, h_d=h)
