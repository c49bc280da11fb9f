"""Saddle points, Dirichlet-series derivatives and arithmetic factors.

The generating series of the ultrafriable integers coprime to q is the
finite Euler product

    Z_q(s, y) = prod_{p<=y, p∤q} (1 - p^{-(nu_p+1)s}) / (1 - p^{-s}),

and its negated logarithmic derivative

    phi_1(s, y) = sum_p { log p/(p^s - 1) - (nu_p+1) log p/(p^{(nu_p+1)s} - 1) }

is strictly decreasing from psi(y)/2 at 0+ to 0, so the saddle equation
phi_1(beta, y) = log x has a unique root whenever psi(y) > 2 log x.  The
friable analogue alpha solves sum_p log p/(p^alpha - 1) = log x.

Numerics: one fused kernel, ``_phi``, returns phi_j(s) for the j in 1..4
that a caller asks for, from one pass over the primes.  Their double series
over (p, k) is summed in closed form per prime (geometric k-sums): with
r = 1/(e^w - 1), M_j(w) = sum_k k^{j-1} e^{-kw} is a polynomial in r, which
equals the fully converged series.  Each summand is a difference of two
terms that both blow up like 1/s^j as s -> 0 while the difference stays
bounded, so on the entries below a crossover the kernel switches to a
pole-free Bernoulli expansion of w/(e^w - 1), differentiated j - 1 times.
The arrays (log p, nu_p + 1) and their powers are built once per
(y, primes of q) and cached read-only.

Roots: every saddle equation is solved by one safeguarded Newton iteration
(``_newton``) that takes f and f' from one kernel pass per step.  Alpha
starts from the paper's own approximation 1 - xi(u)/log y.  Beta starts
from memoised nodes of its approximation log(1 + eta)/log y, eta =
psi(y)/log x - 2: node k of y is that start at eta_k = 10^(k/D), with D
nodes per decade, and holds phi_1 and phi_2 there from one kernel pass,
made on first use.  The two nodes whose phi_1 bracket log x are found from
floor(D log10 eta) in at most one step, and Newton starts at the cubic
Hermite interpolant of log s over log eta between them, which takes about
2.9 Newton evaluations a solve where the calibrated start took 4.8.
Without a bracket within one step, Newton starts at log(1 + eta)/log y
itself.  Since phi_1 decreases, the bracket is unique, so a start depends
on (log x, y) alone and never on which solves came before.
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


def _m1(w: np.ndarray) -> np.ndarray:
    """M_1(w) = 1/(e^w - 1), as e^{-w}/(1 - e^{-w}) so that no w overflows."""
    return np.exp(-w) / -np.expm1(-w)


def _mj(r: np.ndarray, js: tuple[int, ...]) -> list[np.ndarray]:
    """M_j(w) = sum_{k>=1} k^{j-1} e^{-kw} for each j in js, from r = M_1(w).

    M_{j+1} = -dM_j/dw and dr/dw = -r(1 + r) give r(1 + r), r(1 + r)(1 + 2r)
    and r(1 + r)(1 + 6r(1 + r)) for j = 2, 3, 4: sums of positive terms.
    """
    r2 = r * (1.0 + r) if max(js) > 1 else r
    forms = {1: r, 2: r2}
    if 3 in js:
        forms[3] = r2 * (1.0 + 2.0 * r)
    if 4 in js:
        forms[4] = r2 * (1.0 + 6.0 * r2)
    return [forms[j] for j in js]


@dataclass(frozen=True)
class _Series:
    """The primes of one Euler product as stacked read-only arrays.

    ``z1`` holds log p in its first half and (nu_p + 1) log p in its
    second, so s * z1 holds every (w, W) of D_j(w, nu_p + 1) =
    M_j(w) - (nu_p+1)^j M_j(W).  With the signed weights
    c[j] = ((log p)^j, -((nu_p + 1) log p)^j), phi_j(s) is the dot product
    of c[j] with M_j(s * z1).  With no primes both are empty, and every
    phi_j is 0.0.
    """

    z1: np.ndarray
    c: dict[int, np.ndarray]


@lru_cache(maxsize=256)
def _series(y: int, q_primes: tuple[int, ...], coprime: bool = True) -> _Series:
    """The primes p <= y coprime to q (or, with coprime=False, dividing q).

    Built from ``build_table(y)``, which every table in the package comes from.
    """
    table = pr.build_table(y)
    mask = table.mask_coprime(q_primes)
    if not coprime:
        mask = ~mask
    t = table.logp_arr[mask]
    nu = table.nu_arr[mask].astype(np.float64)
    z1 = np.concatenate((t, (nu + 1.0) * t))
    sign = np.concatenate((np.ones_like(t), -np.ones_like(t)))
    c = {j: sign * z1**j for j in (1, 2, 3, 4)}
    for arr in (z1, *c.values()):
        arr.flags.writeable = False
    return _Series(z1=z1, c=c)


def _q_primes(ctx: pr.ModulusContext | None) -> tuple[int, ...]:
    return ctx.prime_divisors if ctx is not None else ()


def _regular(z: np.ndarray, js: tuple[int, ...]) -> list[np.ndarray]:
    """R_j(z) for each j in js, by Horner's rule.

    Consecutive exponents in _DJ[j] differ by 1 or 2.
    """
    zpow = {1: z, 2: z * z}
    out = []
    for j in js:
        terms = _DJ[j]
        p, r = terms[-1]
        for pn, c in reversed(terms[:-1]):
            r = c + zpow[p - pn] * r
            p = pn
        out.append(r * zpow[p] if p else r)
    return out


def _phi(s: float, ser: _Series, js: tuple[int, ...]) -> list[float]:
    """phi_j(s) for each j in js, from one pass over the stacked (w, W).

    Where a prime's W = (nu_p + 1) s log p exceeds _SERIES_CUT both of its
    entries take the closed form M_j; elsewhere both take the regular part
    R_j, since with m = nu_p + 1 the poles of M_j(w) - m^j M_j(m w) cancel
    and leave R_j(w) - m^j R_j(m w).
    """
    z = s * ser.z1
    n = len(z) // 2
    small = z[n:] <= _SERIES_CUT
    n_small = int(np.count_nonzero(small))
    if n_small == n:
        forms = _regular(z, js)
    else:
        # some W > 1/2 bounds s below, so no closed form overflows
        forms = _mj(_m1(z), js)
        if n_small:
            both = np.concatenate((small, small))
            for f, reg in zip(forms, _regular(z[both], js)):
                f[both] = reg
    return [float(np.dot(ser.c[j], f)) for j, f in zip(js, forms)]


# ---------------------------------------------------------------------------
# phi_j, j = 1..4 (summed double series)
# ---------------------------------------------------------------------------

def phi1(sigma: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> float:
    """phi_1(sigma, y) = sum of t/(e^w - 1) - (nu+1) t/(e^{(nu+1)w} - 1), w = sigma t;
    the same series as phi_j_q(1, sigma, table, ctx)."""
    return phi_j_q(1, sigma, table, ctx)


def phi1_limit_at_zero(table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> float:
    """phi_1(0+, y) = psi_q(y) / 2."""
    return (table.psi_y if ctx is None else pr.psi_q(table, ctx)) / 2.0


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
    return _phi(s, _series(table.y, _q_primes(ctx)), (j,))[0]


def log_Z_q(s, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None):
    """log Z_q(s, y) with principal-branch logs; real and positive for real s."""
    if s.real <= 0:
        raise DomainError(f"need Re s > 0, got {s}")
    z = s * _series(table.y, _q_primes(ctx)).z1
    n = len(z) // 2
    # log(1 - e^{-w}) = log(-expm1(-w)), which keeps its digits as |w| -> 0
    logs = np.log(-np.expm1(-z))
    out = np.sum(logs[n:] - logs[:n])
    return complex(out) if isinstance(s, complex) else float(out)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleResult:
    """A solved saddle point with its self-certifying residual.

    A beta carries sigma_j = {2: sigma_2}, the derivative its last Newton
    step already has; sigma_3 and sigma_4 are phi_j_q(3 | 4, beta, table).
    """

    kind: str  # "ALPHA" or "BETA"
    sigma: float
    residual: float  # |equation mismatch| / log x
    sigma_j: dict[int, float] = field(default_factory=dict)
    iterations: int = 0


_MAX_STEPS = 100  # a cap only: bisection alone halves the bracket in each step


def _newton(fdf, target: float, start: float, tol: float):
    """Root of the strictly decreasing f(s) = target on (0, inf), from start.

    fdf(s) returns (f(s), f'(s)) with f' < 0.  Each step tightens a bracket
    [lo, hi) that starts at (0, inf): f > target puts the root above s, and
    f < target below.  A Newton step that leaves the bracket is replaced by
    bisection, or by doubling while hi is still infinite.  Stops once
    |f(s) - target| <= tol.  Returns (s, f(s), f'(s), evaluations).
    """
    lo, hi = 0.0, math.inf
    s = start
    for steps in range(1, _MAX_STEPS + 1):
        f, fp = fdf(s)
        if abs(f - target) <= tol:
            break
        if f > target:
            lo = s
        else:
            hi = s
        nxt = s - (f - target) / fp
        if not lo < nxt < hi:
            nxt = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if nxt == s:  # the bracket has shrunk to one double
            break
        s = nxt
    return s, f, fp, steps


_NODES_PER_DECADE = 2  # beta start nodes per decade of eta


@lru_cache(maxsize=4096)
def _beta_node(y: int, k: int) -> tuple[float, float, float]:
    """(s, phi_1(s), phi_2(s)) at node k of y: the calibrated start
    s = log(1 + eta)/log y of eta = 10^(k / _NODES_PER_DECADE), modulus 1."""
    s = math.log1p(10.0 ** (k / _NODES_PER_DECADE)) / math.log(y)
    return (s, *_phi(s, _series(y, ()), (1, 2)))


def _beta_start(lx: float, y: int, psi: float) -> float:
    """Newton's start for phi_1(beta, y) = lx, with psi = psi(y).

    Each value v of phi_1 has its own eta(v) = psi/v - 2, which increases
    with s.  From k = floor(D log10 eta), D = _NODES_PER_DECADE, k takes at
    most one step down or up to reach phi_1(node k) >= lx > phi_1(node k+1),
    and the start is the cubic Hermite interpolant of log s over
    log eta(phi_1) between the two nodes, with slopes d log s / d log eta =
    -phi_1/(s phi_2) * d log phi_1 / d log eta = eta phi_1^2/(s psi phi_2).
    Over log eta, log s is smooth at both ends: s grows like
    psi/2 - phi_1, so like eta, as eta -> 0, and like log eta for large
    eta, where phi_1 -> 0.  Over log phi_1 it would not be: log phi_1
    tends to log(psi/2) as s -> 0, and a cubic on nodes a factor 10^(1/D)
    apart in eta missed beta by up to 0.5% there.  One step brackets every
    point log x in (0.05 .. 0.55) y, 50 <= y <= 3000, that was measured; a
    second would cost a lone solve a fourth node wherever the calibration
    is far off, as it is for large eta (a small x at a large y).  Without a
    bracket the start is the calibrated log(1 + eta)/log y.
    """
    eta = psi / lx - 2.0
    if eta > 0.0:
        k = math.floor(_NODES_PER_DECADE * math.log10(eta))
        for _ in range(2):
            s0, f0, d0 = _beta_node(y, k)
            if f0 < lx:
                k -= 1
                continue
            s1, f1, d1 = _beta_node(y, k + 1)
            if f1 >= lx:
                k += 1
                continue
            e0, e1 = psi / f0 - 2.0, psi / f1 - 2.0
            if not 0.0 < e0 < e1:  # phi_1 within rounding of psi/2 at both nodes
                break
            x0 = math.log(e0)
            h = math.log(e1) - x0
            t = (math.log(eta) - x0) / h
            m0 = e0 * f0 * f0 / (s0 * psi * d0)
            m1 = e1 * f1 * f1 / (s1 * psi * d1)
            ls0 = math.log(s0)
            return math.exp(ls0 + t * t * (3.0 - 2.0 * t) * (math.log(s1) - ls0)
                            + h * t * (1.0 - t) * ((1.0 - t) * m0 - t * m1))
    return math.log1p(eta) / math.log(y)


def solve_beta(x: float | None, table: pr.PrimePowerTable, *,
               log_x: float | None = None) -> SaddleResult:
    """Solve phi_1(beta, y) = log x in the small-y regime psi(y) > 2 log x.

    Pass x, or x=None and log_x for an x beyond the float range.  Newton
    starts between two memoised nodes of y (``_beta_start``): node k sits at
    the paper's calibrated start log(1 + eta_k)/log y, eta_k = 10^(k/D),
    and holds phi_1 and phi_2 there.  The search for the two nodes whose
    phi_1 bracket log x starts at k = floor(D log10 eta), eta =
    psi(y)/log x - 2, and takes at most one step; the start is the cubic
    Hermite interpolant of log s over log eta between them.  Where no
    bracket is found Newton starts at log(1 + eta)/log y.  As phi_1
    decreases, the bracket is unique, so the start depends on (log x, y)
    alone, not on the solves made before.  The result carries
    sigma_j = {2: phi_2(beta, y)} (modulus 1), the derivative from the last
    step, and a residual certified against log x; no further pass over the
    primes is made.  ``iterations`` counts the Newton evaluations only; the
    node evaluations are the misses of ``_beta_node``'s memo.
    """
    if log_x is None:
        if x < 2:
            raise DomainError(f"need x >= 2, got {x}")
        log_x = math.log(x)
    elif log_x < math.log(2.0):
        raise DomainError(f"need x >= 2, got log x = {log_x}")
    lx = log_x
    if table.psi_y <= 2.0 * lx:
        raise RegimeError(
            f"psi({table.y})={table.psi_y:.6g} <= 2 log x={2*lx:.6g}: the saddle "
            "equation has no root; apply the divisor-symmetry identity instead",
            phi1_limit=table.psi_y / 2.0,
        )
    ser = _series(table.y, ())

    def fdf(s):
        f1, f2 = _phi(s, ser, (1, 2))
        return f1, -f2

    start = _beta_start(lx, table.y, table.psi_y)
    beta, fb, fpb, it = _newton(fdf, lx, start, 1e-13 * max(1.0, lx))
    return SaddleResult(
        kind="BETA",
        sigma=beta,
        residual=abs(fb - lx) / lx,
        sigma_j={2: -fpb},
        iterations=it,
    )


def solve_alpha(x: float, y: int) -> SaddleResult:
    """Solve sum_{p<=y} log p / (p^alpha - 1) = log x for the friable saddle.

    Newton starts at 1 - xi(u)/log y, u = log x/log y.  Where that is not
    positive (small y, large u) it starts at pi(y)/(log x + pi(y)/2), the
    root of the small-alpha expansion pi(y)/alpha - pi(y)/2 = log x.
    """
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    if x < y:
        raise DomainError(f"need x >= y, got x={x}, y={y}")
    t = pr.build_table(y).logp_arr
    t2 = t * t

    def fdf(s):
        m1, m2 = _mj(_m1(s * t), (1, 2))
        return float(np.dot(t, m1)), -float(np.dot(t2, m2))

    lx = math.log(x)
    ly = math.log(y)
    start = 1.0 - xi(lx / ly) / ly
    if start <= 0.0:
        start = len(t) / (lx + 0.5 * len(t))
    alpha, fa, _, it = _newton(fdf, lx, start, 1e-13 * max(1.0, lx))
    return SaddleResult(kind="ALPHA", sigma=alpha, residual=abs(fa - lx) / lx, iterations=it)


@lru_cache(maxsize=1024)
def beta_cached(log_x: float, y: int) -> SaddleResult:
    """Memoised solve_beta keyed on (log x, y), carrying beta and sigma_2 only;
    x itself may exceed the float range.  1024 pairs hold every (x, y) of a
    CLI sweep of up to that many, whose variant axis revisits each pair."""
    return solve_beta(None, pr.build_table(y), log_x=log_x)


# ---------------------------------------------------------------------------
# xi(v): e^xi = 1 + v xi
# ---------------------------------------------------------------------------

_XI_SERIES_CUT = 0.1


def _xi_fdf(z: float) -> tuple[float, float]:
    """log(z / expm1(z)) and its derivative, for z > 0.

    Below _XI_SERIES_CUT they are the series -(z/2 + z^2/24 - z^4/2880 +
    z^6/181440 - z^8/9676800) and its derivative, cut off 1e-17 relative
    from the limit: the log of the rounded quotient near 1 would lose the
    digits of z.  Past
    z = 700, where expm1(z) nears overflow, the log is log z - z to double
    precision.
    """
    if z < _XI_SERIES_CUT:
        z2 = z * z
        f = -z * (0.5 + z * (1.0 / 24 + z2 * (-1.0 / 2880 + z2 * (1.0 / 181440 - z2 / 9676800))))
        fp = -(0.5 + z * (1.0 / 12 + z2 * (-1.0 / 720 + z2 * (1.0 / 30240 - z2 / 1209600))))
        return f, fp
    fp = 1.0 / z + 1.0 / math.expm1(-z)
    return (math.log(z / math.expm1(z)) if z < 700.0 else math.log(z) - z), fp


def _xi(v: float) -> tuple[float, int]:
    """xi(v) and the Newton evaluations it took."""
    if v < 1:
        raise DomainError(f"need v >= 1, got {v}")
    if v == 1:
        return 0.0, 0
    lv = math.log(v)
    start = 2.0 * (v - 1.0) if v < math.e else lv + math.log(lv)
    # f is exact to a relative 1e-16 in the series and to about 2e-16 in
    # absolute terms past it, where |f| > 0.049
    z, _, _, it = _newton(_xi_fdf, -lv, start, 1e-14 * (min(lv, 1.0) + lv))
    return z, it


def xi(v: float) -> float:
    """The positive solution of e^xi = 1 + v*xi for v > 1, with xi(1) = 0.

    xi is the root of the decreasing log(z / expm1(z)) = -log v.  In logs
    the target keeps the digits that 1/v rounds away as v -> 1.  Newton
    starts at 2(v - 1) below v = e and at log(v log v) from there on.
    """
    return _xi(v)[0]


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


def g_q(s: float, ctx: pr.ModulusContext, table: pr.PrimePowerTable) -> float:
    """g_q(s) = prod_{p | q, p <= y} (1 - p^{-s}) / (1 - p^{-(nu_p+1)s}) alone,
    without the phi_j pass that ``arithmetic_factors`` makes for gamma_q', gamma_q''."""
    if s <= 0:
        raise DomainError(f"need s > 0, got {s}")
    ctx.require_p_plus_le_y()
    if not ctx.prime_divisors:
        return 1.0
    em = np.expm1(-s * _series(table.y, ctx.prime_divisors, coprime=False).z1)
    n = len(em) // 2
    return float(np.prod(em[:n] / em[n:]))


def arithmetic_factors(s: float, ctx: pr.ModulusContext, table: pr.PrimePowerTable,
                       d: int | None = None) -> ArithmeticFactors:
    """g_q, f_q, gamma_q', gamma_q'' (and h_d for a squarefree divisor d | q).

    gamma_q' = (log g_q)' and gamma_q'' = (log g_q)'' are phi_1 and -phi_2
    of the series of the primes of q, read from the kernel ``_phi`` at every
    s > 0.  Its pole-free Bernoulli branch keeps them exact as s -> 0, where
    its constant terms are the limits, over p | q, sum nu_p log p / 2 and
    -sum nu_p (nu_p + 2) (log p)^2 / 12.  For q = 1 the series is empty:
    f_q = 1.0 and both gammas are 0.0.
    """
    g = g_q(s, ctx, table)  # checks s > 0 and P+(q) <= y
    ser = _series(table.y, ctx.prime_divisors, coprime=False)
    f = float(np.prod(-np.expm1(-s * ser.z1[:len(ser.z1) // 2])))
    g1, g2 = _phi(s, ser, (1, 2))
    g2 = 0.0 - g2  # not -g2, which makes the empty series' 0.0 a -0.0
    h = None
    if d is not None:
        ctx_d = pr.modulus_context(d, table)
        if math.prod(ctx_d.prime_divisors) != d:
            raise DomainError(f"h_d needs squarefree d, got d={d}")
        if not ctx_d.p_plus_le_y:
            raise DomainError(f"h_d needs P+(d) <= y, got d={d}, y={table.y}")
        dnu = np.array(ctx_d.nu_divisors, dtype=np.float64)
        t = np.log(np.array(ctx_d.prime_divisors, dtype=np.float64))
        h = float(np.prod(np.expm1(-dnu * s * t) / np.expm1(-(dnu + 1.0) * s * t)))
    return ArithmeticFactors(s=s, g_q=g, f_q=f, gamma1_q=g1, gamma2_q=g2, h_d=h)
