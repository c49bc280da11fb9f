"""Prime-power tables, modulus contexts and regime classification.

Everything downstream (exact counting, Dirichlet series, estimators) is a
function of the primes p <= y together with the largest exponent nu_p such
that p^nu_p <= y.  The exponents (``max_exponents``) start from the float
floor of ``log y / log p``, which is exact or one low, and are corrected up
exactly in integers, so boundary cases like y = p^k are handled correctly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError, ResourceError

DEFAULT_Y_BUDGET = 10**8


def sieve_primes(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array.

    The sieve holds the odd numbers only: mask[i] stands for 2i + 1, and an
    odd p strikes p^2, p^2 + 2p, ..., every p-th entry from p^2 // 2.
    """
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones((n + 1) // 2, dtype=bool)
    mask[0] = False  # 1 is not prime
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if mask[i]:
            p = 2 * i + 1
            mask[p * p // 2 :: p] = False
    odd = np.flatnonzero(mask)
    odd *= 2
    odd += 1
    return np.concatenate(([2], odd)).astype(np.int64, copy=False)


def nth_prime(k: int) -> int:
    """The k-th prime (1-indexed), with the convention that k=0 gives 2.

    One sieve up to a proven bound: Rosser and Schoenfeld's
    p_k < k (log k + log log k) for k >= 6, padded by 10 against the
    rounding of the logs, and 15 > p_5 = 11 for k < 6.
    """
    if k <= 0:
        return 2
    bound = 15 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
    return int(sieve_primes(bound)[k - 1])


def max_exponents(p: np.ndarray, bound: int) -> np.ndarray:
    """The largest e with p^e <= bound for each prime of the int64 array p.

    The float floor of log(bound) / log(p) is exact or one low, and is
    corrected up in int64.  It is never high for primes p <= bound <= 3 * 10^9:
    the quotient is monotone in bound, and at bound = p^k - 1 it is below k
    by log(1 / (1 - p^-k)) / log(p) > 10^-11, far past the float error.  The
    one power formed, p^(e+1) <= p * bound <= bound^2 < 2^63, fits int64.
    """
    e = (math.log(bound) / np.log(p)).astype(np.int64)
    e += p ** (e + 1) <= bound
    return e


@dataclass(frozen=True)
class PrimePowerTable:
    """Primes p <= y with their maximal exponents nu_p (p^nu_p <= y).

    The table is its read-only arrays ``p_arr``, ``nu_arr`` (int64, ascending
    in p) and ``logp_arr``; ``entries`` and ``nu_of`` give exact Python ints.
    ``psi_y`` is the Chebyshev function value sum(nu_p * log p) in natural
    logs; exp(psi_y) is the modulus-free product N of maximal prime powers,
    whose divisors are exactly the y-ultrafriable integers.
    """

    y: int
    psi_y: float
    p_arr: np.ndarray = field(repr=False)
    nu_arr: np.ndarray = field(repr=False)
    logp_arr: np.ndarray = field(repr=False)

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        """Ascending list of (p, nu_p, log p)."""
        return list(zip(self.p_arr.tolist(), self.nu_arr.tolist(), self.logp_arr.tolist()))

    def nu_of(self, p: int) -> int:
        """nu_p for a prime p <= y, 0 if p > y."""
        i = int(self.p_arr.searchsorted(p))
        if i < len(self.p_arr) and self.p_arr.item(i) == p:
            return self.nu_arr.item(i)
        return 0

    def mask_coprime(self, prime_divisors) -> np.ndarray:
        """Boolean mask over table entries selecting p not dividing q."""
        if not prime_divisors:
            return np.ones(len(self.p_arr), dtype=bool)
        return ~np.isin(self.p_arr, np.asarray(list(prime_divisors), dtype=np.int64))


@lru_cache(maxsize=64)
def build_table(y: int) -> PrimePowerTable:
    """Sieve primes up to y and compute the maximal exponents nu_p.

    Raises DomainError for y < 2 and ResourceError for y beyond the memory
    budget ``DEFAULT_Y_BUDGET`` (10^8).
    """
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    if y > DEFAULT_Y_BUDGET:
        raise ResourceError(f"y={y} exceeds the configured budget {DEFAULT_Y_BUDGET}")
    p_arr = sieve_primes(y)
    nu_arr = np.ones(len(p_arr), dtype=np.int64)
    k = int(p_arr.searchsorted(math.isqrt(y), "right"))  # only p <= sqrt(y) have nu_p > 1
    nu_arr[:k] = max_exponents(p_arr[:k], y)
    logp_arr = np.log(p_arr.astype(np.float64))
    psi_y = float(np.dot(nu_arr.astype(np.float64), logp_arr))
    for arr in (p_arr, nu_arr, logp_arr):
        arr.flags.writeable = False
    return PrimePowerTable(y=y, psi_y=psi_y, p_arr=p_arr, nu_arr=nu_arr, logp_arr=logp_arr)


def factorize(q: int) -> dict[int, int]:
    """Prime factorisation of q >= 1 by trial division up to 10^6.

    Every q <= 10^12 is factored in full.  A cofactor with no prime factor
    up to 10^6 is prime below (10^6 + 1)^2; a larger one raises
    ResourceError, as trial division past it takes seconds to hours
    (q = 2^61 - 1).
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    out: dict[int, int] = {}
    n = q
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        if f > 10**6:
            raise ResourceError(f"q={q} has a cofactor {n} >= (10^6 + 1)^2 with no prime "
                                "factor <= 10^6; factoring it is beyond trial division")
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi_from_factors(q: int, primes) -> int:
    phi = q
    for p in primes:
        phi = phi // p * (p - 1)
    return phi


@dataclass(frozen=True)
class ModulusContext:
    """A modulus q in factored form, tied to a prime-power table for y; one
    context of (q, y) is cached and shared by every caller (``modulus_context``).

    ``z_q`` is the omega(q)-th prime (2 when q = 1) and ``theta_q`` its log
    measured against log y; both feed the error budgets.  ``p_plus_le_y``
    flags whether every prime of q lies in the table, which the exact
    counting routines require.
    """

    q: int
    y: int
    prime_divisors: tuple[int, ...]
    nu_divisors: tuple[int, ...]  # nu_p(y) for p | q, 0 where p > y
    omega_q: int
    phi_q: int
    z_q: int
    theta_q: float
    p_plus_le_y: bool

    def require_p_plus_le_y(self):
        if not self.p_plus_le_y:
            raise PreconditionError(
                f"P+(q)={max(self.prime_divisors)} exceeds y={self.y}; "
                "the ultrafriable counting identities need P+(q) <= y"
            )


def modulus_context(q: int, table: PrimePowerTable) -> ModulusContext:
    """The context of (q, table.y): q factored with its derived quantities, made
    once per (q, y) and shared by every caller; the last 256 are cached."""
    return _modulus_context(q, table.y)


@lru_cache(maxsize=256)  # every table is build_table(y), so y alone keys it
def _modulus_context(q: int, y: int) -> ModulusContext:
    pdivs = tuple(sorted(factorize(q)))
    omega = len(pdivs)
    phi = euler_phi_from_factors(q, pdivs)
    z_q = nth_prime(omega)
    return ModulusContext(
        q=q,
        y=y,
        prime_divisors=pdivs,
        nu_divisors=tuple(map(build_table(y).nu_of, pdivs)),
        omega_q=omega,
        phi_q=phi,
        z_q=z_q,
        theta_q=math.log(z_q) / math.log(y),
        p_plus_le_y=(not pdivs) or pdivs[-1] <= y,
    )


def psi_q(table: PrimePowerTable, ctx: ModulusContext) -> float:
    """sum(nu_p log p) over p <= y not dividing q."""
    drop = sum(n * math.log(p) for p, n in zip(ctx.prime_divisors, ctx.nu_divisors))
    return table.psi_y - drop


def tau_N(table: PrimePowerTable, ctx: ModulusContext) -> int:
    """Exact divisor count prod(1 + nu_p) over p <= y, p not dividing q."""
    ctx.require_p_plus_le_y()
    return math.prod((table.nu_arr[table.mask_coprime(ctx.prime_divisors)] + 1).tolist())


def N_q(table: PrimePowerTable, ctx: ModulusContext) -> int:
    """Exact product of maximal prime powers p^nu_p over p <= y, p ∤ q."""
    ctx.require_p_plus_le_y()
    keep = table.mask_coprime(ctx.prime_divisors)
    return math.prod((table.p_arr[keep] ** table.nu_arr[keep]).tolist())  # each p^nu_p <= y


EPSILON = 0.1  # the fixed eps > 0 of the theorems; the frozen bands were calibrated at it

SMALL_Y = "SMALL_Y"
LARGE_Y = "LARGE_Y"
OUT_OF_DOMAIN = "OUT_OF_DOMAIN"


@dataclass(frozen=True)
class RegimeTag:
    """Which asymptotic regime an (x, y) pair falls in.

    ``small_y`` means psi(y) > 2 log x (the saddle-equation domain) and
    ``large_y`` means y >= (log x)^(2+EPSILON).  Both can hold at once; the
    ``kind`` label then reports LARGE_Y, but consumers should test the flags.
    """

    kind: str
    small_y: bool
    large_y: bool
    u: float
    eta: float | None


def classify_regime(x: float, table: PrimePowerTable) -> RegimeTag:
    if x < 2:
        raise DomainError(f"need x >= 2, got {x}")
    lx = math.log(x)
    small = table.psi_y > 2.0 * lx
    large = table.y >= lx ** (2.0 + EPSILON)
    if large:
        kind = LARGE_Y
    elif small:
        kind = SMALL_Y
    else:
        kind = OUT_OF_DOMAIN
    eta = table.psi_y / lx - 2.0 if small else None
    return RegimeTag(
        kind=kind,
        small_y=small,
        large_y=large,
        u=lx / math.log(table.y),
        eta=eta,
    )
