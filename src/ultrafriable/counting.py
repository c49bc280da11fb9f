"""Exact counting of ultrafriable and friable integers.

The y-ultrafriable integers coprime to q are exactly the divisors of
N = prod p^nu_p over p <= y, p ∤ q, so counting them up to x is bounded
divisor enumeration.  The engine recurses over primes in descending order
(large primes have nu_p = 1 and prune fastest) with two shortcuts:

* suffix shortcut -- if the full product of the remaining maximal prime
  powers fits under the remaining bound, the whole subtree is counted at
  once from a precomputed divisor count (or residue vector);
* sorted tail -- the smallest primes, whose combined divisor count is
  below a cap, are collapsed into one sorted divisor list, so a subtree
  over them is a single bisect (or a row of a prefix residue matrix).

All comparisons are exact integer comparisons; bounds given as reals are
floored once on entry (counts are step functions of x).

When x >= sqrt(N) the divisor symmetry of N around sqrt(N) is applied
first: the count up to x equals tau(N) minus the number of divisors
strictly below N/x.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import primes as pr
from .errors import DomainError, PreconditionError, ResourceError

RESIDUE_Q_BOUND = 10**4
FRIABLE_X_BOUND = 10**9
ORACLE_X_BOUND = 10**7
_SPLIT_CAP = 1 << 17
_INT64_SAFE = 1 << 62


def _floor_bound(x) -> int:
    """Exact floor of a nonnegative real/int/Fraction bound."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    if x != x or math.isinf(x):
        raise DomainError(f"bound must be finite, got {x}")
    return int(math.floor(x))


# ---------------------------------------------------------------------------
# plain divisor counting
# ---------------------------------------------------------------------------

class DivisorCounter:
    """Counts divisors of N = prod p^nu_p (p <= y, p ∤ q) below a bound."""

    def __init__(self, table: pr.PrimePowerTable, q_primes=(), split_cap: int = _SPLIT_CAP):
        pset = set(q_primes)
        rows = [(p, n, pw) for p, n, pw in zip(table.primes, table.nu, table.max_powers)
                if p not in pset]
        rows.reverse()  # descending primes
        self.p = [r[0] for r in rows]
        self.powers = [[r[0] ** e for e in range(1, r[1] + 1)] for r in rows]
        n = len(rows)
        suffix_prod = [1] * (n + 1)
        suffix_tau = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_prod[i] = suffix_prod[i + 1] * rows[i][2]
            suffix_tau[i] = suffix_tau[i + 1] * (rows[i][1] + 1)
        self.suffix_prod = suffix_prod
        self.suffix_tau = suffix_tau
        self.N = suffix_prod[0]
        self.tau = suffix_tau[0]
        split = 0
        while suffix_tau[split] > split_cap:
            split += 1
        self.split = split
        self.tail_divs = self._tail_divisors(split)
        self._neg_p = [-p for p in self.p]  # ascending, for bisect

    def _tail_divisors(self, split: int) -> list[int]:
        divs = [1]
        for j in range(len(self.p) - 1, split - 1, -1):
            divs = [d * pw for pw in [1] + self.powers[j] for d in divs]
        divs.sort()
        return divs

    def count_le(self, bound: int) -> int:
        """Number of divisors of N that are <= bound (exact)."""
        if bound < 1:
            return 0
        if bound >= self.N:
            return self.tau
        if bound * bound >= self.N:
            # symmetry: divisors > bound pair with divisors < N/bound
            return self.tau - self._walk(0, (self.N - 1) // bound)
        return self._walk(0, bound)

    def count_below(self, num: int, den: int = 1) -> int:
        """Number of divisors d with d * den < num (strict left limit)."""
        if num <= den:
            return 0
        return self.count_le((num - 1) // den)

    def _walk(self, i: int, bound: int) -> int:
        # divisors of suffix_prod[i] that are <= bound; 1 <= bound < suffix_prod[i]
        if self.suffix_prod[i] <= bound:
            return self.suffix_tau[i]
        split = self.split
        if i >= split:
            return bisect_right(self.tail_divs, bound)
        total = bisect_right(self.tail_divs, bound)
        j = max(i, bisect_left(self._neg_p, -bound))
        walk = self._walk
        for j in range(j, split):
            for pw in self.powers[j]:
                if pw > bound:
                    break
                total += walk(j + 1, bound // pw)
        return total


# ---------------------------------------------------------------------------
# residue-class divisor counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidueCounts:
    """Exact divisor counts split by residue class mod q."""

    q: int
    counts: tuple[int, ...]

    def __getitem__(self, a: int) -> int:
        return self.counts[a % self.q]

    def total(self) -> int:
        return sum(self.counts)

    def coprime_total(self) -> int:
        return sum(c for a, c in enumerate(self.counts) if math.gcd(a, self.q) == 1)


class ResidueDivisorCounter:
    """Residue-class version of DivisorCounter over all primes p <= y.

    The suffix shortcut adds the full residue vector of the remaining
    primes (computed once per suffix by convolution over Z/qZ), rotated by
    the partial product's residue; the sorted tail keeps a prefix matrix of
    residue counts so a bounded tail is one bisect plus one vector add.
    """

    def __init__(self, table: pr.PrimePowerTable, q: int, split_cap: int | None = None):
        if q < 1:
            raise DomainError(f"need q >= 1, got {q}")
        if q > RESIDUE_Q_BOUND:
            raise ResourceError(f"q={q} exceeds the residue-vector bound {RESIDUE_Q_BOUND}")
        self.q = q
        rows = list(zip(table.primes, table.nu, table.max_powers))
        rows.reverse()
        self.p = [r[0] for r in rows]
        self.powers = [[r[0] ** e for e in range(1, r[1] + 1)] for r in rows]
        n = len(rows)
        suffix_prod = [1] * (n + 1)
        suffix_tau = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_prod[i] = suffix_prod[i + 1] * rows[i][2]
            suffix_tau[i] = suffix_tau[i + 1] * (rows[i][1] + 1)
        self.suffix_prod = suffix_prod
        self.suffix_tau = suffix_tau
        self.N = suffix_prod[0]
        self.tau = suffix_tau[0]

        # full residue vectors per suffix, exact python ints (can be huge)
        vec = [0] * q
        vec[1 % q] = 1
        full = [None] * (n + 1)
        full[n] = vec
        for i in range(n - 1, -1, -1):
            prev = full[i + 1]
            cur = prev[:]
            for pw in self.powers[i]:
                r = pw % q
                for s, c in enumerate(prev):
                    if c:
                        cur[(r * s) % q] += c
            full[i] = cur
        self.full_vec = full
        self._full_np: dict[int, np.ndarray] = {}

        if split_cap is None:
            split_cap = min(_SPLIT_CAP, max(1024, (4 << 20) // q))
        split = 0
        while suffix_tau[split] > split_cap:
            split += 1
        self.split = split
        divs = [1]
        for j in range(n - 1, split - 1, -1):
            divs = [d * pw for pw in [1] + self.powers[j] for d in divs]
        divs.sort()
        self.tail_divs = divs
        res = np.array([d % q for d in divs], dtype=np.int64)
        prefix = np.zeros((len(divs) + 1, q), dtype=np.int64)
        for r in range(q):
            prefix[1:, r] = np.cumsum(res == r)
        self.tail_prefix = prefix
        self._neg_p = [-p for p in self.p]
        self._idx = np.arange(q, dtype=np.int64)
        self._perm: dict[int, np.ndarray] = {}

    def _perm_for(self, r: int) -> np.ndarray:
        perm = self._perm.get(r)
        if perm is None:
            perm = (r * self._idx) % self.q
            self._perm[r] = perm
        return perm

    def _full_np_for(self, i: int) -> np.ndarray:
        arr = self._full_np.get(i)
        if arr is None:
            arr = np.array(self.full_vec[i], dtype=np.int64)
            self._full_np[i] = arr
        return arr

    def count_le(self, bound: int) -> ResidueCounts:
        if bound >= self.N:
            return ResidueCounts(self.q, tuple(self.full_vec[0]))
        out = np.zeros(self.q, dtype=np.int64)
        if bound >= 1:
            if bound >= _INT64_SAFE:
                raise ResourceError("residue counting bound exceeds the exact int64 range")
            self._walk(0, bound, 1 % self.q, out)
        return ResidueCounts(self.q, tuple(int(c) for c in out))

    def _walk(self, i: int, bound: int, r: int, out: np.ndarray) -> None:
        if self.suffix_prod[i] <= bound:
            np.add.at(out, self._perm_for(r), self._full_np_for(i))
            return
        split = self.split
        if i >= split:
            t = bisect_right(self.tail_divs, bound)
            np.add.at(out, self._perm_for(r), self.tail_prefix[t])
            return
        t = bisect_right(self.tail_divs, bound)
        np.add.at(out, self._perm_for(r), self.tail_prefix[t])
        q = self.q
        j = max(i, bisect_left(self._neg_p, -bound))
        for j in range(j, split):
            for pw in self.powers[j]:
                if pw > bound:
                    break
                self._walk(j + 1, bound // pw, (r * pw) % q, out)


# ---------------------------------------------------------------------------
# engine caches (tables are deterministic per y, so keying on y is sound)
# ---------------------------------------------------------------------------

_counter_cache: OrderedDict = OrderedDict()
_residue_cache: OrderedDict = OrderedDict()
_residue_vec_cache: OrderedDict = OrderedDict()


def _cache_get(cache: OrderedDict, key, builder, maxsize: int):
    hit = cache.get(key)
    if hit is None:
        hit = builder()
        cache[key] = hit
        if len(cache) > maxsize:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return hit


def get_counter(table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> DivisorCounter:
    qp = ctx.prime_divisors if ctx is not None else ()
    return _cache_get(
        _counter_cache, (table.y, qp), lambda: DivisorCounter(table, qp), 48
    )


def get_residue_counter(table: pr.PrimePowerTable, q: int) -> ResidueDivisorCounter:
    return _cache_get(
        _residue_cache, (table.y, q), lambda: ResidueDivisorCounter(table, q), 32
    )


# ---------------------------------------------------------------------------
# public counting operations
# ---------------------------------------------------------------------------

def count_ultrafriable(x, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> int:
    """Exact number of y-ultrafriable n <= x with (n, q) = 1.

    Equivalently the number of divisors of N = prod_{p<=y, p∤q} p^nu_p not
    exceeding x.  x may be an int, float or Fraction; it is floored exactly.
    """
    bound = _floor_bound(x)
    if bound < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if ctx is not None:
        ctx.require_p_plus_le_y()
    return get_counter(table, ctx).count_le(bound)


def count_ultrafriable_below(num: int, table: pr.PrimePowerTable,
                             ctx: pr.ModulusContext | None = None, den: int = 1) -> int:
    """Exact number of y-ultrafriable n coprime to q with n * den < num.

    This is the strict left limit used by the divisor-symmetry identity:
    the reflected argument (N/x)- is the rational num/den approached from
    below.
    """
    if num < 0 or den < 1:
        raise DomainError("need num >= 0 and den >= 1")
    if ctx is not None:
        ctx.require_p_plus_le_y()
    return get_counter(table, ctx).count_below(num, den)


def count_ultrafriable_residues(x, table: pr.PrimePowerTable, q: int) -> ResidueCounts:
    """Exact counts of y-ultrafriable n <= x in every residue class mod q."""
    bound = _floor_bound(x)
    if bound < 0:
        raise DomainError(f"need x >= 0, got {x}")
    return _cache_get(
        _residue_vec_cache,
        (bound, table.y, q),
        lambda: get_residue_counter(table, q).count_le(bound),
        128,
    )


def character_sum(x, table: pr.PrimePowerTable, chi) -> complex:
    """sum of chi(n) over y-ultrafriable n <= x.

    The counts are exact and are bucketed by chi's value index as integers;
    the only rounding is in the final sum against the roots of unity.
    """
    counts = count_ultrafriable_residues(x, table, chi.modulus)
    return chi.group.character_sum(counts, chi)


# ---------------------------------------------------------------------------
# friable counting
# ---------------------------------------------------------------------------

def _coprime_count_upto(X: int, q: int) -> int:
    """#{n <= X : (n, q) = 1} by inclusion-exclusion over rad(q)."""
    ps = sorted(pr.factorize(q))
    total = 0
    for mask in range(1 << len(ps)):
        d, bits = 1, 0
        m = mask
        for p in ps:
            if m & 1:
                d *= p
                bits += 1
            m >>= 1
        total += (-1) ** bits * (X // d)
    return total


def count_friable(x, y: int, q: int = 1, limit: int = FRIABLE_X_BOUND) -> int:
    """Exact number of y-friable n <= x with (n, q) = 1.

    Uses the memoised recursion Psi(x, p_k) = Psi(x, p_{k-1}) + Psi(x/p_k, p_k)
    over the primes p <= y not dividing q.
    """
    X = _floor_bound(x)
    if X < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if X > limit:
        raise ResourceError(f"x={x} exceeds the exact friable-count bound {limit}")
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if X == 0:
        return 0
    if q > 1:
        pmax = max(pr.factorize(q))
        if pmax > y:
            raise PreconditionError(f"P+(q)={pmax} exceeds y={y}")
    if y < 2:
        return 1  # only n = 1 has no prime factor
    if y >= X:
        return _coprime_count_upto(X, q) if q > 1 else X
    table = pr.build_table(max(2, min(y, X)))
    qset = set(pr.factorize(q)) if q > 1 else set()
    plist = [p for p in table.primes if p not in qset]
    memo: dict[tuple[int, int], int] = {}

    # Psi(X, k) = 1 + sum_j Psi(X // p_j, j+1): split n > 1 by its largest
    # prime factor p_j.  Keeps the recursion depth at the multiplicative
    # chain length instead of the prime count.
    def rec(X: int, k: int) -> int:
        if X < 1:
            return 0
        if X < 2 or k == 0:
            return 1
        if plist[k - 1] > X:
            k = bisect_right(plist, X)
            if k == 0:
                return 1
        key = (X, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = 1
        for j in range(k):
            out += rec(X // plist[j], j + 1)
        memo[key] = out
        return out

    return rec(X, len(plist))


def count_friable_progression(x, y: int, a: int, q: int, limit: int = FRIABLE_X_BOUND) -> int:
    """Exact number of y-friable n <= x with n ≡ a (mod q).

    Residue-tracked version of the friable recursion: the state is a full
    vector of class counts, rotated by p mod q when a prime p is absorbed.
    """
    X = _floor_bound(x)
    if X < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if X > limit:
        raise ResourceError(f"x={x} exceeds the exact friable-count bound {limit}")
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if q == 1:
        return count_friable(X, y, 1, limit)
    if X == 0:
        return 0
    plist = list(pr.build_table(min(y, X)).primes) if min(y, X) >= 2 else []
    memo: dict[tuple[int, int], list[int]] = {}
    base = [0] * q
    base[1 % q] = 1

    zero = [0] * q

    def rec(X: int, k: int) -> list[int]:
        if X < 1:
            return zero
        if X < 2 or k == 0:
            return base
        if plist[k - 1] > X:
            k = bisect_right(plist, X)
            if k == 0:
                return base
        key = (X, k)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = base[:]
        for j in range(k):
            p = plist[j]
            right = rec(X // p, j + 1)
            r = p % q
            for s, c in enumerate(right):
                if c:
                    out[(r * s) % q] += c
        memo[key] = out
        return out

    return rec(X, len(plist))[a % q]


# ---------------------------------------------------------------------------
# the naive sieve oracle
# ---------------------------------------------------------------------------

# the oracle's sieve size; it only grows, so a smaller x slices the last build
_oracle_cap = 1000


@lru_cache(maxsize=1)
def _oracle_arrays(xmax: int):
    """(largest prime factor, largest maximal prime-power divisor) up to xmax.

    L[n] = P+(n) with L[1] = 1;  M[n] = max over p^a || n of p^a, M[1] = 1.
    n is y-friable iff L[n] <= y and y-ultrafriable iff M[n] <= y.
    """
    L = np.ones(xmax + 1, dtype=np.int64)
    M = np.ones(xmax + 1, dtype=np.int64)
    for p in pr.sieve_primes(xmax).tolist():
        L[p::p] = p
        pw = p
        while pw <= xmax:
            sl = M[pw::pw]
            np.maximum(sl, pw, out=sl)
            pw *= p
    return L, M


def naive_oracle(x, y: int, a: int | None = None, q: int | None = None,
                 mode: str = "ultrafriable") -> int:
    """Definitional loop oracle: test every n <= x directly.

    ``mode='ultrafriable'`` counts n divisible by no prime power exceeding
    y; ``mode='friable'`` counts n with largest prime factor <= y.  With q
    alone the count is restricted to (n, q) = 1; with a (and q) to the
    residue class a mod q.
    """
    X = _floor_bound(x)
    if X < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if X > ORACLE_X_BOUND:
        raise ResourceError(f"oracle bound is {ORACLE_X_BOUND}, got x={x}")
    if mode not in ("ultrafriable", "friable"):
        raise DomainError(f"unknown oracle mode {mode!r}")
    if X == 0:
        return 0
    # grow the sieve in 4x steps so repeated queries share one array build
    global _oracle_cap
    while _oracle_cap < X:
        _oracle_cap *= 4
    L, M = _oracle_arrays(_oracle_cap)
    arr = M if mode == "ultrafriable" else L
    mask = arr[1 : X + 1] <= y
    if a is not None:
        if q is None or q < 1:
            raise DomainError("a requires a modulus q >= 1")
        ns = np.arange(1, X + 1, dtype=np.int64)
        mask = mask & (ns % q == a % q)
    elif q is not None and q > 1:
        ns = np.arange(1, X + 1, dtype=np.int64)
        mask = mask & (np.gcd(ns, q) == 1)
    return int(np.count_nonzero(mask))
