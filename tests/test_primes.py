import math
import random
import time

from unittest import mock

import numpy as np
import pytest

from ultrafriable import (
    DomainError,
    PreconditionError,
    N_q,
    ResourceError,
    build_table,
    classify_regime,
    modulus_context,
    tau_N,
)
from ultrafriable import primes as pr
from ultrafriable.primes import factorize, max_exponents, nth_prime, psi_q, sieve_primes


def brute_nu(p: int, y: int) -> int:
    """nu_p by repeated exact multiplication."""
    nu, pw = 0, 1
    while pw * p <= y:
        pw *= p
        nu += 1
    return nu


def test_table_y10(table10):
    assert [(p, n) for p, n, _ in table10.entries] == [(2, 3), (3, 2), (5, 1), (7, 1)]
    assert table10.psi_y == pytest.approx(math.log(2520), rel=1e-14)


def test_table_y2():
    t = build_table(2)
    assert [(p, n) for p, n, _ in t.entries] == [(2, 1)]
    assert t.psi_y == pytest.approx(math.log(2), rel=1e-15)


def test_table_y100(table100):
    nus = dict((p, n) for p, n, _ in table100.entries)
    assert nus[2] == 6 and nus[3] == 4 and nus[5] == 2 and nus[7] == 2
    assert all(nus[p] == 1 for p in nus if p >= 11)
    # psi(100) by direct summation over prime powers <= 100
    direct = sum(math.log(p) for p in nus for k in range(1, 8) if p**k <= 100)
    assert table100.psi_y == pytest.approx(direct, rel=1e-12)


def test_nu_exact_power_boundaries():
    # y exactly a prime power: nu must include it (float logs would wobble here)
    for p, k in [(2, 10), (3, 7), (5, 6), (7, 5)]:
        y = p**k
        t = build_table(y)
        assert t.nu_of(p) == k
        t2 = build_table(y - 1)
        assert t2.nu_of(p) == k - 1


def _reference_sieve(n: int) -> list[int]:
    """Primes <= n from a plain sieve over every integer."""
    mask = [False, False] + [True] * (n - 1) if n >= 1 else [False] * (n + 1)
    for p in range(2, math.isqrt(max(n, 0)) + 1):
        if mask[p]:
            mask[p * p :: p] = [False] * len(range(p * p, n + 1, p))
    return [k for k, prime in enumerate(mask) if prime]


def test_odd_sieve_matches_a_plain_sieve():
    # the sieve holds odd numbers only and prepends 2: n < 2, n = 2 and 3,
    # every n up to 3000, primes and squares of primes as n, and a few large n
    want = _reference_sieve(3000)
    for n in range(-1, 3001):
        got = sieve_primes(n)
        assert got.dtype == np.int64 and got.tolist() == [q for q in want if q <= n], n
    for n in (10007, 10007**2 // 1000, 99991, 1024000, 1024001):
        assert sieve_primes(n).tolist() == _reference_sieve(n), n


@pytest.mark.parametrize("bound", [3**5 - 1, 3**5, 3**5 + 1, 3**10, 17**3, 31**3, 83**3, 10**9])
def test_max_exponents_brute_force(bound):
    # the float floor of log(bound) / log(p) sits on an integer at each prime power
    p = sieve_primes(1000)
    assert max_exponents(p, bound).tolist() == [brute_nu(int(v), bound) for v in p]


def test_max_exponents_at_every_prime_power_up_to_3e9():
    # the float floor is at most one low and never high, so one upward step
    # makes it exact; p^k - 1 is where it could overshoot, p^k where it undershoots
    for p in sieve_primes(math.isqrt(3 * 10**9 + 1)).tolist():
        pk = p * p
        while pk <= 3 * 10**9 + 1:
            for bound in (pk - 1, pk, pk + 1):
                assert max_exponents(np.array([p]), bound)[0] == brute_nu(p, bound), (p, bound)
            pk *= p


def test_nu_invariant_random():
    rng = random.Random(20250809)
    for _ in range(25):
        y = rng.randint(2, 10**5)
        t = build_table(y)
        for p, n, _ in t.entries:
            assert p**n <= y < p ** (n + 1)
            assert n == brute_nu(p, y)


def test_psi_monotone_steps():
    prev = build_table(2).psi_y
    for y in range(3, 200):
        t = build_table(y)
        step = t.psi_y - prev
        if step > 1e-12:
            # a new prime power p^k = y appeared; the step is log p
            assert any(abs(step - lp) < 1e-9 for _, _, lp in t.entries)
        else:
            assert abs(step) < 1e-12
        prev = t.psi_y


def test_psi_y_consistency(table100):
    fsum = math.fsum(n * lp for _, n, lp in table100.entries)
    assert abs(table100.psi_y - fsum) <= 1e-12 * fsum


def test_build_table_errors():
    with pytest.raises(DomainError):
        build_table(1)
    with pytest.raises(ResourceError):
        build_table(10**9 + 1)


def test_modulus_context_examples(table10, table100):
    c = modulus_context(1, table10)
    assert (c.omega_q, c.phi_q, c.z_q) == (0, 1, 2)
    assert c.theta_q == pytest.approx(math.log(2) / math.log(10))

    c = modulus_context(12, table10)
    assert c.prime_divisors == (2, 3)
    assert (c.omega_q, c.phi_q, c.z_q) == (2, 4, 3)
    assert c.theta_q == pytest.approx(math.log(3) / math.log(10))

    c = modulus_context(30, table100)
    assert (c.omega_q, c.phi_q, c.z_q) == (3, 8, 5)


def test_modulus_phi_exact():
    t = build_table(1000)
    rng = random.Random(7)
    for _ in range(50):
        q = rng.randint(1, 10**6)
        c = modulus_context(q, t)
        phi = q
        for p in c.prime_divisors:
            phi = phi // p * (p - 1)
        assert c.phi_q == phi
        assert c.omega_q == len(c.prime_divisors)
        assert c.z_q == nth_prime(c.omega_q)


def test_factorize_is_full_up_to_10_12():
    assert factorize(10**12 + 39) == {10**12 + 39: 1}
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}
    assert factorize(2**40) == {2: 40}
    # a cofactor with no prime factor up to 10^6 is prime below (10^6 + 1)^2
    assert factorize(7 * (10**12 + 39)) == {7: 1, 10**12 + 39: 1}


@pytest.mark.parametrize("q", [2**61 - 1, 10**16 + 61, (10**6 + 3) * (10**12 + 39)])
def test_modulus_past_trial_division_is_refused_at_once(table100, q):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="trial division"):
        factorize(q)
    with pytest.raises(ResourceError, match="trial division"):
        modulus_context(q, table100)
    assert time.perf_counter() - start < 1


def test_tau_N_examples(table10, table100):
    assert tau_N(table10, modulus_context(1, table10)) == 48
    assert tau_N(table10, modulus_context(6, table10)) == 4
    # y=100 value via direct product of 1 + nu_p
    expect = 1
    for _, n, _ in table100.entries:
        expect *= 1 + n
    assert tau_N(table100, modulus_context(1, table100)) == expect


def test_tau_N_quotient_identity(table100):
    tau_full = tau_N(table100, modulus_context(1, table100))
    for q in (2, 6, 30, 210, 97):
        ctx = modulus_context(q, table100)
        lift = 1
        for p, n in zip(ctx.prime_divisors, ctx.nu_divisors):
            if p <= 100:
                lift *= 1 + n
        assert tau_N(table100, ctx) * lift == tau_full


def test_table_accessors_return_python_ints(table100):
    # exact Python ints, not numpy scalars: products of them must not wrap at 2^63
    assert type(table100.nu_of(2)) is int and type(table100.nu_of(101)) is int
    assert all(type(p) is int and type(n) is int for p, n, _ in table100.entries)
    ctx = modulus_context(210, table100)
    assert all(type(n) is int for n in ctx.nu_divisors)
    assert type(tau_N(table100, ctx)) is int and type(N_q(table100, ctx)) is int
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for q in (1, 6, 210):
        brute = math.prod(p ** brute_nu(p, 100) for p in primes if q % p)
        assert brute > 2**63
        assert N_q(table100, modulus_context(q, table100)) == brute


def test_tau_N_precondition(table10):
    ctx = modulus_context(11, table10)
    assert not ctx.p_plus_le_y
    with pytest.raises(PreconditionError):
        tau_N(table10, ctx)


def test_psi_q(table10):
    ctx = modulus_context(6, table10)
    assert psi_q(table10, ctx) == pytest.approx(math.log(5 * 7), rel=1e-12)


def test_classify_regime_examples(table100):
    tag = classify_regime(10**6, table100)
    assert tag.kind == "SMALL_Y" and tag.small_y and not tag.large_y
    assert tag.eta == pytest.approx(4.8, abs=0.1)
    assert tag.u == pytest.approx(3.0, abs=0.01)

    t1000 = build_table(1000)
    tag = classify_regime(10**6, t1000)
    assert tag.kind == "LARGE_Y" and tag.large_y
    assert tag.small_y  # psi(1000) >> 2 log x: both flags hold here

    tag = classify_regime(10**6, build_table(10))
    assert tag.kind == "OUT_OF_DOMAIN"
    assert not tag.small_y and not tag.large_y


def test_nth_prime_is_the_kth_entry_of_one_sieve():
    # p_k < k (log k + log log k) for k >= 6 and p_5 = 11 < 15: the one sieve up to
    # nth_prime's bound always reaches p_k.  The sieve it calls hands out prefixes of
    # one list, so every k up to 10^5 costs a slice, not a sieve.
    primes = sieve_primes(1_400_000)
    asked = []

    def prefix(n):
        asked.append(n)
        return primes[: primes.searchsorted(n, "right")]

    with mock.patch.object(pr, "sieve_primes", prefix):
        got = [nth_prime(k) for k in range(1, 10**5 + 1)]
    assert max(asked) <= primes[-1] and len(primes) > 10**5
    assert got == primes[: 10**5].tolist()
    assert [nth_prime(k) for k in range(-2, 12)] == \
        [2, 2, 2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert nth_prime(10**5) == 1299709
