import gc
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ultrafriable import (
    DomainError,
    N_q,
    PreconditionError,
    ResourceError,
    build_table,
    count_friable,
    count_friable_progression,
    count_ultrafriable,
    count_ultrafriable_below,
    count_ultrafriable_progression,
    count_ultrafriable_residues,
    character_sum,
    enumerate_characters,
    modulus_context,
    naive_oracle,
    tau_N,
)
from ultrafriable import counting as ct
from ultrafriable.counting import LIST_CAP, RESIDUE_Q_BOUND
from ultrafriable.primes import factorize, sieve_primes
from conftest import divisors_of

DIV2520 = divisors_of(2520)


def test_count_full_range(table10, ctx1_100):
    ctx = modulus_context(1, table10)
    assert count_ultrafriable(2520, table10, ctx) == 48
    assert count_ultrafriable(10**9, table10, ctx) == 48
    assert count_ultrafriable(2519, table10, ctx) == 47


def test_count_against_divisor_enumeration(table10):
    ctx = modulus_context(1, table10)
    for x in (1, 2, 7, 63, 100, 360, 2519, 2520):
        assert count_ultrafriable(x, table10, ctx) == sum(1 for d in DIV2520 if d <= x)
    # fractional bounds floor
    assert count_ultrafriable(100.9, table10, ctx) == count_ultrafriable(100, table10, ctx)
    assert count_ultrafriable(Fraction(201, 2), table10, ctx) == \
        count_ultrafriable(100, table10, ctx)


def test_count_y2():
    t = build_table(2)
    ctx = modulus_context(1, t)
    assert count_ultrafriable(1.5, t, ctx) == 1
    assert count_ultrafriable(2, t, ctx) == 2
    assert count_ultrafriable(10**6, t, ctx) == 2


def test_count_vs_oracle_spec_point(table100):
    ctx6 = modulus_context(6, table100)
    assert count_ultrafriable(10**6, table100, ctx6) == \
        naive_oracle(10**6, 100, q=6, mode="ultrafriable")


def test_count_below_strict(table10):
    ctx = modulus_context(1, table10)
    # divisors strictly below 8: {1,...,7} are all divisors of 2520
    assert count_ultrafriable_below(8, table10, ctx) == 7
    assert count_ultrafriable(8, table10, ctx) == 8
    # rational bound 2520/d approached from below, d = 8: d' < 315
    assert count_ultrafriable_below(2520, table10, ctx, den=8) == \
        sum(1 for d in DIV2520 if d < 2520 / 8)


def test_symmetry_identity_small(table10):
    ctx = modulus_context(1, table10)
    N = N_q(table10, ctx)
    tau = tau_N(table10, ctx)
    for x in list(DIV2520) + [51, 64, 100, 500, 1000, 2500]:
        if x * x < N:
            continue
        assert count_ultrafriable(x, table10, ctx) + \
            count_ultrafriable_below(N, table10, ctx, den=x) == tau


def test_residues_q1_and_examples(table10):
    rc = count_ultrafriable_residues(2520, table10, 1)
    assert rc.q == 1 and rc.counts == (48,)
    rc4 = count_ultrafriable_residues(2520, table10, 4)
    expect = tuple(sum(1 for d in DIV2520 if d % 4 == a) for a in range(4))
    assert rc4.counts == expect
    assert rc4.total() == 48


def test_residues_partition_and_oracle(table50):
    x = 10**5
    rc = count_ultrafriable_residues(x, table50, 7)
    assert rc.total() == count_ultrafriable(x, table50, modulus_context(1, table50))
    assert rc.coprime_total() == count_ultrafriable(x, table50, modulus_context(7, table50))
    for a in range(7):
        assert rc[a] == naive_oracle(x, 50, a=a, q=7)


def test_residue_bound():
    t = build_table(10)
    with pytest.raises(ResourceError):
        count_ultrafriable_residues(100, t, 10**4 + 1)


def test_count_friable_examples():
    assert count_friable(100, 200) == 100  # y >= x
    assert count_friable(100, 3) == 20  # {2^a 3^b <= 100}
    brute = sum(1 for a in range(8) for b in range(5) if 2**a * 3**b <= 100)
    assert brute == 20
    assert count_friable(10**6, 500, 6) == naive_oracle(10**6, 500, q=6, mode="friable")


def test_count_friable_progression_examples():
    assert count_friable_progression(100, 3, 1, 2) == 5  # odd 3-friable = powers of 3
    assert count_friable_progression(10**5, 700, 3, 10) == \
        naive_oracle(10**5, 700, a=3, q=10, mode="friable")
    # classes partition the friable count
    q = 12
    vec = [count_friable_progression(5000, 30, a, q) for a in range(q)]
    assert sum(vec) == count_friable(5000, 30)


def test_friable_guards():
    with pytest.raises(ResourceError):
        count_friable(10**9 + 1, 100)
    with pytest.raises(PreconditionError):
        count_friable(1000, 10, q=11)
    for x in (0, 1):  # checked before any count, x = 0 included
        with pytest.raises(PreconditionError):
            count_friable(x, 5, 7)


@pytest.mark.parametrize("x", [0, 1, 5, 10, 100, 10**6])
@pytest.mark.parametrize("y", [1, 2, 5, 7, 1000, 10**7])
def test_friable_progression_mod_1_is_the_friable_count(x, y):
    # mod 1 every n lies in the one class 0
    assert count_friable_progression(x, y, 0, 1) == count_friable(x, y)


def test_friable_progression_q_bound():
    # each memo entry would be a q-long list; the guard fires before any is built
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            count_friable_progression(100, 10, 1, RESIDUE_Q_BOUND + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * RESIDUE_Q_BOUND


# ---------------------------------------------------------------------------
# both kinds: the divisor core below sqrt(x), Buchstab's tail above
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(x=st.integers(min_value=0, max_value=10**6), y=st.integers(min_value=2, max_value=10**6),
       q=st.sampled_from((1, 2, 6, 7, 30, 74, 210)), a=st.integers(min_value=0, max_value=209))
def test_friable_counts_match_oracle(x, y, q, a):
    if max(factorize(q), default=1) <= y:
        assert count_friable(x, y, q) == naive_oracle(x, y, q=q, mode="friable")
    assert count_friable_progression(x, y, a, q) == naive_oracle(x, y, a=a, q=q, mode="friable")


@pytest.mark.parametrize("p", [2, 3, 5, 31, 37, 317, 997])
def test_friable_buchstab_edges(p):
    # y = isqrt(x) leaves the tail empty; y = isqrt(x) + 1 adds one prime to it or none
    for x in (p * p - 1, p * p, p * p + 1):
        for y in (math.isqrt(x), math.isqrt(x) + 1):
            assert count_friable(x, y) == naive_oracle(x, y, mode="friable"), (x, y)
            if y >= 7:
                assert count_friable(x, y, 42) == naive_oracle(x, y, q=42, mode="friable"), (x, y)
            for a in (0, 1, 3, 6):
                assert count_friable_progression(x, y, a, 7) == \
                    naive_oracle(x, y, a=a, q=7, mode="friable"), (x, y, a)


@pytest.mark.parametrize("x", [1000, 1368, 1369, 1370])
def test_friable_classes_with_prime_of_q_above_sqrt_x(x):
    # 74 = 2 * 37 and 37^2 = 1369: at y >= 37, the prime 37 | q sits in the tail
    # for x < 1369 and in the divisor rows from 1369 on
    for y in (36, 37, 38, 200):
        assert [count_friable_progression(x, y, a, 74) for a in range(74)] == \
            [naive_oracle(x, y, a=a, q=74, mode="friable") for a in range(74)], (x, y)


@pytest.mark.parametrize("x, y, q", [(10**7, 50, 30), (10**7, 5000, 7), (2 * 10**7, 10**5, 6),
                                     (10**7, 2000, 1009)])
def test_friable_classes_sum_to_plain_and_coprime_counts(x, y, q):
    vec = [count_friable_progression(x, y, a, q) for a in range(q)]
    assert sum(vec) == count_friable(x, y)
    assert sum(c for a, c in enumerate(vec) if math.gcd(a, q) == 1) == count_friable(x, y, q)


@pytest.mark.parametrize("x, p", [(243, 3), (59049, 3), (4913, 17), (29791, 31), (571787, 83)])
def test_friable_counts_at_powers_whose_float_log_falls_short(x, p):
    # x = p^k with log(x) / log(p) just below k: nu_p(x) = k needs the exact correction
    for y in (p, 2 * p, 101):
        if y < x:
            assert count_friable(x, y) == naive_oracle(x, y, mode="friable"), y
            assert [count_friable_progression(x, y, a, 7) for a in range(7)] == \
                [naive_oracle(x, y, a=a, q=7, mode="friable") for a in range(7)], y


def test_friable_classes_built_once_per_x_y_q():
    ct._class_vector.cache_clear()
    vec = [count_friable_progression(10**7, 5000, a, 7) for a in range(7)]
    assert ct._class_vector.cache_info().misses == 1
    assert sum(vec) == count_friable(10**7, 5000)


def test_friable_anchors():
    # from the memoised recursions the divisor-core counts replaced
    assert count_friable(10**8, 1000) == 11_298_170
    assert count_friable(10**9, 1000) == 59_244_184
    assert count_friable(10**9, 10**6, 210) == 118_814_459
    assert count_friable_progression(10**7, 1000, 11, 210) == 5277


@seed(16)
@settings(max_examples=25, deadline=None)
@given(yx=st.integers(min_value=2, max_value=3000).flatmap(
           lambda y: st.tuples(st.just(y), st.integers(min_value=0, max_value=min(y * y, 10**6) - 1))),
       q=st.sampled_from((1, 2, 6, 7, 30)))
def test_all_four_counts_match_oracle_with_a_tail(yx, q):
    # x < y^2, so the primes sqrt(x) < p <= y are Buchstab's tail for both kinds
    y, x = yx
    t = build_table(y)
    ctx = modulus_context(q, t)
    if ctx.p_plus_le_y:
        assert count_ultrafriable(x, t, ctx) == naive_oracle(x, y, q=q)
        assert count_friable(x, y, q) == naive_oracle(x, y, q=q, mode="friable")
    assert list(count_ultrafriable_residues(x, t, q).counts) == \
        [naive_oracle(x, y, a=a, q=q) for a in range(q)]
    assert [count_friable_progression(x, y, a, q) for a in range(q)] == \
        [naive_oracle(x, y, a=a, q=q, mode="friable") for a in range(q)]


def test_split_anchors_past_sqrt_x():
    # y = 10^5 > sqrt(10^8): heads over p <= 10^4, tails over 10^4 < p <= 10^5
    assert count_ultrafriable(10**8, build_table(10**5)) == 55_430_831
    ct._class_vector.cache_clear()
    vec = [count_friable_progression(10**8, 10**5, a, 210) for a in range(210)]
    assert ct._class_vector.cache_info().misses == 1
    assert vec[1] == 212_562
    assert sum(vec) == count_friable(10**8, 10**5) == 55_485_141


@pytest.mark.parametrize("x", [1000, 1368, 1369, 1370])
def test_ultrafriable_counts_with_prime_of_q_above_sqrt_x(x):
    # 74 = 2 * 37 and 37^2 = 1369: at y >= 37 the prime 37 | q sits in the tail
    # for x < 1369 and in the head rows from 1369 on
    for y in (37, 38, 200):
        t = build_table(y)
        assert count_ultrafriable(x, t, modulus_context(74, t)) == naive_oracle(x, y, q=74), (x, y)
        assert list(count_ultrafriable_residues(x, t, 74).counts) == \
            [naive_oracle(x, y, a=a, q=74) for a in range(74)], (x, y)


def test_friable_y_at_least_x():
    assert count_friable(10**9, 10**9) == 10**9
    assert count_friable(999_999_990, 10**9, 30) == 999_999_990 // 30 * 8
    # x a multiple of rad(q): d = rad(q) itself is a term of the inclusion-exclusion
    assert count_friable(6, 6, 6) == 2  # 1, 5
    assert count_friable(30, 100, 30) == 8
    assert count_friable(210, 300, 210) == 48
    assert count_friable_progression(10**9, 10**9, 1, 3) == 333_333_334
    assert count_friable_progression(10**6, 10**6, 1, 3) == 333_334
    assert count_friable_progression(10**6, 10**7, 0, 3) == 333_333


def test_tracer_patches_existing_names():
    """bench/tracing.py swaps package attributes by name; every one must exist."""
    root = Path(__file__).resolve().parents[1]
    code = ("from tracing import Tracer\n"
            "from ultrafriable import counting as ct, primes as pr\n"
            "from ultrafriable import characters as ch, estimators as es\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "t = pr.build_table(30)\n"
            "print(ct.count_friable(10**4, 30), ct.count_friable_progression(10**4, 30, 1, 7),\n"
            "      ct.get_counter(t).count_le(10**4), ct.get_residue_counter(t, 7).count_le(10**4)[1])\n"
            "r = ch.reconstruct_progression(10**4, t, 3, 7)\n"
            "d = es.t3_bound(10**4, t, pr.modulus_context(7, t), ch.enumerate_characters(7)[1])\n"
            "print(round(r.real), 0 <= d.exact_ratio <= 1)\n"
            "m = tracer.layer_metrics()\n"
            "print(m['counting.engine_builds'], m['counting.friable_s'] > 0,\n"
            "      m['characters.group_misses'], m['characters.chi_evals'] > 0)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / d) for d in ("src", "bench")))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts, characters, metrics = proc.stdout.strip().splitlines()
    assert counts.split() == [str(naive_oracle(10**4, 30, mode="friable")),
                              str(naive_oracle(10**4, 30, a=1, q=7, mode="friable")),
                              str(naive_oracle(10**4, 30)), str(naive_oracle(10**4, 30, a=1, q=7))]
    assert characters == f"{naive_oracle(10**4, 30, a=3, q=7)} True"
    # one character group built, its sums counted, under the swapped CharacterGroup
    assert metrics == "2.0 True 1.0 True"


def test_character_sum_examples(table10):
    chi0 = [c for c in enumerate_characters(3) if c.is_principal][0]
    s = character_sum(2520, table10, chi0)
    assert s.imag == pytest.approx(0.0, abs=1e-12)
    assert s.real == pytest.approx(
        count_ultrafriable(2520, table10, modulus_context(3, table10)), rel=1e-12)

    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    s = character_sum(2520, table10, chi)
    brute = sum({0: 0, 1: 1, 2: -1}[d % 3] for d in DIV2520)
    assert abs(s - brute) < 1e-9


def test_naive_oracle_trivial():
    assert naive_oracle(1, 10) == 1
    assert naive_oracle(1, 2, a=1, q=5) == 1
    assert naive_oracle(500, 500) == 500  # y >= x, q=1
    assert naive_oracle(512, 511) == 511  # 512 = 2^9 is the only excluded n
    with pytest.raises(ResourceError):
        naive_oracle(10**7 + 1, 10)


def test_ultrafriable_subset_of_friable():
    rng = random.Random(1)
    for _ in range(20):
        x = rng.randint(10, 10**5)
        y = rng.randint(2, 100)
        assert naive_oracle(x, y, mode="ultrafriable") <= naive_oracle(x, y, mode="friable")


def test_monotonicity(table50):
    ctx = modulus_context(1, table50)
    vals = [count_ultrafriable(x, table50, ctx) for x in (10, 100, 1000, 10**4, 10**6)]
    assert vals == sorted(vals)
    ys = [2, 5, 10, 30, 50]
    cnts = [count_ultrafriable(10**4, build_table(y), modulus_context(1, build_table(y)))
            for y in ys]
    assert cnts == sorted(cnts)
    # more prime support in q removes divisors
    assert count_ultrafriable(10**4, table50, modulus_context(6, table50)) <= \
        count_ultrafriable(10**4, table50, modulus_context(2, table50))


def test_engine_vs_oracle_random():
    rng = random.Random(99)
    for _ in range(30):
        y = rng.choice([2, 3, 5, 10, 17, 40, 90, 150])
        x = rng.randint(1, 10**5)
        t = build_table(y)
        assert count_ultrafriable(x, t, modulus_context(1, t)) == naive_oracle(x, y)
        q = rng.choice([1, 2, 3, 4, 6, 12])
        if all(p <= y for p in ([2] if q % 2 == 0 else []) + ([3] if q % 3 == 0 else [])):
            ctxq = modulus_context(q, t)
            if ctxq.p_plus_le_y:
                assert count_ultrafriable(x, t, ctxq) == naive_oracle(x, y, q=q)


def test_domain_errors(table10):
    with pytest.raises(DomainError):
        count_ultrafriable(-1, table10, modulus_context(1, table10))
    ctx11 = modulus_context(11, table10)
    with pytest.raises(PreconditionError):
        count_ultrafriable(100, table10, ctx11)


def test_oracle_sieve_only_grows():
    from ultrafriable.counting import _oracle_arrays

    naive_oracle(200_000, 30)
    misses = _oracle_arrays.cache_info().misses
    for x in (10, 5_000, 70_000, 200_000):
        naive_oracle(x, 30, q=7)
    assert _oracle_arrays.cache_info().misses == misses


def test_oracle_sieve_stops_at_bound(monkeypatch):
    # 1000 -> 4000 -> 16000 would pass the bound; the sieve stops at it
    monkeypatch.setattr(ct, "ORACLE_X_BOUND", 5000)
    monkeypatch.setattr(ct, "_oracle_cap", 1000)
    assert naive_oracle(4500, 30, mode="friable") == count_friable(4500, 30)
    assert ct._oracle_cap == 5000
    L, M = ct._oracle_arrays(ct._oracle_cap)
    assert len(L) == len(M) == 5001
    with pytest.raises(ResourceError):
        naive_oracle(5001, 30)


def test_oracle_sieve_built_once_up_to_10_6():
    # the sieve starts at 2^20, so every oracle x <= 10^6 shares its first build
    root = Path(__file__).resolve().parents[1]
    code = ("from ultrafriable import counting as ct\n"
            "for k in range(1, 7):\n"
            "    ct.naive_oracle(10**k, 30)\n"
            "print(ct._oracle_arrays.cache_info().misses)\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_oracle_against_per_n_loop():
    """naive_oracle's sliced sieve against factorising every n <= 2000."""
    checkpoints = {1, 2, 6, 29, 30, 31, 997, 1999, 2000}
    facs = [None] + [factorize(n) for n in range(1, 2001)]
    for y in (2, 7, 30, 100):
        for mode in ("ultrafriable", "friable"):
            for q in (1, 2, 6, 7, 30):
                classes = [0] * q
                coprime = 0
                for n in range(1, 2001):
                    f = facs[n]
                    big = max((p ** e for p, e in f.items()), default=1) if mode == "ultrafriable" \
                        else max(f, default=1)
                    if big <= y:
                        classes[n % q] += 1
                        coprime += math.gcd(n, q) == 1
                    if n in checkpoints:
                        assert naive_oracle(n, y, q=q, mode=mode) == coprime, (n, y, q, mode)
                        for a in range(q):
                            for a_rep in (a, a - q, a + 2 * q):
                                assert naive_oracle(n, y, a=a_rep, q=q, mode=mode) == classes[a], \
                                    (n, y, q, a_rep, mode)


def test_oracle_arrays_against_factorisation():
    """The two-part sieve against P+(m) and the largest p^a || m for every m <= n."""
    top = 16000
    L_ref, M_ref = [1, 1], [1, 1]
    for m in range(2, top + 1):
        f = factorize(m)
        L_ref.append(max(f))
        M_ref.append(max(p ** e for p, e in f.items()))
    sizes = {1, 2, 3, 4, 1000, 4000, top}
    for p in (2, 3, 5, 7, 11, 31):
        sizes |= {p * p - 1, p * p, p * p + 1}
    for n in sorted(sizes):
        L, M = ct._oracle_arrays.__wrapped__(n)
        assert L.dtype == M.dtype == np.int32, n
        assert len(L) == len(M) == n + 1, n
        assert L[1:].tolist() == L_ref[1 : n + 1], n
        assert M[1:].tolist() == M_ref[1 : n + 1], n
        assert int(L.max()) <= max(n, 1) and int(M.max()) <= max(n, 1), n


def test_oracle_huge_y_is_y_equals_x():
    for x in (1, 2, 999, 5000):
        for mode in ("ultrafriable", "friable"):
            for y in (2**40, 10**30):
                assert naive_oracle(x, y, mode=mode) == naive_oracle(x, x, mode=mode) == x
                assert naive_oracle(x, y, q=6, mode=mode) == naive_oracle(x, x, q=6, mode=mode)
                assert naive_oracle(x, y, a=4, q=7, mode=mode) == \
                    naive_oracle(x, x, a=4, q=7, mode=mode)


def test_engine_caches_are_shared(table100):
    from ultrafriable.counting import _counter, get_counter

    ctx = modulus_context(6, table100)
    engine = get_counter(table100, ctx)
    hits = _counter.cache_info().hits
    assert get_counter(build_table(100), modulus_context(6, table100)) is engine
    assert _counter.cache_info().hits == hits + 1


def test_one_engine_per_y_and_primes_of_q():
    # at y <= sqrt(x) the class vectors of every modulus and the plain count
    # read one engine, the plain one for (y, no primes of q)
    t = build_table(97)
    x = int(math.exp(20))
    assert t.y <= math.isqrt(x)
    ct._counter.cache_clear()
    ct._class_vector.cache_clear()
    rc7 = count_ultrafriable_residues(x, t, 7)
    rc30 = count_ultrafriable_residues(x, t, 30)
    assert ct._counter.cache_info().misses == 1
    assert rc7.total() == rc30.total() == count_ultrafriable(x, t)
    assert ct._counter.cache_info().misses == 1
    assert ct.get_residue_counter(t, 7).rows is ct.get_counter(t).rows


# ---------------------------------------------------------------------------
# the meet-in-the-middle engine: anchors computed with the former pruned walk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y, q, lx, want", [
    (200, 1, 30, 597446352),
    (200, 6, 24, 5149275),
    (150, 2, 27, 14724237),
    (100, 1, 40, 147708272),
    (100, 1, 45, 273171435),  # above 2^63: split by the largest prime power
    (150, 1, 50, 40865664237),  # a split 13 levels deep
])
def test_plain_count_anchors(y, q, lx, want):
    t = build_table(y)
    x = int(math.exp(lx))
    assert count_ultrafriable(x, t, modulus_context(q, t)) == want


def test_residue_count_anchors(table100):
    x = int(math.exp(30))
    rc = count_ultrafriable_residues(x, table100, 210)
    assert rc[11] == 6469 and rc.coprime_total() == 308755
    rc = count_ultrafriable_residues(x, table100, 7)
    assert rc[3] == 1740080 and rc.coprime_total() == 10440546
    assert rc.total() == 20666615


def test_coprime_total_is_exact_past_2_63():
    for q in (1, 2, 30, 9973, RESIDUE_Q_BOUND):
        counts = tuple(2**70 + 3 * a for a in range(q))
        want = sum(c for a, c in enumerate(counts) if math.gcd(a, q) == 1)
        assert ct.ResidueCounts(q, counts).coprime_total() == want


def test_residue_bounds_up_to_int64(table100):
    for x in (2**63 - 1, 2**63, int(math.exp(45))):
        rc = count_ultrafriable_residues(x, table100, 7)
        assert rc.total() == count_ultrafriable(x, table100)
        assert rc.coprime_total() == count_ultrafriable(x, table100, modulus_context(7, table100))


def test_class_split_past_the_budget_raises_before_counting():
    # a class plan has no reflection, so y = 150 at e^70 passes SPLIT_CAP
    # sub-bounds mod 7; the plan stops before any divisor list is built
    t = build_table(150)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="sub-bounds"):
        count_ultrafriable_residues(int(math.exp(70)), t, 7)
    assert time.perf_counter() - start < 1


def test_split_past_the_budget_raises_before_counting():
    # y = 300 at e^60 plans about 186,000 sub-bounds past 2^63; the plan stops at
    # SPLIT_CAP, before any divisor list is built
    t = build_table(300)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="sub-bounds"):
        count_ultrafriable(int(math.exp(60)), t)
    assert time.perf_counter() - start < 1


def test_plan_of_a_large_head_never_forms_N():
    # the head of x = e^30 at y = 10^7 has 234,855 rows, and their N some
    # 4.7 million bits; the plan multiplies rows only up to the first prefix
    # product past x^2, so it is at once a single leaf
    x = int(math.exp(30))
    head, tail = ct._head_and_tail(x, 10**7, (), "ultrafriable")
    assert len(head.rows) == 234_855 and len(tail) > 0
    assert not hasattr(ct._DivisorRows, "N") and not hasattr(head, "N")
    start = time.perf_counter()
    assert ct._split_plan(head.rows, x, 1) == [(1, len(head.rows), x, 0)]
    assert time.perf_counter() - start < 0.5


def test_full_residue_vector_built_once_per_rows_and_modulus(table50):
    engine = ct.get_residue_counter(table50, 11)
    ct._full_residues(engine.rows, 11)
    misses = ct._full_residues.cache_info().misses
    ctx = modulus_context(1, table50)
    N, tau = N_q(table50, ctx), tau_N(table50, ctx)
    for x in (N, N + 1, 2 * N, 10**40):
        assert count_ultrafriable_residues(x, table50, 11).total() == tau
    assert ct._full_residues.cache_info().misses == misses


def test_negative_bounds_are_domain_errors(table10):
    for call in (lambda: count_ultrafriable(-1, table10), lambda: count_ultrafriable(-0.5, table10),
                 lambda: count_ultrafriable_residues(-1, table10, 7),
                 lambda: count_friable(-1, 10), lambda: count_friable_progression(-1, 10, 1, 7),
                 lambda: naive_oracle(-1, 10)):
        with pytest.raises(DomainError, match="need x >= 0"):
            call()


def test_oversized_list_raises_before_allocating():
    t = build_table(500)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceError):
            count_ultrafriable(int(math.exp(40)), t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 10
    assert peak < LIST_CAP * 8 // 2  # half of one capped int64 list


@settings(max_examples=40, deadline=None)
@given(y=st.integers(min_value=2, max_value=200), x=st.integers(min_value=0, max_value=10**6),
       q=st.sampled_from((1, 2, 3, 4, 6, 7, 10, 12, 30)), a=st.integers(min_value=0, max_value=29))
def test_engine_matches_oracle(y, x, q, a):
    t = build_table(y)
    assert count_ultrafriable(x, t) == naive_oracle(x, y)
    assert count_ultrafriable_residues(x, t, q)[a] == naive_oracle(x, y, a=a, q=q)


@settings(max_examples=40, deadline=None)
@given(y=st.integers(min_value=2, max_value=60), q=st.sampled_from((1, 2, 6, 7, 30, 35)),
       frac=st.floats(min_value=0, max_value=1))
def test_divisor_symmetry_property(y, q, frac):
    t = build_table(y)
    ctx = modulus_context(q, t)
    if not ctx.p_plus_le_y:
        return
    N, tau = N_q(t, ctx), tau_N(t, ctx)
    x = max(1, min(N, round(N ** frac)))
    assert count_ultrafriable(x, t, ctx) + count_ultrafriable_below(N, t, ctx, den=x) == tau


@settings(max_examples=10, deadline=None)
@given(y=st.integers(min_value=90, max_value=110), lx=st.floats(min_value=43.7, max_value=46))
def test_bounds_above_int64_match_powers_of_two_split(y, lx):
    # the engine splits off the largest prime power; splitting off 2^e instead
    # is an independent route to the same count
    t = build_table(y)
    x = int(math.exp(lx))
    assert x >= 2**63
    odd = modulus_context(2, t)
    assert count_ultrafriable(x, t) == \
        sum(count_ultrafriable(x // 2**e, t, odd) for e in range(t.nu_of(2) + 1))


def test_lowered_int64_limit_splits_at_oracle_scale():
    # the harness below is vacuous unless the plan reads the patched limit
    rows = ct.get_counter(build_table(89)).rows
    with mock.patch.object(ct, "_INT64_LIMIT", 50):
        leaves = [(s, k, b) for s, k, b, _ in ct._split_plan(rows, 10**5, 1) if b is not None]
    assert len(leaves) > 1000 and all(b < 50 for _, _, b in leaves)


def _reference_plan(rows, N, bound, q):
    """The split plan carrying the exact N of rows[:k] down its stack."""
    leaves = []
    stack = [(1, len(rows), N, bound, 1 % q)]
    for _ in range(ct.SPLIT_CAP + 1):
        if not stack:
            return leaves
        sign, k, N, bound, m = stack.pop()
        if bound < 1:
            continue
        if bound >= N or (q == 1 and bound * bound >= N):
            leaves.append((sign, k, None, m))
            if bound >= N:
                continue
            sign, bound = -sign, (N - 1) // bound
        if bound < ct._INT64_LIMIT:
            leaves.append((sign, k, bound, m))
            continue
        p, nu = rows[k - 1]
        N //= p ** nu
        stack += [(sign, k - 1, N, bound // p ** e, m * p ** e % q) for e in range(nu + 1)]
    raise ResourceError(f"a bound past 2^63 splits into more than {ct.SPLIT_CAP} sub-bounds")


@seed(26)
@settings(max_examples=200, deadline=None)
@given(rows=st.dictionaries(st.sampled_from(sieve_primes(300).tolist()),
                            st.integers(min_value=1, max_value=12), max_size=14)
       .map(lambda d: tuple(sorted(d.items()))),
       at=st.sampled_from(("0", "1", "N-1", "N", "N+1", "sqrtN", "sqrtN+1", "1e40")),
       limit=st.sampled_from((50, 300, 5000, 1 << 63)), q=st.sampled_from((1, 2, 6, 7, 30)))
def test_split_plan_matches_a_plan_with_exact_N(rows, at, limit, q):
    # the plan forms prefix products only up to the first past bound^2; a plan
    # that carries the exact N of every prefix must give the same leaves, in
    # the same order, and refuse the same bounds
    N = math.prod(p ** nu for p, nu in rows)
    bound = {"0": 0, "1": 1, "N-1": N - 1, "N": N, "N+1": N + 1, "sqrtN": math.isqrt(N),
             "sqrtN+1": math.isqrt(N) + 1, "1e40": 10**40}[at]
    cap = ct.SPLIT_CAP if limit == 1 << 63 else 1 << 14  # a lowered limit plans more sub-bounds
    with mock.patch.object(ct, "_INT64_LIMIT", limit), mock.patch.object(ct, "SPLIT_CAP", cap):
        try:
            want = _reference_plan(rows, N, bound, q)
        except ResourceError:
            with pytest.raises(ResourceError, match="sub-bounds"):
                ct._split_plan(rows, bound, q)
            return
        assert ct._split_plan(rows, bound, q) == want


@seed(20)
@settings(max_examples=50, deadline=None)
@given(limit=st.sampled_from((50, 300, 2000, 10**4, 10**5)),
       qy=st.sampled_from((1, 2, 6, 7, 30, 210)).flatmap(lambda q: st.tuples(
           st.just(q), st.integers(min_value=max(factorize(q), default=2), max_value=89))),
       pick=st.randoms(use_true_random=True))
def test_split_and_reflection_exact_at_oracle_scale(limit, qy, pick):
    # with the int64 limit lowered, plain and friable counts at x < 10^6 take
    # the split past the limit and its reflections; each leaf must stay exact.
    # The lowered limit also multiplies the planned sub-bounds (up to about
    # 77,000 at limit 50, y = 89), so the budget is raised with it.
    q, y = qy
    x = pick.randrange(1, 10**6)  # uniform: the split needs x well above the limit
    t = build_table(y)
    with mock.patch.object(ct, "_INT64_LIMIT", limit), mock.patch.object(ct, "SPLIT_CAP", 1 << 17):
        plain = count_ultrafriable(x, t, modulus_context(q, t))
        friable = count_friable(x, y, q)
    assert plain == naive_oracle(x, y, q=q)
    assert friable == naive_oracle(x, y, q=q, mode="friable")


@seed(21)
@settings(max_examples=40, deadline=None)
@given(limit=st.sampled_from((50, 300, 2000, 10**4, 10**5)),
       qy=st.sampled_from((2, 3, 4, 6, 7, 12, 30, 210)).flatmap(lambda q: st.tuples(
           st.just(q), st.integers(min_value=2, max_value=89))),
       pick=st.randoms(use_true_random=True))
@example(limit=300, qy=(30, 89), pick=random.Random(0))  # runs first, and fails without shrinking
def test_class_split_exact_at_oracle_scale(limit, qy, pick):
    # with the int64 limit lowered, class counts at x < 10^6 take the split past
    # the limit: each leaf's classes are multiplied by the prime powers split off,
    # and there is no reflection; every class must stay exact
    q, y = qy
    x = pick.randrange(1, 10**6)
    t = build_table(y)
    ct._class_vector.cache_clear()  # vectors cached at the real limit would skip the split
    with mock.patch.object(ct, "_INT64_LIMIT", limit), mock.patch.object(ct, "SPLIT_CAP", 1 << 17):
        plain = count_ultrafriable_residues(x, t, q)
        friable = ct._class_vector(x, y, q, "friable")
    for a in range(q):
        assert plain[a] == naive_oracle(x, y, a=a, q=q)
        assert friable[a] == naive_oracle(x, y, a=a, q=q, mode="friable")


def test_one_row_is_a_leaf_below_its_divisor_count():
    # a row with more divisors than _DIRECT_TAU is listed directly, not halved;
    # it runs before the knob test, which fails on that too but only after
    # hypothesis has shrunk its example (about 25 s under pytest -x)
    ct._all_divisors.cache_clear()
    with mock.patch.object(ct, "_DIRECT_TAU", 2):
        assert ct._divisors_le(ct._Plan(((2, 10),)), 100).tolist() == [1, 2, 4, 8, 16, 32, 64]
        assert ct._divisors_le(ct._Plan(((3, 2), (5, 1))), 50).tolist() == [1, 3, 5, 9, 15, 45]


@seed(27)
@settings(max_examples=10, deadline=None)
@given(tau=st.sampled_from((2, 32, 4096)), limit=st.sampled_from((50, 5000, 1 << 63)),
       cells=st.sampled_from((5, 1 << 15)), block=st.sampled_from((64, 1 << 20)),
       lone=st.sampled_from((0, 1 << 40)), pick=st.randoms(use_true_random=True),
       peel=st.sampled_from((0, 1 << 63)))
def test_path_knobs_together_match_oracle(tau, limit, cells, block, lone, pick, peel):
    # every module constant that picks an engine path, drawn with the point:
    # a leaf of one row whatever _DIRECT_TAU is, the split past a lowered
    # int64 limit, class sweeps and class searches in tiny blocks, and a lone
    # class searched always (lone = 0) or never, and plain counts peeled
    # always (peel = 0) or never.  The point is uniform:
    # the split needs x well above the limit, and y on both sides of sqrt(x)
    # takes heads with and without Buchstab's tail.
    # At limit 50 a class plan past y = 89 passes SPLIT_CAP sub-bounds, a
    # refusal tested on its own, so y stops there.
    x, y = pick.randrange(10**6), pick.randrange(2, 90 if limit == 50 else 2001)
    q = pick.randrange(1, 211)
    t = build_table(y)
    ctx = modulus_context(q, t)
    with mock.patch.multiple(ct, _DIRECT_TAU=tau, _INT64_LIMIT=limit, SPLIT_CAP=1 << 17,
                             _CELLS=cells, _BLOCK=block, _LONE_CELLS=lone, _PEEL_BOUND=peel):
        # nothing listed or counted at the real knobs, and no engine's split
        # plan made under the real _DIRECT_TAU (the plans live in the engines)
        for cache in (ct._all_divisors, ct._class_vector, ct._counter):
            cache.cache_clear()
        ultra = count_ultrafriable_residues(x, t, q).counts
        friable = [count_friable_progression(x, y, a, q) for a in range(q)]
        plain = count_ultrafriable(x, t, ctx) if ctx.p_plus_le_y else count_ultrafriable(x, t)
        smooth = count_friable(x, y, q if ctx.p_plus_le_y else 1)
        a = pick.randrange(q)
        alone = [ct._class_count(x, y, a, q, kind) for kind in ("ultrafriable", "friable")
                 if kind == "ultrafriable" or y < x]
    ct._counter.cache_clear()  # no engine planned at the drawn _DIRECT_TAU outlives the patch
    assert list(ultra) == [naive_oracle(x, y, a=a, q=q) for a in range(q)]
    assert friable == [naive_oracle(x, y, a=a, q=q, mode="friable") for a in range(q)]
    assert plain == naive_oracle(x, y, q=q if ctx.p_plus_le_y else None)
    assert smooth == naive_oracle(x, y, q=q if ctx.p_plus_le_y else None, mode="friable")
    assert alone == [naive_oracle(x, y, a=a, q=q, mode=kind) for kind in ("ultrafriable", "friable")
                     if kind == "ultrafriable" or y < x]


def _dealt(rows):
    """The deal A B B A A B B A ... by position, one row at a time."""
    return (tuple(r for i, r in enumerate(rows) if i % 4 in (0, 3)),
            tuple(r for i, r in enumerate(rows) if i % 4 in (1, 2)))


def test_split_deals_rows_a_b_b_a():
    t = build_table(1_300_000)
    rows = tuple(zip(t.p_arr[:10**5].tolist(), t.nu_arr[:10**5].tolist()))
    assert len(rows) == 10**5
    for case in [rows[:n] for n in range(10)] + [rows]:
        left, right = ct._split(case)
        assert (left, right) == _dealt(case)
        assert list(left) == sorted(left) and list(right) == sorted(right)
        assert not set(left) & set(right) and sorted(left + right) == list(case)


def test_a_warm_engine_splits_no_rows():
    # each row prefix is planned once: a second query on the same engine,
    # at its bound or another, deals no rows and counts the same
    rows = ct.get_counter(build_table(150)).rows
    engine = ct._DivisorRows(rows)
    x = int(math.exp(25))
    with mock.patch.object(ct, "_split", wraps=ct._split) as split:
        cold = engine.count_le(x), engine.classes_le(x, 30)
        assert split.call_count > 0
        split.reset_mock()
        warm = engine.count_le(x), engine.classes_le(x, 30), engine.count_le(x // 999)
    assert split.call_count == 0
    assert warm[:2] == cold and warm[2] == ct._DivisorRows(rows).count_le(x // 999)
    assert sum(cold[1]) == cold[0]


def test_no_split_plan_outlives_a_head_or_a_refusal():
    # x = 10^8 at y = 10^6 has a Buchstab head over p <= 10^4, an engine of
    # one query; x = 10^12 is refused on the cached engine of y = 10^6
    t = build_table(10**6)
    assert count_ultrafriable(10**8, t) == 73643579
    with pytest.raises(ResourceError):
        count_ultrafriable(10**12, t)
    assert ct.get_counter(t)._plans == {}
    assert not [o for o in gc.get_objects() if isinstance(o, ct._Plan) and len(o.rows) > 1000]


def test_lists_cached_under_a_lowered_limit_stay_whole():
    # the leaf lists outlive the patch: those listed while the limit is lowered
    # must still hold every divisor when the same rows are counted without it
    ct._all_divisors.cache_clear()
    t = build_table(89)
    x = 987_654

    def counts_match_oracle():
        assert count_ultrafriable(x, t) == naive_oracle(x, 89)
        assert count_friable(x, 89, 6) == naive_oracle(x, 89, q=6, mode="friable")

    with mock.patch.object(ct, "_INT64_LIMIT", 300), mock.patch.object(ct, "SPLIT_CAP", 1 << 17):
        counts_match_oracle()
    assert ct._all_divisors.cache_info().currsize > 0
    counts_match_oracle()


def test_cached_divisor_lists_are_read_only(table100):
    rows = ct.get_counter(table100).rows[:4]
    full = ct._all_divisors(rows)
    prefix = ct._divisors_le(ct._Plan(rows), 1000)
    for arr in (full, prefix):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7
    assert ct._all_divisors(rows) is full and full[0] == 1


@pytest.mark.parametrize("rows", [
    ((2, 30), (3, 20), (5, 4)),  # N about 2.3e21, 3,255 divisors
    ((10007, 1), (10009, 1), (10037, 1), (10039, 1), (10061, 1), (10067, 1)),  # N about 1e24
    ((2, 62), (3, 30), (7, 1)),  # 2^62 is a divisor; others lie on both sides of 2^63
])
def test_prefix_equals_a_fresh_listing_past_2_63(rows):
    N = math.prod(p ** nu for p, nu in rows)
    assert N > 2**63 and math.prod(nu + 1 for _, nu in rows) <= ct._DIRECT_TAU
    every = sorted(math.prod(d) for d in itertools.product(
        *([p ** e for e in range(nu + 1)] for p, nu in rows)))
    rng = random.Random(7)
    for X in (1, 2, 10**6, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 2, 2**63 - 1,
              *(rng.randrange(1, 2**63) for _ in range(20))):
        assert ct._divisors_le(ct._Plan(rows), X).tolist() == [d for d in every if d <= X]


def _leaf_rows(plan):
    """The row tuples of the leaves of a split tree, each once."""
    return {plan.rows} if plan.leaf else set().union(*map(_leaf_rows, plan.halves()))


def test_leaf_lists_are_shared_across_queries_and_engines(table100):
    # the y = 100 residue engines mod 7, 30 and 210 have the same rows and list
    # each leaf of their tree once; plain counts peel rows[0] and list each leaf
    # of the tree of rows[1:] once, for every plain engine on the same rows
    x = int(math.exp(25))
    rows = ct.get_counter(table100).rows
    whole, peeled = _leaf_rows(ct._Plan(rows)), _leaf_rows(ct._Plan(rows[1:]))
    ct._all_divisors.cache_clear()
    ct._class_vector.cache_clear()  # cold: nothing cached by an earlier test
    ct.get_residue_counter(table100, 7).count_le(x)
    assert ct._all_divisors.cache_info().misses == len(whole) > 0
    for q in (30, 210):
        ct.get_residue_counter(table100, q).count_le(x)
    assert ct._all_divisors.cache_info().misses == len(whole)
    assert x // 5 >= ct._PEEL_BOUND
    ct.get_counter(table100).count_le(x // 3)
    ct._DivisorRows(rows).count_le(x // 5)
    info = ct._all_divisors.cache_info()
    assert info.misses == len(whole | peeled)
    assert info.hits == 2 * len(whole) + len(whole & peeled) + len(peeled)


def _group_rows(engine, x):
    """{k: (the rows whose halves the group on rows[:k] lists, its largest bound)}
    of a plain count: rows[1:k] for a group of one leaf at or past _PEEL_BOUND."""
    groups = {}
    for _, k, b, _ in ct._split_plan(engine.rows, x, 1):
        if b is not None:
            groups.setdefault(k, []).append(b)
    return {k: (engine.rows[int(len(bs) == 1 and bs[0] >= ct._PEEL_BOUND):k], max(bs))
            for k, bs in groups.items()}


def test_split_lists_each_row_prefix_once():
    # the leaves of one plan share the halves of rows[:k], listed at the group's
    # largest bound; a group of one leaf at or past _PEEL_BOUND lists rows[1:k]
    t = build_table(100)
    x = int(math.exp(45))
    engine = ct.get_counter(t)
    groups = _group_rows(engine, x)
    leaves = [b for _, _, b, _ in ct._split_plan(engine.rows, x, 1) if b is not None]
    assert len(leaves) > len(groups) > 1
    assert {len(rows) == k for k, (rows, _) in groups.items()} == {True, False}  # both kinds of group
    with mock.patch.object(ct, "_halves", wraps=ct._halves) as halves:
        assert engine.count_le(x) == 273171435
    # the halves' own lists call _halves on interleaved rows, never on a slice
    # of the engine's rows from rows[0] or rows[1]
    listed = [rows for rows in (c.args[0].rows for c in halves.call_args_list)
              if rows in (engine.rows[:len(rows)], engine.rows[1:len(rows) + 1])]
    assert sorted(listed) == sorted(rows for rows, _ in groups.values())


# ---------------------------------------------------------------------------
# the peel: a plain count's smallest row as multipliers of its bounds
# ---------------------------------------------------------------------------

def _peeled_and_whole(count):
    """count() with _PEEL_BOUND at 0 (every plain leaf alone on its rows[:k] peeled) and at 2^63."""
    out = []
    for bound in (0, 1 << 63):
        with mock.patch.object(ct, "_PEEL_BOUND", bound):
            out.append(count())
    return out


@settings(max_examples=30, deadline=None)
@given(y=st.integers(min_value=2, max_value=200), lx=st.floats(min_value=0, max_value=30),
       q=st.sampled_from((1, 2, 6, 30)))
@example(y=100, lx=45.0, q=1)  # past 2^63, a leaf alone on its rows[:k] is peeled
@example(y=150, lx=50.0, q=1)
@example(y=200, lx=46.0, q=6)
def test_peeled_counts_match_whole_rows(y, lx, q):
    x = int(math.exp(lx))
    t = build_table(y)
    q = q if modulus_context(q, t).p_plus_le_y else 1
    for count in (lambda: count_ultrafriable(x, t, modulus_context(q, t)),
                  lambda: count_friable(min(x, ct.FRIABLE_X_BOUND), y, q)):
        peeled, whole = _peeled_and_whole(count)
        assert peeled == whole, (x, y, q)


def test_peeled_counts_step_by_one_at_divisors(table100):
    # at a bound d that divides N the count rises by exactly one: each sub-bound
    # is d // p^e, and the one term with d / p^e odd counts d
    engine = ct.get_counter(table100)
    rng = random.Random(5)
    bounds = []
    while len(bounds) < 12:
        d = 1
        for p, nu in rng.sample(engine.rows, len(engine.rows)):
            e = rng.randrange(nu + 1)
            if d * p ** e < 1 << 50:
                d *= p ** e
        if d >= ct._PEEL_BOUND:
            bounds.append(d)
    assert any(d % 2 for d in bounds) and any(d % 8 == 0 for d in bounds)
    for d in bounds:
        assert engine.count_le(d) - engine.count_le(d - 1) == 1, d
        peeled, whole = _peeled_and_whole(lambda: engine.count_le(d))
        assert peeled == whole, d


def test_peel_answers_a_count_whose_whole_lists_pass_the_cap():
    # y = 250 at e^40: the half lists of the whole rows pass LIST_CAP; without
    # the row of 2 they fit
    t = build_table(250)
    x = int(math.exp(40))
    with mock.patch.object(ct, "_PEEL_BOUND", 1 << 63), \
            pytest.raises(ResourceError, match="36076847 entries exceeds the cap"):
        count_ultrafriable(x, t)
    start = time.perf_counter()
    assert count_ultrafriable(x, t) == 68_631_190_874
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("y, lx", [(120, 52), (150, 55)])
def test_split_peak_is_one_groups_lists(y, lx):
    # a group's lists are freed before the next group's are built, so the
    # count peaks at the largest single group, not at two groups at once
    engine = ct.get_counter(build_table(y))
    x = int(math.exp(lx))
    groups = _group_rows(engine, x)
    assert len(groups) > 1

    def peak(count):
        tracemalloc.start()
        try:
            count()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_group = max(peak(lambda: ct._residue_pairs(*ct._halves(ct._Plan(rows), b), b, 1))
                    for rows, b in groups.values())
    assert peak(lambda: engine.count_le(x)) < 1.05 * one_group


@settings(max_examples=40, deadline=None)
@given(y=st.integers(min_value=2, max_value=150), lx=st.floats(min_value=0, max_value=30),
       q=st.sampled_from((1, 2, 6, 7, 30, 49, 210, 1009)))
def test_classes_sum_to_plain_and_coprime_counts(y, lx, q):
    t = build_table(y)
    x = int(math.exp(lx))
    rc = count_ultrafriable_residues(x, t, q)
    assert rc.total() == count_ultrafriable(x, t)
    ctx = modulus_context(q, t)
    if ctx.p_plus_le_y:
        assert rc.coprime_total() == count_ultrafriable(x, t, ctx)


@pytest.mark.parametrize("s", [2**3 * 7 * 11, 2**2 * 11 * 19, 3**2 * 5 * 13, 3 * 13 * 17])
def test_counts_at_squares_of_half_divisors(table100, s):
    # s = isqrt(x) is itself an entry of one half's list, the boundary
    # between the pairs searched from either side
    x = s * s
    assert count_ultrafriable(x, table100) == naive_oracle(x, 100)
    rc = count_ultrafriable_residues(x, table100, 7)
    assert rc.counts == tuple(naive_oracle(x, 100, a=a, q=7) for a in range(7))


# ---------------------------------------------------------------------------
# the class sweep: blocks, carried rows and the binning threshold
# ---------------------------------------------------------------------------

def _binned_pairs(P, Q, X, q, floor=0):
    """Every product u * v <= X over u in P with u > floor and v in Q, binned mod q."""
    products = np.multiply.outer(P[P > floor], Q).ravel()  # X < 2^31 keeps them in int64
    return np.bincount(products[products <= X] % q, minlength=q).tolist()


def _side(P, V, X, floor):
    """(V, P[P > floor], ends): one side of the sweep, each v in V paired with
    the u in P above floor and at most X // v."""
    P = P[P > floor]
    return V, P, P.searchsorted(X // V, "right")


@pytest.mark.parametrize("q", [1, 2, 7, 210, 1009, 9973])
def test_class_pairs_match_binned_products(q):
    rng = np.random.default_rng(q)
    empty = np.zeros(0, dtype=np.int64)
    for _ in range(3):
        X = int(rng.integers(10**6, 10**9))
        s = math.isqrt(X)
        # log-uniform, as divisor lists are: most pairs then fall below X
        P = np.unique(np.exp(rng.uniform(0, math.log(X), size=400)).astype(np.int64))
        Q = np.unique(np.exp(rng.uniform(0, math.log(4 * s), size=90)).astype(np.int64))
        cases = [(P, Q), (empty, Q), (P, empty)]
        for floor in (0, s):
            want = [_binned_pairs(p, v, X, q, floor) for p, v in cases]
            # the default blocks, and blocks of 16 rows (the fewest allowed)
            # that cut the lists and carry a row from block to block, the
            # entries of a block taken 7 or 64 at a time
            for cells, block in ((ct._CELLS, ct._BLOCK), (q, 7), (3 * q, 64)):
                with mock.patch.object(ct, "_CELLS", cells), mock.patch.object(ct, "_BLOCK", block):
                    got = [ct._class_pairs(*_side(p, v, X, floor), q).tolist() for p, v in cases]
                assert got == want, (X, floor, cells, block)


@pytest.mark.parametrize("y, lx, q", [(100, 24, 30), (100, 22, 210), (100, 26, 1009),
                                      (100, 12, 210), (100, 14, 1009)])
def test_residue_pairs_same_on_both_sides_of_the_binning_threshold(y, lx, q):
    # the class count sweeps where there are more pairs than (row, class)
    # cells and bins the listed products otherwise: the half lists at e^12
    # mod 210 and e^14 mod 1009 have fewer pairs than cells, the rest more.
    # Either way it equals the sweep of each side, and the binned product list
    rows = ct.get_residue_counter(build_table(y), q).rows
    X = int(math.exp(lx))
    A, B = ct._halves(ct._Plan(rows), X)
    with mock.patch.object(ct, "_class_pairs", wraps=ct._class_pairs) as sweep:
        got = ct._residue_pairs(A, B, X, q).tolist()
    assert sweep.called == (lx > 14)
    swept = sum(ct._class_pairs(*side, q) for side in ct._pair_sides(A, B, X))
    assert got == swept.tolist()
    assert got == np.bincount(ct._pair_products(A, B, X) % q, minlength=q).tolist()
    assert sum(got) == ct._residue_pairs(A, B, X, 1)[0]


@pytest.mark.parametrize("q", [1, 7, 210])
def test_pair_sides_match_brute_force(q):
    # every pair count, class count and product list reads the same two
    # sides; a tail list has no entry <= sqrt(X), and a list may be empty
    rng = np.random.default_rng(q)
    empty = np.zeros(0, dtype=np.int64)
    for _ in range(3):
        X = int(rng.integers(10**6, 10**9))
        s = math.isqrt(X)
        A = np.unique(np.exp(rng.uniform(0, math.log(X), size=300)).astype(np.int64))
        B = np.unique(np.exp(rng.uniform(0, math.log(4 * s), size=90)).astype(np.int64))
        tail = np.unique(rng.integers(s + 1, X // 2, size=60))
        for P, Q in ((A, B), (B, A), (tail, B), (B, tail), (A, empty), (empty, B), (tail, tail)):
            want = _binned_pairs(P, Q, X, q)
            products = np.multiply.outer(P, Q).ravel()
            assert ct._pair_products(P, Q, X).tolist() == sorted(products[products <= X].tolist())
            # the path the rule picks, and the sweep of each side
            assert ct._residue_pairs(P, Q, X, q).tolist() == want, X
            swept = sum(ct._class_pairs(*side, q) for side in ct._pair_sides(P, Q, X))
            assert swept.tolist() == want, X


@seed(14)
@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from((3, 4, 12, 30, 49, 210, 997)), y=st.integers(min_value=2, max_value=89),
       x=st.integers(min_value=0, max_value=10**6 - 1), sweep=st.booleans())
def test_class_vectors_match_oracle_at_oracle_scale(q, y, x, sweep):
    # every class a mod q of both class counts; with sweep, the class sweep's
    # blocks are 16 rows, the fewest allowed
    t = build_table(y)
    ct._class_vector.cache_clear()
    with mock.patch.object(ct, "_CELLS", 1 if sweep else ct._CELLS):
        ultra = count_ultrafriable_residues(x, t, q).counts
        friable = [count_friable_progression(x, y, a, q) for a in range(q)]
    assert list(ultra) == [naive_oracle(x, y, a=a, q=q) for a in range(q)]
    assert friable == [naive_oracle(x, y, a=a, q=q, mode="friable") for a in range(q)]


@pytest.mark.parametrize("q", [9240, 9973])
def test_large_modulus_vector_sums_to_plain_and_coprime_counts(table50, q):
    # 9240 = 2^3 * 3 * 5 * 7 * 11; the prime 9973 exceeds y, so every count is coprime to it
    x = int(math.exp(20))
    rc = count_ultrafriable_residues(x, table50, q)
    assert rc.total() == count_ultrafriable(x, table50)
    if q == 9973:
        assert rc[0] == 0 and rc.coprime_total() == rc.total()
    else:
        assert rc.coprime_total() == count_ultrafriable(x, table50, modulus_context(q, table50))


@pytest.mark.parametrize("y", [-3, 0, 1])
def test_friable_counts_below_y_2_match_oracle(y):
    # no n is y-friable for y < 1, since P+(1) = 1; for y = 1 only n = 1 is
    for x in (0, 1, 2, 10, 1396):
        assert count_friable(x, y) == naive_oracle(x, y, mode="friable"), (x, y)
        for q in (1, 2, 6, 7):
            classes = [count_friable_progression(x, y, a, q) for a in range(q)]
            assert classes == [naive_oracle(x, y, a=a, q=q, mode="friable") for a in range(q)]
            coprime = sum(c for a, c in enumerate(classes) if math.gcd(a, q) == 1)
            assert coprime == naive_oracle(x, y, q=q, mode="friable"), (x, y, q)
            if q == 1:
                assert count_friable(x, y, q) == coprime
            else:  # P+(q) > y
                with pytest.raises(PreconditionError):
                    count_friable(x, y, q)


@pytest.mark.parametrize("call, error, message", [
    (lambda t: count_ultrafriable(math.nan, t), DomainError, "bound must be finite, got nan"),
    (lambda t: count_ultrafriable(math.inf, t), DomainError, "bound must be finite, got inf"),
    (lambda t: count_friable(-math.inf, 10), DomainError, "bound must be finite, got -inf"),
    (lambda t: count_ultrafriable_below(-1, t), DomainError, "need num >= 0 and den >= 1"),
    (lambda t: count_ultrafriable_below(10, t, den=0), DomainError, "need num >= 0 and den >= 1"),
    (lambda t: naive_oracle(10, 5, mode="smooth"), DomainError, "unknown oracle mode 'smooth'"),
    (lambda t: naive_oracle(10, 5, a=1), DomainError, "a requires a modulus q >= 1"),
    (lambda t: naive_oracle(10, 5, a=1, q=0), DomainError, "a requires a modulus q >= 1"),
])
def test_counting_input_checks(table10, call, error, message):
    with pytest.raises(error) as ei:
        call(table10)
    assert str(ei.value) == message


# ---------------------------------------------------------------------------
# one class alone: class_le, the one-class pair count and the tail
# ---------------------------------------------------------------------------

# (kind, y, log x, every class mod q >= 210): the ultrafriable engine of
# y = 100 from e^5 (with Buchstab's tail) to e^30, a y = 5000 head with its
# tail, and friable heads without a tail and with one; the costly points mod
# 210 and 1001 take every 7th class (a friable head of 10^8 with its tail is
# the first class of test_split_anchors_past_sqrt_x)
_ONE_CLASS_POINTS = (("ultrafriable", 100, 5, True), ("ultrafriable", 100, 12, True),
                     ("ultrafriable", 100, 20, False), ("ultrafriable", 100, 30, False),
                     ("ultrafriable", 5000, 11, False), ("friable", 30, 12, True),
                     ("friable", 3000, 13, False))


@pytest.mark.parametrize("q", [1, 7, 12, 30, 49, 210, 1001])
def test_one_class_equals_the_vector_entry_at_every_class(q):
    for kind, y, lx, every in _ONE_CLASS_POINTS:
        X = int(math.exp(lx))
        vec = ct._class_vector(X, y, q, kind)
        classes = range(q) if every or q < 210 else range(0, q, 7)
        got = [ct._class_count(X, y, a, q, kind) for a in classes]
        assert got == [vec[a] for a in classes], (kind, y, lx)
        for a in (-q, -1, q, 2 * q + 5):  # a is read mod q
            assert ct._class_count(X, y, a, q, kind) == vec[a], (kind, y, lx, a)


@settings(max_examples=40, deadline=None)
@given(x=st.integers(min_value=0, max_value=10**6), y=st.integers(min_value=2, max_value=3000),
       q=st.sampled_from((1, 2, 6, 7, 12, 30, 49, 210, 1001)),
       a=st.integers(min_value=-1001, max_value=2002))
def test_one_class_matches_oracle(x, y, q, a):
    assert ct._class_count(x, y, a, q, "ultrafriable") == naive_oracle(x, y, a=a, q=q)
    friable = ct._class_count(x, y, a, q, "friable") if y < x else count_friable_progression(x, y, a, q)
    assert friable == naive_oracle(x, y, a=a, q=q, mode="friable")


@pytest.mark.parametrize("y, lx, q, classes", [(100, 22, 7, range(7)), (100, 20, 30, range(30)),
                                               (100, 18, 210, range(1, 210, 13)),
                                               (100, 12, 1001, range(0, 1001, 71))])
def test_one_class_paths_agree(y, lx, q, classes):
    # each side counted by the search (in one block and in blocks of 64
    # entries, carried) and by the sweep read at a, against the vector's
    # pair count
    X = int(math.exp(lx))
    A, B = ct._halves(ct._Plan(ct.get_counter(build_table(y)).rows), X)
    want = ct._residue_pairs(A, B, X, q).tolist()
    paths = {"search": dict(_LONE_CELLS=0), "blocks": dict(_LONE_CELLS=0, _BLOCK=64),
             "sweep": dict(_LONE_CELLS=1 << 40)}
    for path, knobs in paths.items():
        with mock.patch.multiple(ct, **knobs), \
                mock.patch.object(ct, "_class_search", wraps=ct._class_search) as search, \
                mock.patch.object(ct, "_class_pairs", wraps=ct._class_pairs) as sweep:
            got = [ct._class_pair_count(A, B, X, a, q) for a in classes]
        assert got == [want[a] for a in classes], path
        assert (search.called, sweep.called) == ((False, True) if path == "sweep" else (True, False)), path


def test_one_class_tail_reaches_isqrt_x():
    # x = s * P with P the prime after s = isqrt(x): the tail pair P * s is n = x
    for s, P in ((10, 11), (12, 13), (16, 17), (18, 19), (28, 29), (30, 31), (40, 41)):
        for x in (s * P - 1, s * P, (s + 1) ** 2 - 1):
            assert math.isqrt(x) == s
            for kind, q in itertools.product(("ultrafriable", "friable"), (1, 7, 30)):
                assert [ct._class_count(x, P, a, q, kind) for a in range(q)] == \
                    [naive_oracle(x, P, a=a, q=q, mode=kind) for a in range(q)], (x, kind, q)


def test_one_class_search_asks_the_g_classes_of_a_shared_gcd():
    # v = 6 and 10 share 2 with q = 20: v * u ≡ a needs 2 | a, and then holds
    # on two classes of u mod 20; v = 5 shares 5, and v = 20 solves only a = 0
    V, P = np.array([1, 5, 6, 10, 20]), np.arange(1, 400)
    ends = np.array([399, 250, 123, 77, 19])
    for a in range(-20, 40):
        want = sum(int(np.count_nonzero(v * P[:e] % 20 == a % 20)) for v, e in zip(V, ends))
        for block in (1 << 20, 7):
            with mock.patch.object(ct, "_BLOCK", block):
                assert ct._class_search(V, P, ends, a % 20, 20) == want, (a, block)


@pytest.mark.parametrize("lx, q, classes", [(44, 5 * 43, (0, 1, 2, 43, 86, 129, 172, 200)),
                                            (45, 30, range(30)), (46, 210, range(0, 210, 11)),
                                            (46, 5 * 97, range(0, 485, 97))])
def test_one_class_past_2_63(table100, lx, q, classes):
    # the split past 2^63 peels 97, 89, ..., 43 off the y = 100 rows: the
    # multipliers share 43 with 215 and 97 with 485, so some leaves drop out
    # and others count a class mod 5, read from a / 43 or a / 97
    X = int(math.exp(lx))
    assert X >= 2**63
    vec = count_ultrafriable_residues(X, table100, q)
    assert [ct._class_count(X, 100, a, q, "ultrafriable") for a in classes] == [vec[a] for a in classes]


@pytest.mark.parametrize("q", [6, 12, 30])
def test_one_class_leaves_at_a_lowered_limit(q):
    # with the int64 limit at 50 the y = 30 rows split into hundreds of
    # leaves, and full leaves (bounds >= N_k) whose multipliers share a prime
    # with q sum the entries of their class mod q / g
    rows = ct.get_counter(build_table(30)).rows
    divisors = np.array([math.prod(p ** e for (p, _), e in zip(rows, es))
                         for es in itertools.product(*(range(nu + 1) for _, nu in rows))])
    for X in (10**4, 10**6):
        want = np.bincount(divisors[divisors <= X] % q, minlength=q).tolist()
        with mock.patch.object(ct, "_INT64_LIMIT", 50), mock.patch.object(ct, "SPLIT_CAP", 1 << 17):
            assert any(b is None and math.gcd(m, q) > 1 for _, _, b, m in ct._split_plan(rows, X, q))
            assert [ct._DivisorRows(rows).class_le(X, a, q) for a in range(q)] == want, X


@seed(31)
@settings(max_examples=10, deadline=None)
@given(limit=st.sampled_from((50, 300, 2000)),
       qy=st.sampled_from((4, 6, 12, 30, 210)).flatmap(lambda q: st.tuples(
           st.just(q), st.integers(min_value=2, max_value=60))),
       pick=st.randoms(use_true_random=True))
def test_one_class_split_exact_at_oracle_scale(limit, qy, pick):
    # with the int64 limit lowered, the plan peels every prime down to 2, so
    # the multipliers share each prime of q, and bounds >= N_k leave full leaves
    q, y = qy
    x = pick.randrange(1, 10**6)
    engine = ct.get_counter(build_table(y))
    with mock.patch.object(ct, "_INT64_LIMIT", limit), mock.patch.object(ct, "SPLIT_CAP", 1 << 17):
        vec = engine.classes_le(x, q)
        for a in pick.sample(range(q), 3):
            assert engine.class_le(x, a, q) == vec[a] == naive_oracle(x, y, a=a, q=q), (x, a)


def test_progression_early_returns_unchanged():
    # x = 0, y < 2 and y >= x are answered before any engine or vector
    with mock.patch.object(ct, "_class_count", side_effect=AssertionError), \
            mock.patch.object(ct, "_class_vector", side_effect=AssertionError):
        for x, y in itertools.product((0, 1, 2, 10, 1396), (-3, 0, 1, 10, 1396, 2000)):
            if x == 0 or y < 2 or y >= x:
                for q in (1, 2, 6, 7):
                    for a in range(-q, 2 * q):
                        assert count_friable_progression(x, y, a, q) == \
                            naive_oracle(x, y, a=a, q=q, mode="friable"), (x, y, a, q)
    t = build_table(10)
    assert [count_ultrafriable_progression(0, t, a, 7) for a in range(7)] == [0] * 7


def test_first_class_at_a_point_reads_the_vector_built_there():
    # a point whose vector is built is recorded: its first class asked reads it
    t = build_table(100)
    x = int(math.exp(29))
    ct._class_vector.cache_clear()
    ct._asked.clear()
    ultra = count_ultrafriable_residues(x, t, 210)
    friable = ct._class_vector(10**6, 150, 7, "friable")
    with mock.patch.object(ct, "_class_count", wraps=ct._class_count) as alone:
        got = [count_ultrafriable_progression(x, t, a, 210) for a in (11, 0, 209, -1)]
        got_friable = [count_friable_progression(10**6, 150, a, 7) for a in range(7)]
    alone.assert_not_called()
    assert got == [ultra[a] for a in (11, 0, 209, -1)]
    assert got_friable == list(friable.counts)
    assert ct._class_vector.cache_info().misses == 2


def test_second_class_at_a_point_reads_one_vector():
    # the first class asked at a point is counted alone; from the second on the
    # point's vector is built once and read
    t = build_table(150)
    ct._class_vector.cache_clear()
    ct._asked.clear()
    with mock.patch.object(ct, "_class_count", wraps=ct._class_count) as alone:
        first = count_ultrafriable_progression(10**6, t, 3, 7), count_friable_progression(10**6, 150, 3, 7)
        assert alone.call_count == 2 and ct._class_vector.cache_info().misses == 0
        ultra = [count_ultrafriable_progression(10**6, t, a, 7) for a in range(7)]
        friable = [count_friable_progression(10**6, 150, a, 7) for a in range(7)]
        assert alone.call_count == 2 and ct._class_vector.cache_info().misses == 2
        assert first == (ultra[3], friable[3])
        # the record keeps the last 128 points: a point pushed out is counted alone again
        for x in range(1, 129):
            count_friable_progression(x + 200, 150, 1, 7)
        assert alone.call_count == 130
        count_ultrafriable_progression(10**6, t, 5, 7)
        assert alone.call_count == 131
    assert ultra == [naive_oracle(10**6, 150, a=a, q=7) for a in range(7)]
    assert friable == [naive_oracle(10**6, 150, a=a, q=7, mode="friable") for a in range(7)]
