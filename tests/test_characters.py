import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultrafriable import (
    DomainError,
    build_table,
    count_ultrafriable,
    count_ultrafriable_residues,
    character_sum,
    d_sum,
    enumerate_characters,
    modulus_context,
    naive_oracle,
    reconstruct_progression,
    s_sum,
    solve_beta,
    w_q,
)
from ultrafriable.characters import (
    _generators,
    _twisted_re,
    character_group,
    character_sums_from_residues,
)
from ultrafriable.counting import RESIDUE_Q_BOUND, ResidueCounts
from ultrafriable.primes import factorize, sieve_primes


def euler_phi(q):
    out = sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)
    return out


def test_group_sizes_and_principal():
    for q in list(range(1, 41)) + [60, 72, 100]:
        chars = enumerate_characters(q)
        assert len(chars) == euler_phi(q)
        assert sum(1 for c in chars if c.is_principal) == 1


def test_q5_structure():
    chars = enumerate_characters(5)
    orders = sorted(c.order for c in chars)
    assert orders == [1, 2, 4, 4]
    reals = [c for c in chars if c.is_real]
    assert len(reals) == 2  # principal + Legendre symbol
    leg = [c for c in reals if not c.is_principal][0]
    for a in range(1, 5):
        ls = pow(a, 2, 5) in (1, 4) and any(b * b % 5 == a for b in range(1, 5))
        assert leg(a).real == pytest.approx(1.0 if ls else -1.0, abs=1e-14)


def test_q8_all_real():
    chars = enumerate_characters(8)
    assert len(chars) == 4
    assert all(c.is_real for c in chars)


def test_q1_trivial():
    chars = enumerate_characters(1)
    assert len(chars) == 1
    assert chars[0](7) == 1


def test_multiplicative_and_unimodular():
    rng = random.Random(5)
    for q in (3, 8, 9, 12, 16, 21, 36, 40):
        for chi in enumerate_characters(q):
            for _ in range(8):
                m, n = rng.randint(1, 300), rng.randint(1, 300)
                vm, vn, vmn = chi(m), chi(n), chi(m * n)
                assert abs(vm * vn - vmn) < 1e-12
            assert chi(1) == 1
            for n in range(1, q + 1):
                v = chi(n)
                if math.gcd(n, q) > 1:
                    assert v == 0
                else:
                    assert abs(abs(v) - 1) < 1e-14


def test_character_values_match_roots_of_unity():
    # chi(n)^order(chi) = 1 for coprime n
    for q in (5, 7, 9, 16):
        for chi in enumerate_characters(q):
            for n in range(1, q):
                if math.gcd(n, q) == 1:
                    assert abs(chi(n) ** chi.order - 1) < 1e-10


def test_orthogonality_rows():
    # sum over a of chi(a) conj(psi(a)) = phi(q) [chi == psi]
    for q in (5, 8, 12):
        chars = enumerate_characters(q)
        for i, chi in enumerate(chars):
            for j, psi in enumerate(chars):
                s = sum(chi(a) * psi(a).conjugate() for a in range(q))
                expect = euler_phi(q) if i == j else 0.0
                assert abs(s - expect) < 1e-10


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from((1, 2, 4, 8, 9, 12, 16, 24, 101, 1009)),
       pick=st.randoms(use_true_random=False), k=st.integers(min_value=0, max_value=10**6))
def test_values_match_scalar_path(q, pick, k):
    chi = pick.choice(enumerate_characters(q))
    ns = np.arange(-2 * q, 3 * q + 1, dtype=np.int64)
    vals = chi.values(ns)
    assert vals.tolist() == [chi(int(n)) for n in ns]
    assert ((vals == 0) == (np.gcd(ns, q) > 1)).all()
    n = 2**70 + k  # beyond int64: the scalar path reduces mod q first
    assert chi(n) == chi(n % q)


# ---------------------------------------------------------------------------
# diagnostic sums
# ---------------------------------------------------------------------------

def test_w_q_principal_zero(table100):
    ctx = modulus_context(5, table100)
    chi0 = [c for c in enumerate_characters(5) if c.is_principal][0]
    assert w_q(0.0, 0.5, table100, ctx, chi0) == pytest.approx(0.0, abs=1e-15)


def test_w_q_real_minus_one_case():
    # mod 3 the nonprincipal character is -1 at 2 and 5 (both = 2 mod 3)
    t5 = build_table(5)
    ctx = modulus_context(3, t5)
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    beta = 0.7
    expect = 4.0 / 2**beta + 4.0 / 5**beta
    assert w_q(0.0, beta, t5, ctx, chi) == pytest.approx(expect, rel=1e-12)


def test_w_q_duplicate_oracle(table100):
    ctx = modulus_context(5, table100)
    chi = enumerate_characters(5)[1]
    tau, beta = 1.0, 0.3
    got = w_q(tau, beta, table100, ctx, chi)
    ref = 0.0
    for p, _, _ in table100.entries:
        if p == 5:
            continue
        ref += (1 - (chi(p) * cmath.exp(-1j * tau * math.log(p))).real) ** 2 / p**beta
    assert got == pytest.approx(ref, rel=1e-12)
    assert got >= 0


def test_d_sum_principal(table100):
    chi0 = [c for c in enumerate_characters(15) if c.is_principal][0]
    beta = 0.4
    got = d_sum(0.0, beta, 100, chi0)
    expect = math.log(3) / 3**beta + math.log(5) / 5**beta
    assert got == pytest.approx(expect, rel=1e-12)


def test_d_sum_hand_enumeration():
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    got = d_sum(0.0, 1.0, 10, chi)
    expect = 2 * math.log(2) / 2 + math.log(3) / 3 + 2 * math.log(5) / 5 + 0.0
    assert got == pytest.approx(expect, rel=1e-12)


def test_s_sum_prime_powers():
    chi = [c for c in enumerate_characters(4) if not c.is_principal][0]
    beta = 0.8
    got = s_sum(0.0, beta, 10, chi)
    # contributions: 3, 9 (chi=-1... chi(3)=chi(3 mod 4)=-1, chi(9)=1), 5, 7
    expect = (
        chi(3) * math.log(3) / 3**beta
        + chi(9) * math.log(3) / 9**beta
        + chi(5) * math.log(5) / 5**beta
        + chi(7) * math.log(7) / 7**beta
    )
    assert abs(got - expect) < 1e-12


def test_s_sum_principal_q1_is_psi():
    # chi = 1 and n^{-beta} = 1 - O(1e-12 log y): S is the sum of Lambda(n) over n <= y
    chi0 = enumerate_characters(1)[0]
    for y in (2, 10, 100, 1000):
        s = s_sum(0.0, 1e-12, y, chi0)
        assert s.imag == 0.0
        assert s.real == pytest.approx(build_table(y).psi_y, rel=1e-10)


def test_w_q_and_d_sum_share_the_twisted_real_part():
    # both sums read Re(chi(p) p^{-i tau}) from one helper and stay bit-identical
    # to their own array formulas; the helper agrees with cmath prime by prime
    for y, q in ((30, 7), (100, 12), (1000, 30)):
        t = build_table(y)
        ctx, lp = modulus_context(q, t), t.logp_arr
        for chi in enumerate_characters(q):
            for tau, beta in ((0.0, 0.4), (0.3, 0.9), (17.0, 1.3)):
                re = (chi.values(t.p_arr) * np.exp(-1j * tau * lp)).real
                w = (1.0 - re) ** 2 * np.exp(-beta * lp)
                assert w_q(tau, beta, t, ctx, chi) == float(np.sum(w[t.mask_coprime(ctx.prime_divisors)]))
                assert d_sum(tau, beta, y, chi) == float(np.sum((1.0 - re) * lp * np.exp(-beta * lp)))
                assert np.array_equal(_twisted_re(tau, t, chi), re)
            p = t.p_arr[::7].tolist()
            want = [(chi(v) * cmath.exp(-1j * tau * math.log(v))).real for v in p]
            assert _twisted_re(tau, t, chi)[::7] == pytest.approx(want, abs=1e-12)


def test_w_q_rejects_another_modulus(table100):
    chi = enumerate_characters(5)[1]
    with pytest.raises(DomainError):
        w_q(0.0, 0.5, table100, modulus_context(7, table100), chi)


def test_d_sum_lemma_band():
    # |D - y^{1-beta}/(1-beta) + Re S| <= 0.5 * y^{1-beta}/(1-beta) in regime
    for y, lx_frac in ((100, 0.25), (200, 0.3), (400, 0.2)):
        table = build_table(y)
        lx = table.psi_y * lx_frac
        beta = solve_beta(math.exp(lx), table).sigma
        main = y ** (1 - beta) / (1 - beta)
        for q in (3, 5):
            for chi in enumerate_characters(q):
                if chi.is_principal:
                    continue
                for tau in (0.0, 0.5, 2.0):
                    dd = d_sum(tau, beta, y, chi)
                    ss = s_sum(tau, beta, y, chi)
                    assert abs(dd - main + ss.real) <= 0.5 * main


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_q1(table10):
    v = reconstruct_progression(2520, table10, 0, 1)
    assert v.real == pytest.approx(48, abs=1e-9)


def test_reconstruct_examples(table10, table50):
    rc = count_ultrafriable_residues(2520, table10, 3)
    v = reconstruct_progression(2520, table10, 1, 3)
    assert abs(v.real - rc[1]) <= 1e-9 * (1 + rc[1])
    assert abs(v.imag) <= 1e-9 * (1 + rc[1])

    got = reconstruct_progression(10**5, table50, 5, 8)
    assert abs(got.real - naive_oracle(10**5, 50, a=5, q=8)) <= 1e-6 * (1 + got.real)


def test_reconstruct_noncoprime_rejected(table10):
    with pytest.raises(DomainError):
        reconstruct_progression(100, table10, 2, 4)


def test_value_indices_at_noncoprime_rejected():
    # gcd(2, 12) > 1 has no dlogs row; row -1 would give chi(11) for every chi
    with pytest.raises(DomainError):
        character_group(12).value_indices_at(2)


def test_orthogonality_all_classes(table50):
    for q in (3, 4, 5, 8, 9, 12, 30):
        rc = count_ultrafriable_residues(10**4, table50, q)
        for a in range(q):
            if math.gcd(a, q) == 1:
                v = reconstruct_progression(10**4, table50, a, q)
                assert abs(v.real - rc[a]) <= 1e-6 * (1 + rc[a])
                assert abs(v.imag) <= 1e-6 * (1 + rc[a])


def test_parseval(table50):
    x = 10**4
    for q in (5, 8, 12):
        chars = enumerate_characters(q)
        rc = count_ultrafriable_residues(x, table50, q)
        lhs = sum(abs(character_sum(x, table50, chi)) ** 2 for chi in chars)
        rhs = euler_phi(q) * sum(rc[a] ** 2 for a in range(q) if math.gcd(a, q) == 1)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_character_group_cached():
    assert character_group(12) is character_group(12)


# ---------------------------------------------------------------------------
# the per-modulus character table against a per-residue loop
# ---------------------------------------------------------------------------

TABLE_QS = (1, 2, 4, 8, 16, 24, 48, 101, 125, 210, 331, 1000, 1009)


def loop_character_sum(counts, chi):
    """sum_a chi(a) * counts[a], one residue at a time."""
    L = chi.group.exponent
    s = 0j
    for a, c in enumerate(counts.counts):
        k = chi.value_index(a) if c else None
        if k is not None:
            s += c * cmath.exp(2j * math.pi * k / L)
    return s


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(TABLE_QS), y=st.sampled_from((10, 30, 50)),
       x=st.integers(min_value=0, max_value=10**5), pick=st.randoms(use_true_random=False))
def test_table_sums_match_residue_loop(q, y, x, pick):
    table = build_table(y)
    rc = count_ultrafriable_residues(x, table, q)
    tol = 1e-9 * max(1, rc.total())
    chars = enumerate_characters(q)
    sums = character_group(q).character_sums(rc)
    assert len(sums) == len(chars)
    for chi in pick.sample(chars, min(len(chars), 12)):
        want = loop_character_sum(rc, chi)
        assert abs(character_sum(x, table, chi) - want) <= tol
        assert abs(sums[chi.index] - want) <= tol


@settings(max_examples=15, deadline=None)
@given(q=st.sampled_from(TABLE_QS), pick=st.randoms(use_true_random=False))
def test_all_character_sums_in_characters_order(q, pick):
    chars = enumerate_characters(q)
    assert [chi.index for chi in chars] == list(range(len(chars)))
    rc = count_ultrafriable_residues(5000, build_table(30), q)
    sums = character_group(q).character_sums(rc)
    assert sums[0] == rc.coprime_total()  # index 0 is the principal character
    chosen = pick.sample(chars, min(len(chars), 8))
    got = character_sums_from_residues(rc, chosen)
    for chi, s in zip(chosen, got):
        assert abs(s - loop_character_sum(rc, chi)) <= 1e-9 * max(1, rc.total())


@pytest.mark.parametrize("q", TABLE_QS + (9240, 9973))
def test_grid_is_the_character_group(q):
    """The table's units are (Z/q)*, and its phi(q) characters are distinct
    homomorphisms into Z/L, principal first: exact value indices throughout."""
    group = character_group(q)
    L, chars = group.exponent, group.characters()
    assert sorted(group.units.tolist()) == [a for a in range(q) if math.gcd(a, q) == 1]
    rng = random.Random(q)
    sample = []
    while len(sample) < 24:
        n = rng.randrange(1, 10**6)
        if math.gcd(n, q) == 1:
            sample.append(n)
    at = {n: group.value_indices_at(n) for n in sample}
    for m, n in zip(sample[::2], sample[1::2]):
        assert np.array_equal((at[m] + at[n]) % L, group.value_indices_at(m * n))
    # 24 random units generate (Z/q)* unless all miss a generator of one
    # cyclic factor, so characters equal on them are equal
    assert len(np.unique(np.stack([at[n] for n in sample], axis=1), axis=0)) == group.phi_q
    for chi in rng.sample(chars, min(len(chars), 16)):
        for n in sample[:4]:
            assert at[n][chi.index] == chi.value_index(n)
    assert chars[0].is_principal and chars[0].index == 0
    assert all(at[n][0] == 0 for n in sample)


@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from((3, 8, 12, 101)),
       counts=st.lists(st.integers(min_value=0, max_value=2**80), min_size=101, max_size=101))
def test_sums_exact_beyond_int64(q, counts):
    rc = ResidueCounts(q, tuple(counts[:q - 1]) + (2**70,))
    assert rc.total() >= 2**63  # the int64 buckets would overflow
    group = character_group(q)
    sums = group.character_sums(rc)
    assert sums[0] == complex(rc.coprime_total())
    for chi in group.characters():
        want = loop_character_sum(rc, chi)
        tol = 1e-9 * rc.total()
        assert abs(group.character_sum(rc, chi) - want) <= tol
        assert abs(sums[chi.index] - want) <= tol


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from(TABLE_QS), y=st.sampled_from((10, 30, 50)),
       x=st.integers(min_value=0, max_value=10**5), a=st.integers(min_value=0, max_value=10**4))
def test_reconstruct_returns_class_count(q, y, x, a):
    assume(math.gcd(a, q) == 1)
    table = build_table(y)
    count = count_ultrafriable_residues(x, table, q)[a]
    v = reconstruct_progression(x, table, a, q)
    assert abs(v.real - count) <= 1e-9 * (1 + count)
    assert abs(v.imag) <= 1e-9 * (1 + count)


def test_roots_exact_at_quarter_turns():
    for q in (3, 5, 8, 13, 16, 101):
        group = character_group(q)
        L = group.exponent
        for k, want in enumerate((1, 1j, -1, -1j)):
            if (k * L) % 4 == 0:
                assert group.roots[k * L // 4] == want


def test_real_character_sum_has_zero_imaginary_part():
    rc = ResidueCounts(3, (0, 2**80 + 7, 2**80))
    chi = [c for c in enumerate_characters(3) if not c.is_principal][0]
    assert chi.is_real
    assert chi.group.character_sum(rc, chi).imag == 0.0


def _has_full_order(g: int, order: int, m: int) -> bool:
    return pow(g, order, m) == 1 and all(pow(g, order // f, m) != 1 for f in factorize(order))


def test_primitive_root_lift_past_a_wieferich_base():
    # 5, the least primitive root mod 40487, has 5^(p-1) = 1 mod p^2, so it does
    # not generate mod p^2 and is lifted to 5 + p; 40487^2 is past every residue modulus
    p = 40487
    assert p * p > RESIDUE_Q_BOUND and pow(5, p - 1, p * p) == 1
    assert _generators(p, 2) == [(40492, p * (p - 1))]
    assert _has_full_order(40492, p * (p - 1), p * p)


def test_odd_prime_power_generators_have_full_order():
    for p in sieve_primes(math.isqrt(RESIDUE_Q_BOUND)).tolist()[1:]:
        e = 2
        while p**e <= RESIDUE_Q_BOUND:
            [(g, order)] = _generators(p, e)
            assert order == p**e - p ** (e - 1)
            assert _has_full_order(g, order, p**e), (p, e, g)
            e += 1


@pytest.mark.parametrize("call, message", [
    (lambda t: character_group(7).unit_counts(count_ultrafriable_residues(100, t, 5)),
     "residue counts are mod 5, characters mod 7"),
    (lambda t: w_q(0.0, 0.0, t, modulus_context(5, t), enumerate_characters(5)[1]),
     "need beta > 0, got 0.0"),
    (lambda t: d_sum(1.0, -0.5, 10, enumerate_characters(5)[1]), "need beta > 0, got -0.5"),
    (lambda t: s_sum(1.0, 0, 10, enumerate_characters(5)[1]), "need beta > 0, got 0"),
])
def test_characters_input_checks(table10, call, message):
    with pytest.raises(DomainError) as ei:
        call(table10)
    assert str(ei.value) == message


def test_character_sums_from_no_characters(table10):
    assert character_sums_from_residues(count_ultrafriable_residues(100, table10, 5), []) == []
