"""Dirichlet characters mod q on one grid shared by units and characters.

Representation: q factors as prod p^e; each unit group (Z/p^e)* is cyclic
with one generator (odd p, and p^e = 4) or C2 x C_{2^{e-2}} with
generators -1 and 5 (p = 2, e >= 3).  Each generator g of a component is
lifted by CRT to the residue g mod p^e, 1 mod q / p^e, so (Z/q)* is the
grid of exponent vectors t of shape ``orders``, t <-> prod g_i^{t_i} mod q.
A character is an exponent vector on the same grid; its values are exact
roots of unity indexed in Z/L with L the group exponent, and floating
point enters only in the final complex exponential.

Each modulus has one table, built once per ``CharacterGroup`` from one
enumeration of that grid in C order: row i of ``dlogs`` is the discrete
logs of the unit ``units[i]`` and the exponents of character i, which is
``characters()[i]``.  Every value chi(n) is read from that table: the row
of n mod q gives the discrete logs, their dot product with the
character's steps t_i L / o_i the value index, and ``roots`` the value,
one row for a single n and one fancy-indexed pass for an array.  A single
character sum buckets the residue counts by value index as exact integers
and touches the L roots of unity only at the end; all phi(q) sums at once
are one FFT of the unit counts reshaped to ``orders``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import primes as pr
from .counting import _check_modulus, count_ultrafriable_residues
from .errors import DomainError


def _generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators of (Z/p^e)* as residues mod p^e, with their orders."""
    pe = p**e
    if p == 2:  # <-1> x <5>, where the factor <5> is trivial mod 4 and (Z/2)* is trivial
        if e == 1:
            return []
        return [(pe - 1, 2)] + ([(5, pe // 4)] if e >= 3 else [])
    fac = pr.factorize(p - 1)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in fac))
    # a primitive root mod p lifts to p^e unless g^(p-1) == 1 mod p^2
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p
    return [(g, pe - pe // p)]


class CharacterGroup:
    """The full character group mod q with shared evaluation tables."""

    def __init__(self, q: int):
        _check_modulus(q)
        self.q = q
        gens = []  # (generator lifted to mod q, its order)
        for p, e in sorted(pr.factorize(q).items()):
            pe = p**e
            lift = q // pe * pow(q // pe, -1, pe)  # 1 mod p^e, 0 mod q / p^e
            gens += [(((g - 1) * lift + 1) % q, o) for g, o in _generators(p, e)]
        self.orders = tuple(o for _, o in gens)
        self.exponent = math.lcm(*self.orders) if self.orders else 1
        self.phi_q = math.prod(self.orders) if self.orders else 1
        L = self.exponent
        k = np.arange(L)
        self.roots = np.exp(2j * math.pi * k / L)
        # quarter turns exactly: exp(i pi) in floating point has imaginary part 1.2e-16
        quarter = (4 * k) % L == 0
        self.roots[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // L]
        # exponent index of n: sum over generators of t_i * dlog_i(n) * (L / o_i)
        self._weights = np.array([L // o for o in self.orders], dtype=np.int64)
        # the units prod g_i^{t_i} mod q over the grid of shape orders, in C order
        units = np.ones(1, dtype=np.int64)
        for g, o in gens:
            powers = [1] * o
            for t in range(1, o):
                powers[t] = powers[t - 1] * g % q
            units = (units[:, None] * np.array(powers, dtype=np.int64) % q).ravel()
        self.units = units % q  # q = 1: the one unit is the residue 0
        self.dlogs = np.indices(self.orders).reshape(len(self.orders), self.phi_q).T
        self._unit_row = np.full(q, -1, dtype=np.int64)
        self._unit_row[self.units] = np.arange(len(self.units))
        self._characters: tuple[DirichletCharacter, ...] | None = None

    def characters(self) -> tuple["DirichletCharacter", ...]:
        """All phi(q) characters in lexicographic exponent order, built once."""
        if self._characters is None:
            self._characters = tuple(DirichletCharacter(self, t) for t in self.dlogs.tolist())
        return self._characters

    def value_indices_at(self, n: int) -> np.ndarray:
        """value_index of chi(n) for every chi, in ``characters()`` order; n coprime to q."""
        row = self._unit_row[n % self.q]
        if row < 0:
            raise DomainError(f"need (n, q) = 1, got n={n}, q={self.q}")
        return (self.dlogs @ (self.dlogs[row] * self._weights)) % self.exponent

    def unit_counts(self, counts) -> np.ndarray:
        """The residue counts at the unit residues, exact: int64 when their
        total fits, else an object array of Python ints.  The bound is the
        literal 2^63, not the divisor engine's lowerable path limit."""
        if counts.q != self.q:
            raise DomainError(f"residue counts are mod {counts.q}, characters mod {self.q}")
        dtype = np.int64 if counts.total() < 1 << 63 else object
        return np.array(counts.counts, dtype=dtype)[self.units]

    def character_sum(self, counts, chi: "DirichletCharacter") -> complex:
        """sum_a chi(a) * counts[a], bucketed by value index before the roots."""
        units = self.unit_counts(counts)
        buckets = np.zeros(self.exponent, dtype=units.dtype)
        np.add.at(buckets, chi.value_indices(), units)
        return complex(np.dot(self.roots, buckets.astype(np.float64)))

    def character_sums(self, counts) -> np.ndarray:
        """sum_a chi(a) * counts[a] for every chi, in ``characters()`` order.

        The unit counts, in grid order, reshape to the grid of shape
        ``orders``; the sum for exponent vector t is then the conjugate of
        the grid's DFT at t.  The principal sum is the exact coprime count.
        """
        units = self.unit_counts(counts)
        sums = np.conj(np.fft.fftn(units.astype(np.complex128).reshape(self.orders))).ravel()
        sums[0] = complex(int(units.sum()))
        return sums


class DirichletCharacter:
    """A single character chi mod q, identified by generator exponents."""

    def __init__(self, group: CharacterGroup, exponents: tuple[int, ...]):
        self.group = group
        self.modulus = group.q
        self.exponents = tuple(exponents)
        self.is_principal = all(t == 0 for t in self.exponents)
        orders = group.orders
        self.is_real = all((2 * t) % o == 0 for t, o in zip(self.exponents, orders))
        self.order = math.lcm(*(o // math.gcd(o, t) for t, o in zip(self.exponents, orders))) \
            if self.exponents else 1
        # position in characters() order: the C-order flat index over orders
        self.index = 0
        for t, o in zip(self.exponents, orders):
            self.index = self.index * o + t

    @cached_property
    def _steps(self) -> np.ndarray:
        """t_i L / o_i per generator, built on first use rather than with the group."""
        return np.array(self.exponents, dtype=np.int64) * self.group._weights

    def value_index(self, n: int) -> int | None:
        """k with chi(n) = exp(2 pi i k / L), or None when chi(n) = 0."""
        g = self.group
        row = g._unit_row[n % self.modulus]
        if row < 0:
            return None
        return int(g.dlogs[row] @ self._steps) % g.exponent

    def value_indices(self) -> np.ndarray:
        """value_index at every unit residue of the group table.

        Not cached: phi(q) entries per character would add up to phi(q)^2
        over a cached group, and the product costs microseconds.
        """
        g = self.group
        return (g.dlogs @ self._steps) % g.exponent

    def values(self, n: np.ndarray) -> np.ndarray:
        """chi(n) for an int64 array n, complex; 0 where gcd(n, q) > 1."""
        g = self.group
        rows = g._unit_row[n % self.modulus]
        k = (g.dlogs[rows] @ self._steps) % g.exponent
        return np.where(rows >= 0, g.roots[k], 0)

    def __call__(self, n: int) -> complex:
        k = self.value_index(n)
        if k is None:
            return 0j
        return complex(self.group.roots[k])

    def __repr__(self):
        return f"DirichletCharacter(q={self.modulus}, exponents={self.exponents})"


@lru_cache(maxsize=64)
def character_group(q: int) -> CharacterGroup:
    return CharacterGroup(q)


def enumerate_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """All phi(q) characters mod q in lexicographic exponent order."""
    return character_group(q).characters()


# ---------------------------------------------------------------------------
# character-side diagnostic sums
# ---------------------------------------------------------------------------

def w_q(tau: float, beta: float, table: pr.PrimePowerTable, ctx: pr.ModulusContext,
        chi: DirichletCharacter) -> float:
    """sum over p <= y, p ∤ q of (1 - Re(chi(p) p^{-i tau}))^2 / p^beta."""
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    if chi.modulus != ctx.q:
        raise DomainError(f"the character is mod {chi.modulus}, the context mod {ctx.q}")
    lp = table.logp_arr
    re = (chi.values(table.p_arr) * np.exp(-1j * tau * lp)).real
    terms = (1.0 - re) ** 2 * np.exp(-beta * lp)
    return float(np.sum(terms[table.mask_coprime(ctx.prime_divisors)]))


def d_sum(tau: float, beta: float, y: int, chi: DirichletCharacter) -> float:
    """sum over p <= y of (1 - Re(chi(p) p^{-i tau})) log p / p^beta."""
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    table = pr.build_table(y)
    lp = table.logp_arr
    re = (chi.values(table.p_arr) * np.exp(-1j * tau * lp)).real
    return float(np.sum((1.0 - re) * lp * np.exp(-beta * lp)))


def s_sum(tau: float, beta: float, y: int, chi: DirichletCharacter) -> complex:
    """sum over n <= y of chi(n) Lambda(n) / n^{beta + i tau}.

    Lambda is the von Mangoldt function: log p on prime powers, else 0.
    """
    if beta <= 0:
        raise DomainError(f"need beta > 0, got {beta}")
    table = pr.build_table(y)
    ks = range(1, int(table.nu_arr.max()) + 1)
    # the prime powers p^k <= y, k by k, with their Lambda = log p
    n = np.concatenate([table.p_arr[table.nu_arr >= k] ** k for k in ks])
    lp = np.concatenate([table.logp_arr[table.nu_arr >= k] for k in ks])
    terms = chi.values(n) * lp * np.exp(-(beta + 1j * tau) * np.log(n))
    return complex(np.sum(terms))


# ---------------------------------------------------------------------------
# orthogonality reconstruction
# ---------------------------------------------------------------------------

def character_sums_from_residues(counts, chars: list[DirichletCharacter]) -> list[complex]:
    """Evaluate sum_a chi(a) * counts[a] for every chi from one residue vector."""
    if not chars:
        return []
    sums = chars[0].group.character_sums(counts)
    return [complex(sums[chi.index]) for chi in chars]


def reconstruct_progression(x, table: pr.PrimePowerTable, a: int, q: int) -> complex:
    """Rebuild the progression count from character sums.

    Evaluates (1/phi(q)) * [ Upsilon_q + sum over nonprincipal chi of
    conj(chi(a)) * Upsilon(x, y; chi) ].  The real part must match the
    exact class count; the imaginary part is root-of-unity rounding.
    """
    if math.gcd(a, q) != 1:
        raise DomainError(f"need (a, q) = 1, got a={a}, q={q}")
    counts = count_ultrafriable_residues(x, table, q)
    group = character_group(q)
    sums = group.character_sums(counts)  # sums[0] = Upsilon_q exactly
    # value index of chi(a) for every chi, in the same order as the sums
    ks = group.value_indices_at(a)
    return complex(np.dot(np.conj(group.roots[ks]), sums)) / group.phi_q
