"""Dirichlet characters mod q via CRT and discrete-log tables.

Representation: q factors as prod p^e; each unit group (Z/p^e)* is cyclic
with one generator (odd p, and p^e in {2, 4}) or C2 x C_{2^{e-2}} with
generators -1 and 5 (p = 2, e >= 3).  A character is an exponent vector
over the generators; values are exact roots of unity indexed in Z/L with
L the group exponent, and floating point enters only in the final
complex exponential.  Discrete logs are precomputed per component, O(q)
storage, which is ample for the supported range q <= 10^4.

Each modulus has one table, built once per ``CharacterGroup``: the unit
residues, their generator exponents (the discrete-log grid coordinates)
and the phi(q) characters.  Every value chi(n) is read from that table:
the row of n mod q gives the exponents, their dot product with the
character's steps t_i L / o_i the value index, and ``roots`` the value,
one row for a single n and one fancy-indexed pass for an array.  A single
character sum buckets the residue counts by value index as exact integers
and touches the L roots of unity only at the end; all phi(q) sums at once
are one FFT over the grid of shape ``orders``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import primes as pr
from .counting import _INT64_LIMIT, count_ultrafriable_residues
from .errors import DomainError, ResourceError

CHARACTER_Q_BOUND = 10**4


def _primitive_root_mod_p(p: int) -> int:
    if p == 2:
        return 1
    fac = sorted(pr.factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise RuntimeError(f"no primitive root found mod {p}")  # unreachable for prime p


def _primitive_root_mod_pe(p: int, e: int) -> int:
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    # g lifts to p^e unless g^(p-1) == 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class _Component:
    prime_power: int
    generators: tuple[int, ...]  # residues mod prime_power
    orders: tuple[int, ...]
    dlog: np.ndarray  # row r: exponents of the unit r mod prime_power (rows of non-units are 0)


def _powers_mod(g: int, n: int, m: int) -> np.ndarray:
    """g^k mod m for k = 0 .. n-1."""
    out = [1] * n
    for k in range(1, n):
        out[k] = out[k - 1] * g % m
    return np.array(out, dtype=np.int64)


def _build_component(p: int, e: int) -> _Component:
    pe = p**e
    if p == 2 and e == 1:
        return _Component(2, (), (), np.zeros((2, 0), dtype=np.int64))
    if p == 2 and e >= 3:
        o1, o2 = 2, 2 ** (e - 2)
        dlog = np.zeros((pe, 2), dtype=np.int64)
        pows = _powers_mod(5, o2, pe)  # the units 5^k; the others are -5^k
        dlog[pows, 1] = np.arange(o2)
        dlog[pe - pows, 0] = 1
        dlog[pe - pows, 1] = np.arange(o2)
        return _Component(pe, (pe - 1, 5), (o1, o2), dlog)
    g = _primitive_root_mod_pe(p, e) if p != 2 else 3  # p=2, e=2: (Z/4)* = <3>
    order = pe - pe // p
    dlog = np.zeros((pe, 1), dtype=np.int64)
    dlog[_powers_mod(g, order, pe), 0] = np.arange(order)
    return _Component(pe, (g,), (order,), dlog)


class CharacterGroup:
    """The full character group mod q with shared evaluation tables."""

    def __init__(self, q: int):
        if q < 1:
            raise DomainError(f"need q >= 1, got {q}")
        if q > CHARACTER_Q_BOUND:
            raise ResourceError(f"q={q} exceeds the character bound {CHARACTER_Q_BOUND}")
        self.q = q
        comps = []
        for p, e in sorted(pr.factorize(q).items()):
            comps.append(_build_component(p, e))
        self.components = comps
        self.orders = tuple(o for c in comps for o in c.orders)
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
        # the unit table: residues coprime to q and their generator exponents
        residues = np.arange(q, dtype=np.int64)
        self.units = residues[np.gcd(residues, q) == 1]
        empty = np.zeros((len(self.units), 0), dtype=np.int64)  # q = 1 has no components
        self.dlogs = np.concatenate([empty] + [c.dlog[self.units % c.prime_power] for c in comps],
                                    axis=1)
        self._unit_row = np.full(q, -1, dtype=np.int64)
        self._unit_row[self.units] = np.arange(len(self.units))
        # each unit's flat position on the C-order grid of shape orders
        strides = [math.prod(self.orders[i + 1:]) for i in range(len(self.orders))]
        self._grid_index = self.dlogs @ np.array(strides, dtype=np.int64)
        self._characters: tuple[DirichletCharacter, ...] | None = None

    def characters(self) -> list["DirichletCharacter"]:
        """All phi(q) characters in lexicographic exponent order, built once."""
        if self._characters is None:
            self._characters = tuple(
                DirichletCharacter(self, exps) for exps in product(*(range(o) for o in self.orders))
            )
        return list(self._characters)

    def value_indices_at(self, n: int) -> np.ndarray:
        """value_index of chi(n) for every chi, in ``characters()`` order; n coprime to q."""
        row = self._unit_row[n % self.q]
        if row < 0:
            raise DomainError(f"need (n, q) = 1, got n={n}, q={self.q}")
        steps = self.dlogs[row] * self._weights
        exps = np.indices(self.orders).reshape(len(self.orders), self.phi_q).T
        return (exps @ steps) % self.exponent

    def unit_counts(self, counts) -> np.ndarray:
        """The residue counts at the unit residues, exact: int64 when their
        total fits, else an object array of Python ints."""
        if counts.q != self.q:
            raise DomainError(f"residue counts are mod {counts.q}, characters mod {self.q}")
        dtype = np.int64 if counts.total() < _INT64_LIMIT else object
        return np.array(counts.counts, dtype=dtype)[self.units]

    def character_sum(self, counts, chi: "DirichletCharacter") -> complex:
        """sum_a chi(a) * counts[a], bucketed by value index before the roots."""
        units = self.unit_counts(counts)
        buckets = np.zeros(self.exponent, dtype=units.dtype)
        np.add.at(buckets, chi.value_indices(), units)
        return complex(np.dot(self.roots, buckets.astype(np.float64)))

    def character_sums(self, counts) -> np.ndarray:
        """sum_a chi(a) * counts[a] for every chi, in ``characters()`` order.

        The unit counts sit on the grid of shape ``orders`` at their
        discrete logs; the sum for exponent vector t is then the conjugate
        of the grid's DFT at t.  The principal sum is the exact coprime count.
        """
        units = self.unit_counts(counts)
        grid = np.zeros(self.phi_q, dtype=np.complex128)
        grid[self._grid_index] = units.astype(np.float64)
        sums = np.conj(np.fft.fftn(grid.reshape(self.orders))).ravel()
        sums[0] = complex(counts.coprime_total())
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


def enumerate_characters(q: int) -> list[DirichletCharacter]:
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
