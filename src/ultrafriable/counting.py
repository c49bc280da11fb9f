"""Exact counting of ultrafriable and friable integers.

Every exact count here, ultrafriable or friable, plain or per class mod q,
is one split at sqrt(x) (Buchstab's identity).  A prime p > sqrt(x) divides
n <= x at most once, and then n = p * m with m <= x // p < sqrt(x) < p, so m
is y-ultrafriable and y-friable.  The count is the divisors <= x of head rows
over p <= sqrt(x), plus the tail p * m over the primes sqrt(x) < p <= y: the
pairs of the tail primes with the m in 1..isqrt(x) that are coprime to q,
per class mod q; a plain count is the one class mod 1.  The kinds differ
in the head only, and one builder (``_head_and_tail``) makes both from the
prime table's arrays.  The y-ultrafriable n coprime to q are the divisors of
N = prod p^nu_p over p <= y, p ∤ q: their head is the prefix of these rows
over p <= sqrt(x), or the cached engine of all of them when y <= sqrt(x).
A y-friable head is the rows (p, nu_p(x)), p^nu_p(x) <= x < p^(nu_p(x)+1).
Every set of rows is made by ``_coprime_rows``, and a head is one engine
(``_DivisorRows``) whose query ``classes_le(bound, q)`` counts its divisors
<= bound per class mod q.

Each query runs one meet-in-the-middle core (the Horowitz-Sahni split) at
bounds 1 <= X < 2^63:

* the rows are dealt to two interleaved halves, and each half's divisors
  <= X are listed as a sorted int64 array A or B;
* every pair a * b <= X has a <= sqrt(X) or b <= sqrt(X), so the pairs are
  split once (``_pair_sides``) into two disjoint sides: each a <= sqrt(X)
  with the prefix of B that ``searchsorted(B, X // a)`` cuts, and each
  b <= sqrt(X) with the prefix of the entries of A above sqrt(X); only the
  entries up to sqrt(X) are searched, and every pair count, class count,
  product list and binning reads these two sides;
* plain count, q = 1 -- the sum of the two sides' prefix lengths;
* class count -- the entries v of a side are taken largest first, so their
  bounds X // v ascend and each pairs v with a longer prefix; one prefix
  sweep over blocks of (bound, class) cells counts each prefix per class r
  (a ``bincount`` and a cumsum per block) and folds the counts into class
  r * v mod q, in int32, as every (v mod q) * r < q^2 <= RESIDUE_Q_BOUND^2
  = 10^8 < 2^31; when there are no more pairs than cells, the products
  are listed and binned instead.

A half's list is built from its own two halves in the same way, down to
leaf rows: one row, or rows with at most ``_DIRECT_TAU`` divisors.  Which
rows are leaves and how the rest split does not depend on X, so each row
tuple is planned once (``_Plan``), and an engine keeps the tree of each row
prefix it has queried.  A side of one block (at most ``_BLOCK`` products,
every side at the scale of x <= e^30) is formed in one indexed product,
and a list of two such sides is joined in one call and sorted in place.  A
leaf's divisors below 2^63 are listed once per process (``_all_divisors``,
a bounded cache of read-only arrays, 16 MB at most) and shared by every
bound, query and engine: its list <= X is the prefix that one
``searchsorted`` cuts.  A leaf list is extended a prime at a time, by
p^0..p^nu in one outer product, or, when that would pass 2^63, each p^e
times the prefix of the list below 2^63 / p^e in one indexed product.
Each list built from two halves has its length counted before it is
allocated, and a list longer than ``LIST_CAP`` (2^25 entries, 256 MB of
int64) raises ResourceError.  Every product formed in a pair is at most X,
and in a leaf below 2^63, so none overflows int64.

``classes_le(bound, q)`` is the engine's query; ``count_le(bound)`` is
``classes_le(bound, 1)[0]``.  ``_split_plan`` plans it from integer bounds
before any list is built, against the prefix products N_k of rows[:k]; it
forms them once, up to the first past bound^2, as no test needs more.  A
bound >= N_k is the full vector, once per (rows, q) in exact Python ints.
At q = 1 only (mod q > 1 the class of N/d is no function of that of d), a
bound >= sqrt(N_k) is reflected by the divisor symmetry to tau(N_k) minus
the divisors below N_k/bound.  A bound >= 2^63 splits off the largest
prime power p^nu left into the bounds bound // p^e, their classes times
p^e mod q; over ``SPLIT_CAP`` (2^12) sub-bounds raise ResourceError.
Sub-bounds on rows[:k] share one pair of half lists, built at the largest.
Real bounds are floored once on entry (counts are step functions of x); a
negative bound is a DomainError.

A plain count (q = 1) peels the smallest row (p, nu) off a leaf at
b >= ``_PEEL_BOUND`` (2^26) that is the only bounded leaf on rows[:k]:
#{d | N_k : d <= b} is the sum over e = 0..nu of
#{d | N_k / p^nu : d <= b // p^e}, so the leaf lists the halves of rows[1:k]
at b and sums the pair counts at its sub-bounds b // p^e >= 1 over them.
Without p = 2 (nu = 7 at y = 200) those lists hold about half the entries,
and the sorts that dominate a large count shrink with them; the plan, its
sub-bounds and ``SPLIT_CAP`` are untouched.  Below the bound the nu + 1
pair counts cost more than the lists save, and so they do in a group of
several leaves past 2^63, which pays them per leaf; mod q > 1 the classes
of b // p^e would need the multiplier p^e, so class vectors and lone
classes keep the whole rows.

One class alone, ``class_le(bound, a, q)``, runs on the same plans, trees
and half lists.  A leaf (sign, k, b, m) adds nothing when g = gcd(m, q)
does not divide a, and otherwise counts the divisors of rows[:k] in the
class (a/g) * (m/g)^-1 mod q/g.  A side (V, P, ends) counts only the cells
that class needs: the u in P[:end] with v * u ≡ a, which are the g =
gcd(v, q) classes solving it, or none when g ∤ a.  P is sorted by class in
blocks of at most ``_BLOCK`` entries, with counts per class carried from
block to block, and each (class, end) is one ``searchsorted`` of
class-then-position keys (``_class_search``).  A side with few sweep cells
per entry keeps the sweep and reads its entry a (``_class_pair_count``).
Buchstab's tail goes through the same count.
``count_ultrafriable_progression`` and ``count_friable_progression`` count
the first class asked at a point alone, and read the class vector, built
once, from the second class asked at that point on (``_progression``).

Measured times and memory peaks are in the Scope notes of the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, cycle

import numpy as np

from . import primes as pr
from .errors import DomainError, PreconditionError, ResourceError

RESIDUE_Q_BOUND = 10**4
FRIABLE_X_BOUND = 10**9
ORACLE_X_BOUND = 10**7
LIST_CAP = 1 << 25  # entries of one divisor list
_DIRECT_TAU = 1 << 12  # rows with at most this many divisors are listed directly
_BLOCK = 1 << 20  # entries per block of a temporary array
_CELLS = 1 << 15  # (bound, class) cells per block of the class sweep
_LONE_CELLS = 1.5  # below this many sweep cells per entry, one class reads the sweep
_INT64_LIMIT = 1 << 63
SPLIT_CAP = 1 << 12  # sub-bounds one plain count may plan past 2^63
_PEEL_BOUND = 1 << 26  # plain leaves from this bound on count the smallest row as multipliers


def _floor_bound(x) -> int:
    """Exact floor of a real/int/Fraction bound x >= 0."""
    if isinstance(x, int):
        X = x
    elif isinstance(x, Fraction):
        X = x.numerator // x.denominator
    elif x != x or math.isinf(x):
        raise DomainError(f"bound must be finite, got {x}")
    else:
        X = int(math.floor(x))
    if X < 0:
        raise DomainError(f"need x >= 0, got {x}")
    return X


def _friable_bound(x) -> int:
    """The floored bound of an exact friable count, at most FRIABLE_X_BOUND."""
    X = _floor_bound(x)
    if X > FRIABLE_X_BOUND:
        raise ResourceError(f"x={x} exceeds the exact friable-count bound {FRIABLE_X_BOUND}")
    return X


# ---------------------------------------------------------------------------
# the meet-in-the-middle core; every bound X here satisfies 1 <= X < 2^63
# ---------------------------------------------------------------------------

@lru_cache(maxsize=(1 << 21) // _DIRECT_TAU)  # lists of at most _DIRECT_TAU int64s: 16 MB in all
def _all_divisors(rows) -> np.ndarray:
    """Sorted divisors below 2^63 of prod p^nu over rows, as a read-only int64 array.

    Only for leaf rows (one row, or at most ``_DIRECT_TAU`` divisors),
    extended a prime at a time: the list d times p^0..p^nu in one outer
    product while d[-1] * p^nu < 2^63, and otherwise each power p^e times
    the prefix of d below 2^63 / p^e, in one indexed product.  No product
    past 2^63 is formed.  Every row has p^nu <= max(y, x) <= 10^9; a row
    past 2^63 would raise OverflowError, never lose divisors.  Listed once
    per process and shared by every bound and engine.
    The bound is the literal 2^63 - 1, not ``_INT64_LIMIT``, so that a list
    cached while that limit is lowered still holds every divisor.
    """
    top = (1 << 63) - 1
    d = np.ones(1, dtype=np.int64)
    for p, nu in reversed(rows):
        pw = np.array([p ** e for e in range(nu + 1)], dtype=np.int64)
        if int(d[-1]) * p ** nu <= top:
            d = np.multiply.outer(pw, d).ravel()
        else:
            ends = d.searchsorted(top // pw, "right")
            d = d[np.arange(ends.sum()) - (ends.cumsum() - ends).repeat(ends)] * pw.repeat(ends)
        d.sort()
    d.flags.writeable = False
    return d


def _split(rows) -> tuple[tuple, tuple]:
    """Ascending rows dealt to two halves in the order A B B A A B B A ...

    Each pair of neighbouring primes is split between the halves, the
    smaller one going to A and to B in turn: this balances the two lists far
    better than A B A B, which gave the half holding 2 twice the entries.
    """
    return (tuple(compress(rows, cycle((1, 0, 0, 1)))),
            tuple(compress(rows, cycle((0, 1, 1, 0)))))


class _Plan:
    """One row tuple of a split tree, planned once: a leaf, or two halves.

    One row, or rows with at most ``_DIRECT_TAU`` divisors, is a leaf.  Every
    nu >= 1, so k rows have at least 2^k divisors, and the first
    bit_length(_DIRECT_TAU) rows decide the count.  The halves (``_split``)
    are planned on first use and kept for the life of the tree, which is the
    life of the engine that holds it.
    """

    __slots__ = ("rows", "leaf", "_halves")

    def __init__(self, rows):
        self.rows = rows
        head = rows[:_DIRECT_TAU.bit_length()]
        self.leaf = len(rows) == 1 or math.prod(nu + 1 for _, nu in head) <= _DIRECT_TAU
        self._halves = None

    def halves(self) -> tuple[_Plan, _Plan]:
        if self._halves is None:
            self._halves = tuple(map(_Plan, _split(self.rows)))
        return self._halves


def _divisors_le(plan: _Plan, X: int) -> np.ndarray:
    """Sorted divisors <= X of prod p^nu over the plan's rows, as an int64 array."""
    if plan.leaf:
        d = _all_divisors(plan.rows)
        return d[:d.searchsorted(X, "right")]
    return _pair_products(*_halves(plan, X), X)


def _pair_sides(A: np.ndarray, B: np.ndarray, X: int) -> tuple:
    """The pairs a * b <= X over a in A, b in B (sorted lists), split at s = isqrt(X).

    Two disjoint sides (V, P, ends): each a <= s pairs with the prefix
    B[:ends], and each b <= s with the prefix of the entries of A above s.
    A pair has a <= s or b <= s, so each lies on exactly one side and the
    count is the sum of the ends; only the entries up to sqrt(X) are
    searched, a small share of lists that run up to X.
    """
    s = math.isqrt(X)
    k = int(A.searchsorted(s, "right"))
    a_small, b_small, a_large = A[:k], B[:B.searchsorted(s, "right")], A[k:]
    return ((a_small, B, B.searchsorted(X // a_small, "right")),
            (b_small, a_large, a_large.searchsorted(X // b_small, "right")))


def _product_blocks(sides):
    """v * P[:end] over each side's v and end, about _BLOCK products per block."""
    for V, P, ends in sides:
        if not len(V):  # a tail has no entry <= sqrt(X)
            continue
        total = ends.cumsum()
        if total[-1] <= _BLOCK:  # one block: no cut to search for
            yield P[np.arange(total[-1]) - (total - ends).repeat(ends)] * V.repeat(ends)
            continue
        i = pos = 0
        while pos < total[-1]:
            j = max(i + 1, int(total.searchsorted(pos + _BLOCK, "right")))
            end = int(total[j - 1])
            c = ends[i:j]
            offset = np.arange(end - pos) - (total[i:j] - c - pos).repeat(c)
            yield P[offset] * V[i:j].repeat(c)
            i, pos = j, end


def _pair_products(A: np.ndarray, B: np.ndarray, X: int) -> np.ndarray:
    """Sorted products a * b <= X over a in A, b in B (sorted lists)."""
    sides = _pair_sides(A, B, X)
    total = sum(int(ends.sum()) for _, _, ends in sides)
    if total > LIST_CAP:
        raise ResourceError(f"a divisor list of {total} entries exceeds the cap {LIST_CAP}")
    blocks = _product_blocks(sides)
    if total <= _BLOCK:  # a block a side at most: joined in one call
        out = np.concatenate([*blocks, np.empty(0, dtype=np.int64)])
    else:
        out = np.empty(total, dtype=np.int64)
        pos = 0
        for block in blocks:
            out[pos:pos + len(block)] = block
            pos += len(block)
    out.sort()
    return out


def _class_pairs(V: np.ndarray, P: np.ndarray, ends: np.ndarray, q: int) -> np.ndarray:
    """Pairs v * u over v in V and u in P[:end] (one side), by class mod q.

    One prefix sweep: V is walked from its largest entry, so the ends ascend
    and row j pairs v_j with the prefix P[:ends[j]].  The (row, class) cells
    are cut into blocks of about ``_CELLS`` (16 rows at least), each over a
    contiguous slice of P.  In a block, one ``bincount`` of row * q + u mod q
    gives the entries new to each row; a cumsum down the rows, after the
    last row of the block before, gives C[j, r] = #{u in P[:ends[j]] : u ≡ r};
    one more ``bincount`` folds C[j, r] into class (v_j mod q) * r.  The
    classes are formed in int32, as (v_j mod q) * r < q^2 < 2^31 for every
    q <= RESIDUE_Q_BOUND, a fifth of the int64 time.  That fold sums the
    integers C in float64, exact as every sum is at most
    len(P) * len(V) <= LIST_CAP^2 = 2^50 < 2^53.
    """
    V, ends = V[::-1], ends[::-1]
    assert len(P) * len(V) < 1 << 53 and q * q < 1 << 31
    classes = np.arange(q, dtype=np.int32)
    out = np.zeros(q, dtype=np.int64)
    carry = np.zeros(q, dtype=np.int64)
    step = max(16, _CELLS // q)  # rows per block; 16 or more keep a block's numpy calls few
    lo = 0
    for j in range(int(ends.searchsorted(0, "right")), len(V), step):  # rows with no u add nothing
        e = ends[j:j + step]
        hi = int(e[-1])
        C = np.zeros(len(e) * q, dtype=np.int64)
        for a in range(lo, hi, _BLOCK):  # at most _BLOCK entries at a time
            b = min(a + _BLOCK, hi)
            cut = np.minimum(np.maximum(e, a), b)  # each row's end within P[a:b]
            rows = np.arange(0, len(C), q).repeat(cut - np.concatenate(([a], cut[:-1])))
            C += np.bincount(rows + P[a:b] % q, minlength=len(C))
        C = C.reshape(len(e), q)
        C[0] += carry
        C.cumsum(axis=0, out=C)
        carry, lo = C[-1], hi
        folded = (V[j:j + step] % q).astype(np.int32)[:, None] * classes
        folded -= folded // q * q  # the remainder mod q; // by a scalar is the faster op
        out += np.bincount(folded.ravel(), weights=C.ravel(), minlength=q).astype(np.int64)
    return out


def _residue_pairs(A: np.ndarray, B: np.ndarray, X: int, q: int) -> np.ndarray:
    """Pairs a * b <= X over a in A, b in B (sorted lists), by a * b mod q.

    The two sides of ``_pair_sides`` are one prefix sweep each, and fill
    (len(A <= sqrt(X)) + len(B <= sqrt(X))) * q cells.  When there are no
    more pairs than cells, the products are listed and binned instead.  At
    q = 1 the answer is the sum of the ends.
    """
    sides = _pair_sides(A, B, X)
    pairs = sum(int(ends.sum()) for _, _, ends in sides)
    if q == 1:
        return np.array([pairs])
    if pairs > sum(len(V) for V, _, _ in sides) * q:
        return sum(_class_pairs(*side, q) for side in sides)
    out = np.zeros(q, dtype=np.int64)
    for block in _product_blocks(sides):
        out += np.bincount(block % q, minlength=q)
    return out


@lru_cache(maxsize=32)
def _solutions(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(g, w) over the residues r mod q: g = gcd(r, q) and w = (r/g)^-1 mod q/g.

    r * u ≡ a (mod q) has a solution u iff g | a, and then its solutions are
    the g classes u ≡ (a/g) * w (mod q/g).
    """
    r = np.arange(q)
    g = np.gcd(r, q)
    return g, np.array([pow(v, -1, n) for v, n in zip((r // g).tolist(), (q // g).tolist())])


def _class_search(V: np.ndarray, P: np.ndarray, ends: np.ndarray, a: int, q: int) -> int:
    """Pairs v * u ≡ a (mod q) over v in V and u in P[:end] (one side, V ascending).

    Each v asks for the g = gcd(v, q) classes of u that solve v * u ≡ a, or
    none when g ∤ a (``_solutions``).  P is cut into blocks of at most
    ``_BLOCK`` entries, and a v is counted in the block that holds its end:
    the ends descend, so these v are a run of V.  A block is sorted once by
    class, with a stable radix argsort of its uint16 classes, so that the
    keys class * size + position ascend; one ``searchsorted`` of each
    (class, end) then counts the entries of that class before the end, and
    the counts per class of the blocks before are carried, as in the sweep.
    The v of a run are taken _BLOCK // q at a time, so that at most _BLOCK
    (class, end) queries are formed at once.
    """
    assert q < 1 << 16
    g, w = _solutions(q)
    r = V % q
    g = g[r]
    keep = (ends > 0) & (a % g == 0)
    r, g, ends = r[keep], g[keep], ends[keep]
    n = q // g
    first = a // g * w[r] % n  # v's classes are first + k * n, k < g
    total = 0
    carry = np.zeros(q, dtype=np.int64)
    step = max(1, _BLOCK // q)
    for lo in range(0, int(ends.max(initial=0)), _BLOCK):
        u = (P[lo:min(lo + _BLOCK, int(ends[0]))] % q).astype(np.uint16)
        size = len(u)
        count = np.bincount(u, minlength=q)
        start = count.cumsum() - count
        keys = u.argsort(kind="stable") + np.arange(0, q * size, size).repeat(count)
        i, j = (-ends).searchsorted((-(lo + size), -lo))  # the v whose end is in this block
        for s in range(i, j, step):
            t = min(s + step, j)
            c, e = g[s:t], ends[s:t] - lo
            k = np.arange(int(c.sum())) - (c.cumsum() - c).repeat(c)  # 0 .. g - 1 for each v
            cls = first[s:t].repeat(c) + k * n[s:t].repeat(c)
            before = keys.searchsorted(cls * size + e.repeat(c)) - start[cls]
            total += int(carry[cls].sum() + before.sum())
        carry += count
    return total


def _class_pair_count(A: np.ndarray, B: np.ndarray, X: int, a: int, q: int) -> int:
    """Pairs a' * b <= X over a' in A, b in B (sorted lists) with a' * b ≡ a (mod q).

    The one-class ``_residue_pairs``: the sum of the ends at q = 1, and
    otherwise each side's class search (``_class_search``), unless its sweep
    fills fewer than ``_LONE_CELLS`` (row, class) cells per entry of its
    longest prefix, when the sweep is the cheaper and its entry a is read.
    The crossover was measured on 108 sides of the y = 100 engine, e^16 to
    e^30 and q from 3 to 210 (2 vCPUs, best of 25 runs each, listed in
    BENCH_lone_class.json): the sweep was the faster on most sides below
    1.5 cells per entry and the search on most above; single sides cross
    anywhere from 0.85 to 2.3, and 1.5 gave the least time over all of them.
    """
    total = 0
    for V, P, ends in _pair_sides(A, B, X):
        if q == 1:
            total += int(ends.sum())
        elif len(V) * q < _LONE_CELLS * ends.max(initial=0):
            total += int(_class_pairs(V, P, ends, q)[a])
        else:
            total += _class_search(V, P, ends, a, q)
    return total


def _halves(plan: _Plan, X: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted divisor lists <= X of the two halves of the plan's rows."""
    left, right = plan.halves()
    return _divisors_le(left, X), _divisors_le(right, X)


# ---------------------------------------------------------------------------
# the engine: (p, nu) rows and their one query, divisors <= a bound per class mod q
# ---------------------------------------------------------------------------

def _split_plan(rows, bound: int, q: int) -> list:
    """Leaves (sign, k, b, m): the divisors <= bound of prod p^nu over rows, per
    class mod q, are the sum over the leaves of sign times the divisors
    <= b < 2^63 of rows[:k] (all of them for b = None), with their classes
    multiplied by m mod q.

    Every sub-bound is at most bound, and each test compares it, or its
    square, with the prefix product N_k of rows[:k]; a reflection needs
    N_k <= bound^2.  So the products are formed once, up to the first past
    bound^2, and that one stands for every longer prefix.
    """
    cap, prefix = bound * bound, [1]
    for p, nu in rows:
        if prefix[-1] > cap:
            break
        prefix.append(prefix[-1] * p ** nu)
    leaves = []
    stack = [(1, len(rows), bound, 1 % q)]
    for _ in range(SPLIT_CAP + 1):
        if not stack:
            return leaves
        sign, k, bound, m = stack.pop()
        if bound < 1:
            continue
        N = prefix[min(k, len(prefix) - 1)]  # N_k, or a product past the first bound^2
        if bound >= N or (q == 1 and bound * bound >= N):
            leaves.append((sign, k, None, m))
            if bound >= N:
                continue
            # symmetry, at q = 1: divisors > bound pair with divisors < N/bound
            sign, bound = -sign, (N - 1) // bound
        if bound < _INT64_LIMIT:
            leaves.append((sign, k, bound, m))
            continue
        p, nu = rows[k - 1]
        stack += [(sign, k - 1, bound // p ** e, m * p ** e % q) for e in range(nu + 1)]
    raise ResourceError(f"a bound past 2^63 splits into more than {SPLIT_CAP} sub-bounds")


@lru_cache(maxsize=64)
def _full_residues(rows, q: int) -> tuple[int, ...]:
    """Residue counts mod q of all divisors of prod p^nu over rows, exact Python ints."""
    vec = [0] * q
    vec[1 % q] = 1
    for p, nu in rows:
        cur = vec[:]
        for e in range(1, nu + 1):
            r = pow(p, e, q)
            for s, c in enumerate(vec):
                if c:
                    cur[(r * s) % q] += c
        vec = cur
    return tuple(vec)


def _check_modulus(q: int):
    """A residue vector needs 1 <= q <= RESIDUE_Q_BOUND."""
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    if q > RESIDUE_Q_BOUND:
        raise ResourceError(f"q={q} exceeds the residue-vector bound {RESIDUE_Q_BOUND}")


class _DivisorRows:
    """The (p, nu_p) rows of N = prod p^nu_p, ascending in p, and the exact
    query on their divisors.

    The rows are a tuple of Python int pairs, made by ``_coprime_rows`` from
    the table's arrays, and engines over the same primes share one tuple.
    Each query builds the half lists it needs at its own bound, from leaf
    lists shared through ``_all_divisors``.  N itself is never formed: the
    plan multiplies rows only up to the first prefix product past bound^2,
    so the head of x = e^30 at y = 10^7 (234,855 rows) multiplies four.
    The split tree of each row prefix (``_Plan``) is kept by the engine from
    the first query whose lists it built, so a warm engine splits no rows.
    A query refused by ResourceError keeps no tree, and a Buchstab head is
    an engine of one query: no large row tuple outlives its query.
    """

    tail_divs = ()  # an engine holds no divisor list; the leaf lists are shared

    def __init__(self, rows):
        self.rows = tuple(rows)
        self._plans = {}  # k -> the split tree of rows[:k]

    def count_le(self, bound: int) -> int:
        """Number of divisors of N that are <= bound (exact)."""
        return self.classes_le(bound, 1)[0]

    def _pair_counts(self, leaves, pairs, peel=False):
        """(leaf, part) for each leaf (sign, k, b, *rest) of a split plan: part is
        pairs(A, B, b, *rest), A and B the half lists of rows[:k], or None for a
        full leaf (b = None).

        The leaves on rows[:k] share one pair of half lists, built at their
        largest bound and freed before the next k's.  With ``peel`` (a plain
        count), a group of one leaf with b >= ``_PEEL_BOUND`` lists the halves
        of rows[1:k] instead, and its part is the sum of the parts at b // p^e
        over the smallest row's powers p^e <= b, e <= nu.  A group of several
        leaves keeps rows[:k]: each leaf would pay nu + 1 pair counts, and
        past 2^63 those cost more than the smaller lists save.
        """
        by_k = {}
        for leaf in leaves:
            by_k.setdefault(leaf[1], []).append(leaf)
        for k, group in by_k.items():
            bounds = [leaf[2] for leaf in group if leaf[2] is not None]
            halves = None
            if bounds:
                top = max(bounds)
                j = int(peel and len(bounds) == 1 and top >= _PEEL_BOUND)  # the halves hold rows[j:k]
                plan = self._plans.get((j, k)) or _Plan(self.rows[j:k])
                halves = _halves(plan, top)
                self._plans[j, k] = plan  # kept once its lists are built: a refused query keeps none
                p, nu = self.rows[0] if j else (1, 0)
            for leaf in group:
                b, rest = leaf[2], leaf[3:]
                yield leaf, None if b is None else sum(
                    pairs(*halves, b // p ** e, *rest) for e in range(nu + 1) if p ** e <= b)
            del halves

    def classes_le(self, bound: int, q: int) -> tuple[int, ...]:
        """Divisors of N that are <= bound, counted per class mod q (exact).

        Each leaf's class r is added into class r * m mod q, many to one when
        gcd(m, q) > 1.  At q = 1 a leaf may peel the smallest row (``_pair_counts``).
        """
        vec = [0] * q
        leaves = _split_plan(self.rows, bound, q)
        for (sign, k, _, m), part in self._pair_counts(
                leaves, lambda A, B, b, m: _residue_pairs(A, B, b, q), peel=q == 1):
            for r, c in enumerate(_full_residues(self.rows[:k], q) if part is None else part.tolist()):
                vec[r * m % q] += sign * c
        return tuple(vec)

    def class_le(self, bound: int, a: int, q: int) -> int:
        """Divisors of N that are <= bound in the one class a mod q (exact).

        A leaf's divisors d count when d * m ≡ a (mod q): with g = gcd(m, q),
        none when g ∤ a, and otherwise the class (a/g) * (m/g)^-1 mod q/g.
        """
        a %= q
        leaves = []
        for sign, k, b, m in _split_plan(self.rows, bound, q):
            g = math.gcd(m, q)
            if a % g == 0:
                n = q // g
                leaves.append((sign, k, b, a // g * pow(m // g, -1, n) % n, n))
        total = 0
        for (sign, k, _, r, n), part in self._pair_counts(leaves, _class_pair_count):
            total += sign * (sum(_full_residues(self.rows[:k], q)[r::n]) if part is None else part)
        return total


def _coprime_rows(p: np.ndarray, nu: np.ndarray, q_primes) -> tuple:
    """The rows (p, nu) as Python ints, without the primes of q."""
    return tuple(r for r in zip(p.tolist(), nu.tolist()) if r[0] not in q_primes)


class DivisorCounter(_DivisorRows):
    """Counts divisors of N = prod p^nu_p (p <= y, p ∤ q) below a bound."""

    def __init__(self, table: pr.PrimePowerTable, q_primes=()):
        super().__init__(_coprime_rows(table.p_arr, table.nu_arr, q_primes))


@lru_cache(maxsize=32)
def _is_unit(q: int) -> tuple[bool, ...]:
    """(gcd(a, q) == 1 for a in 0..q-1); bools are shared, so 8 bytes a class."""
    return tuple((np.gcd(np.arange(q), q) == 1).tolist())


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
        return sum(compress(self.counts, _is_unit(self.q)))  # Python ints: a count can pass 2^63


class ResidueDivisorCounter(_DivisorRows):
    """Residue-class version of DivisorCounter over all primes p <= y; every
    modulus shares the rows tuple of the cached plain engine for y."""

    def __init__(self, table: pr.PrimePowerTable, q: int):
        _check_modulus(q)
        super().__init__(get_counter(table).rows)
        self.q = q

    def count_le(self, bound: int) -> ResidueCounts:
        return ResidueCounts(self.q, self.classes_le(bound, self.q))


# ---------------------------------------------------------------------------
# engine caches (tables are deterministic per y, so the engines are keyed on y
# and built from build_table(y))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=48)
def _counter(y: int, q_primes: tuple) -> DivisorCounter:
    return DivisorCounter(pr.build_table(y), q_primes)


def get_counter(table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> DivisorCounter:
    """The cached plain engine for (y, q); the counting identities need P+(q) <= y."""
    if ctx is None:
        return _counter(table.y, ())
    ctx.require_p_plus_le_y()
    return _counter(table.y, ctx.prime_divisors)


def get_residue_counter(table: pr.PrimePowerTable, q: int) -> ResidueDivisorCounter:
    """A class engine mod q over the cached plain engine's rows for y."""
    return ResidueDivisorCounter(table, q)


# ---------------------------------------------------------------------------
# one split at sqrt(X) for both kinds: the divisors <= X of head rows over
# p <= sqrt(X), plus Buchstab's tail p * m over the primes sqrt(X) < p <= y
# ---------------------------------------------------------------------------

def _coprime_upto(M: int, q_primes) -> int:
    """#{1 <= m <= M : (m, q) = 1}, by inclusion-exclusion over the
    squarefree d | rad(q) up to M, the only d with M // d nonzero."""
    terms = [(1, 1)]
    for p in q_primes:
        terms += [(-sign, d * p) for sign, d in terms if d * p <= M]
    return sum(sign * (M // d) for sign, d in terms)


def _head_and_tail(X: int, y: int, q_primes: tuple, kind: str):
    """(head, tail) of the y-ultrafriable or y-friable n <= X coprime to q.

    The tail is the primes sqrt(X) < p <= y, p ∤ q.  The ultrafriable head is
    the cached engine when y <= sqrt(X), with no tail, and otherwise
    the rows (p, nu_p) over p <= sqrt(X): a divisor <= X has p^e <= X, so no
    row needs a cap, and the engine of a large y is never built.  The
    friable head, for 2 <= y < X <= FRIABLE_X_BOUND, is the rows (p, nu_p(X))
    over p <= min(y, sqrt(X)).
    """
    s = math.isqrt(X)
    if kind == "ultrafriable" and y <= s:
        return _counter(y, q_primes), ()
    table = pr.build_table(y)
    k = int(table.p_arr.searchsorted(s, "right"))
    p, tail = table.p_arr[:k], table.p_arr[k:]
    nu = table.nu_arr[:k] if kind == "ultrafriable" else pr.max_exponents(p, X)
    for r in q_primes:
        if r > s:
            tail = tail[tail != r]
    return _DivisorRows(_coprime_rows(p, nu, q_primes)), tail


def _counts(X: int, y: int, q: int, q_primes: tuple, kind: str) -> tuple[int, ...]:
    """The y-ultrafriable or y-friable n <= X coprime to q_primes, per class mod q:
    the divisors <= X of the head rows, plus the pairs p * m <= X of the tail
    primes p with the m <= isqrt(X) coprime to q_primes.  Every such
    m < sqrt(X) < p is friable and ultrafriable."""
    head, tail = _head_and_tail(X, y, q_primes, kind)
    vec = head.classes_le(X, q)
    if len(tail):
        m = np.arange(1, math.isqrt(X) + 1)
        for p in q_primes:
            m = m[m % p != 0]
        vec = tuple(c + t for c, t in zip(vec, _residue_pairs(tail, m, X, q).tolist()))
    return vec


_asked = {}  # (X, y, q, kind) of the last points with a class asked or a vector built, oldest first


def _record(key):
    """Note the point key in ``_asked``, which keeps the last 128 points."""
    _asked[key] = None
    if len(_asked) > 128:
        del _asked[next(iter(_asked))]


@lru_cache(maxsize=128)
def _class_vector(X: int, y: int, q: int, kind: str) -> ResidueCounts:
    """The y-ultrafriable or y-friable n <= X per class mod q, once per (X, y, q, kind)."""
    _check_modulus(q)
    vec = ResidueCounts(q, _counts(X, y, q, (), kind))
    _record((X, y, q, kind))  # a class asked at this point from now on reads the vector
    return vec


def _class_count(X: int, y: int, a: int, q: int, kind: str) -> int:
    """The y-ultrafriable or y-friable n <= X with n ≡ a (mod q), one class alone:
    ``_counts`` with the head's ``class_le`` and the tail's one-class pair count."""
    a %= q
    head, tail = _head_and_tail(X, y, (), kind)
    n = head.class_le(X, a, q)
    if len(tail):
        n += _class_pair_count(tail, np.arange(1, math.isqrt(X) + 1), X, a, q)
    return n


def _progression(X: int, y: int, a: int, q: int, kind: str) -> int:
    """One class a mod q at (X, y): counted alone when it is the first class
    asked at that point and no vector was built there, and read off the
    point's class vector, built once, from the second on, so that a walk over
    the classes costs one vector."""
    key = (X, y, q, kind)
    if key in _asked:
        return _class_vector(*key)[a]
    _record(key)
    return _class_count(X, y, a, q, kind)


# ---------------------------------------------------------------------------
# public counting operations
# ---------------------------------------------------------------------------

def count_ultrafriable(x, table: pr.PrimePowerTable, ctx: pr.ModulusContext | None = None) -> int:
    """Exact number of y-ultrafriable n <= x with (n, q) = 1.

    Equivalently the number of divisors of N = prod_{p<=y, p∤q} p^nu_p not
    exceeding x.  x may be an int, float or Fraction; it is floored exactly.
    """
    X = _floor_bound(x)
    q_primes = () if ctx is None else ctx.prime_divisors
    if ctx is not None:
        ctx.require_p_plus_le_y()
    return _counts(X, table.y, 1, q_primes, "ultrafriable")[0]


def count_ultrafriable_below(num: int, table: pr.PrimePowerTable,
                             ctx: pr.ModulusContext | None = None, den: int = 1) -> int:
    """Exact number of y-ultrafriable n coprime to q with n * den < num.

    This is the strict left limit used by the divisor-symmetry identity:
    the reflected argument (N/x)- is the rational num/den approached from
    below.
    """
    if num < 0 or den < 1:
        raise DomainError("need num >= 0 and den >= 1")
    return count_ultrafriable(max(num - 1, 0) // den, table, ctx)


def count_ultrafriable_residues(x, table: pr.PrimePowerTable, q: int) -> ResidueCounts:
    """Exact counts of y-ultrafriable n <= x in every residue class mod q."""
    return _class_vector(_floor_bound(x), table.y, q, "ultrafriable")


def count_ultrafriable_progression(x, table: pr.PrimePowerTable, a: int, q: int) -> int:
    """Exact number of y-ultrafriable n <= x with n ≡ a (mod q).

    The entry a of ``count_ultrafriable_residues``, counted without the
    other classes unless another class was asked at the same (x, y, q).
    q > RESIDUE_Q_BOUND raises ResourceError.
    """
    X = _floor_bound(x)
    _check_modulus(q)
    return _progression(X, table.y, a, q, "ultrafriable")


def character_sum(x, table: pr.PrimePowerTable, chi) -> complex:
    """sum of chi(n) over y-ultrafriable n <= x.

    The counts are exact and are bucketed by chi's value index as integers;
    the only rounding is in the final sum against the roots of unity.
    """
    counts = count_ultrafriable_residues(x, table, chi.modulus)
    return chi.group.character_sum(counts, chi)


def count_friable(x, y: int, q: int = 1) -> int:
    """Exact number of y-friable n <= x with (n, q) = 1; needs P+(q) <= y."""
    X = _friable_bound(x)
    q_primes = tuple(sorted(pr.factorize(q)))
    if q_primes and q_primes[-1] > y:
        raise PreconditionError(f"P+(q)={q_primes[-1]} exceeds y={y}")
    if X == 0 or y < 1:  # P+(n) >= P+(1) = 1 > y for every n
        return 0
    if y < 2:
        return 1  # only n = 1 has no prime factor
    if y >= X:
        return _coprime_upto(X, q_primes)
    return _counts(X, y, 1, q_primes, "friable")[0]


def count_friable_progression(x, y: int, a: int, q: int) -> int:
    """Exact number of y-friable n <= x with n ≡ a (mod q).

    q > RESIDUE_Q_BOUND raises ResourceError.
    """
    X = _friable_bound(x)
    _check_modulus(q)
    if X == 0 or y < 1:  # P+(n) >= P+(1) = 1 > y for every n
        return 0
    a %= q
    if y >= X:
        return len(range(a or q, X + 1, q))  # every n <= X: a, a + q, ... (q, 2q, ... for a = 0)
    if y < 2:
        return int(a == 1 % q)  # only n = 1 has no prime factor
    return _progression(X, y, a, q, "friable")

# ---------------------------------------------------------------------------
# the naive sieve oracle
# ---------------------------------------------------------------------------

# the sieve size; from 2^20 (x <= 10^6 in one build) it only grows, and a smaller x slices it
_oracle_cap = 1 << 20


@lru_cache(maxsize=1)
def _oracle_arrays(xmax: int):
    """(largest prime factor, largest maximal prime-power divisor) up to xmax.

    L[n] = P+(n) with L[1] = 1;  M[n] = max over p^a || n of p^a, M[1] = 1.
    n is y-friable iff L[n] <= y and y-ultrafriable iff M[n] <= y.

    L is sieved in two parts, each a loop of about sqrt(xmax) numpy passes.
    Primes p <= isqrt(xmax) are written strided, L[p::p] = p, in ascending
    order.  A prime p > isqrt(xmax) divides n = m * p only with
    m < sqrt(xmax) < p, so it is P+(n); those n are written last, one
    fancy-indexed pass per cofactor m over every large prime p <= xmax // m.
    M[n] >= P+(n) = L[n], so M starts as a copy of L and only the prime
    powers p^e <= xmax with e >= 2 (all of small primes) raise it, strided
    over their multiples.  Both arrays are int32, which relies on
    ORACLE_X_BOUND < 2^31: every entry is at most xmax.
    """
    L = np.ones(xmax + 1, dtype=np.int32)
    primes = pr.sieve_primes(xmax)
    small = primes[: np.searchsorted(primes, math.isqrt(xmax), "right")].tolist()
    for p in small:
        L[p::p] = p
    big = primes[len(small):]
    big32 = big.astype(np.int32)
    m, k = 1, len(big)
    while k:  # the large primes p <= xmax // m
        L[m * big[:k]] = big32[:k]
        m += 1
        k = int(np.searchsorted(big, xmax // m, "right"))
    M = L.copy()
    for p in small:
        pw = p * p
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
    if X > ORACLE_X_BOUND:
        raise ResourceError(f"oracle bound is {ORACLE_X_BOUND}, got x={x}")
    if mode not in ("ultrafriable", "friable"):
        raise DomainError(f"unknown oracle mode {mode!r}")
    if X == 0:
        return 0
    # grow the sieve in 4x steps so repeated queries share one array build,
    # never past the oracle bound
    global _oracle_cap
    while _oracle_cap < X:
        _oracle_cap = min(4 * _oracle_cap, ORACLE_X_BOUND)
    L, M = _oracle_arrays(_oracle_cap)
    arr = (M if mode == "ultrafriable" else L)[: X + 1]  # arr[n] for n = 0..X
    # arr[n] <= n <= X, so comparing with min(y, X) is the same test, and the
    # int32 array never meets a Python int outside its range
    y = min(y, X)
    if a is not None:
        if q is None or q < 1:
            raise DomainError("a requires a modulus q >= 1")
        # the class's n in 1..X: a % q, a % q + q, ..., starting at q when a % q = 0
        return int(np.count_nonzero(arr[a % q or q :: q] <= y))
    mask = arr <= y
    mask[0] = False
    if q is not None and q > 1:
        for p in pr.factorize(q):
            mask[::p] = False
    return int(np.count_nonzero(mask))
