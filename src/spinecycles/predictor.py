"""Closed-form cycle predictions from class-group data.

Enumerates the finite discriminant families attached to (ell, r), evaluates
the inert/root criteria that decide whether a discriminant contributes spine
cycles at a given prime, and assembles:

  * n_s, n_t predictions per prime (exact above the distinctness bound),
  * residue-class censuses (the counts depend only on p modulo a computable
    modulus, evaluated lazily since the modulus can be in the billions),
  * the limiting average of n_s over consecutive primes.

Discriminants of orders where ell splits with the prime above it of order
dividing r come from the quadratic-formula family (x^2 - 4 ell^r)/f^2 over
0 < x < 2 ell^(r/2), x not divisible by ell.  The exact-order family is that
set minus the families of the proper divisors of r: an order that divides r
but no proper divisor of r is r itself.  The paper writes n_s and its limit
as Moebius inversions over the dividing families; the dividing family for k
is the disjoint union of the exact families of the divisors of k, so those
inversions are plain sums over the exact family for r, and that is how they
are computed here.  Discriminants are plain ints, and no step composes
forms; class numbers are counted only for the n_t orbit sizes.

A prediction at a prime or residue m computes one Legendre symbol
(m|q) = m^((q-1)/2) mod q per odd prime q of the exact family's factor base
(388 primes for 628 discriminants at ell = 5, r = 7); Jacobi
multiplicativity and reciprocity turn those into every (D|m) and (-m|q) the
criteria ask for.  That needs m odd and coprime to every D of the family:
`predict` guarantees it by p > max|D|, `ResidueCensus.entry` by
gcd(m, modulus) = 1, and a residue that breaks it raises InvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import quadforms
from .arith import is_prime, kronecker, factorize
from .quadforms import Discriminant, InvariantViolation


class BoundViolation(Exception):
    """The prime is too small for the root-count criteria to be meaningful."""


def _divisors(n: int) -> list[int]:
    out = [1]
    for q, e in factorize(n):
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_even_power_of_two(r: int) -> bool:
    return r >= 2 and r & (r - 1) == 0


@dataclass(frozen=True)
class DiscriminantSet:
    """The discriminants of orders in which ell splits with order (dividing) r."""

    ell: int
    r: int
    discs: tuple[int, ...]

    def values(self) -> tuple[int, ...]:
        return self.discs

    def __len__(self):
        return len(self.discs)

    def __iter__(self):
        return iter(self.discs)


@lru_cache(maxsize=None)
def disc_set_dividing(ell: int, r: int) -> DiscriminantSet:
    """All ell-fundamental split discriminants with prime-form order dividing r."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if r < 1:
        raise ValueError("r must be positive")
    bound = 4 * ell**r
    found: set[int] = set()
    x = 1
    while x * x < bound:
        if x % ell:
            n = x * x - bound
            for f in _square_divisor_roots(-n):
                d = n // (f * f)
                if d % 4 in (0, 1):
                    found.add(d)
        x += 1
    discs = tuple(sorted(found))
    for d in discs:
        if kronecker(d, ell) != 1 or Discriminant.of(d).conductor % ell == 0:
            raise InvariantViolation(f"{ell} is not split and ell-fundamental in {d}")
    return DiscriminantSet(ell, r, discs)


def _square_divisor_roots(n: int) -> list[int]:
    """All f >= 1 with f^2 | n."""
    roots = [1]
    for q, e in factorize(n):
        if e >= 2:
            roots = [f * q**k for f in roots for k in range(e // 2 + 1)]
    return roots


@lru_cache(maxsize=None)
def disc_set_exact(ell: int, r: int) -> DiscriminantSet:
    """Members of the dividing set whose prime form has order exactly r.

    The dividing set minus the dividing sets of the proper divisors of r:
    no composition and no class number.  The families must nest, or the
    sums over the exact family would not equal the paper's Moebius forms.
    """
    full = disc_set_dividing(ell, r).values()
    drop: set[int] = set()
    for d in _divisors(r)[:-1]:
        drop.update(disc_set_dividing(ell, d).values())
    if not drop.issubset(full):
        outside = sorted(drop.difference(full))
        raise InvariantViolation(f"dividing families do not nest at ell = {ell}, r = {r}: {outside}")
    keep = tuple(d for d in full if d not in drop)
    return DiscriminantSet(ell, r, keep)


@lru_cache(maxsize=None)
def _largest_abs_disc(ell: int, r: int) -> int:
    """max |D| over the dividing family: the root-count criteria need p above it."""
    return max(-d for d in disc_set_dividing(ell, r).values())


@dataclass(frozen=True)
class KanekoBound:
    """Validity thresholds: above `operative`, formula counts are exact."""

    ell: int
    r: int
    M: Fraction
    M_strong: Fraction | None  # even r only
    operative: Fraction


@lru_cache(maxsize=None)
def kaneko_bound(ell: int, r: int) -> KanekoBound:
    # M is the largest D1 D2 / 4 over distinct pairs: the two largest |D|
    top = sorted(-d for d in disc_set_exact(ell, r).values())[-2:]
    M = Fraction(4)
    if len(top) == 2:
        M = max(M, Fraction(top[0] * top[1], 4))
    M_strong = None
    if r % 2 == 0:
        M_strong = max(kaneko_bound(ell, ri).M for ri in range(1, r))
    # the root-count criteria additionally need p > |D| over every discriminant
    # the prediction touches, which M alone does not guarantee in corner cases
    operative = max(M, M_strong or Fraction(0), Fraction(_largest_abs_disc(ell, r)))
    return KanekoBound(ell, r, M, M_strong, operative)


@dataclass(frozen=True)
class SpinePrediction:
    """Formula-side counts of directed r-cycles (total, and meeting the spine)."""

    p: int
    ell: int
    r: int
    n_s: int
    n_t: int
    valid: bool
    experimental: bool  # r a power of two: pointwise value is conjectural


@lru_cache(maxsize=None)
def _orbit_count(d: int, r: int) -> int:
    """2h/r: the r-cycles one exact-order discriminant inert at p contributes."""
    h = quadforms.class_number(d)
    if h % r or h % quadforms.h2(d):
        raise InvariantViolation(f"h({d}) = {h} is not divisible by both r = {r} and h2 = {quadforms.h2(d)}")
    return 2 * h // r


@lru_cache(maxsize=None)
def _symbol_table(ell: int, r: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The exact family's factor base, and each D factored over it.

    The base is the sorted odd primes dividing some D of `disc_set_exact`.
    Each row is (D, the base indices of the odd q with odd exponent in |D|,
    whether 2 has odd exponent in |D|, the base indices of every odd q | D).
    """
    factored = [(d, factorize(-d)) for d in disc_set_exact(ell, r)]
    base = sorted({q for _, fac in factored for q, _ in fac if q > 2})
    at = {q: i for i, q in enumerate(base)}
    rows = tuple(
        (
            d,
            tuple(at[q] for q, e in fac if q > 2 and e % 2),
            any(q == 2 and e % 2 for q, e in fac),
            tuple(at[q] for q, _ in fac if q > 2),
        )
        for d, fac in factored
    )
    return tuple(base), rows


def _counts_at_residue(ell: int, r: int, m: int) -> tuple[int, int]:
    """(n_s, n_t) at a prime or residue m, from one Legendre symbol per base prime.

    A D of the exact family counts towards n_t when m is inert in O_D,
    (D|m) = -1, and towards n_s (weighted by h2(D)) when moreover
    (-m|q) = 1 at every odd q | D and, for 4 | D, one of the mod-8
    conditions m = 7 (8), -m + D/4 in {0, 1, 4} (8), -m + D = 1 (8) holds.
    With |D| = 2^a * prod q^e and m odd and coprime to every D, the
    symbols all follow from L[q] = (m|q) at the odd primes q of the base:

      (D|m)  = (-1|m) * (2|m)^a * prod (q|m)^e
      (q|m)  = (m|q) * (-1)^((q-1)/2 * (m-1)/2)
      (-m|q) = (-1)^((q-1)/2) * (m|q)
      (m|q)  = m^((q-1)/2) mod q

    A residue m = 0 mod q would read as (m|q) = 0 and must never be
    taken for -1, so an even m or one sharing a prime with a D raises
    InvariantViolation.  Both callers rule it out: `predict` by p > max|D|,
    `ResidueCensus.entry` by gcd(m, modulus) = 1.
    """
    base, rows = _symbol_table(ell, r)
    raw = [pow(m, q >> 1, q) for q in base]
    if 0 in raw or not m & 1:
        raise InvariantViolation(f"residue {m} is even or shares a prime with a discriminant of the family")
    m3 = m & 3 == 3  # (-1|m) = -1
    two = m & 7 in (3, 5)  # (2|m) = -1
    # per base prime, whether a symbol is -1: (m|q); (-m|q), which differs
    # from it when q = 3 (4); (q|m), which differs from it when q = m = 3 (4)
    m_q = [x != 1 for x in raw]
    neg_m_q = [x ^ (q & 3 == 3) for x, q in zip(m_q, base)]
    q_m = neg_m_q if m3 else m_q
    n_s = n_t = 0
    for d, odd, a_odd, every in rows:
        inert = m3 ^ (two and a_odd)
        for i in odd:
            inert ^= q_m[i]
        if inert:
            n_t += _orbit_count(d, r)
            if not any(neg_m_q[i] for i in every) and (
                d % 4 or m % 8 == 7 or (d // 4 - m) % 8 in (0, 1, 4) or (d - m) % 8 == 1
            ):
                n_s += quadforms.h2(d)
    return (2 * n_s if r % 2 else n_s), n_t


def predict(ell: int, r: int, p: int) -> SpinePrediction:
    """Formula-side (n_s, n_t) at p; `valid` marks the theorem-backed regime."""
    if not is_prime(p) or p == ell or p <= 13:
        raise ValueError(f"p must be a prime > 13 different from ell (got {p})")
    largest = _largest_abs_disc(ell, r)
    if p <= largest:
        raise BoundViolation(f"p = {p} does not exceed every |D| (max {largest})")
    n_s, n_t = _counts_at_residue(ell, r, p)
    bound = kaneko_bound(ell, r)
    return SpinePrediction(
        p=p,
        ell=ell,
        r=r,
        n_s=n_s,
        n_t=n_t,
        valid=p > bound.operative,
        experimental=is_even_power_of_two(r),
    )


@dataclass(frozen=True)
class ResidueCensus:
    """(n_s, n_t) as a function of p modulo the census modulus.

    Entries are computed on demand: every congruence datum the counts depend
    on (Kronecker symbols of the exact-order discriminants, the mod-8 and
    mod-q root criteria) has modulus dividing `modulus`, so the value at a
    residue class is well-defined.  Materializing the full table is hopeless
    for interesting moduli (13,786,935,448 already at ell = 3, r = 3).
    """

    ell: int
    r: int
    modulus: int
    even_case: bool  # even non-power-of-2 r: spine counts rest on the halved formula

    def entry(self, m: int) -> tuple[int, int]:
        m %= self.modulus
        if gcd(m, self.modulus) != 1:
            raise ValueError(f"residue {m} is not coprime to the modulus")
        return _counts_at_residue(self.ell, self.r, m)


def residue_census(ell: int, r: int) -> ResidueCensus:
    if is_even_power_of_two(r):
        raise ValueError("no residue census for r a power of two (conjectural case)")
    modulus = lcm(8, *(abs(d) for d in disc_set_exact(ell, r).values()))
    return ResidueCensus(ell, r, modulus, even_case=r % 2 == 0)


def average_limit(ell: int, r: int) -> Fraction:
    """Limiting average of n_s over increasing consecutive primes.

    The exact family's size, halved for even r.
    """
    value = Fraction(len(disc_set_exact(ell, r)))
    return value / 2 if r % 2 == 0 else value
