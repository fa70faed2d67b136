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
    largest = max((-d for d in disc_set_dividing(ell, r).values()), default=0)
    operative = max(M, M_strong or Fraction(0), Fraction(largest))
    return KanekoBound(ell, r, M, M_strong, operative)


@lru_cache(maxsize=None)
def _odd_prime_factors(n: int) -> tuple[int, ...]:
    return tuple(q for q, _ in factorize(n) if q % 2)


def _delta_unchecked(d: int, m: int) -> int:
    """1 iff p = m is inert in O_d and the class polynomial of O_d has an F_p root.

    Decided purely by Kronecker symbols and congruences, so it depends only on
    the residue m: p inert, (-p | q) = 1 at every odd prime q | d, and when
    4 | d one of the mod-8 conditions p = 7 (8), -p + d/4 in {0, 1, 4} (8),
    -p + d = 1 (8) must hold.  Meaningful only for p > |d|, which callers check.
    """
    return _inert_delta(d, m) if kronecker(d, m) == -1 else 0


def _inert_delta(d: int, m: int) -> int:
    """`_delta_unchecked` at a residue m already known to be inert in O_d."""
    for q in _odd_prime_factors(-d):
        if kronecker(-m, q) != 1:
            return 0
    if d % 4 == 0:
        if m % 8 != 7 and (-m + d // 4) % 8 not in (0, 1, 4) and (-m + d) % 8 != 1:
            return 0
    return 1


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


def _counts_at_residue(ell: int, r: int, m: int) -> tuple[int, int]:
    n_s = n_t = 0
    for d in disc_set_exact(ell, r):
        if kronecker(d, m) == -1:
            n_s += _inert_delta(d, m) * quadforms.h2(d)
            n_t += _orbit_count(d, r)
    return (2 * n_s if r % 2 else n_s), n_t


def predict(ell: int, r: int, p: int) -> SpinePrediction:
    """Formula-side (n_s, n_t) at p; `valid` marks the theorem-backed regime."""
    if not is_prime(p) or p == ell or p <= 13:
        raise ValueError(f"p must be a prime > 13 different from ell (got {p})")
    largest = max(-d for d in disc_set_dividing(ell, r).values())
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
