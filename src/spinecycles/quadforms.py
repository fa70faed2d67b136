"""Imaginary quadratic discriminants and form class groups.

Discriminants are plain ints.  The predictor takes two things from here: h2 =
2^(mu-1) from the genus invariant mu (one factorization of |d|), and class
numbers, which count the O(|d|) reduced forms afresh on every call.

Composition with Gauss reduction, prime forms above a split prime ell, their
class-group orders and a brute-force two-torsion count are the test oracles:
the independent reference that the predictor's set differences and genus
theory are checked against.  Exact integer arithmetic on small inputs (|d| up
to ~10^6): reduction after every composition, no NUCOMP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize, kronecker


class InvariantViolation(Exception):
    """An arithmetic identity that holds for correct code failed (a bug, not bad input)."""


class NotSplit(Exception):
    """ell does not split in the order of the given discriminant."""


class NotEllFundamental(Exception):
    """ell divides the conductor, so there is no prime form above ell."""


@dataclass(frozen=True, order=True)
class Discriminant:
    """A negative discriminant D = conductor^2 * d_k with d_k fundamental."""

    d: int
    d_k: int
    conductor: int

    @classmethod
    def of(cls, d: int) -> "Discriminant":
        if d >= 0 or d % 4 not in (0, 1):
            raise ValueError(f"{d} is not a negative discriminant")
        square_free = 1
        root = 1
        for q, e in factorize(-d):
            if e % 2:
                square_free *= q
            root *= q ** (e // 2)
        # fundamental part: s itself if s = 1 mod 4, else 4s
        s = -square_free
        if s % 4 == 1:
            d_k = s
            f = root
        else:
            if root % 2:
                raise InvariantViolation(f"{d} = {s} * {root}^2 with {s} = 2, 3 (mod 4)")
            d_k = 4 * s
            f = root // 2
        if f * f * d_k != d:
            raise InvariantViolation(f"{d} != {f}^2 * {d_k}")
        return cls(d, d_k, f)


@dataclass(frozen=True, order=True)
class BinaryQuadraticForm:
    """Primitive positive-definite integral form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        return b >= 0 if (abs(b) == a or a == c) else True

    def inverse(self) -> "BinaryQuadraticForm":
        return reduce_form(BinaryQuadraticForm(self.a, -self.b, self.c))

    def reduced(self) -> "BinaryQuadraticForm":
        return reduce_form(self)


def reduce_form(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    a, b, c = f.a, f.b, f.c
    if a <= 0 or f.discriminant() >= 0:
        raise InvariantViolation("form must be positive definite")
    while True:
        if b <= -a or b > a:
            # normalize b into (-a, a]
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        break
    return BinaryQuadraticForm(a, b, c)


def principal_form(d: int) -> BinaryQuadraticForm:
    k = d & 1
    return BinaryQuadraticForm(1, k, (k * k - d) // 4)


def reduced_forms(d: int) -> list[BinaryQuadraticForm]:
    """All reduced primitive positive-definite forms of discriminant d, sorted."""
    Discriminant.of(d)  # validate
    out = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.append(BinaryQuadraticForm(a, b, c))
    return sorted(out)


def class_number(d: int) -> int:
    return len(reduced_forms(d))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _solve_linear(a: int, b: int, m: int) -> tuple[int, int]:
    """Some x with a x = b (mod m), plus the solution period m/gcd."""
    g, inv, _ = _xgcd(a, m)
    if b % g:
        raise InvariantViolation(f"no solution to {a} x = {b} (mod {m}) in a composition")
    period = m // g
    return (inv * (b // g)) % period, period


def compose(f: BinaryQuadraticForm, g: BinaryQuadraticForm, d: int) -> BinaryQuadraticForm:
    """Reduced Dirichlet composition of two primitive forms of discriminant d."""
    if f.discriminant() != d or g.discriminant() != d:
        raise ValueError("forms must share the given discriminant")
    a1, b1, c1 = f.a, f.b, f.c
    a2, b2, c2 = g.a, g.b, g.c
    # solve for the composed form via the standard congruence system
    gm = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), gm)
    s = a1 // w
    t = a2 // w
    u = gm // w
    k0, period = _solve_linear(t * u, h * u + s * c1, s * t)
    n, _ = _solve_linear(t * period, h - t * k0, s)
    k = k0 + period * n
    l = (t * k - h) // s
    m = (t * u * k - h * u - s * c1) // (s * t)
    a3 = s * t
    b3 = w * u - (k * t + l * s)
    c3 = k * l - w * m
    return reduce_form(BinaryQuadraticForm(a3, b3, c3))


def form_order(f: BinaryQuadraticForm, d: int) -> int:
    """Least k >= 1 with f^k principal."""
    ident = principal_form(d)
    acc = f.reduced()
    k = 1
    cap = 4 * abs(d) + 16  # far above any class number at this scale
    while acc != ident:
        acc = compose(acc, f, d)
        k += 1
        if k > cap:
            raise InvariantViolation(f"order of {f} in discriminant {d} exceeds {cap}")
    return k


def genus_mu(d: int) -> int:
    """The genus invariant: cl(O_d) has exactly 2^(mu-1) elements of order <= 2."""
    Discriminant.of(d)
    r = sum(1 for q, _ in factorize(-d) if q % 2)
    if d % 4 == 1:
        return r
    n = -d // 4
    if n % 4 == 3:
        return r
    if n % 4 in (1, 2):
        return r + 1
    if n % 8 == 4:
        return r + 1
    return r + 2  # n = 0 mod 8


@lru_cache(maxsize=None)
def h2(d: int) -> int:
    """Size of the two-torsion subgroup cl(O_d)[2], from genus theory."""
    return 1 << (genus_mu(d) - 1)


def two_torsion_bruteforce(d: int) -> int:
    """Independent oracle for h2: count classes squaring to the principal one."""
    ident = principal_form(d)
    return sum(1 for f in reduced_forms(d) if compose(f, f, d) == ident)


def prime_form(d: int, ell: int) -> BinaryQuadraticForm:
    """The reduced class of a form (ell, b, c) above a split prime ell."""
    if Discriminant.of(d).conductor % ell == 0:
        raise NotEllFundamental(f"{ell} divides the conductor of {d}")
    if kronecker(d, ell) != 1:
        raise NotSplit(f"{ell} does not split in discriminant {d}")
    for b in range(2 * ell):
        if (b - d) % 2 == 0 and (b * b - d) % (4 * ell) == 0:
            return reduce_form(BinaryQuadraticForm(ell, b, (b * b - d) // (4 * ell)))
    raise InvariantViolation(f"split prime {ell} admits no square root of {d} mod {4 * ell}")
