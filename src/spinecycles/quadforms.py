"""Imaginary quadratic discriminants and form class groups.

Discriminants are plain ints and forms are (a, b, c) tuples for
a x^2 + b xy + c y^2, which sort lexicographically.  The predictor takes
three things from here: the conductor of each discriminant (to check that
ell does not divide it), h2 = 2^(mu-1) from the genus invariant mu (one
factorization of |d|), and class numbers, which count the O(|d|) reduced
forms afresh on every call.

Composition with Gauss reduction (`compose`, `reduce_form` and its solver
helpers) and class-group orders (`form_order`, `principal_form`) are the
independent reference that the tests check the predictor's set differences
and genus theory against.  The package itself never composes forms; they stay
here because the benchmark's tracer (perfbench/tracing.py) wraps `compose`
and `form_order` by name.  The prime-form and two-torsion oracles built on
them live with the tests (tests/form_oracle.py).  Exact integer arithmetic on
small inputs (|d| up to ~10^6): reduction after every composition, no NUCOMP.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorize


class InvariantViolation(Exception):
    """An arithmetic identity that holds for correct code failed (a bug, not bad input)."""


def conductor(d: int) -> int:
    """The conductor f of a negative discriminant d = f^2 d_k, d_k fundamental."""
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
    return f


def reduce_form(f: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = f
    if a <= 0 or b * b - 4 * a * c >= 0:
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
    return a, b, c


def principal_form(d: int) -> tuple[int, int, int]:
    k = d & 1
    return 1, k, (k * k - d) // 4


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """All reduced primitive positive-definite forms of discriminant d, sorted."""
    conductor(d)  # validate
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
                out.append((a, b, c))
    return out


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


def compose(f: tuple[int, int, int], g: tuple[int, int, int], d: int) -> tuple[int, int, int]:
    """Reduced Dirichlet composition of two primitive forms of discriminant d."""
    a1, b1, c1 = f
    a2, b2, c2 = g
    if b1 * b1 - 4 * a1 * c1 != d or b2 * b2 - 4 * a2 * c2 != d:
        raise ValueError("forms must share the given discriminant")
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
    return reduce_form((a3, b3, c3))


def form_order(f: tuple[int, int, int], d: int) -> int:
    """Least k >= 1 with f^k principal."""
    ident = principal_form(d)
    acc = reduce_form(f)
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
    conductor(d)  # validate
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
