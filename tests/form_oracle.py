"""Test-side oracles over the package's form arithmetic.

Prime forms above a split prime ell, a brute-force two-torsion count, the
reduced/primitive predicates and two small form helpers.  The predictor needs
none of them: they check its set differences and genus theory against
explicit class-group computations.  Forms are (a, b, c) tuples, as in
`spinecycles.quadforms`.
"""

import math

from spinecycles.arith import kronecker
from spinecycles.quadforms import (
    InvariantViolation,
    compose,
    conductor,
    principal_form,
    reduce_form,
    reduced_forms,
)


class NotSplit(Exception):
    """ell does not split in the order of the given discriminant."""


class NotEllFundamental(Exception):
    """ell divides the conductor, so there is no prime form above ell."""


def discriminant(f):
    a, b, c = f
    return b * b - 4 * a * c


def inverse(f):
    a, b, c = f
    return reduce_form((a, -b, c))


def is_primitive(f):
    a, b, c = f
    return math.gcd(math.gcd(a, b), c) == 1


def is_reduced(f):
    a, b, c = f
    if not (abs(b) <= a <= c):
        return False
    return b >= 0 if (abs(b) == a or a == c) else True


def two_torsion_bruteforce(d):
    """Independent oracle for h2: count classes squaring to the principal one."""
    ident = principal_form(d)
    return sum(1 for f in reduced_forms(d) if compose(f, f, d) == ident)


def prime_form(d, ell):
    """The reduced class of a form (ell, b, c) above a split prime ell."""
    if conductor(d) % ell == 0:
        raise NotEllFundamental(f"{ell} divides the conductor of {d}")
    if kronecker(d, ell) != 1:
        raise NotSplit(f"{ell} does not split in discriminant {d}")
    for b in range(2 * ell):
        if (b - d) % 2 == 0 and (b * b - d) % (4 * ell) == 0:
            return reduce_form((ell, b, (b * b - d) // (4 * ell)))
    raise InvariantViolation(f"split prime {ell} admits no square root of {d} mod {4 * ell}")
