"""Exact integer arithmetic.

Kronecker symbols, trial-division factorization, a deterministic primality
test for integers below 2^64, a prime sieve, and the least quadratic
nonresidue s of F_p, which fixes the basis {1, w} of F_{p^2} with w^2 = s.
That basis choice makes "defined over F_p" a trivial b == 0 test on an
element a + b*w, stored as the pair (a, b), and gives every prime a canonical
representation.  Arithmetic on those pairs lives in the root-finding kernel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64; larger n raise ValueError.

    Beyond 2^64 the twelve witnesses no longer decide primality: strong
    pseudoprimes to all of them exist, e.g. 399165290221 * 798330580441.
    """
    if n >= 1 << 64:
        raise ValueError(f"{n} is too large for the primality test (limit 2^64)")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n > 0; the Legendre symbol at odd primes."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a|2) by a mod 8, applied once per factor of 2
        t = 0
        while n % 2 == 0:
            n //= 2
            t += 1
        sign = 1 if (t % 2 == 0 or a % 8 in (1, 7)) else -1
    else:
        sign = 1
    # now n odd: Jacobi symbol via reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for q in (2, 3):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
    q = 5
    step = 2
    while q * q <= n:
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))
        q += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        out.append((n, 1))
    return out


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a sieve of the window [lo, hi] alone.

    The base primes up to sqrt(hi) come from a sieve of their own.  Each
    sieve is capped at 10^8 entries, so the window is at most 10^8 wide and
    hi below about 10^16; hi >= 2^64 is refused outright, as by `is_prime`.
    """
    if hi >= 1 << 64:
        raise ValueError(f"{hi} is too large for the prime sieve (limit 2^64)")
    lo = max(lo, 2)
    if hi < lo:
        return []
    if hi - lo >= 10**8:
        raise ValueError("sieve range too large")
    sieve = bytearray([1]) * (hi - lo + 1)
    for q in primes_in(2, isqrt(hi)):
        start = max(q * q, -(-lo // q) * q) - lo
        sieve[start::q] = bytes(len(range(start, len(sieve), q)))
    return list(compress(range(lo, hi + 1), sieve))


@lru_cache(maxsize=None)
def least_nonresidue(p: int) -> int:
    n = 2
    while kronecker(n, p) != -1:
        n += 1
    return n
