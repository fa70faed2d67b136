"""A fixed reference load that measures how fast this machine runs Python now.

On a shared host the same census sweep takes anywhere from 1x to 2x its
quiet time, depending on what other tenants run, in stretches of seconds to
minutes.  `run.py` times this load between the census rows of a sweep, about
every half second, and divides each stretch of census work by the load time
measured beside it: the quotient, a sweep's length in units of the reference
load, drifts much less than the wall time as the machine's speed changes.

The load is a small instance of the census's own kind of work, written here
afresh: a supersingular isogeny graph built by root finding over F_p^2.  It
slows down with the machine somewhat more than the census does (see the
README), so a busy stretch is over-corrected a little.  Its inputs are
fixed; nothing here depends on the seed or calls into spinecycles, so no
change to the program can move it.
"""

from __future__ import annotations

import time

# The load: the supersingular 2-isogeny graph over F_p^2 at a small prime,
# built by breadth-first search from j = 1728 with Cantor-Zassenhaus root
# finding on Phi_2(j, Y), the same kind of work as the census's graph side.
# p = 3 (mod 4), so F_p^2 = F_p[i]/(i^2 + 1) and 1728 is supersingular.
_P = 311
_Q = _P * _P


def _mul(x, y):
    (a, b), (c, d) = x, y
    return ((a * c - b * d) % _P, (a * d + b * c) % _P)


def _inv(x):
    a, b = x
    n = pow(a * a + b * b, _P - 2, _P)
    return (a * n % _P, -b * n % _P)


def _strip(f):
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def _pmul(f, g):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, (a, b) in enumerate(f):
        for k, (c, d) in enumerate(g):
            oa, ob = out[i + k]
            out[i + k] = ((oa + a * c - b * d) % _P, (ob + a * d + b * c) % _P)
    return _strip(out)


def _pmod(f, g):
    rem = list(f)
    lead = _inv(g[-1])
    while len(rem) >= len(g):
        c = _mul(rem[-1], lead)
        shift = len(rem) - len(g)
        for i, gi in enumerate(g):
            ca, cb = _mul(c, gi)
            ra, rb = rem[shift + i]
            rem[shift + i] = ((ra - ca) % _P, (rb - cb) % _P)
        _strip(rem)
    return rem


def _ppow(base, e, mod):
    out, acc = [(1, 0)], _pmod(base, mod)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, acc), mod)
        e >>= 1
        if e:
            acc = _pmod(_pmul(acc, acc), mod)
    return out


def _pgcd(f, g):
    while g:
        f, g = g, _pmod(f, g)
    lead = _inv(f[-1])
    return [_mul(c, lead) for c in f]


def _sub(f, g):
    n = max(len(f), len(g))
    f, g = f + [(0, 0)] * (n - len(f)), g + [(0, 0)] * (n - len(g))
    return _strip([((a - c) % _P, (b - d) % _P) for (a, b), (c, d) in zip(f, g)])


def _split(f, rng, out):
    if len(f) == 2:
        out.append(_mul((-f[0][0] % _P, -f[0][1] % _P), _inv(f[1])))
        return
    while True:
        rng[0] = (rng[0] * 1103515245 + 12345) % 2**31
        a = (rng[0] % _P, rng[0] // _P % _P)
        h = _sub(_ppow([a, (1, 0)], (_Q - 1) // 2, f), [(1, 0)])
        if h:
            g = _pgcd(f, h)
            if 1 < len(g) < len(f):
                _split(g, rng, out)
                _split(_pdiv(f, g), rng, out)
                return


def _pdiv(f, g):
    rem, q = list(f), [(0, 0)] * (len(f) - len(g) + 1)
    lead = _inv(g[-1])
    while len(rem) >= len(g):
        c = _mul(rem[-1], lead)
        shift = len(rem) - len(g)
        q[shift] = c
        for i, gi in enumerate(g):
            ca, cb = _mul(c, gi)
            ra, rb = rem[shift + i]
            rem[shift + i] = ((ra - ca) % _P, (rb - cb) % _P)
        _strip(rem)
    return q


def _phi2(j):
    """Phi_2(j, Y) as a list of F_p^2 coefficients, constant term first."""
    j2 = _mul(j, j)
    j3 = _mul(j2, j)

    def lin(*terms):
        a = b = 0
        for k, (x, y) in terms:
            a, b = a + k * x, b + k * y
        return (a % _P, b % _P)

    one = (1, 0)
    return [
        lin((1, j3), (-162000, j2), (8748000000, j), (-157464000000000, one)),
        lin((1488, j2), (40773375, j), (8748000000, one)),
        lin((-1, j2), (1488, j), (-162000, one)),
        one,
    ]


def _roots(j, rng):
    f = _phi2(j)
    g = _pgcd(f, _sub(_ppow([(0, 0), (1, 0)], _Q, f), [(0, 0), (1, 0)]))
    out = []
    if len(g) > 1:
        _split(g, rng, out)
    return out


def reference_load() -> int:
    """One unit of reference work: the graph's vertex count plus its edges."""
    rng = [12345]
    start = (1728 % _P, 0)
    seen, queue, edges = {start}, [start], 0
    while queue:
        j = queue.pop()
        for k in _roots(j, rng):
            edges += 1
            if k not in seen:
                seen.add(k)
                queue.append(k)
    return len(seen) * 1000 + edges


# One reference second is the time this many reference loads take.  On the
# 2-core machine of the README's reference figures a load took 17 ms when the
# machine was quiet and up to 31 ms when it was busy, so a reference second
# is 0.85 s of the quiet machine.
LOADS_PER_REFERENCE_S = 50


class Clock:
    """Work time in reference seconds, probed between units of work.

    `start` opens a measurement; `tick`, called between units of work, runs a
    probe once `every_s` seconds of work have passed since the last one;
    `stop` runs a closing probe.  Each stretch of work between two probes is
    divided by the mean of their load times, so a stretch measured while the
    machine ran slow counts as slow as the probes beside it found it.  Probe
    time itself is never counted as work.
    """

    def __init__(self, loads: int = 5, every_s: float = 0.5):
        self.loads = loads
        self.every_s = every_s
        self.load_s = self._probe()
        self.probes = [self.load_s]
        self.mark = time.perf_counter()
        self.raw_s = self.ref_s = 0.0

    def _probe(self) -> float:
        """Median wall seconds of one reference load, over `loads` of them."""
        times = []
        for _ in range(self.loads):
            t = time.perf_counter()
            reference_load()
            times.append(time.perf_counter() - t)
        return sorted(times)[len(times) // 2]

    def _close(self) -> None:
        work_s = time.perf_counter() - self.mark
        before, self.load_s = self.load_s, self._probe()
        self.probes.append(self.load_s)
        self.raw_s += work_s
        self.ref_s += work_s / ((before + self.load_s) / 2) / LOADS_PER_REFERENCE_S
        self.mark = time.perf_counter()

    def start(self) -> None:
        self.mark = time.perf_counter()
        self.raw_s = self.ref_s = 0.0

    def tick(self) -> None:
        if time.perf_counter() - self.mark >= self.every_s:
            self._close()

    def stop(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) of work since `start`."""
        self._close()
        return self.raw_s, self.ref_s
