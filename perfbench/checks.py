"""Independent checkers for census outputs.

Nothing here calls into spinecycles: each checker recomputes a count from
first principles and compares it with what the program reported.

* Cycle counts by Hashimoto non-backtracking traces.  With B the edge matrix
  (B[e, f] = 1 when dst(e) = src(f) and f != dual(e)), the number of
  primitive directed r-cycles is n_t = (1/r) sum_{d | r} mu(r/d) tr(B^d).
  n_s is n_t minus the same count with B restricted to edges off the spine.
* Class numbers by Dirichlet's class number formula, with the conductor
  correction for non-maximal orders.
* The number of supersingular j-invariants in F_p from class numbers:
  h(-4p)/2 for p = 1 (mod 4), h(-p) for p = 7 (mod 8), 2 h(-p) for p = 3 (mod 8).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the independent recount."""


# ------------------------------------------------------------ arithmetic ----


def factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    exps = factor(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# --------------------------------------------------------- cycle counting ----


def edge_list(out_edges) -> tuple[list[int], list[int], list[int]]:
    """(src, dst, dual) per directed edge copy, edges in (src, dst, copy) order.

    `out_edges[u]` lists (target, multiplicity).  The dual of copy c of u -> v
    is copy c mod m of v -> u, where m is the multiplicity of v -> u.
    """
    src, dst, copy = [], [], []
    for u, row in enumerate(out_edges):
        for v, mult in row:
            for c in range(mult):
                src.append(u)
                dst.append(v)
                copy.append(c)
    index = {(u, v, c): i for i, (u, v, c) in enumerate(zip(src, dst, copy))}
    back = {(u, v): m for u, row in enumerate(out_edges) for v, m in row}
    dual = []
    for u, v, c in zip(src, dst, copy):
        m = back.get((v, u), 0)
        if m == 0:
            raise CheckFailed(f"edge {u}->{v} has no reverse edge")
        dual.append(index[(v, u, c % m)])
    return src, dst, dual


def nonbacktracking_traces(src, dst, dual, keep, r: int) -> list[int]:
    """tr(B^d) for d = 1..r, with B restricted to the edges where keep is true."""
    n = len(src)
    kept = [e for e in range(n) if keep[e]]
    pos = {e: i for i, e in enumerate(kept)}
    out_of: dict[int, list[int]] = {}
    for e in kept:
        out_of.setdefault(src[e], []).append(pos[e])
    succ = [[f for f in out_of.get(dst[e], []) if f != pos.get(dual[e])] for e in kept]
    m = len(kept)
    if m == 0:
        return [0] * r
    width = max(len(s) for s in succ)
    nxt = np.zeros((m, width), dtype=np.int64)
    mask = np.zeros((m, width), dtype=bool)
    for i, s in enumerate(succ):
        nxt[i, : len(s)] = s
        mask[i, : len(s)] = True
    power = np.eye(m, dtype=np.int64)
    traces = []
    for _ in range(r):
        step = np.zeros_like(power)
        for k in range(width):
            rows = np.nonzero(mask[:, k])[0]
            step[rows] += power[nxt[rows, k]]
        power = step
        traces.append(int(np.trace(power)))
    return traces


def primitive_count(traces: list[int], r: int) -> int:
    """Primitive closed walks of length r up to rotation, from tr(B^d), d = 1..r."""
    total = sum(mobius(r // d) * traces[d - 1] for d in divisors(r))
    if total % r:
        raise CheckFailed(f"Moebius sum {total} not divisible by r = {r}")
    return total // r


def cycle_counts(out_edges, spine, r: int) -> tuple[int, int]:
    """(n_s, n_t): primitive directed r-cycles meeting the spine, and in all."""
    src, dst, dual = edge_list(out_edges)
    everything = [True] * len(src)
    off_spine = [not spine[u] for u in src]
    n_t = primitive_count(nonbacktracking_traces(src, dst, dual, everything, r), r)
    n_off = primitive_count(nonbacktracking_traces(src, dst, dual, off_spine, r), r)
    return n_t - n_off, n_t


# ---------------------------------------------------------- class numbers ----


def _fundamental_part(d: int) -> tuple[int, int]:
    """(d_k, f) with d = f^2 d_k and d_k a fundamental discriminant."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    square_free, root = -1, 1
    for q, e in factor(-d).items():
        square_free *= q ** (e % 2)
        root *= q ** (e // 2)
    if square_free % 4 == 1:
        return square_free, root
    return 4 * square_free, root // 2


def _character(d_k: int) -> np.ndarray:
    """The Kronecker character a -> (d_k / a) on a = 0 .. |d_k| - 1."""
    n = -d_k
    a = np.arange(n, dtype=np.int64)
    chi = np.ones(n, dtype=np.int64)
    odd = n
    while odd % 2 == 0:
        odd //= 2
    for q in factor(odd):
        legendre = -np.ones(q, dtype=np.int64)
        legendre[(np.arange(q, dtype=np.int64) ** 2) % q] = 1
        legendre[0] = 0
        chi *= legendre[a % q]
    # d_k = (2-part) * prod q*, with q* = +-q = 1 (mod 4), so prod q* = 1 (mod 4)
    two = d_k // (odd if odd % 4 == 1 else -odd)
    table8 = {
        1: [0, 1, 1, 1, 1, 1, 1, 1],
        -4: [0, 1, 0, -1, 0, 1, 0, -1],
        8: [0, 1, 0, -1, 0, -1, 0, 1],
        -8: [0, 1, 0, 1, 0, -1, 0, -1],
    }[two]
    if two != 1:
        chi *= np.array(table8, dtype=np.int64)[a % 8]
    return chi


def class_number(d: int) -> int:
    """h(d) by Dirichlet's class number formula with the conductor correction."""
    d_k, f = _fundamental_part(d)
    chi = _character(d_k)
    units = {-3: 6, -4: 4}.get(d_k, 2)
    moment = int(np.dot(chi, np.arange(-d_k, dtype=np.int64)))
    h_k = Fraction(-units * moment, 2 * -d_k)
    h = h_k * f / (units // 2 if f > 1 else 1)
    for q in factor(f):
        h *= 1 - Fraction(int(chi[q % -d_k]), q)
    if h.denominator != 1 or h <= 0:
        raise CheckFailed(f"class number formula gave {h} at D = {d}")
    return int(h)


def supersingular_fp_count(p: int) -> int:
    """Number of supersingular j-invariants in F_p, from class numbers."""
    if p % 4 == 1:
        return class_number(-4 * p) // 2
    if p % 8 == 7:
        return class_number(-p)
    return 2 * class_number(-p)
