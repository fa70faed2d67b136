#!/usr/bin/env python3
"""Generate the classical modular polynomial tables shipped in spinecycles/data/.

Everything is derived from textbook integer q-expansions, so the script has no
inputs besides the series definitions:

    E4    = 1 + 240 sum sigma_3(n) q^n
    Delta = q prod (1 - q^n)^24
    j     = E4^3 / Delta

For level L, the polynomial is assembled from

    Phi_L(X, j(t)) = (X - j(Lt)) prod_{k=0..L-1} (X - j((t + k)/L)).

The product over k is handled through power sums: if j^m = sum d_n q^n, then
sum_k j((t+k)/L)^m = L * sum_{L | n} d_n q^(n/L), which stays integral, and
Newton's identities recover the elementary symmetric functions.  Each X^i
coefficient is then a level-1 modular function, holomorphic away from the cusp,
i.e. an integer polynomial in j; peeling off leading q-powers of j^m extracts
it, and the remainder must vanish identically to the working precision.

Self-checks: the known Phi_2 table, the Kronecker congruence
Phi_L(X,Y) = (X^L - Y)(X - Y^L) mod L, and symmetry of the coefficient matrix.
A failed check raises TableCheckFailed.

Usage: python scripts/gen_modpoly.py [outdir]
"""

import sys
from pathlib import Path

LEVELS = (2, 3, 5, 7)
GUARD = 8  # the remainder must vanish through q^GUARD after extraction

# Independently recorded classical table for Phi_2 (e.g. Silverman AEC2 or any
# standard reference); the generator output must reproduce it exactly.
PHI2_KNOWN = {
    (3, 0): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (2, 0): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 0): -157464000000000,
}


class TableCheckFailed(Exception):
    """A self-check failed; the level being generated is not written."""


def _require(ok, message):
    # a raise rather than an assert, so that the checks also run under python -O
    if not ok:
        raise TableCheckFailed(message)


def j_series(nterms):
    """Coefficients c_{-1}, c_0, ..., c_{nterms-2} of j(q) as a dict {n: c}."""
    N = nterms
    sigma3 = [0] * N
    for d in range(1, N):
        d3 = d * d * d
        for n in range(d, N, d):
            sigma3[n] += d3
    e4 = [0] * N
    e4[0] = 1
    for n in range(1, N):
        e4[n] = 240 * sigma3[n]

    # eta(q)^24 / q = prod (1-q^n)^24, built as (prod (1-q^n))^24
    euler = [0] * N
    euler[0] = 1
    for n in range(1, N):
        for k in range(N - 1, n - 1, -1):
            euler[k] -= euler[k - n]
    eta24 = [1] + [0] * (N - 1)
    acc = euler[:]
    e = 24
    while e:
        if e & 1:
            eta24 = _mul_trunc(eta24, acc, N)
        e >>= 1
        if e:
            acc = _mul_trunc(acc, acc, N)

    # invert the unit series eta24
    inv = [0] * N
    inv[0] = 1
    for n in range(1, N):
        s = 0
        for k in range(1, n + 1):
            s += eta24[k] * inv[n - k]
        inv[n] = -s

    e43 = _mul_trunc(_mul_trunc(e4, e4, N), e4, N)
    jq = _mul_trunc(e43, inv, N)
    series = {n - 1: c for n, c in enumerate(jq)}

    _require(series[-1] == 1 and series[0] == 744, "j(q) does not start q^-1 + 744")
    _require(series[1] == 196884 and series[2] == 21493760, "j(q) has wrong q^1, q^2 terms")
    return series


def _mul_trunc(a, b, N):
    out = [0] * N
    for i, ai in enumerate(a):
        if ai:
            for k in range(min(len(b), N - i)):
                if b[k]:
                    out[i + k] += ai * b[k]
    return out


def ser_mul(a, b, hi):
    out = {}
    for na, ca in a.items():
        for nb, cb in b.items():
            n = na + nb
            if n <= hi:
                out[n] = out.get(n, 0) + ca * cb
    return {n: c for n, c in out.items() if c}


def ser_addmul(a, b, scalar):
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, 0) + scalar * c
    return {n: c for n, c in out.items() if c}


def phi_table(L, guard=GUARD):
    deg = L + 1
    # acoef must be exact through q^guard; its j(q^L) factor (pole order L)
    # pushes the symmetric-function precision to acc, and the power sums pull
    # L*acc terms out of the plain j powers.
    acc = guard + L
    N = L * acc + deg + 2
    j = j_series(N + 2)

    jpow = {0: {0: 1}, 1: j}
    for m in range(2, deg + 1):
        jpow[m] = ser_mul(jpow[m - 1], j, N)

    # power sums of the L conjugates j((t+k)/L), reindexed to integral powers
    psums = {}
    for m in range(1, L + 1):
        psums[m] = {n // L: L * c for n, c in jpow[m].items() if n % L == 0 and n // L <= acc}

    # Newton: m*e_m = sum_{i=1..m} (-1)^(i-1) e_{m-i} p_i
    esym = {0: {0: 1}}
    for m in range(1, L + 1):
        s = {}
        sign = 1
        for i in range(1, m + 1):
            s = ser_addmul(s, ser_mul(esym[m - i], psums[i], acc), sign)
            sign = -sign
        _require(all(c % m == 0 for c in s.values()), f"Newton division failed at e_{m}")
        esym[m] = {n: c // m for n, c in s.items()}

    # B(X) = prod_k (X - j((t+k)/L)); then A(X) = (X - j(q^L)) * B(X)
    bcoef = {L - m: ser_addmul({}, esym[m], (-1) ** m) for m in range(L + 1)}
    jL = {L * n: c for n, c in j.items() if L * n <= acc}
    acoef = {deg: {0: 1}}
    for i in range(L + 1):
        low = bcoef[i - 1] if i >= 1 else {}
        raw = ser_addmul(low, ser_mul(jL, bcoef[i], guard), -1)
        acoef[i] = {n: c for n, c in raw.items() if n <= guard}

    table = {}
    for i in range(deg + 1):
        rem = dict(acoef[i])
        for m in range(deg, 0, -1):
            g = rem.get(-m, 0)
            if g:
                table[(i, m)] = g
                rem = ser_addmul(rem, {n: c for n, c in jpow[m].items() if n <= guard}, -g)
        g0 = rem.pop(0, 0)
        if g0:
            table[(i, 0)] = g0
        bad = {n: c for n, c in rem.items() if n <= guard and c}
        _require(not bad, f"nonpolynomial remainder at X^{i}: {sorted(bad)[:4]}")

    _check(L, table)
    return table


def _check(L, table):
    deg = L + 1
    for (i, m), c in table.items():
        _require(table.get((m, i), 0) == c, f"asymmetric at {(i, m)}")
    _require(table[(deg, 0)] == 1 and table[(L, L)] == -1, f"leading terms wrong at level {L}")
    # Kronecker congruence: Phi_L = (X^L - Y)(X - Y^L) mod L
    kron = {(L + 1, 0): 1, (L, L): -1, (1, 1): -1, (0, L + 1): 1}
    keys = set(table) | set(kron)
    for k in keys:
        _require((table.get(k, 0) - kron.get(k, 0)) % L == 0, f"Kronecker congruence fails at {k}")
    if L == 2:
        sym = {}
        for (i, m), c in table.items():
            sym[(max(i, m), min(i, m))] = c
        _require(sym == PHI2_KNOWN, "Phi_2 does not match the classical table")


def write_table(L, table, outdir):
    path = Path(outdir) / f"phi{L}.txt"
    lines = [
        f"# classical modular polynomial, level {L}",
        f"# lines: i j c  (exponents of X^i Y^j, i >= j; symmetric completion implied)",
    ]
    for (i, m) in sorted(table, reverse=True):
        if i >= m:
            lines.append(f"{i} {m} {table[(i, m)]}")
    path.write_text("\n".join(lines) + "\n")
    return path


def main():
    outdir = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "spinecycles" / "data"
    for L in LEVELS:
        table = phi_table(L)
        path = write_table(L, table, outdir)
        width = max(len(str(c)) for c in table.values())
        print(f"phi{L}: {len(table)} monomials, widest coefficient {width} digits -> {path}")


if __name__ == "__main__":
    main()
