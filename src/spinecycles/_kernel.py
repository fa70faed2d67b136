"""The kernel: the hot loops behind graph construction and cycle search.

Five entry points, called through this module so that callers and tests can
substitute them:

    poly_roots(p, s, coeffs, seed)   roots in F_{p^2} of a small polynomial
    PhiMod(p, s, ell, rows)          modular-polynomial specializer + roots
    curve_ap(p, a4, a6)              trace of Frobenius via a character sum
    first_ss_j(p, start)             scan for a supersingular j in F_p
    closed_walks(r, ...)             primitive non-backtracking closed walks of
                                     length r, one least rotation per cycle

F_{p^2} is F_p[w] with w^2 = s for a quadratic nonresidue s; elements are
(a, b) pairs meaning a + b*w.  Polynomials are lists of such pairs, index =
degree.

Root finding computes one p-th power per call, yp = Y^p mod sqf on the
squarefree part sqf = f / gcd(f, f'), and derives every other Frobenius
image from it by composition (von zur Gathen and Shoup 1992).  Raising to
the p-th power maps sum c_i Y^i to sum conj(c_i) Y^(ip), where conj(a + b*w)
= a - b*w, so Y^(p^2) = conj(yp)(yp) mod sqf, and gcd(sqf, Y^(p^2) - Y) is
the part that splits over F_{p^2}; f splits iff that part is all of sqf.
The split part is factored by Cantor-Zassenhaus: for a random alpha,
(Y + alpha)^((p^2-1)/2) = ((yp + conj(alpha)) (Y + alpha))^((p-1)/2) is 1
at the roots y with y + alpha a nonzero square of F_{p^2}, so its gcd with
g - 1 splits a factor g about in half, and yp reduced mod each part serves
the next split.  The alphas come from a splitmix64 stream, so results are
reproducible from the seed (and are sorted, so any seed yields the same
output).
"""

# Phi_ell(j, Y) has degree ell + 1; the level of a --phi table comes from
# outside the program, so its degree is checked against this bound
MAX_POLY_DEGREE = 18

BACKEND = "pure"

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class _SplitMix:
    def __init__(self, seed):
        self.state = seed & _MASK64

    def next(self):
        self.state = (self.state + _SPLITMIX_GAMMA) & _MASK64
        return _mix64(self.state)


def _f2_mul(x, y, p, s):
    a, b = x
    c, d = y
    return ((a * c + s * b * d) % p, (a * d + b * c) % p)


def _f2_inv(x, p, s):
    a, b = x
    n = (a * a - s * b * b) % p
    ni = pow(n, p - 2, p)
    return (a * ni % p, (p - b) * ni % p)


# -- polynomial helpers; f is a list of (a, b), f[i] the degree-i coefficient --


def _p_strip(f):
    while f and f[-1] == (0, 0):
        f.pop()
    return f


def _p_monic(f, p, s):
    lead = f[-1]
    if lead == (1, 0):
        return f
    inv = _f2_inv(lead, p, s)
    return _p_strip([_f2_mul(c, inv, p, s) for c in f])


def _p_mul(f, g, p, s):
    out = [(0, 0)] * (len(f) + len(g) - 1)
    for i, (a, b) in enumerate(f):
        if a or b:
            for k, (c, d) in enumerate(g):
                if c or d:
                    oa, ob = out[i + k]
                    out[i + k] = ((oa + a * c + s * b * d) % p, (ob + a * d + b * c) % p)
    return _p_strip(out)


def _p_divmod(f, g, p, s):
    # g nonzero; returns (q, r) with f = q*g + r, deg r < deg g
    rem = _p_strip(list(f))
    dg = len(g) - 1
    # a monic divisor, as every modulus of the root finder is, needs no inverse
    ginv = None if g[-1] == (1, 0) else _f2_inv(g[-1], p, s)
    q = [(0, 0)] * max(len(rem) - dg, 0)
    while len(rem) > dg:
        # the leading term cancels exactly, so it is popped, not subtracted
        ca, cb = rem.pop() if ginv is None else _f2_mul(rem.pop(), ginv, p, s)
        k = len(rem) - dg
        q[k] = (ca, cb)
        for i in range(dg):
            ga, gb = g[i]
            ra, rb = rem[k + i]
            rem[k + i] = ((ra - ca * ga - s * cb * gb) % p, (rb - ca * gb - cb * ga) % p)
        _p_strip(rem)
    return _p_strip(q), rem


def _p_gcd(f, g, p, s):
    a, b = list(f), list(g)
    while b:
        a, b = b, _p_divmod(a, b, p, s)[1]
    return _p_monic(a, p, s) if a else a


def _p_mulmod(f, g, mod, p, s):
    return _p_divmod(_p_mul(f, g, p, s), mod, p, s)[1]


def _p_powmod(base, e, mod, p, s):
    result = [(1, 0)]
    acc = _p_divmod(base, mod, p, s)[1]
    while e:
        if e & 1:
            result = _p_mulmod(result, acc, mod, p, s)
        e >>= 1
        if e:
            acc = _p_mulmod(acc, acc, mod, p, s)
    return result


def _p_derivative(f, p):
    return _p_strip([((i * a) % p, (i * b) % p) for i, (a, b) in enumerate(f)][1:])


def _p_add_const(f, c, p):
    """f + c for a constant c of F_{p^2}."""
    out = list(f) if f else [(0, 0)]
    out[0] = ((out[0][0] + c[0]) % p, (out[0][1] + c[1]) % p)
    return _p_strip(out)


def _cz_distinct_roots(h, yp, p, s, rng):
    """Distinct roots of a monic squarefree polynomial splitting over F_{p^2}.

    yp is Y^p mod h.
    """
    roots = []
    stack = [(h, yp)]
    half = (p - 1) >> 1
    while stack:
        g, yg = stack.pop()
        d = len(g) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append(((p - g[0][0]) % p, (p - g[0][1]) % p))
            continue
        while True:
            alpha = (rng.next() % p, rng.next() % p)
            # (Y+alpha)^(p+1) = (Y^p + conj(alpha)) (Y+alpha)
            w = _p_mulmod(_p_add_const(yg, (alpha[0], -alpha[1]), p), [alpha, (1, 0)], g, p, s)
            # w = (Y+alpha)^((p^2-1)/2) mod g; roots split by w == 1
            w = _p_add_const(_p_powmod(w, half, g, p, s), (-1, 0), p)
            d1 = _p_gcd(g, w, p, s)
            if d1 and 0 < len(d1) - 1 < d:
                d2 = _p_divmod(g, d1, p, s)[0]
                stack.append((d1, _p_divmod(yg, d1, p, s)[1]))
                stack.append((d2, _p_divmod(yg, d2, p, s)[1]))
                break
    return roots


def poly_roots(p, s, coeffs, seed):
    """All roots in F_{p^2} with multiplicity, sorted; None if f does not split."""
    f = _p_strip([(a % p, b % p) for a, b in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) - 1 > MAX_POLY_DEGREE:
        raise ValueError("degree above kernel capacity")
    if len(f) == 1:
        return []
    f = _p_monic(f, p, s)
    rng = _SplitMix(_mix64(seed & _MASK64) ^ len(f))

    df = _p_derivative(f, p)
    sqf = _p_divmod(f, _p_gcd(f, df, p, s), p, s)[0] if df else f
    # the part of sqf splitting over F_{p^2}: gcd(sqf, Y^(p^2) - Y), with
    # Y^(p^2) = conj(yp)(yp) by Horner
    yp = _p_powmod([(0, 0), (1, 0)], p, sqf, p, s)
    yp2 = []
    for a, b in reversed(yp):
        yp2 = _p_add_const(_p_mulmod(yp2, yp, sqf, p, s) if yp2 else [], (a, -b), p)
    lin = list(yp2) + [(0, 0)] * (2 - len(yp2))
    lin[1] = ((lin[1][0] - 1) % p, lin[1][1])
    split_part = _p_gcd(sqf, _p_strip(lin), p, s)

    roots = []
    rem = f
    split_yp = _p_divmod(yp, split_part, p, s)[1]
    for c in sorted(_cz_distinct_roots(split_part, split_yp, p, s, rng)):
        factor = [((p - c[0]) % p, (p - c[1]) % p), (1, 0)]
        while len(rem) > 1:
            q, r = _p_divmod(rem, factor, p, s)
            if r:
                break
            roots.append(c)
            rem = q
    if len(rem) > 1:
        return None
    return sorted(roots)


class PhiMod:
    """A modular polynomial reduced mod p, specialized at j-invariants."""

    def __init__(self, p, s, ell, rows):
        d = ell + 2
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("coefficient matrix must be (ell+2) x (ell+2)")
        self.p = p
        self.s = s
        self.ell = ell
        self.rows = [[c % p for c in row] for row in rows]

    def roots(self, ja, jb, seed):
        p, s = self.p, self.s
        deg = self.ell + 1
        jpow = [(1, 0)]
        for _ in range(deg):
            jpow.append(_f2_mul(jpow[-1], (ja, jb), p, s))
        coeffs = []
        for k in range(deg + 1):
            ca = cb = 0
            for i in range(deg + 1):
                c = self.rows[i][k]
                if c:
                    ca += c * jpow[i][0]
                    cb += c * jpow[i][1]
            coeffs.append((ca % p, cb % p))
        return poly_roots(p, s, coeffs, _mix64(seed & _MASK64) ^ _mix64((ja << 20) ^ jb ^ 1))


def _qr_table(p):
    qr = bytearray(p)
    for x in range(1, (p >> 1) + 1):
        qr[x * x % p] = 1
    return qr


def _ap_from_table(p, a4, a6, qr):
    t = 0
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        if v:
            t += 1 if qr[v] else -1
    return -t


def curve_ap(p, a4, a6):
    """Trace of Frobenius of y^2 = x^3 + a4 x + a6 over F_p (p > 3 prime)."""
    return _ap_from_table(p, a4 % p, a6 % p, _qr_table(p))


def _curve_for_j(j, p):
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    m = j * pow((1728 - j) % p, p - 2, p) % p
    return 3 * m % p, 2 * m % p


def first_ss_j(p, start):
    """Least j >= start in F_p with supersingular reduction (a_p = 0)."""
    qr = _qr_table(p)
    for j in range(start, p):
        a4, a6 = _curve_for_j(j, p)
        if _ap_from_table(p, a4, a6, qr) == 0:
            return j
    raise ValueError(f"no supersingular j in [{start}, {p})")


def closed_walks(r, edge_to, edge_dual, vert_start):
    """The primitive non-backtracking closed walks of length r, each once.

    Edges are assumed grouped by source vertex: the out-edges of vertex v are
    the indices [vert_start[v], vert_start[v+1]).  A walk is rejected when an
    edge is followed by its dual, including across the wrap-around.  Each
    cyclic class appears once, as its Lyndon word: the rotation strictly less
    than all the others, which exists exactly when the walk is not a proper
    power and begins with the walk's least edge (Chen-Fox-Lyndon; Duval
    1983).  So the search from start edge e0 extends only with edges >= e0,
    and the walks come out sorted.
    """
    if r < 2:
        raise ValueError("walk length must be at least 2")
    n = len(vert_start) - 1
    out = []
    for v in range(n):
        for e0 in range(vert_start[v], vert_start[v + 1]):
            path = [e0]
            w = edge_to[e0]
            stack = [iter(range(max(vert_start[w], e0), vert_start[w + 1]))]
            while stack:
                e = next(stack[-1], None)
                if e is None:
                    stack.pop()
                    path.pop()
                    continue
                if e == edge_dual[path[-1]]:
                    continue
                if len(path) + 1 == r:
                    if edge_to[e] == v and edge_dual[e] != e0:
                        walk = (*path, e)
                        # only a rotation starting at another copy of e0 can tie or undercut
                        if all(walk < walk[i:] + walk[:i] for i in range(1, r) if walk[i] == e0):
                            out.append(walk)
                else:
                    path.append(e)
                    w = edge_to[e]
                    stack.append(iter(range(max(vert_start[w], e0), vert_start[w + 1])))
    return out
