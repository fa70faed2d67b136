"""The kernel: the hot loops behind graph construction and cycle search.

Three entry points, called through this module so that callers and tests can
substitute them:

    poly_roots(p, s, coeffs, seed, known=())
                                     roots in F_{p^2} of a small polynomial
    PhiMod(p, s, ell, rows)          modular-polynomial specializer;
                                     .roots(ja, jb, seed, known=())
    closed_walks(r, ...)             primitive non-backtracking closed walks of
                                     length r, one least rotation per cycle,
                                     sorted; found by joining heads of
                                     ceil(r/2) edges to tails of r // 2
                                     edges grown back from the start vertex

F_{p^2} is F_p[w] with w^2 = s for a quadratic nonresidue s; elements are
(a, b) pairs meaning a + b*w.  Polynomials are lists of such pairs, index =
degree.

Root finding first divides f by (Y - c) for each root c the caller already
knows, by one synthetic division per c over plain ints (a remainder means
c was no root, and the answer is None), and searches only the quotient.
`PhiMod.roots` specializes Phi_ell(j, Y) in the same pass: the powers of j
are ints, and each coefficient sums only the nonzero entries of its column
of Phi_ell.  A linear quotient is read off.  A quadratic is solved in
closed form: its discriminant is a square of F_{p^2} iff its norm is a
square of F_p (a Legendre symbol), and the square root comes from two
square roots in F_p by Tonelli-Shanks with the nonresidue s (Adj and
Rodriguez-Henriquez 2014).  A nonsquare discriminant
means f does not split.  A cubic is solved by Cardano's formulas: shifted to
X^3 + P X + Q, its roots are u + v, u zeta + v zeta^2 and u zeta^2 + v zeta
for zeta a primitive cube root of unity (always in F_{p^2}), u^3 a root of
the quadratic T^2 + Q T - P^3/27 and v = -P/(3u).  The cube root is taken by
Adleman-Manders-Miller: with p^2 - 1 = 3^e t and 3 not dividing t, x^k for
3k = 1 (mod t) is a cube root up to an element of the 3-Sylow subgroup,
which a walk over the base-3 digits of its discrete log removes (Pohlig and
Hellman), in at most e steps.  The square root or the cube root is missing
exactly when the cubic does not split.

Higher degrees take one p-th power per call, yp = Y^p mod f, and derive
every other Frobenius image from it by composition (von zur Gathen and Shoup
1992).  Raising to the p-th power maps sum c_i Y^i to sum conj(c_i) Y^(ip),
where conj(a + b*w) = a - b*w, so Y^(p^2) = conj(yp)(yp) mod f, and
gcd(f, Y^(p^2) - Y) is the product of (Y - y) over the distinct roots y of f
in F_{p^2}: squarefree, since Y^(p^2) - Y is.  f splits iff dividing out
those roots, with multiplicity, leaves a constant.
That gcd is factored by Cantor-Zassenhaus: for a random alpha,
(Y + alpha)^((p^2-1)/2) = ((yp + conj(alpha)) (Y + alpha))^((p-1)/2) is 1
at the roots y with y + alpha a nonzero square of F_{p^2}, so its gcd with
g - 1 splits a factor g about in half, and yp reduced mod each part serves
the next split.  A part of degree 3 or less is finished by the closed forms
above instead of another splitting power; it splits by construction, so a
closed form that finds no roots there is an arithmetic error.  The alphas
come from a splitmix64 stream, so results are reproducible from the seed
(and are sorted, so any seed yields the same output); the stream is seeded
only when a quotient reaches Cantor-Zassenhaus.
"""

from functools import lru_cache

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


def _f2_pow(x, n, p, s):
    xa, xb = x
    ra, rb = 1, 0
    while n:
        if n & 1:
            ra, rb = (ra * xa + s * rb * xb) % p, (ra * xb + rb * xa) % p
        n >>= 1
        if n:
            xa, xb = (xa * xa + s * xb * xb) % p, 2 * xa * xb % p
    return ra, rb


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


def _p_add_const(f, c, p):
    """f + c for a constant c of F_{p^2}."""
    out = list(f) if f else [(0, 0)]
    out[0] = ((out[0][0] + c[0]) % p, (out[0][1] + c[1]) % p)
    return _p_strip(out)


def _cz_distinct_roots(h, yp, p, s, rng):
    """Distinct roots of a monic squarefree polynomial splitting over F_{p^2}.

    yp is Y^p mod a multiple of h.  Factors of degree 3 or less are solved in
    closed form.
    """
    roots = []
    stack = [(h, yp)]
    half = (p - 1) >> 1
    while stack:
        g, yg = stack.pop()
        d = len(g) - 1
        if d <= 3:
            found = _low_degree_roots(g, p, s)
            if found is None:
                raise ArithmeticError(f"no closed-form roots of the split factor {g} at p = {p}")
            roots.extend(found)
            continue
        yg = _p_divmod(yg, g, p, s)[1]
        while True:
            alpha = (rng.next() % p, rng.next() % p)
            # (Y+alpha)^(p+1) = (Y^p + conj(alpha)) (Y+alpha)
            w = _p_mulmod(_p_add_const(yg, (alpha[0], -alpha[1]), p), [alpha, (1, 0)], g, p, s)
            # w = (Y+alpha)^((p^2-1)/2) mod g; roots split by w == 1
            w = _p_add_const(_p_powmod(w, half, g, p, s), (-1, 0), p)
            d1 = _p_gcd(g, w, p, s)
            if d1 and 0 < len(d1) - 1 < d:
                stack.append((d1, yg))
                stack.append((_p_divmod(g, d1, p, s)[0], yg))
                break
    return roots


def _fp_sqrt(a, p, s):
    """A square root of a square a of F_p, by Tonelli-Shanks with nonresidue s."""
    if a == 0:
        return 0
    q, e = p - 1, 0
    while not q & 1:
        q >>= 1
        e += 1
    z = pow(s, q, p)
    x = pow(a, (q + 1) >> 1, p)
    t = pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(z, 1 << (e - i - 1), p)
        x, z = x * b % p, b * b % p
        t, e = t * z % p, i
    return x


def _is_fp_square(a, p):
    """Euler's criterion; 0 counts as a square."""
    return pow(a, (p - 1) >> 1, p) != p - 1


def _f2_sqrt(x, p, s):
    """A square root of x = a + b*w in F_{p^2}, or None if x is not a square."""
    a, b = x
    if b == 0:
        # every element of F_p is a square in F_{p^2}: sqrt(a) or sqrt(a/s)*w
        if _is_fp_square(a, p):
            return (_fp_sqrt(a, p, s), 0)
        return (0, _fp_sqrt(a * pow(s, p - 2, p) % p, p, s))
    # x is a square iff its norm is; then (u + v*w)^2 = x for u^2 = (a +- t)/2
    # with t^2 the norm, and of those two the one that is a square in F_p
    # (their product s*b^2/4 is not), and v = b/(2u)
    norm = (a * a - s * b * b) % p
    if not _is_fp_square(norm, p):
        return None
    t = _fp_sqrt(norm, p, s)
    half = (p + 1) >> 1
    u2 = (a + t) * half % p
    if not _is_fp_square(u2, p):
        u2 = (a - t) * half % p
    u = _fp_sqrt(u2, p, s)
    return (u, b * half * pow(u, p - 2, p) % p)


def _quadratic_roots(f, p, s):
    """Both roots of a monic quadratic, or None if they lie outside F_{p^2}."""
    (c0, c1), (b0, b1) = f[0], f[1]
    disc = ((b0 * b0 + s * b1 * b1 - 4 * c0) % p, (2 * b0 * b1 - 4 * c1) % p)
    r = _f2_sqrt(disc, p, s)
    if r is None:
        return None
    half = (p + 1) >> 1
    return [((sign * r[0] - b0) * half % p, (sign * r[1] - b1) * half % p) for sign in (1, -1)]


@lru_cache(maxsize=128)
def _cube_constants(p, s):
    """(e, k, g, zeta) for cube roots in F_{p^2}.

    p^2 - 1 = 3^e t with 3 not dividing t, and 3k = 1 (mod t); g = z^t for a
    non-cube z generates the 3-Sylow subgroup, and zeta = g^(3^(e-1)) is a
    primitive cube root of unity, (-1 + sqrt(-3))/2 or its conjugate.
    """
    t, e = p * p - 1, 0
    while t % 3 == 0:
        t //= 3
        e += 1
    # z is a non-cube iff z^((p^2-1)/3) != 1; a + w is tried rather than an
    # element of F_p, all of which are cubes when p = 2 (mod 3)
    third = (p * p - 1) // 3
    z = next((a, 1) for a in range(p) if _f2_pow((a, 1), third, p, s) != (1, 0))
    g = _f2_pow(z, t, p, s)
    return e, pow(3, -1, t), g, _f2_pow(g, 3 ** (e - 1), p, s)


def _f2_cube(x, p, s):
    return _f2_mul(_f2_mul(x, x, p, s), x, p, s)


def _f2_cbrt(x, p, s):
    """A cube root of x in F_{p^2}, or None if x is not a cube.

    Adleman-Manders-Miller: y = x^k has y^3 = x*c with c in the 3-Sylow
    subgroup, and x is a cube iff c is, iff the order 3^i of c is below
    3^e.  Each step multiplies y by a power of g^(3^(e-i-1)) chosen to
    lower that order, so at most e steps reach c = 1 (the Pohlig-Hellman
    digits of the discrete log of c, one at a time).
    """
    if x == (0, 0):
        return x
    e, k, g, zeta = _cube_constants(p, s)
    y = _f2_pow(x, k, p, s)
    c = _f2_mul(_f2_cube(y, p, s), _f2_inv(x, p, s), p, s)
    while c != (1, 0):
        i, ci = 0, c
        while ci != (1, 0):
            top, ci = ci, _f2_cube(ci, p, s)
            i += 1
        if i == e:
            return None
        # top = c^(3^(i-1)) and b^(3^i) = zeta are primitive cube roots of
        # unity; b^j with top * zeta^j = 1 makes c * b^(3j) of order 3^(i-1)
        b = _f2_pow(g, 3 ** (e - i - 1), p, s)
        if top == zeta:
            b = _f2_mul(b, b, p, s)
        y = _f2_mul(y, b, p, s)
        c = _f2_mul(c, _f2_cube(b, p, s), p, s)
    return y


def _cubic_roots(f, p, s):
    """The roots of a monic cubic with multiplicity, or None if they lie outside F_{p^2}.

    Cardano: Y = X - c with c = f_2/3 gives X^3 + P X + Q, whose roots are
    u zeta^i + v zeta^(-i) for u^3 a root of T^2 + Q T - P^3/27 and
    v = -P/(3u).  Both the square root behind T and the cube root exist iff
    the cubic splits: u is (x_0 + zeta^2 x_1 + zeta x_2)/3 over its roots
    x_i, and a cubic with one root in F_{p^2} has a nonsquare discriminant.
    """
    inv3 = pow(3, p - 2, p)
    c = (f[2][0] * inv3 % p, f[2][1] * inv3 % p)
    cc = _f2_mul(c, c, p, s)
    ccc = _f2_mul(cc, c, p, s)
    f1c = _f2_mul(f[1], c, p, s)
    big_p = ((f[1][0] - 3 * cc[0]) % p, (f[1][1] - 3 * cc[1]) % p)
    big_q = ((f[0][0] - f1c[0] + 2 * ccc[0]) % p, (f[0][1] - f1c[1] + 2 * ccc[1]) % p)
    m = -inv3 * inv3 * inv3
    p3 = _f2_cube(big_p, p, s)
    t = _quadratic_roots([(p3[0] * m % p, p3[1] * m % p), big_q, (1, 0)], p, s)
    if t is None:
        return None
    # the roots of T multiply to -P^3/27, so both are 0 only when P = Q = 0
    u3 = t[0] if t[0] != (0, 0) else t[1]
    if u3 == (0, 0):
        return [((p - c[0]) % p, (p - c[1]) % p)] * 3
    u = _f2_cbrt(u3, p, s)
    if u is None:
        return None
    v = _f2_mul(big_p, _f2_inv(u, p, s), p, s)
    v = (-v[0] * inv3 % p, -v[1] * inv3 % p)
    zeta = _cube_constants(p, s)[3]
    uz, vz = _f2_mul(u, zeta, p, s), _f2_mul(v, zeta, p, s)
    # zeta^2 = -1 - zeta
    return [
        ((u[0] + v[0] - c[0]) % p, (u[1] + v[1] - c[1]) % p),
        ((uz[0] - v[0] - vz[0] - c[0]) % p, (uz[1] - v[1] - vz[1] - c[1]) % p),
        ((vz[0] - u[0] - uz[0] - c[0]) % p, (vz[1] - u[1] - uz[1] - c[1]) % p),
    ]


def _low_degree_roots(f, p, s):
    """The roots of a monic f of degree at most 3, in closed form; None if f does not split."""
    d = len(f) - 1
    if d == 0:
        return []
    if d == 1:
        return [((p - f[0][0]) % p, (p - f[0][1]) % p)]
    if d == 2:
        return _quadratic_roots(f, p, s)
    return _cubic_roots(f, p, s)


def _split_roots(f, p, s, rng):
    """Roots of monic f with multiplicity, by Cantor-Zassenhaus; None if f does not split."""
    # the distinct roots of f in F_{p^2}: gcd(f, Y^(p^2) - Y), squarefree
    # because Y^(p^2) - Y is, with Y^(p^2) = conj(yp)(yp) by Horner
    yp = _p_powmod([(0, 0), (1, 0)], p, f, p, s)
    yp2 = []
    for a, b in reversed(yp):
        yp2 = _p_add_const(_p_mulmod(yp2, yp, f, p, s) if yp2 else [], (a, -b), p)
    lin = list(yp2) + [(0, 0)] * (2 - len(yp2))
    lin[1] = ((lin[1][0] - 1) % p, lin[1][1])
    split_part = _p_gcd(f, _p_strip(lin), p, s)

    roots = []
    rem = f
    for c in sorted(_cz_distinct_roots(split_part, yp, p, s, rng)):
        while len(rem) > 1:
            q = _deflate(rem, (c,), p, s)
            if q is None:
                break
            roots.append(c)
            rem = q
    return None if len(rem) > 1 else roots


def _deflate(f, known, p, s):
    """f divided by (Y - c) for each c in `known`, or None if one leaves a remainder.

    Synthetic division: the quotient's coefficients are q_(n-1) = f_n and
    q_(i-1) = f_i + c q_i, and the remainder f_0 + c q_0.
    """
    for ca, cb in known:
        qa, qb = f[-1]
        q = [None] * (len(f) - 1)
        for i in range(len(f) - 2, -1, -1):
            q[i] = (qa, qb)
            fa, fb = f[i]
            qa, qb = (fa + ca * qa + s * cb * qb) % p, (fb + ca * qb + cb * qa) % p
        if qa or qb:
            return None
        f = q
    return f


def _monic(coeffs, p, s):
    f = _p_strip([(a % p, b % p) for a, b in coeffs])
    if not f:
        raise ValueError("zero polynomial")
    if len(f) - 1 > MAX_POLY_DEGREE:
        raise ValueError("degree above kernel capacity")
    return _p_monic(f, p, s)


def _roots_given(f, known, p, s, seed_of):
    """The roots of monic f, sorted, given distinct roots `known`; None if f does not split.

    Only a quotient of degree 4 or more goes to Cantor-Zassenhaus, and only
    then is its seed drawn, as seed_of().
    """
    f = _deflate(f, known, p, s)
    if f is None:
        return None
    if len(f) <= 4:
        roots = _low_degree_roots(f, p, s)
    else:
        roots = _split_roots(f, p, s, _SplitMix(_mix64(seed_of() & _MASK64) ^ len(f)))
    return None if roots is None else sorted([*known, *roots])


def poly_roots(p, s, coeffs, seed, known=()):
    """All roots in F_{p^2} with multiplicity, sorted; None if f does not split.

    `known` holds distinct roots of f, already found elsewhere.  f is divided
    once by (Y - c) for each c in it, only the quotient is searched, and the
    result is `known` plus the quotient's roots.  A c that is not a root of f
    leaves a remainder, and the answer is None.
    """
    return _roots_given(_monic(coeffs, p, s), known, p, s, lambda: seed)


class PhiMod:
    """A modular polynomial reduced mod p, specialized at j-invariants."""

    def __init__(self, p, s, ell, rows):
        d = ell + 2
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("coefficient matrix must be (ell+2) x (ell+2)")
        if d - 1 > MAX_POLY_DEGREE:
            raise ValueError("degree above kernel capacity")
        self.p = p
        self.s = s
        self.ell = ell
        # column k holds the nonzero (i, c) of the coefficient of Y^k, sum c X^i
        self.columns = [[(i, rows[i][k] % p) for i in range(d) if rows[i][k] % p] for k in range(d)]

    def roots(self, ja, jb, seed, known=()):
        p, s = self.p, self.s
        pa, pb = [1], [0]  # the powers of j = ja + jb*w
        xa, xb = 1, 0
        for _ in range(self.ell + 1):
            xa, xb = (xa * ja + s * xb * jb) % p, (xa * jb + xb * ja) % p
            pa.append(xa)
            pb.append(xb)
        f = []
        for column in self.columns:
            ca = cb = 0
            for i, c in column:
                ca += c * pa[i]
                cb += c * pb[i]
            f.append((ca % p, cb % p))
        # a modular polynomial is monic in Y; a table read from a file may not be
        if f[-1] != (1, 0):
            f = _monic(f, p, s)
        return _roots_given(
            f, known, p, s, lambda: _mix64(seed & _MASK64) ^ _mix64((ja << 20) ^ jb ^ 1)
        )


def _curve_for_j(j, p):
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    m = j * pow((1728 - j) % p, p - 2, p) % p
    return 3 * m % p, 2 * m % p


def closed_walks(r, edge_to, edge_dual, vert_start):
    """The primitive non-backtracking closed walks of length r >= 3, each once.

    Edges are assumed grouped by source vertex: the out-edges of vertex v are
    the indices [vert_start[v], vert_start[v+1]).  A walk is rejected when an
    edge is followed by its dual, including across the wrap-around.  Each
    cyclic class appears once, as its Lyndon word: the rotation strictly less
    than all the others, which exists exactly when the walk is not a proper
    power and begins with the walk's least edge (Chen-Fox-Lyndon; Duval
    1983).  So a walk from start edge e0 uses only edges >= e0, which leave
    only vertices >= v, the source of e0.  Such a walk is strictly less than
    each rotation that starts at a larger edge, so rotations are compared
    only when e0 recurs in it.

    The search meets in the middle.  A walk from e0 is a head of ceil(r/2)
    edges, e0 first, and a tail of r // 2 edges ending at v.  Start vertices
    are taken in decreasing order, so that the in-edge lists, grown as they
    go, hold just the edges leaving vertices >= v.  For each v the tails are
    grown once, backwards from v through those lists, and grouped by their
    first vertex.  They are grown from in-edges, not taken as heads reversed
    through their duals: the dual pairing is not an involution at j = 0 and
    1728, where a copy of u -> w can be the dual of no copy of w -> u, and a
    walk through such a copy would be missed.  Then the heads of every
    out-edge e0 of v are grown forwards over edges >= e0, all but their last
    edge; each last edge is tried against the tails at the vertex it enters.
    A join is kept when the junction is not a backtrack, nor the wrap-around
    from the tail's last edge to e0, and no tail edge is below e0, which
    only a tail that leaves v again can break.  Each half costs about
    ell^(r/2) walks per start vertex, where a depth-first search would walk
    every continuation of each head until it died.  The walks of each v are
    sorted, and the start vertices put back in increasing order, so the
    walks come out sorted.
    """
    if r < 3:
        raise ValueError("cycle length must be at least 3")
    n = len(vert_start) - 1
    into = [[] for _ in range(n)]  # in-edges from the vertices >= v
    per_vertex = []
    for v in range(n - 1, -1, -1):
        lo = vert_start[v]
        for e in range(lo, vert_start[v + 1]):
            into[edge_to[e]].append(e)
        tails = [(g,) for g in into[v]]
        for _ in range(r // 2 - 1):
            tails = [
                (g, *tail)
                for tail in tails
                for g in into[edge_to[edge_dual[tail[0]]]]
                if edge_dual[g] != tail[0]
            ]
        if not tails:
            continue
        tails_from = {}
        for tail in tails:
            tails_from.setdefault(edge_to[edge_dual[tail[0]]], []).append(tail)
        # heads without their last edge, which the join takes
        heads = [(e0,) for e0 in range(lo, vert_start[v + 1])]
        for _ in range(r - r // 2 - 2):
            heads = [
                (*head, e)
                for head in heads
                for e in range(max(vert_start[edge_to[head[-1]]], head[0]), vert_start[edge_to[head[-1]] + 1])
                if e != edge_dual[head[-1]]
            ]
        found = []
        for head in heads:
            e0 = head[0]
            back = edge_dual[head[-1]]
            w = edge_to[head[-1]]
            for e in range(max(vert_start[w], e0), vert_start[w + 1]):
                joins = tails_from.get(edge_to[e])
                if joins is None or e == back:
                    continue
                after = edge_dual[e]
                for tail in joins:
                    if tail[0] == after or edge_dual[tail[-1]] == e0 or min(tail) < e0:
                        continue
                    walk = (*head, e, *tail)
                    # only a rotation starting at another copy of e0 can tie or undercut
                    if walk.count(e0) > 1 and not all(
                        walk < walk[i:] + walk[:i] for i in range(1, r) if walk[i] == e0
                    ):
                        continue
                    found.append(walk)
        if found:
            found.sort()
            per_vertex.append(found)
    out = []
    for found in reversed(per_vertex):
        out += found
    return out
