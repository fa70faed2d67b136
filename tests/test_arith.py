import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinecycles import _kernel
from spinecycles._kernel import _f2_mul, _p_add_const, _p_mul
from spinecycles.arith import factorize, is_prime, kronecker, least_nonresidue, primes_in
from spinecycles.ssgraph import build_graph


# ---------------------------------------------------------------- kronecker --


def test_kronecker_paper_values():
    # Table 1 symbol column at p = 4643
    assert kronecker(-23, 4643) == -1
    assert kronecker(-59, 4643) == 1
    assert kronecker(-44, 4643) == 1
    assert kronecker(-83, 4643) == 1
    assert kronecker(-92, 4643) == -1
    assert kronecker(-104, 4643) == -1
    assert kronecker(-107, 4643) == 1


def test_kronecker_unit():
    for n in (1, 2, 3, 10, 97, 4643):
        assert kronecker(1, n) == 1


def test_kronecker_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        kronecker(3, 0)
    with pytest.raises(ValueError):
        kronecker(3, -7)


def test_kronecker_matches_euler_criterion():
    for q in primes_in(3, 200):
        for a in range(1, q):
            euler = pow(a, (q - 1) // 2, q)
            expected = -1 if euler == q - 1 else euler
            assert kronecker(a, q) == expected, (a, q)


def test_kronecker_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 120):
        for a in range(-60, 60):
            assert kronecker(a, n) == sympy.kronecker_symbol(a, n), (a, n)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_kronecker_multiplicative(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_square_is_one_at_odd_primes():
    for q in primes_in(3, 500):
        for a in (2, 3, 5, q - 1, q + 2):
            if a % q:
                assert kronecker(a * a, q) == 1


# ----------------------------------------------------- factorize, is_prime --


def test_factorize_examples():
    assert factorize(92) == [(2, 2), (23, 1)]
    assert factorize(104) == [(2, 3), (13, 1)]
    assert factorize(1) == []


@given(st.integers(1, 10**9))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for q, e in fac:
        assert is_prime(q)
        prod *= q**e
    assert prod == n
    assert [q for q, _ in fac] == sorted(q for q, _ in fac)


def test_is_prime_against_sieve():
    marked = set(primes_in(2, 5000))
    for n in range(5000):
        assert is_prime(n) == (n in marked)
    for lo in range(-2, 40):  # windows that start inside the base primes' range
        for hi in range(-2, 40):
            assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)], (lo, hi)


def test_primes_in_windows_above_ten_to_the_eight():
    lo, hi = 172154081, 172154400  # the (3, 8) operative bound is 172154080
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]
    assert primes_in(10**12, 10**12 + 500) == [n for n in range(10**12, 10**12 + 501) if is_prime(n)]


def test_primes_in_refuses_oversized_sieves():
    with pytest.raises(ValueError, match="sieve range too large"):
        primes_in(5, 10**8 + 5)  # window wider than 10^8
    with pytest.raises(ValueError, match="sieve range too large"):
        primes_in(10**17, 10**17 + 10)  # base primes up to sqrt(hi) > 10^8
    with pytest.raises(ValueError, match="limit 2\\^64"):
        primes_in(2**64 - 10, 2**64)


# strong pseudoprime to all twelve Miller-Rabin witnesses: 399165290221 * 798330580441
PSEUDOPRIME_BEYOND_2_64 = 318665857834031151167461


def test_is_prime_large_words():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    with pytest.raises(ValueError):
        is_prime(2**64)
    assert PSEUDOPRIME_BEYOND_2_64 == 399165290221 * 798330580441
    with pytest.raises(ValueError):
        is_prime(PSEUDOPRIME_BEYOND_2_64)


# ---------------------------------------------------- the F_{p^2} basis --


def test_prime_context_nonresidue_minimal():
    for p in primes_in(5, 500):
        s = least_nonresidue(p)
        assert kronecker(s, p) == -1
        for n in range(1, s):
            assert kronecker(n, p) != -1


def test_prime_context_rejects_bad_input():
    # a graph is built only at a prime p > 13
    with pytest.raises(ValueError):
        build_graph(91, 2)  # 7 * 13
    with pytest.raises(ValueError):
        build_graph(2, 3)


# ------------------------------------------------------ roots in F_{p^2} --
# The kernel's root finder, on (a, b) pairs for a + b*w with w^2 = least_nonresidue(p).


def _roots(coeffs, p, seed=0):
    return _kernel.poly_roots(p, least_nonresidue(p), coeffs, seed)


def _from_roots(roots, p):
    """The monic polynomial with the given roots, as (a, b) coefficient pairs."""
    poly = [(1, 0)]
    for a, b in roots:
        poly = _p_mul(poly, [(-a % p, -b % p), (1, 0)], p, least_nonresidue(p))
    return poly


def test_f2_roots_quadratic_units():
    assert _roots([(-1, 0), (0, 0), (1, 0)], 4643) == [(1, 0), (4642, 0)]


def test_f2_roots_constructed_multiplicity():
    c, e = (12, 7), (90, 0)
    assert _roots(_from_roots([c, c, e], 4643), 4643) == sorted([c, c, e])


@pytest.mark.parametrize("p", [4643, 107, 109])
@pytest.mark.parametrize("roots", [
    [(90, 0), (90, 0), (12, 7)],  # a double root
    [(0, 0), (0, 0), (1, 0)],
    [(12, 7)] * 3,  # a triple root: P = Q = 0 after the shift
    [(0, 0)] * 3,
])
def test_f2_roots_cubic_multiplicity(roots, p):
    roots = [(a % p, b % p) for a, b in roots]
    assert _roots(_from_roots(roots, p), p) == sorted(roots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_f2_roots_recovers_random_multisets(data):
    deg = data.draw(st.integers(1, 8))
    roots = sorted(
        (data.draw(st.integers(0, 1018)), data.draw(st.integers(0, 1018)))
        for _ in range(deg)
    )
    seed = data.draw(st.integers(0, 2**32))
    assert _roots(_from_roots(roots, 1019), 1019, seed=seed) == roots


def test_f2_roots_nonsplit_returns_none():
    p = 101
    s = least_nonresidue(p)
    # Y^2 - z for z a nonsquare of F_{p^2}: its roots live in F_{p^4}
    z = _nonsquare_fp2(p)
    y2_minus_z = [(-z[0] % p, -z[1] % p), (0, 0), (1, 0)]
    assert _roots(y2_minus_z, p) is None
    # and buried inside a product with a linear factor
    assert _roots(_p_mul(y2_minus_z, [(p - 3, 0), (1, 0)], p, s), p) is None


def _nonsquare_fp2(p):
    # z^((p^2-1)/2) = N(z)^((p-1)/2): z is a square in F_{p^2} iff its norm is a square in F_p
    s = least_nonresidue(p)
    for a in range(1, p):
        for b in range(1, p):
            if kronecker(a * a - s * b * b, p) == -1:
                return (a, b)
    raise AssertionError("no nonsquare found")


def test_f2_roots_degree_cap():
    with pytest.raises(ValueError):
        _roots([(1, 0)] * (_kernel.MAX_POLY_DEGREE + 2), 101)


def test_f2_roots_seed_independence():
    # output is sorted, so every seed gives the same answer
    poly = _from_roots([(4, 1), (9, 0), (4, 1), (7, 3)], 4643)
    results = {tuple(_roots(poly, 4643, seed=s)) for s in range(8)}
    assert len(results) == 1


def test_f2_roots_of_phi3_at_1728_supersingular(graph_4643_3):
    # the four 3-isogeny neighbors of j = 1728 at p = 4643 are graph vertices
    from spinecycles import ssgraph

    p = 4643
    data = ssgraph.ModularPolynomialData.load(3)
    coeffs = [
        (sum(data.table.get((i, k), 0) * 1728**i for i in range(5)) % p, 0)
        for k in range(5)
    ]
    roots = _roots(coeffs, p)
    assert len(roots) == 4
    vertex_set = set(graph_4643_3.vertices)
    for a, b in roots:
        assert (a, b) in vertex_set
        if b == 0:
            assert ssgraph.is_supersingular(a, p)


def test_pure_root_finder_takes_one_pth_power(monkeypatch):
    # Y^p is the only p-th power; Y^(p^2) and every (Y+alpha)^(p+1) are
    # composed from it, so each splitting attempt is one (p-1)/2 powmod
    exponents = []
    real = _kernel._p_powmod

    def counted(base, e, *args):
        exponents.append(e)
        return real(base, e, *args)

    monkeypatch.setattr(_kernel, "_p_powmod", counted)
    p = 4643
    roots = sorted([(4, 1), (9, 0), (4, 1), (7, 3), (4642, 17), (0, 5)])
    assert _kernel.poly_roots(p, least_nonresidue(p), _from_roots(roots, p), 3) == roots
    assert exponents.count(p) == 1
    assert exponents.count((p - 1) // 2) == len(exponents) - 1
    # a cubic quotient is solved in closed form, with no powmod at all
    exponents.clear()
    known = [(0, 5), (4, 1), (7, 3)]
    assert _kernel.poly_roots(p, least_nonresidue(p), _from_roots(roots, p), 3, known) == roots
    assert exponents == []


def test_split_factor_without_closed_form_roots_raises(monkeypatch):
    # every factor Cantor-Zassenhaus hands to a closed form splits by
    # construction, so finding no roots there is an arithmetic fault
    monkeypatch.setattr(_kernel, "_low_degree_roots", lambda f, p, s: None)
    p = 4643
    quartic = _from_roots([(4, 1), (9, 0), (7, 3), (0, 5)], p)
    with pytest.raises(ArithmeticError):
        _kernel.poly_roots(p, least_nonresidue(p), quartic, 3)


def _value(poly, x, p, s):
    a, b = 0, 0
    for c, d in reversed(poly):
        a, b = (a * x[0] + s * b * x[1] + c) % p, (a * x[1] + b * x[0] + d) % p
    return a, b


def _roots_by_evaluation(poly, p, s):
    """Roots in F_{p^2} with multiplicity, by evaluating at all p^2 elements."""
    roots = []
    for x in ((a, b) for a in range(p) for b in range(p)):
        f = poly
        while len(f) > 1 and _value(f, x, p, s) == (0, 0):
            roots.append(x)
            # synthetic division by Y - x
            q, carry = [], (0, 0)
            for c in reversed(f[1:]):
                carry = ((c[0] + carry[0] * x[0] + s * carry[1] * x[1]) % p,
                         (c[1] + carry[0] * x[1] + carry[1] * x[0]) % p)
                q.append(carry)
            f = q[::-1]
    return roots


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_f2_roots_match_exhaustive_evaluation(data):
    # p^2 - 1 has 3-part 3 at 101 and 103, 27 at 107 and 109
    p = data.draw(st.sampled_from((101, 103, 107, 109)))
    s = least_nonresidue(p)
    element = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    roots = data.draw(st.lists(element, max_size=6))
    poly = _from_roots(roots, p)
    # roots already known are divided out, and only the quotient is searched
    known = data.draw(st.lists(st.sampled_from(roots), unique=True)) if roots else []
    with_quadratic = data.draw(st.booleans())
    if with_quadratic:
        # Y^2 + bY + (b^2 - z)/4 has discriminant z, a nonsquare of F_{p^2}
        b = data.draw(element)
        t = data.draw(element.filter(lambda t: t != (0, 0)))
        z = _f2_mul(_f2_mul(_nonsquare_fp2(p), t, p, s), t, p, s)
        bb = _f2_mul(b, b, p, s)
        c = ((bb[0] - z[0]) * pow(4, -1, p) % p, (bb[1] - z[1]) * pow(4, -1, p) % p)
        poly = _p_mul(poly, [c, b, (1, 0)], p, s)
    seed = data.draw(st.integers(0, 2**32))
    found = _kernel.poly_roots(p, s, poly, seed, known)
    if with_quadratic:
        assert found is None
    else:
        assert found == _roots_by_evaluation(poly, p, s)
    # a known value that is not a root leaves a remainder: no answer, split or not
    stranger = data.draw(element.filter(lambda x: x not in roots))
    assert _kernel.poly_roots(p, s, poly, seed, [*known, stranger]) is None


# ------------------------------------------------------ cubes in F_{p^2} --


def _cubes(p, s):
    """All elements of F_{p^2}, and the set of their cubes."""
    elements = [(a, b) for a in range(p) for b in range(p)]
    return elements, {_f2_mul(_f2_mul(x, x, p, s), x, p, s) for x in elements}


@pytest.mark.parametrize("p", [101, 107])
def test_f2_cube_roots_exhaustive(p):
    # the 3-Sylow subgroup of F_{p^2}^* has order 3 at p = 101 and 27 at 107
    s = least_nonresidue(p)
    elements, cubes = _cubes(p, s)
    for x in elements:
        y = _kernel._f2_cbrt(x, p, s)
        if x in cubes:
            assert y is not None and _f2_mul(_f2_mul(y, y, p, s), y, p, s) == x, x
        else:
            assert y is None, x


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_f2_roots_of_random_cubics(data):
    # coefficients drawn directly, so most of these cubics have one root or
    # none in F_{p^2}, and those give no answer
    p = data.draw(st.sampled_from((101, 107)))
    s = least_nonresidue(p)
    element = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    cubic = [data.draw(element) for _ in range(3)] + [(1, 0)]
    expected = _roots_by_evaluation(cubic, p, s)
    found = _kernel.poly_roots(p, s, cubic, data.draw(st.integers(0, 2**32)))
    assert found == (expected if len(expected) == 3 else None)


@pytest.mark.parametrize("p", [101, 107])
def test_f2_roots_of_shifted_pure_cubics(p):
    # (Y - a)^3 - z has P = 0 after the shift; it splits iff z is a cube, and
    # is irreducible otherwise
    s = least_nonresidue(p)
    elements, cubes = _cubes(p, s)
    non_cube = next(x for x in elements if x not in cubes)
    for a in [(0, 0), (5, 3)]:
        shifted = _from_roots([a] * 3, p)
        for z in [(1, 0), (2, 9), non_cube]:
            cubic = _p_add_const(shifted, (-z[0] % p, -z[1] % p), p)
            expected = _roots_by_evaluation(cubic, p, s)
            assert _roots(cubic, p) == (expected if len(expected) == 3 else None)
            assert (z in cubes) == (len(expected) == 3)
