import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinecycles import quadforms as qf
from spinecycles.quadforms import (
    BinaryQuadraticForm,
    Discriminant,
    InvariantViolation,
    NotEllFundamental,
    NotSplit,
    class_number,
    compose,
    form_order,
    genus_mu,
    h2,
    prime_form,
    principal_form,
    reduced_forms,
    two_torsion_bruteforce,
)

TABLE1_CLASS_NUMBERS = {-23: 3, -44: 3, -59: 3, -83: 3, -92: 3, -104: 6, -107: 3}

# classical values (Cohen, tables of imaginary quadratic class numbers)
KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -24: 2,
    -31: 3, -35: 2, -39: 4, -40: 2, -43: 1, -47: 5, -55: 4, -56: 4, -63: 4,
    -67: 1, -71: 7, -79: 5, -84: 4, -95: 8, -120: 4, -163: 1, -231: 12,
    -255: 12, -479: 25, -499: 3,
}


def _valid_discs(lo, hi):
    for d in range(lo, hi + 1):
        if d < 0 and d % 4 in (0, 1):
            yield d


# ------------------------------------------------------------- Discriminant --


def test_discriminant_decomposition():
    assert Discriminant.of(-104) == Discriminant(-104, -104, 1)
    assert Discriminant.of(-92) == Discriminant(-92, -23, 2)
    assert Discriminant.of(-44) == Discriminant(-44, -11, 2)
    assert Discriminant.of(-99) == Discriminant(-99, -11, 3)
    assert Discriminant.of(-4) == Discriminant(-4, -4, 1)
    assert Discriminant.of(-32) == Discriminant(-32, -8, 2)


def test_discriminant_rejects_invalid():
    for bad in (5, 0, -5, -6, -1):
        with pytest.raises(ValueError):
            Discriminant.of(bad)


@given(st.integers(-5000, -3))
def test_discriminant_decomposition_consistent(d):
    if d % 4 not in (0, 1):
        with pytest.raises(ValueError):
            Discriminant.of(d)
        return
    disc = Discriminant.of(d)
    assert disc.conductor >= 1
    assert disc.conductor**2 * disc.d_k == d
    # the fundamental part is itself fundamental: conductor 1
    assert Discriminant.of(disc.d_k).conductor == 1


# ------------------------------------------------------------ reduced forms --


def test_reduced_forms_minus_4():
    assert reduced_forms(-4) == [BinaryQuadraticForm(1, 0, 1)]


@pytest.mark.parametrize("d,h", sorted(TABLE1_CLASS_NUMBERS.items()))
def test_class_numbers_table1(d, h):
    forms = reduced_forms(d)
    assert len(forms) == h
    for f in forms:
        assert f.is_reduced() and f.is_primitive() and f.discriminant() == d


def test_class_numbers_known():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        assert class_number(d) == h, d


def test_reduced_forms_unique():
    for d in _valid_discs(-800, -3):
        forms = reduced_forms(d)
        assert len(set(forms)) == len(forms)


# -------------------------------------------------------------- composition --


def test_compose_identity_law():
    for d in (-23, -104, -4, -96):
        ident = principal_form(d)
        for g in reduced_forms(d):
            assert compose(ident, g, d) == g
            assert compose(g, ident, d) == g


def test_compose_inverse_pair_disc_23():
    f = BinaryQuadraticForm(2, 1, 3)
    g = BinaryQuadraticForm(2, -1, 3)
    assert compose(f, g, -23) == principal_form(-23)


def test_ambiguous_forms_square_to_principal_disc_104():
    ident = principal_form(-104)
    ambiguous = [f for f in reduced_forms(-104) if compose(f, f, -104) == ident]
    assert len(ambiguous) == 2  # the two-torsion subgroup, h2(-104) = 2


def test_group_axioms_exhaustive_small():
    for d in _valid_discs(-500, -3):
        forms = reduced_forms(d)
        ident = principal_form(d)
        assert ident in forms
        table = {}
        for a, b in itertools.product(forms, repeat=2):
            ab = compose(a, b, d)
            assert ab in forms
            assert ab.discriminant() == d
            table[(a, b)] = ab
        for a, b in itertools.product(forms, repeat=2):
            assert table[(a, b)] == table[(b, a)]
        for a in forms:
            assert table[(a, ident)] == a
            assert table[(a, a.inverse())] == ident
        # rows of the composition table are permutations (group translation)
        for a in forms:
            assert len({table[(a, b)] for b in forms}) == len(forms)
        # associativity, exhaustively over all triples via the finished table
        for a, b, c in itertools.product(forms, repeat=3):
            assert table[(table[(a, b)], c)] == table[(a, table[(b, c)])]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_associative(data):
    d = data.draw(st.sampled_from([-23, -104, -479, -996, -231, -371]))
    forms = reduced_forms(d)
    a = data.draw(st.sampled_from(forms))
    b = data.draw(st.sampled_from(forms))
    c = data.draw(st.sampled_from(forms))
    assert compose(compose(a, b, d), c, d) == compose(a, compose(b, c, d), d)


# ------------------------------------------------------------- genus theory --


def test_genus_mu_examples():
    assert genus_mu(-23) == 1
    assert genus_mu(-92) == 1  # n = 23 = 3 mod 4
    assert genus_mu(-104) == 2  # n = 26 = 2 mod 4, one odd prime
    assert genus_mu(-4) == 1
    assert genus_mu(-32) == 2  # n = 8 = 0 mod 8, no odd primes


def test_h2_examples():
    assert h2(-23) == 1
    assert h2(-104) == 2
    assert h2(-4) == 1


def test_h2_equals_bruteforce_medium_range():
    for d in _valid_discs(-1200, -3):
        assert h2(d) == two_torsion_bruteforce(d), d


def test_h2_divides_class_number():
    for d in _valid_discs(-600, -3):
        assert class_number(d) % h2(d) == 0


# --------------------------------------------------------------- prime form --


def test_prime_form_values():
    assert prime_form(-23, 3) == BinaryQuadraticForm(3, 1, 2).reduced()
    assert prime_form(-11, 3) == BinaryQuadraticForm(3, 1, 1).reduced()
    assert prime_form(-11, 3) == principal_form(-11)  # h(-11) = 1


def test_prime_form_not_split():
    with pytest.raises(NotSplit):
        prime_form(-8, 5)
    with pytest.raises(NotSplit):
        prime_form(-4, 3)


def test_prime_form_not_ell_fundamental():
    with pytest.raises(NotEllFundamental):
        prime_form(-99, 3)  # conductor 3


def test_composition_failures_are_invariant_violations(monkeypatch):
    # each is unreachable with correct arithmetic, so each is a bug, not bad input
    with pytest.raises(InvariantViolation):
        qf._solve_linear(2, 1, 4)
    monkeypatch.setattr(qf, "kronecker", lambda d, n: 1)  # claim 5 splits in -8
    with pytest.raises(InvariantViolation):
        prime_form(-8, 5)
    monkeypatch.setattr(qf, "compose", lambda f, g, D: f)  # never reaches the identity
    with pytest.raises(InvariantViolation):
        form_order(BinaryQuadraticForm(3, 1, 9), -107)


def test_prime_form_norm_is_ell():
    for d, ell in [(-23, 3), (-104, 3), (-7, 2), (-31, 2), (-499, 5)]:
        f = prime_form(d, ell)
        # the class contains a form with leading coefficient ell
        raw = BinaryQuadraticForm(ell, *_find_b_c(d, ell))
        assert raw.reduced() == f


def _find_b_c(d, ell):
    for b in range(2 * ell):
        if (b - d) % 2 == 0 and (b * b - d) % (4 * ell) == 0:
            return b, (b * b - d) // (4 * ell)
    raise AssertionError


def test_prime_form_times_conjugate_is_principal():
    for d, ell in [(-23, 3), (-104, 3), (-31, 2), (-499, 5)]:
        f = prime_form(d, ell)
        assert compose(f, f.inverse(), d) == principal_form(d)


# ------------------------------------------------------------------- orders --


def test_form_order_examples():
    assert form_order(principal_form(-23), -23) == 1
    assert form_order(prime_form(-23, 3), -23) == 3
    assert form_order(prime_form(-104, 3), -104) == 3


def test_form_order_lagrange():
    for d in _valid_discs(-500, -3):
        h = class_number(d)
        for f in reduced_forms(d):
            assert h % form_order(f, d) == 0


def test_class_group_data_of_one_discriminant():
    assert (class_number(-104), genus_mu(-104), h2(-104)) == (6, 2, 2)
    assert form_order(prime_form(-104, 3), -104) == 3
    with pytest.raises(NotSplit):
        prime_form(-8, 5)  # 5 inert in Q(sqrt(-2)): no prime form, no order
