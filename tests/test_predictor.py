import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest

from form_oracle import prime_form

from spinecycles import cli, quadforms
from spinecycles import predictor as pr
from spinecycles.arith import factorize, kronecker, primes_in
from spinecycles.predictor import BoundViolation
from spinecycles.quadforms import InvariantViolation, class_number, conductor, form_order, h2

DIVIDING_3_3 = (-107, -104, -92, -83, -59, -44, -23, -11, -8)
EXACT_3_3 = (-107, -104, -92, -83, -59, -44, -23)


def _moebius(n):
    """The Moebius function: the reference for the paper's inversion formulas."""
    fac = factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


# -------------------------------------------------------- discriminant sets --


def test_dividing_sets_examples():
    assert pr.disc_set_dividing(3, 3).values() == DIVIDING_3_3
    assert pr.disc_set_dividing(3, 1).values() == (-11, -8)
    assert pr.disc_set_dividing(2, 1).values() == (-7,)


def test_exact_sets_examples():
    assert pr.disc_set_exact(3, 3).values() == EXACT_3_3
    assert pr.disc_set_exact(3, 1).values() == (-11, -8)


def test_exact_order_really_is_r():
    for d in pr.disc_set_exact(3, 3):
        assert form_order(prime_form(d, 3), d) == 3
    for d in pr.disc_set_exact(2, 6):
        assert form_order(prime_form(d, 2), d) == 6


@pytest.mark.parametrize(
    "r,ell",
    [(r, ell) for r in range(1, 9) for ell in (2, 3, 5)]
    + [(r, 7) for r in range(1, 7)]
    + [(10, 2)],  # with (3, 3) and (7, 5) above: every benchmark family
)
def test_exact_filter_agrees_with_set_difference(ell, r):
    # the reference filter composes forms; disc_set_exact takes a set difference
    by_order = tuple(
        d
        for d in pr.disc_set_dividing(ell, r).values()
        if form_order(prime_form(d, ell), d) == r
    )
    assert pr.disc_set_exact(ell, r).values() == by_order


@pytest.mark.parametrize("ell", (2, 3, 5))
@pytest.mark.parametrize("r", range(1, 9))
def test_moebius_consistency(ell, r):
    total = sum(len(pr.disc_set_exact(ell, d)) for d in pr._divisors(r))
    assert total == len(pr.disc_set_dividing(ell, r))


def test_dividing_set_members_are_split_and_fundamental():
    for ell, r in [(2, 6), (3, 3), (5, 2), (7, 2)]:
        for d in pr.disc_set_dividing(ell, r):
            assert kronecker(d, ell) == 1
            assert conductor(d) % ell != 0
            order = form_order(prime_form(d, ell), d)
            assert r % order == 0
            h = class_number(d)
            assert h % order == 0 and h % h2(d) == 0


def test_exact_sets_and_bounds_need_no_class_numbers(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("class group computation")

    for name in ("class_number", "reduced_forms", "form_order", "compose"):
        monkeypatch.setattr(quadforms, name, refuse)
    for cached in (pr.disc_set_dividing, pr.disc_set_exact, pr.kaneko_bound):
        cached.cache_clear()
    assert len(pr.disc_set_exact(5, 7)) > 0
    assert pr.kaneko_bound(5, 7).M >= 4
    assert pr.average_limit(5, 7) == len(pr.disc_set_exact(5, 7))
    pr.disc_set_exact.cache_clear()
    pr.kaneko_bound.cache_clear()
    assert cli.main(["discs", "5", "7", "--exact"]) == 0
    assert cli.main(["bound", "5", "7"]) == 0
    assert "operative=" in capsys.readouterr().out


# ------------------------------------------------------------ Kaneko bounds --


def test_kaneko_bounds_pinned():
    assert pr.kaneko_bound(3, 3).M == 2782
    assert pr.kaneko_bound(5, 3).M == 61876


@pytest.mark.parametrize("ell", (2, 3, 5))
@pytest.mark.parametrize("r", range(1, 9))
def test_kaneko_closed_form_matches_pairwise_maximum(ell, r):
    values = pr.disc_set_exact(ell, r).values()
    pairwise = max((d1 * d2 for i, d1 in enumerate(values) for d2 in values[:i]), default=0)
    assert pr.kaneko_bound(ell, r).M == max(Fraction(4), Fraction(pairwise, 4))


def test_kaneko_floor_case():
    kb = pr.kaneko_bound(2, 1)
    assert kb.M == 4  # single discriminant -7: no distinct pairs


def test_kaneko_strong_even():
    kb = pr.kaneko_bound(2, 6)
    assert kb.M_strong == max(pr.kaneko_bound(2, ri).M for ri in range(1, 6))
    assert kb.M_strong == Fraction(15113, 4)  # (-127)(-119)/4 from r = 5
    assert kb.operative == max(kb.M, kb.M_strong)
    assert pr.kaneko_bound(3, 3).M_strong is None


def test_kaneko_operative_dominates_discriminants():
    for ell, r in [(2, 4), (3, 3), (5, 2), (2, 6)]:
        kb = pr.kaneko_bound(ell, r)
        assert kb.M >= 4
        assert all(kb.operative >= -d for d in pr.disc_set_dividing(ell, r).values())


# ---------------------------------------------------------------- delta_p  --
#
# The per-discriminant criterion, one Kronecker symbol at a time: the oracle
# for `_counts_at_residue`, which reads every symbol off one Legendre symbol
# per prime of the family's factor base.


@lru_cache(maxsize=None)
def _odd_prime_factors(n):
    return tuple(q for q, _ in factorize(n) if q % 2)


def _inert_delta(d, m):
    """`_delta_unchecked` at a residue m already known to be inert in O_d."""
    for q in _odd_prime_factors(-d):
        if kronecker(-m, q) != 1:
            return 0
    if d % 4 == 0:
        if m % 8 != 7 and (-m + d // 4) % 8 not in (0, 1, 4) and (-m + d) % 8 != 1:
            return 0
    return 1


def _delta_unchecked(d, m):
    """1 iff p = m is inert in O_d and the class polynomial of O_d has an F_p root.

    Decided purely by Kronecker symbols and congruences, so it depends only on
    the residue m: p inert, (-p | q) = 1 at every odd prime q | d, and when
    4 | d one of the mod-8 conditions p = 7 (8), -p + d/4 in {0, 1, 4} (8),
    -p + d = 1 (8) must hold.  Meaningful only for p > |d|, which callers check.
    """
    return _inert_delta(d, m) if kronecker(d, m) == -1 else 0


def _oracle_counts(ell, r, m):
    """(n_s, n_t) at m as the sum over the exact family, D by D."""
    n_s = n_t = 0
    for d in pr.disc_set_exact(ell, r):
        if kronecker(d, m) == -1:
            n_s += _inert_delta(d, m) * quadforms.h2(d)
            n_t += pr._orbit_count(d, r)
    return (2 * n_s if r % 2 else n_s), n_t


@pytest.fixture
def weights_by_disc(monkeypatch):
    # Distinct weights per D in place of h2 and 2h/r: a sum then tells the
    # contributing sets apart, and no class number is computed.
    monkeypatch.setattr(quadforms, "h2", lambda d: d * d)
    monkeypatch.setattr(pr, "_orbit_count", lambda d, r: -d)


def test_delta_p_worked_prime():
    assert _delta_unchecked(-23, 4643) == 1
    assert _delta_unchecked(-104, 4643) == 0
    assert _delta_unchecked(-92, 4643) == 1


def test_delta_p_split_prime_is_zero():
    # kronecker(-59, 4643) = +1: p splits, no contribution
    assert _delta_unchecked(-59, 4643) == 0


def test_delta_p_mod8_branch():
    # -104: odd-prime condition is (-p | 13) = 1; then one mod-8 escape needed
    for p in primes_in(105, 4000):
        got = _delta_unchecked(-104, p)
        inert = kronecker(-104, p) == -1
        odd_ok = kronecker(-p, 13) == 1
        mod8 = p % 8 == 7 or (-p - 26) % 8 in (0, 1, 4) or (-p - 104) % 8 == 1
        assert got == int(inert and odd_ok and mod8)


def test_counts_match_oracle_at_every_benchmark_prime(weights_by_disc):
    # the formula_l5r7 benchmark range: 628 discriminants over 388 base primes
    primes = primes_in(312500, 316000)
    assert len(primes) == 281
    for p in primes:
        assert pr._counts_at_residue(5, 7, p) == _oracle_counts(5, 7, p), p


@pytest.mark.parametrize("ell,r", [(3, 3), (2, 6), (5, 7), (3, 5)])
def test_residue_entries_match_oracle(weights_by_disc, ell, r):
    # odd and even r, and 4 | D (the mod-8 branch, e.g. -104 at (3, 3))
    rc = pr.residue_census(ell, r)
    rng = random.Random(ell * 100 + r)
    checked = 0
    while checked < 100:
        m = rng.randrange(rc.modulus)
        if gcd(m, rc.modulus) == 1:
            assert rc.entry(m) == _oracle_counts(ell, r, m), m
            checked += 1


@pytest.mark.parametrize("m", [23 * 4649, 13 * 4649, 2 * 4649, 4 * 4649])
def test_counts_refuse_a_residue_sharing_a_prime_with_the_family(m):
    # -23 and -104 = -8 * 13 lie in the (3, 3) family: a symbol of 0 must not
    # be read as -1, nor an even m (not coprime to -104) be counted at all
    with pytest.raises(InvariantViolation, match=f"residue {m} "):
        pr._counts_at_residue(3, 3, m)


# ------------------------------------------------------------------ predict --


def test_predict_worked_prime():
    sp = pr.predict(3, 3, 4643)
    assert (sp.n_s, sp.n_t) == (4, 8)
    assert sp.valid and not sp.experimental
    assert sp.n_s * 2 == sp.n_t  # "1/2 of the 3-cycles lie along the spine"


def test_predict_spine_avoiding_prime_exists():
    hits = [
        p
        for p in primes_in(2789, 4500)
        if p != 3 and pr.predict(3, 3, p).n_s == 0 and pr.predict(3, 3, p).n_t > 0
    ]
    assert hits  # corollary's n_s = 0 branch is realized
    first = hits[0]
    sp = pr.predict(3, 3, first)
    assert sp.n_s == 0 and sp.n_t > 0


def test_predict_rejects_bad_primes():
    with pytest.raises(ValueError):
        pr.predict(3, 3, 4642)  # composite
    with pytest.raises(ValueError):
        pr.predict(3, 3, 3)  # p = ell
    with pytest.raises(BoundViolation):
        pr.predict(3, 3, 103)  # below max |D| = 107


def test_predict_invariants_over_sweep():
    for p in primes_in(2789, 3500):
        if p == 3:
            continue
        sp = pr.predict(3, 3, p)
        assert sp.valid
        assert 0 <= sp.n_s <= sp.n_t
        assert sp.n_s % 2 == 0
        assert (sp.n_t * 3) % 2 == 0


def test_predict_experimental_flag():
    assert pr.predict(3, 4, 2801).experimental
    assert not pr.predict(2, 6, 15749).experimental
    assert not pr.predict(3, 3, 2789).experimental


def test_ns_moebius_form_collapses_to_exact_sum():
    # the paper's n_s is a Moebius sum over the dividing sets; predict sums
    # over the exact-order set, where the lower-order coefficients cancel
    for ell, r in [(3, 3), (2, 6), (5, 2), (3, 4), (2, 10), (7, 2), (7, 3)]:
        lo = int(pr.kaneko_bound(ell, r).operative) + 1
        for p in primes_in(lo, lo + 20000)[:40]:
            raw = sum(
                _moebius(k) * sum(_delta_unchecked(d, p) * h2(d) for d in pr.disc_set_dividing(ell, r // k))
                for k in pr._divisors(r)
            )
            scale = 2 if r % 2 else 1
            assert pr.predict(ell, r, p).n_s == scale * raw, (ell, r, p)


def test_orbit_count_rejects_class_numbers_breaking_divisibility(monkeypatch):
    pr._orbit_count.cache_clear()
    monkeypatch.setattr(quadforms, "class_number", lambda d: 4)  # h(-104) = 6
    with pytest.raises(InvariantViolation, match="h\\(-104\\) = 4"):
        pr._orbit_count(-104, 3)
    monkeypatch.setattr(quadforms, "class_number", lambda d: 3)  # h2(-104) = 2
    with pytest.raises(InvariantViolation):
        pr._orbit_count(-104, 3)


# ----------------------------------------------------------- residue census --


def test_residue_census_modulus():
    rc = pr.residue_census(3, 3)
    assert rc.modulus == 13786935448


def test_residue_census_worked_entry():
    rc = pr.residue_census(3, 3)
    assert rc.entry(4643) == (4, 8)


def test_residue_census_rejects_noncoprime():
    rc = pr.residue_census(3, 3)
    with pytest.raises(ValueError):
        rc.entry(2 * 11 * 3)


def test_residue_census_rejects_power_of_two_r():
    with pytest.raises(ValueError):
        pr.residue_census(3, 4)


def test_residue_census_matches_predict_exhaustively():
    rc = pr.residue_census(3, 3)
    for p in primes_in(2783, 10000):
        if p == 3:
            continue
        sp = pr.predict(3, 3, p)
        assert rc.entry(p % rc.modulus) == (sp.n_s, sp.n_t), p


def test_residue_census_even_case_flag():
    rc = pr.residue_census(2, 6)
    assert rc.even_case
    assert rc.modulus % 8 == 0


# ------------------------------------------------------------ average limit --


def test_average_limit_paper_example():
    assert pr.average_limit(3, 3) == 7


def test_average_limit_prime_r_shortcut():
    # prime r: the limit equals the exact-order family size
    assert pr.average_limit(3, 3) == len(pr.disc_set_exact(3, 3))
    assert pr.average_limit(5, 3) == len(pr.disc_set_exact(5, 3)) == 22


@pytest.mark.parametrize("ell", (2, 3, 5))
@pytest.mark.parametrize("r", range(1, 9))
def test_average_limit_matches_moebius_form(ell, r):
    total = sum(_moebius(k) * len(pr.disc_set_dividing(ell, r // k)) for k in pr._divisors(r))
    assert pr.average_limit(ell, r) == Fraction(total, 2 if r % 2 == 0 else 1)


def test_family_nesting_invariant_fires_under_optimize():
    # the exact-family sums equal the Moebius forms only if the dividing
    # families nest: here the family of 1 gains a D outside the family of 3
    script = (
        "from spinecycles import predictor as pr\n"
        "assert False, 'asserts are on'\n"
        "real = pr.disc_set_dividing\n"
        "def patched(ell, r):\n"
        "    found = real(ell, r)\n"
        "    return pr.DiscriminantSet(ell, r, (-4, *found.discs)) if (ell, r) == (3, 1) else found\n"
        "pr.disc_set_dividing = patched\n"
        "pr.disc_set_exact(3, 3)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(Path(pr.__file__).parents[1])},
    )
    assert done.returncode == 1
    assert "InvariantViolation: dividing families do not nest at ell = 3, r = 3: [-4]" in done.stderr


def test_average_limit_even_halved():
    total = sum(
        _moebius(d) * len(pr.disc_set_dividing(2, 6 // d)) for d in (1, 2, 3, 6)
    )
    assert pr.average_limit(2, 6) == Fraction(total, 2) == Fraction(7, 2)


def test_average_limit_power_of_two_uses_halved_formula():
    total = sum(_moebius(d) * len(pr.disc_set_dividing(3, 4 // d)) for d in (1, 2, 4))
    assert pr.average_limit(3, 4) == Fraction(total, 2)


def test_running_average_tracks_limit():
    # short-horizon version of the convergence experiment
    total = 0
    count = 0
    for p in primes_in(2789, 20000):
        if p == 3:
            continue
        total += pr.predict(3, 3, p).n_s
        count += 1
    assert 6 <= total / count <= 8
