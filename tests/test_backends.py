"""Pure-Python and compiled kernels must be observationally identical."""

import random

import pytest

from spinecycles import _kernel, _pure
from spinecycles import cycles, ssgraph

fast = pytest.importorskip("spinecycles._fastkernel", reason="compiled kernel not built")


def _random_split_poly(rng, p, s, deg):
    roots = [(rng.randrange(p), rng.randrange(p)) for _ in range(deg)]
    poly = [(1, 0)]
    for a, b in roots:
        poly = _pure._p_mul(poly, [((p - a) % p, (p - b) % p), (1, 0)], p, s)
    return poly, sorted(roots)


def test_poly_roots_agree_on_split_inputs():
    rng = random.Random(20240817)
    for p, s in ((101, 2), (4643, 2), (1019, 2)):
        for trial in range(120):
            deg = rng.randint(1, 8)
            poly, roots = _random_split_poly(rng, p, s, deg)
            got_pure = _pure.poly_roots(p, s, poly, trial)
            got_fast = fast.poly_roots(p, s, poly, trial)
            assert got_pure == got_fast == roots


def test_poly_roots_agree_on_nonsplit_inputs():
    # Y^2 - w is irreducible over F_{p^2} when w generates a nonsquare class
    p, s = 101, 2
    for a in range(1, 30):
        for b in range(1, 30):
            e = (p * p - 1) // 2
            poly = [((p - a) % p, (p - b) % p), (0, 0), (1, 0)]
            r_pure = _pure.poly_roots(p, s, poly, 0)
            r_fast = fast.poly_roots(p, s, poly, 0)
            assert r_pure == r_fast


def test_curve_ap_agree():
    rng = random.Random(7)
    for p in (17, 101, 1009, 4643):
        for _ in range(10):
            a4, a6 = rng.randrange(p), rng.randrange(p)
            if (4 * a4**3 + 27 * a6**2) % p == 0:
                continue
            assert _pure.curve_ap(p, a4, a6) == fast.curve_ap(p, a4, a6)


def test_curve_ap_hasse_bound():
    for p in (101, 1009):
        for a4, a6 in ((1, 0), (0, 1), (3, 5)):
            ap = fast.curve_ap(p, a4, a6)
            assert ap * ap <= 4 * p


def test_first_ss_j_agree():
    for p in (1009, 1093, 1201, 2017):  # all 1 mod 12
        assert _pure.first_ss_j(p, 1) == fast.first_ss_j(p, 1)


def test_closed_walks_agree(graph_101_2):
    table = cycles._EdgeTable(graph_101_2)
    for r in (3, 4, 5, 6):
        w_pure = _pure.closed_walks(r, table.edge_to, table.dual, table.vert_start)
        w_fast = fast.closed_walks(r, table.edge_to, table.dual, table.vert_start)
        assert sorted(w_pure) == sorted(w_fast)


def test_phimod_agree():
    p = 1019
    data = ssgraph.ModularPolynomialData.load(5)
    rows = data.reduced_rows(p)
    pm_pure = _pure.PhiMod(p, 2, 5, rows)
    pm_fast = fast.PhiMod(p, 2, 5, rows)
    g = ssgraph.build_graph(p, 5)
    for a, b in g.vertices[:40]:
        assert pm_pure.roots(a, b, 0) == pm_fast.roots(a, b, 0)


def test_full_graph_identical_across_backends(monkeypatch):
    # swap the kernel used by ssgraph and rebuild: the graphs must be equal
    reference = ssgraph.build_graph(1019, 5)
    monkeypatch.setattr(_kernel, "PhiMod", _pure.PhiMod)
    monkeypatch.setattr(_kernel, "curve_ap", _pure.curve_ap)
    monkeypatch.setattr(_kernel, "first_ss_j", _pure.first_ss_j)
    rebuilt = ssgraph.build_graph(1019, 5)
    assert reference == rebuilt


def test_backend_reports_name():
    assert _kernel.BACKEND in ("pure", "compiled")
    assert _pure.BACKEND == "pure"
    assert fast.BACKEND == "compiled"
