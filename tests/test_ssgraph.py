import hashlib
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from spinecycles import ssgraph
from spinecycles.arith import kronecker, least_nonresidue, primes_in
from spinecycles.ssgraph import (
    ModularPolynomialData,
    VertexCountMismatch,
    build_graph,
    expected_vertex_count,
    find_supersingular_j,
    is_supersingular,
    to_dot,
)

# the classical level-2 modular polynomial, recorded independently
PHI2_CLASSICAL = {
    (3, 0): 1,
    (0, 3): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (1, 2): 1488,
    (2, 0): -162000,
    (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 1): 8748000000,
    (0, 0): -157464000000000,
}


# ------------------------------------------------------- coefficient tables --


def test_phi2_matches_classical_table():
    data = ModularPolynomialData.load(2)
    assert data.table == PHI2_CLASSICAL


@pytest.mark.parametrize("ell", (2, 3, 5, 7))
def test_phi_tables_structure(ell):
    data = ModularPolynomialData.load(ell)
    deg = ell + 1
    assert data.ell == ell
    assert data.table.get((deg, 0), 0) == 1
    assert data.table.get((0, deg), 0) == 1
    assert data.table.get((ell, ell), 0) == -1
    for (i, k), c in data.table.items():
        assert data.table.get((k, i), 0) == c
        assert i <= deg and k <= deg
        # X^(l+1) appears only with Y^0
        if i == deg:
            assert k == 0


@pytest.mark.parametrize("ell", (2, 3, 5, 7))
def test_phi_kronecker_congruence(ell):
    # Phi_ell(X, Y) = (X^ell - Y)(X - Y^ell) mod ell
    data = ModularPolynomialData.load(ell)
    kron = {(ell + 1, 0): 1, (ell, ell): -1, (1, 1): -1, (0, ell + 1): 1}
    for key in set(data.table) | set(kron):
        assert (data.table.get(key, 0) - kron.get(key, 0)) % ell == 0, key


def test_phi_file_loader_roundtrip(tmp_path):
    data = ModularPolynomialData.load(3)
    lines = ["# external table"]
    for (i, k), c in sorted(data.table.items(), reverse=True):
        if i >= k:
            lines.append(f"{i} {k} {c}")
    path = tmp_path / "phi3_external.txt"
    path.write_text("\n".join(lines) + "\n")
    loaded = ModularPolynomialData.from_file(path)
    assert loaded == data
    direct = build_graph(101, 3)
    via_file = build_graph(101, 3, phi=loaded)
    assert direct == via_file


def test_phi_data_rejects_asymmetric_table():
    with pytest.raises(ValueError):
        ModularPolynomialData(1, {(2, 0): 1, (0, 2): 2, (1, 1): -1})


def test_phi_loader_rejects_bad_leading_structure(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 0 2\n2 2 -1\n0 0 5\n")  # X^3 coefficient must be 1
    with pytest.raises(ValueError):
        ModularPolynomialData.from_file(path)


def test_phi_loader_rejects_conflicting_coefficients():
    base = "3 0 1\n2 2 -1\n2 1 1488\n"
    # a line repeated, or repeated through its mirror, with the same value is fine
    assert ModularPolynomialData.from_text(base + "1 2 1488\n2 1 1488\n") == ModularPolynomialData.from_text(base)
    for extra in ("2 1 1489\n", "1 2 1489\n"):
        with pytest.raises(ValueError, match="X\\^[12] Y\\^[12] given twice"):
            ModularPolynomialData.from_text(base + extra)


def test_phi_load_unknown_level():
    with pytest.raises(ValueError):
        ModularPolynomialData.load(11)


# ---------------------------------------------------------- supersingularity --


@lru_cache(maxsize=None)
def _nonzero_squares(p):
    return frozenset(x * x % p for x in range(1, p))


def _curve_ap(p, a4, a6):
    """Reference trace of Frobenius of y^2 = x^3 + a4 x + a6 over F_p, by a character sum.

    a_p = -sum_x (x^3 + a4 x + a6 | p), in O(p) per curve; the oracle that the
    point-order test in ``ssgraph.is_supersingular`` is checked against.
    """
    squares = _nonzero_squares(p)
    total = 0
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        if v:
            total += 1 if v in squares else -1
    return -total


def _supersingular_by_trace(j, p):
    return _curve_ap(p, *ssgraph._kernel._curve_for_j(j, p)) == 0


def test_j1728_supersingular_iff_3_mod_4():
    for p in primes_in(17, 400):
        assert is_supersingular(1728 % p, p) == (p % 4 == 3)


def test_j0_supersingular_iff_2_mod_3():
    for p in primes_in(17, 400):
        assert is_supersingular(0, p) == (p % 3 == 2)


def test_supersingular_count_matches_spine(graph_101_2):
    count = sum(1 for j in range(101) if is_supersingular(j, 101))
    assert count == graph_101_2.spine_size
    spine_js = {a for i, (a, _) in enumerate(graph_101_2.vertices) if graph_101_2.spine[i]}
    assert spine_js == {j for j in range(101) if is_supersingular(j, 101)}


def test_spine_is_ell_independent():
    g2, g3 = build_graph(101, 2), build_graph(101, 3)
    spine2 = {a for (a, _), on in zip(g2.vertices, g2.spine) if on}
    spine3 = {a for (a, _), on in zip(g3.vertices, g3.spine) if on}
    assert spine2 == spine3


def test_find_supersingular_j_cases():
    assert find_supersingular_j(4643) == 1728  # 4643 = 3 mod 4
    assert find_supersingular_j(101) == 0  # 101 = 2 mod 3
    # 1009 = 1 mod 12: -7 and -8 split at 1009, -11 is the first inert
    # discriminant, and j(-11) = -32^3
    j = find_supersingular_j(1009)
    assert j == -32768 % 1009
    m = j * pow(1728 - j, -1, 1009) % 1009  # y^2 = x^3 + 3m x + 2m has j-invariant j
    assert _curve_ap(1009, 3 * m, 2 * m) == 0
    # 15073 = 1 mod 12 is the least prime where all seven class-number-one
    # discriminants split: the scan returns the least supersingular j
    j = find_supersingular_j(15073)
    assert is_supersingular(j, 15073)
    for smaller in range(1, j):
        assert not is_supersingular(smaller, 15073)
    with pytest.raises(ValueError):
        find_supersingular_j(13)


def test_find_supersingular_j_at_every_prime_1_mod_12():
    for p in primes_in(14, 6000):
        if p % 12 == 1:
            assert is_supersingular(find_supersingular_j(p), p), p


def test_find_supersingular_j_needs_no_scan(monkeypatch):
    # (-7 | 1000033) = -1, so the CM seed answers and no point is tested
    def refuse(*_args):
        raise AssertionError("scanned")

    monkeypatch.setattr(ssgraph, "is_supersingular", refuse)
    assert find_supersingular_j(1000033) == -3375 % 1000033


def test_curve_for_j_has_j_invariant_j():
    # j(y^2 = x^3 + a4 x + a6) = 1728 * 4 a4^3 / (4 a4^3 + 27 a6^2)
    for p in (17, 101, 1009):
        for j in range(p):
            a4, a6 = ssgraph._kernel._curve_for_j(j, p)
            disc = (4 * a4**3 + 27 * a6**2) % p
            assert disc and 1728 * 4 * a4**3 * pow(disc, -1, p) % p == j, (p, j)


def test_curve_ap_hasse_bound():
    for p in (101, 1009):
        for a4, a6 in ((1, 0), (0, 1), (3, 5)):
            ap = _curve_ap(p, a4, a6)
            assert ap * ap <= 4 * p
    # exhaustive oracle: a_p = p + 1 - #E(F_p), the affine points plus infinity
    for p in (17, 101):
        for a4, a6 in ((1, 0), (0, 1), (3, 5), (2, 7), (p - 1, 3)):
            assert (4 * a4**3 + 27 * a6**2) % p
            affine = sum(
                1 for x in range(p) for y in range(p) if (y * y - x**3 - a4 * x - a6) % p == 0
            )
            assert _curve_ap(p, a4, a6) == p + 1 - (affine + 1), (p, a4, a6)


def test_is_supersingular_matches_trace_oracle():
    # small primes are where a largest point order of (p+1)/2 sits closest to
    # the 2 sqrt(p) bound; 17 is the first prime the test accepts
    for p in [*primes_in(14, 400), 1009, 1021]:
        for j in range(p):
            assert is_supersingular(j, p) == _supersingular_by_trace(j, p), (p, j)


def test_is_supersingular_rejects_small_primes():
    with pytest.raises(ValueError):
        is_supersingular(0, 13)


# the primes below 10^5 at which all seven class-number-one discriminants
# split, and 260089, with the least supersingular j >= 1 at each
FALLBACK_SEEDS = {15073: 137, 18313: 1978, 38833: 3235, 69337: 2840, 71593: 44, 260089: 655}


def test_find_supersingular_j_fallback_seeds():
    splits = [
        p for p in primes_in(14, 10**5)
        if p % 12 == 1 and all(kronecker(d, p) == 1 for d, _ in ssgraph._CM_J_INVARIANTS)
    ]
    assert splits == sorted(FALLBACK_SEEDS)[:-1]
    for p, j in FALLBACK_SEEDS.items():
        assert all(kronecker(d, p) == 1 for d, _ in ssgraph._CM_J_INVARIANTS), p
        assert find_supersingular_j(p) == j, p


@pytest.mark.parametrize("p", [15073, 71593])
def test_fallback_seed_is_least_by_trace(p):
    j = FALLBACK_SEEDS[p]
    assert _supersingular_by_trace(j, p)
    for smaller in range(1, j):
        assert not _supersingular_by_trace(smaller, p), smaller


# -------------------------------------------------------------- graph build --


def test_vertex_counts_worked_examples():
    assert build_graph(101, 2).vertex_count == 9
    assert build_graph(4643, 3).vertex_count == 388


def test_epsilon_table():
    assert expected_vertex_count(101) == 9  # 101 = 5 (12)
    assert expected_vertex_count(4643) == 388  # 4643 = 11 (12)
    assert expected_vertex_count(1009) == 84  # 1009 = 1 (12)
    assert expected_vertex_count(1019) == 86  # 1019 = 11 (12)


@pytest.mark.parametrize("ell", (2, 3, 5))
def test_vertex_count_and_regularity_sweep(ell):
    for p in primes_in(17, 300):
        if p == ell:
            continue
        g = build_graph(p, ell)
        assert g.vertex_count == expected_vertex_count(p)
        for row in g.out_edges:
            assert sum(m for _, m in row) == ell + 1


def test_out_degree_regularity_examples(graph_4643_3, graph_101_2):
    for g, ell in [(graph_101_2, 2), (graph_4643_3, 3), (build_graph(1019, 5), 5)]:
        for row in g.out_edges:
            assert sum(m for _, m in row) == ell + 1


def test_build_deterministic():
    a = build_graph(1019, 5, seed=0)
    b = build_graph(1019, 5, seed=0)
    assert a == b
    c = build_graph(1019, 5, seed=99)  # seed affects splitting paths, not output
    assert a == c


@pytest.mark.parametrize(
    "p, ell, digest",
    [
        (2797, 3, "b22f81251f76b05d877caf6f2d964fcee194142472d157c3601f723ad4cadad2"),
        (4643, 3, "5cbfdf7614de7b8bd56ea5b7161dc1e40677de393800b5e853554f4cc6414eaf"),
        (20011, 3, "479f19e88f65e7f2e34c2ae9b2757602a66a4d5f5f8077c32a67d6666c9dbafa"),
        (4129, 2, "fa1eafc0b17ff6acbef556d5fe4ea43786f8a19ae8df5ee0a225ed500ff3dfdd"),
        (20011, 2, "37a4f0d54824f4468dfbd9d0a505d1ff295bd2bd208caccfd5465338a0b27a1c"),
        (1009, 5, "2678a49818ccc838736245fa60759089b12eb049c97b3856c66c5669979584ec"),
        (1013, 7, "748457d7544a3b8210932eb3b6a8ae70efe6e028568614c5dd308bfee82d84a3"),
    ],
)
def test_build_matches_recorded_graphs(p, ell, digest):
    # the graph does not depend on the order in which vertices are built nor on
    # which known roots the kernel divides out; digests recorded with a plain
    # breadth-first build, from the CM seed (2797, 4129, 1009), j = 1728 (4643,
    # 20011) and j = 0 (1013)
    g = build_graph(p, ell)
    assert hashlib.sha256(repr((g.vertices, g.out_edges, g.spine)).encode()).hexdigest() == digest


def test_spine_flags_are_frobenius_fixed_points(graph_4643_3):
    g = graph_4643_3
    for i, (a, b) in enumerate(g.vertices):
        frobenius = (a, -b % g.p)  # (a + b*w)^p = a - b*w
        assert g.spine[i] == (frobenius == (a, b)) == (b == 0)


def test_frobenius_is_graph_automorphism(graph_4643_3):
    g = graph_4643_3
    index = {v: i for i, v in enumerate(g.vertices)}
    perm = [index[(a, -b % g.p)] for a, b in g.vertices]
    for u in range(g.vertex_count):
        image = sorted((perm[w], m) for w, m in g.out_edges[u])
        assert image == list(g.out_edges[perm[u]])


def test_edge_symmetry_away_from_special(graph_4643_3):
    g = graph_4643_3
    special = {(0, 0), (1728 % g.p, 0)}
    for u, row in enumerate(g.out_edges):
        if g.vertices[u] in special:
            continue
        for w, m in row:
            if g.vertices[w] in special:
                continue
            assert dict(g.out_edges[w]).get(u, 0) == m


def test_special_vertices_present_when_supersingular(graph_4643_3):
    # 4643 = 3 mod 4: j = 1728 is a vertex; 101 = 2 mod 3: j = 0 is a vertex
    assert (1728, 0) in graph_4643_3.vertices
    assert (0, 0) in build_graph(101, 2).vertices


@pytest.mark.parametrize("p, ell", [(1009, 3), (1021, 2), (1031, 5), (1019, 7)])
def test_roots_found_once_per_frobenius_orbit(monkeypatch, p, ell):
    # build_graph asks the kernel at one vertex of each pair {v, conj(v)} and
    # conjugates the other, and passes the neighbours it already knows; every
    # row must still equal the kernel's full search, with nothing known
    calls, known_counts = [], []
    real = ssgraph._kernel.PhiMod

    class Counting:
        def __init__(self, *args):
            self.inner = real(*args)

        def roots(self, ja, jb, seed, known=()):
            calls.append((ja, jb))
            known_counts.append(len(known))
            return self.inner.roots(ja, jb, seed, known)

    monkeypatch.setattr(ssgraph._kernel, "PhiMod", Counting)
    g = build_graph(p, ell)
    assert len(calls) == len(set(calls)) == g.spine_size + (g.vertex_count - g.spine_size) // 2
    # only the seed is reached by no built row
    assert known_counts[0] == 0 and min(known_counts[1:]) >= 1
    phimod = real(p, least_nonresidue(p), ell, ModularPolynomialData.load(ell).reduced_rows(p))
    for v, row in zip(g.vertices, g.out_edges):
        found = phimod.roots(v[0], v[1], 7)
        assert sorted(found) == sorted(g.vertices[w] for w, m in row for _ in range(m))


def test_out_degree_check_fires_under_optimize():
    # the kernel loses one of the three roots at j = 0, the seed at p = 101; the
    # closure still reaches all 9 vertices, so only the out-degree check can fire
    script = (
        "from spinecycles import _kernel, ssgraph\n"
        "assert False, 'asserts are on'\n"
        "real = _kernel.PhiMod\n"
        "class DropOne:\n"
        "    def __init__(self, *args):\n"
        "        self.inner = real(*args)\n"
        "    def roots(self, ja, jb, seed, known=()):\n"
        "        found = self.inner.roots(ja, jb, seed, known)\n"
        "        return found[1:] if (ja, jb) == (0, 0) else found\n"
        "_kernel.PhiMod = DropOne\n"
        "ssgraph.build_graph(101, 2)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(Path(ssgraph.__file__).parents[1])},
    )
    assert done.returncode == 1
    assert "NonSplitInput: Phi_2(0, Y) does not split into 3 roots in F_{p^2} at p = 101" in done.stderr


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, 3)
    with pytest.raises(ValueError):
        build_graph(11, 2)


def test_vertices_sorted_canonically(graph_4643_3):
    assert list(graph_4643_3.vertices) == sorted(graph_4643_3.vertices)


def test_to_dot_marks_spine(graph_101_2):
    dot = to_dot(graph_101_2)
    assert dot.count("doublecircle") == graph_101_2.spine_size
    assert dot.startswith("digraph")
    # every edge copy appears
    total_edges = sum(m for row in graph_101_2.out_edges for _, m in row)
    assert dot.count("->") == total_edges


# vertex labels are a or a+bw in the basis {1, w}, w^2 = 2 at p = 101
DOT_101_2 = (
    "digraph ssgraph_p101_l2 {\n"
    '  v0 [label="0", shape=doublecircle];\n'
    '  v1 [label="3", shape=doublecircle];\n'
    '  v2 [label="21", shape=doublecircle];\n'
    '  v3 [label="37+1w", shape=circle];\n'
    '  v4 [label="37+100w", shape=circle];\n'
    '  v5 [label="57", shape=doublecircle];\n'
    '  v6 [label="59", shape=doublecircle];\n'
    '  v7 [label="64", shape=doublecircle];\n'
    '  v8 [label="66", shape=doublecircle];\n'
    "  v0 -> v8;\n"
    "  v0 -> v8;\n"
    "  v0 -> v8;\n"
    "  v1 -> v6;\n"
    "  v1 -> v7;\n"
    "  v1 -> v7;\n"
    "  v2 -> v2;\n"
    "  v2 -> v3;\n"
    "  v2 -> v4;\n"
    "  v3 -> v2;\n"
    "  v3 -> v5;\n"
    "  v3 -> v8;\n"
    "  v4 -> v2;\n"
    "  v4 -> v5;\n"
    "  v4 -> v8;\n"
    "  v5 -> v3;\n"
    "  v5 -> v4;\n"
    "  v5 -> v7;\n"
    "  v6 -> v1;\n"
    "  v6 -> v6;\n"
    "  v6 -> v6;\n"
    "  v7 -> v1;\n"
    "  v7 -> v1;\n"
    "  v7 -> v5;\n"
    "  v8 -> v0;\n"
    "  v8 -> v3;\n"
    "  v8 -> v4;\n"
    "}\n"
)


def test_to_dot_golden(graph_101_2):
    assert to_dot(graph_101_2) == DOT_101_2
