from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinecycles import _kernel, cycles, predictor, ssgraph
from spinecycles.arith import primes_in
from spinecycles.cycles import census


def opposite(walk: tuple[int, ...], dual: list[int]) -> tuple[int, ...]:
    """The reverse traversal through dual edges, in minimal-rotation form."""
    seq = tuple(dual[e] for e in reversed(walk))
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def _table1_vertex_sets(p=4643):
    """Table 1 j-invariants converted from the z2 basis to our w basis.

    z2 is a root of x^2 - 9x - 4638 over F_4643, i.e. z2 = (9 + sqrt(61))/2,
    and sqrt(61) = u*w with w = sqrt(2) (our basis) and u = sqrt(61/2) in F_p.
    """
    inv2 = pow(2, -1, p)
    u = pow(61 * inv2 % p, (p + 1) // 4, p)
    assert u * u * 2 % p == 61 % p

    def conv(c, d):  # c + d*z2  ->  (a, b) with value a + b*w
        return ((c + 9 * d * inv2) % p, d * u * inv2 % p)

    rows = {
        -23: [(173, 0), conv(3319, 1283), conv(937, 3360)],
        -92: [(4537, 0), conv(4024, 732), conv(1326, 3911)],
        -104: [
            conv(3241, 2549),
            conv(3162, 3268),
            conv(3085, 3037),
            conv(2967, 2094),
            conv(2560, 1606),
            conv(73, 1375),
        ],
    }
    return {d: frozenset(vals) for d, vals in rows.items()}


# --------------------------------------------------------------------- dual --


def test_dual_simple_edge(graph_101_2):
    src, edge_to, dual, _ = cycles._edges(graph_101_2)
    for e, d in enumerate(dual):
        assert (src[d], edge_to[d]) == (edge_to[e], src[e])


def test_dual_involution_structure_4643(graph_4643_3):
    # involutive away from j = 0, 1728; at p = 4643 both special j-invariants
    # are supersingular and carry the only multiplicity asymmetries
    g = graph_4643_3
    special = {g.vertices.index((0, 0)), g.vertices.index((1728, 0))}
    src, edge_to, dual, _ = cycles._edges(g)
    broken = set()
    for e, d in enumerate(dual):
        if dual[d] != e:
            broken.add(e)
            assert src[e] in special or edge_to[e] in special
    # the asymmetry is real at this prime: j = 0 has a triple out-edge whose
    # reverse is simple, j = 1728 two double out-edges with simple reverses
    assert len(broken) == 4


def test_dual_pairs_parallel_copies(graph_4643_3):
    g = graph_4643_3
    _, edge_to, dual, vert_start = cycles._edges(g)

    def copies(u, w):  # indices of copy 0, 1, ... of u -> w
        return [e for e in range(vert_start[u], vert_start[u + 1]) if edge_to[e] == w]

    for u, row in enumerate(g.out_edges):
        for w, mult in row:
            if mult > 1 and dict(g.out_edges[w]).get(u, 0) == mult:
                assert [dual[e] for e in copies(u, w)] == copies(w, u)
                return


# -------------------------------------------------------------- enumeration --


def test_worked_prime_table1_vertex_sets(graph_4643_3):
    g = graph_4643_3
    src, edge_to, dual, vert_start = cycles._edges(g)
    found = _kernel.closed_walks(3, edge_to, dual, vert_start)
    expected = _table1_vertex_sets()
    seen = {}
    for walk in found:
        verts = frozenset(g.vertices[src[e]] for e in walk)
        seen[verts] = seen.get(verts, 0) + 1
    # -23 and -92 each give one undirected triangle, traversed both ways
    assert seen[expected[-23]] == 2
    assert seen[expected[-92]] == 2
    # -104 has class number 6: two opposite 3-cycles through 6 vertices off the spine
    off_spine = [vs for vs in seen if vs != expected[-23] and vs != expected[-92]]
    covered = frozenset().union(*off_spine)
    assert covered == expected[-104]
    assert all(b != 0 for _, b in covered)


def test_worked_prime_spine_vertices(graph_4643_3):
    g = graph_4643_3
    src, edge_to, dual, vert_start = cycles._edges(g)
    found = [{src[e] for e in walk} for walk in _kernel.closed_walks(3, edge_to, dual, vert_start)]
    spine_js = sorted({g.vertices[v][0] for verts in found for v in verts if g.spine[v]})
    assert spine_js == [173, 4537]
    # each of the two spine vertices lies on exactly two directed cycles
    i173 = g.vertices.index((173, 0))
    i4537 = g.vertices.index((4537, 0))
    assert sum(1 for verts in found if i173 in verts) == 2
    assert sum(1 for verts in found if i4537 in verts) == 2


def test_opposite_closure(graph_4643_3):
    _, edge_to, dual, vert_start = cycles._edges(graph_4643_3)
    found = _kernel.closed_walks(3, edge_to, dual, vert_start)
    canon = set(found)
    for walk in found:
        opp = opposite(walk, dual)
        assert opp in canon
        assert opp != walk  # directed counting: opposite is distinct
    assert len(found) % 2 == 0


def test_canonical_form_is_minimal_rotation(graph_4643_3):
    _, edge_to, dual, vert_start = cycles._edges(graph_4643_3)
    for seq in _kernel.closed_walks(3, edge_to, dual, vert_start):
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        assert seq == min(rotations)


def test_aperiodicity(graph_101_2):
    # length-6 walks that are squared triangles must have been dropped
    _, edge_to, dual, vert_start = cycles._edges(graph_101_2)
    for seq in _kernel.closed_walks(6, edge_to, dual, vert_start):
        for d in (1, 2, 3):
            assert any(seq[i] != seq[(i + d) % 6] for i in range(6))


def test_consecutive_edges_chain(graph_4643_3):
    src, edge_to, dual, vert_start = cycles._edges(graph_4643_3)
    for walk in _kernel.closed_walks(3, edge_to, dual, vert_start):
        for i, e in enumerate(walk):
            assert edge_to[e] == src[walk[(i + 1) % 3]]


def test_no_backtracking_including_wraparound(graph_4643_3):
    _, edge_to, dual, vert_start = cycles._edges(graph_4643_3)
    for walk in _kernel.closed_walks(3, edge_to, dual, vert_start):
        for i, e in enumerate(walk):
            assert walk[(i + 1) % 3] != dual[e]


def test_depth_limits(graph_101_2):
    with pytest.raises(ValueError):
        census(graph_101_2, 2)
    # no upper cap: lengths above 10 enumerate like any other
    _, edge_to, dual, vert_start = cycles._edges(graph_101_2)
    found = _kernel.closed_walks(11, edge_to, dual, vert_start)
    assert found and all(len(walk) == 11 for walk in found)
    assert census(graph_101_2, 11).n_t_graph == len(found)


def _closed_walks_by_dfs(edges, r: int) -> list[tuple[int, ...]]:
    """Reference cycles: every closed non-backtracking walk of r edges, by plain
    DFS from every start edge, with rotations merged and periodic walks dropped."""
    src, edge_to, dual, vert_start = edges
    out_edges = [range(vert_start[v], vert_start[v + 1]) for v in range(len(vert_start) - 1)]
    found = set()

    def extend(walk):
        last = walk[-1]
        if len(walk) == r:
            if edge_to[last] == src[walk[0]] and walk[0] != dual[last]:
                rotations = {walk[i:] + walk[:i] for i in range(r)}
                if len(rotations) == r:
                    found.add(min(rotations))
            return
        for f in out_edges[edge_to[last]]:
            if f != dual[last]:
                extend(walk + (f,))

    for e in range(len(src)):
        extend((e,))
    return sorted(found)


@pytest.mark.parametrize(
    "p, ell, lengths",
    [
        pytest.param(23, 2, range(2, 13), id="23"),
        pytest.param(47, 2, range(2, 13), id="47"),
        pytest.param(1019, 3, range(3, 7), id="1019-3"),
        pytest.param(4099, 2, range(3, 11), id="4099-2"),
        pytest.param(1009, 2, [10], id="1009-2-10"),
        pytest.param(101, 5, range(3, 7), id="101-5"),
    ],
)
def test_closed_walks_match_brute_force(p, ell, lengths):
    g = ssgraph.build_graph(p, ell)
    edges = cycles._edges(g)
    src, edge_to, dual, vert_start = edges
    want = {r: _closed_walks_by_dfs(edges, r) for r in lengths}
    revisits = any(src[w[0]] in {src[e] for e in w[1:]} for walks in want.values() for w in walks)
    if p < 50:
        # ell = 2 at p = 23, 47: loops, parallel edges, and both j = 0 and j = 1728
        assert {(0, 0), (1728 % p, 0)} <= set(g.vertices)
        assert any(u == v for u, row in enumerate(g.out_edges) for v, _ in row)
        assert any(m > 1 for row in g.out_edges for _, m in row)
        # and a dual that is not an involution, so tails cannot be reversed heads
        assert any(dual[dual[e]] != e for e in range(len(dual)))
    elif p == 4099:
        # locally a tree: no walk up to the benchmark's r = 10 passes its start
        # twice, and most heads meet their own reverse, which the junction refuses
        assert not revisits
    else:
        # a walk through its start vertex twice: a tail edge leaving v must be
        # >= e0, and a second copy of e0 needs the rotation test
        assert revisits
    for r in lengths:
        got = _kernel.closed_walks(r, edge_to, dual, vert_start)
        assert got == want[r], (p, r)


@st.composite
def _multigraphs(draw):
    """A stand-in graph: symmetric adjacency with loops, isolated vertices and
    parallel edges whose two directions may differ in multiplicity."""
    n = draw(st.integers(1, 5))
    mult = {}
    vertex, copies = st.integers(0, n - 1), st.integers(1, 3)
    for u, v, there, back in draw(st.lists(st.tuples(vertex, vertex, copies, copies), max_size=2 * n + 2)):
        mult[u, v] = there
        mult[v, u] = there if u == v else back
    rows = tuple(tuple((v, mult[u, v]) for v in range(n) if (u, v) in mult) for u in range(n))
    return SimpleNamespace(out_edges=rows, p=0)


@settings(max_examples=200, deadline=None)
@given(graph=_multigraphs(), r=st.integers(2, 8))
def test_closed_walks_match_brute_force_on_multigraphs(graph, r):
    edges = cycles._edges(graph)
    _, edge_to, dual, vert_start = edges
    degree = max((sum(m for _, m in row) for row in graph.out_edges), default=0)
    assume(len(edge_to) * max(degree - 1, 1) ** (r - 1) <= 200_000)  # keeps the DFS cheap
    assert _kernel.closed_walks(r, edge_to, dual, vert_start) == _closed_walks_by_dfs(edges, r)


@pytest.mark.parametrize(
    "p, ell, r, count",
    [(4099, 2, 12, 296), (4099, 2, 14, 1264), (1019, 5, 8, 48410), (1019, 7, 7, 118160)],
    ids=["4099-2-12", "4099-2-14", "1019-5-8", "1019-7-7"],
)
def test_closed_walks_readme_counts(p, ell, r, count):
    _, edge_to, dual, vert_start = cycles._edges(ssgraph.build_graph(p, ell))
    assert len(_kernel.closed_walks(r, edge_to, dual, vert_start)) == count


# ------------------------------------------------------------------- census --


def test_census_worked_prime(graph_4643_3):
    cen = census(graph_4643_3, 3)
    assert (cen.n_t_graph, cen.n_s_graph) == (8, 4)
    assert dict(cen.spine_count_histogram) == {0: 4, 1: 4}
    assert not cen.tainted_present


def test_census_counts_are_consistent(graph_101_2):
    for r in (3, 4, 5, 6):
        cen = census(graph_101_2, r)
        assert cen.n_t_graph == sum(cen.spine_count_histogram.values())
        assert cen.n_s_graph == sum(
            v for k, v in cen.spine_count_histogram.items() if k >= 1
        )


def test_even_case_histogram_support():
    # first primes above M_strong(2,6) = 3778.25: per-cycle spine counts in {0, 2}
    for p in (3779, 3793, 3797):
        g = ssgraph.build_graph(p, 2)
        cen = census(g, 6)
        assert cen.n_t_graph % 2 == 0
        assert cen.untainted_support <= {0, 2}, (p, cen.untainted_support)


@pytest.mark.parametrize(
    "p, ell, r",
    [(23, 2, 6), (43, 2, 6), (47, 2, 8), (3779, 2, 6), (4643, 3, 3)],
    ids=["23-2-6", "43-2-6", "47-2-8", "3779-2-6", "4643-3-3"],
)
def test_census_matches_brute_force_cycles(p, ell, r):
    # recount from the plain DFS reference, not from the kernel's walks
    g = ssgraph.build_graph(p, ell)
    edges = cycles._edges(g)
    src = edges[0]
    special = {(0, 0), (1728 % p, 0)}
    histogram, tainted_present, untainted_support = {}, False, set()
    for walk in _closed_walks_by_dfs(edges, r):
        spine = sum(g.spine[src[e]] for e in walk)
        histogram[spine] = histogram.get(spine, 0) + 1
        if any(g.vertices[src[e]] in special for e in walk):
            tainted_present = True
        else:
            untainted_support.add(spine)
    cen = census(g, r)
    assert dict(cen.spine_count_histogram) == histogram
    assert cen.n_t_graph == sum(histogram.values())
    assert cen.n_s_graph == cen.n_t_graph - histogram.get(0, 0)
    assert cen.tainted_present == tainted_present
    assert cen.untainted_support == untainted_support
    # taint occurs at the small primes, where j = 0 or 1728 lies on r-cycles;
    # at 43 only j = 1728 is supersingular, and the tainted cycles carry spine
    # counts that the untainted ones do not
    assert tainted_present == (p < 50)


def test_even_case_halved_formula_matches_graph():
    # the design-decision pointwise formula, checked against the graph oracle
    for p in (3779, 3793, 3797, 15749):
        g = ssgraph.build_graph(p, 2)
        cen = census(g, 6)
        sp = predictor.predict(2, 6, p)
        if not cen.tainted_present:
            assert (cen.n_s_graph, cen.n_t_graph) == (sp.n_s, sp.n_t), p


def test_formula_graph_equivalence_sample(sweep_3_3):
    # spot sample of the (3,3) theorem-backed equivalence (full range in acceptance)
    sample = [row for row in sweep_3_3 if row[0] <= 3200]
    assert [p for p, *_ in sample] == primes_in(2783, 3200)
    for p, cen, sp, _ in sample:
        if not cen.tainted_present:
            assert (cen.n_s_graph, cen.n_t_graph) == (sp.n_s, sp.n_t), p
        assert set(cen.spine_count_histogram) <= {0, 1}


def test_bijection_totals_match_class_numbers():
    # n_t at a clean prime equals sum of 2h/3 over inert exact-order discs
    from spinecycles.quadforms import class_number
    from spinecycles.arith import kronecker

    for p in (2789, 2791, 4643):
        total = sum(
            2 * class_number(d) // 3
            for d in predictor.disc_set_exact(3, 3)
            if kronecker(d, p) == -1
        )
        g = ssgraph.build_graph(p, 3)
        assert census(g, 3).n_t_graph == total
