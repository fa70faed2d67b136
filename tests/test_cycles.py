import pytest

from spinecycles import _kernel, cycles, predictor, ssgraph
from spinecycles.arith import primes_in
from spinecycles.cycles import (
    DirectedCycle,
    EdgeRef,
    census,
    enumerate_cycles,
)


def dual(e: EdgeRef, table: cycles._EdgeTable) -> EdgeRef:
    """The paired reverse edge of e (involutive away from j = 0, 1728)."""
    return table.edges[table.dual[table.index[(e.src, e.dst, e.copy)]]]


def opposite(edges: tuple[EdgeRef, ...], table: cycles._EdgeTable) -> tuple[EdgeRef, ...]:
    """The reverse traversal through dual edges, in minimal-rotation form."""
    seq = tuple(dual(e, table) for e in reversed(edges))
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
    e = EdgeRef(0, 1, 0)
    if graph_101_2.multiplicity(0, 1):
        d = dual(e, cycles._EdgeTable(graph_101_2))
        assert (d.src, d.dst) == (1, 0)


def test_dual_involution_structure_4643(graph_4643_3):
    # involutive away from j = 0, 1728; at p = 4643 both special j-invariants
    # are supersingular and carry the only multiplicity asymmetries
    g = graph_4643_3
    special = {g.vertices.index((0, 0)), g.vertices.index((1728, 0))}
    table = cycles._EdgeTable(g)
    broken = set()
    for i, e in enumerate(table.edges):
        if dual(dual(e, table), table) != e:
            broken.add(i)
            assert e.src in special or e.dst in special
    # the asymmetry is real at this prime: j = 0 has a triple out-edge whose
    # reverse is simple, j = 1728 two double out-edges with simple reverses
    assert len(broken) == 4


def test_dual_pairs_parallel_copies(graph_4643_3):
    g = graph_4643_3
    table = cycles._EdgeTable(g)
    for u, row in enumerate(g.out_edges):
        for w, mult in row:
            if mult > 1 and g.multiplicity(w, u) == mult:
                for c in range(mult):
                    assert dual(EdgeRef(u, w, c), table) == EdgeRef(w, u, c)
                return


# -------------------------------------------------------------- enumeration --


def test_worked_prime_counts(graph_4643_3):
    found = enumerate_cycles(graph_4643_3, 3)
    assert len(found) == 8
    spine_cycles = [c for c in found if c.spine_count >= 1]
    assert len(spine_cycles) == 4
    assert all(c.spine_count == 1 for c in spine_cycles)
    assert not any(c.tainted for c in found)


def test_worked_prime_table1_vertex_sets(graph_4643_3):
    g = graph_4643_3
    found = enumerate_cycles(g, 3)
    expected = _table1_vertex_sets()
    seen = {}
    for c in found:
        verts = frozenset(g.vertices[v] for v in c.vertex_indices())
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
    found = enumerate_cycles(g, 3)
    spine_js = sorted(
        {
            g.vertices[v][0]
            for c in found
            for v in c.vertex_indices()
            if g.spine[v] and c.spine_count
        }
    )
    assert spine_js == [173, 4537]
    # each of the two spine vertices lies on exactly two directed cycles
    i173 = g.vertices.index((173, 0))
    i4537 = g.vertices.index((4537, 0))
    assert sum(1 for c in found if i173 in c.vertex_indices()) == 2
    assert sum(1 for c in found if i4537 in c.vertex_indices()) == 2


def test_opposite_closure(graph_4643_3):
    found = enumerate_cycles(graph_4643_3, 3)
    table = cycles._EdgeTable(graph_4643_3)
    canon = {c.edges for c in found}
    for c in found:
        opp = opposite(c.edges, table)
        assert opp in canon
        assert opp != c.edges  # directed counting: opposite is distinct
    assert len(found) % 2 == 0


def test_canonical_form_is_minimal_rotation(graph_4643_3):
    for c in enumerate_cycles(graph_4643_3, 3):
        seq = c.edges
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        assert seq == min(rotations)


def test_aperiodicity(graph_101_2):
    # length-6 walks that are squared triangles must have been dropped
    for c in enumerate_cycles(graph_101_2, 6):
        seq = c.edges
        for d in (1, 2, 3):
            assert any(seq[i] != seq[(i + d) % 6] for i in range(6))


def test_consecutive_edges_chain(graph_4643_3):
    for c in enumerate_cycles(graph_4643_3, 3):
        for i, e in enumerate(c.edges):
            assert e.dst == c.edges[(i + 1) % 3].src


def test_no_backtracking_including_wraparound(graph_4643_3):
    table = cycles._EdgeTable(graph_4643_3)
    for c in enumerate_cycles(graph_4643_3, 3):
        for i, e in enumerate(c.edges):
            assert c.edges[(i + 1) % 3] != dual(e, table)


def test_depth_limits(graph_101_2):
    with pytest.raises(ValueError):
        enumerate_cycles(graph_101_2, 2)
    # no upper cap: lengths above 10 enumerate like any other
    found = enumerate_cycles(graph_101_2, 11)
    assert found and all(len(c) == 11 for c in found)
    assert census(graph_101_2, 11).n_t_graph == len(found)


def _closed_walks_by_dfs(table: cycles._EdgeTable, r: int) -> list[tuple[int, ...]]:
    """Reference cycles: every closed non-backtracking walk of r edges, by plain
    DFS from every start edge, with rotations merged and periodic walks dropped."""
    out_edges = [range(table.vert_start[v], table.vert_start[v + 1])
                 for v in range(len(table.vert_start) - 1)]
    src = [e.src for e in table.edges]
    found = set()

    def extend(walk):
        last = walk[-1]
        if len(walk) == r:
            if table.edge_to[last] == src[walk[0]] and walk[0] != table.dual[last]:
                rotations = {walk[i:] + walk[:i] for i in range(r)}
                if len(rotations) == r:
                    found.add(min(rotations))
            return
        for f in out_edges[table.edge_to[last]]:
            if f != table.dual[last]:
                extend(walk + (f,))

    for e in range(len(table.edges)):
        extend((e,))
    return sorted(found)


@pytest.mark.parametrize(
    "p, ell, lengths",
    [
        pytest.param(23, 2, range(2, 13), id="23"),
        pytest.param(47, 2, range(2, 13), id="47"),
        pytest.param(1019, 3, range(3, 7), id="1019-3"),
        pytest.param(4099, 2, range(3, 9), id="4099-2"),
    ],
)
def test_closed_walks_match_brute_force(p, ell, lengths):
    g = ssgraph.build_graph(p, ell)
    table = cycles._EdgeTable(g)
    if p < 50:
        # ell = 2 at p = 23, 47: loops, parallel edges, and both j = 0 and j = 1728
        assert {(0, 0), (1728 % p, 0)} <= set(g.vertices)
        assert any(u == v for u, row in enumerate(g.out_edges) for v, _ in row)
        assert any(m > 1 for row in g.out_edges for _, m in row)
    else:
        # the radius-r//2 ball misses part of the graph, so the distance prune
        # cuts; vertex 0 is the start whose ball no vertex index is kept out of
        for r in lengths:
            ball = _kernel._ball(0, r // 2, table.edge_to, table.vert_start)
            assert len(ball) < g.vertex_count, (p, r)
    for r in lengths:
        want = _closed_walks_by_dfs(table, r)
        got = _kernel.closed_walks(r, table.edge_to, table.dual, table.vert_start)
        assert got == want, (p, r)


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
        untainted_support = {
            c.spine_count for c in enumerate_cycles(g, 6) if not c.tainted
        }
        assert cen.untainted_support == untainted_support, p
        assert untainted_support <= {0, 2}, (p, untainted_support)


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
            2 * class_number(d.d) // 3
            for d in predictor.disc_set_exact(3, 3)
            if kronecker(d.d, p) == -1
        )
        g = ssgraph.build_graph(p, 3)
        assert census(g, 3).n_t_graph == total
