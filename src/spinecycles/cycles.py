"""Directed cycles of a built isogeny graph: `census` counts, `enumerate_cycles` lists.

A cycle of length r is a cyclically non-backtracking closed walk of r edges
that is not a proper power of a shorter walk, with the basepoint forgotten.
The kernel's search emits each cycle once, in canonical form: the
lexicographically least rotation of its edge-index sequence.
Direction is kept: a cycle and its opposite (reverse traversal through dual
edges) are distinct.  Any r >= 3 is accepted.  The search from each vertex
stays in the ball of radius r // 2 around it, since a walk cannot get back
in the steps left from any farther out, so its cost grows like
ell^ceil(r/2) per vertex rather than ell^r.  `census` aggregates spine
counts and taint from per-edge flags without building cycle objects;
`enumerate_cycles` builds them for callers that need the cycles.

Backtracking is decided by a fixed pairing of parallel edge copies: the dual
of (u, v, copy) is (v, u, copy), falling back to copy mod multiplicity where
the reverse multiset is smaller (possible only through the extra-automorphism
vertices j = 0, 1728).  Cycles touching those two vertices are flagged
tainted, and censuses report them separately, since the exact-count theorems
are silent there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import _kernel
from .quadforms import InvariantViolation
from .ssgraph import IsogenyGraph


@dataclass(frozen=True, order=True)
class EdgeRef:
    """One directed edge copy: `copy` indexes parallel edges from src to dst."""

    src: int
    dst: int
    copy: int


@dataclass(frozen=True)
class DirectedCycle:
    """An isogeny cycle in minimal-rotation form."""

    edges: tuple[EdgeRef, ...]
    spine_count: int  # positions whose vertex lies on the spine
    tainted: bool     # passes through j = 0 or j = 1728

    def __len__(self):
        return len(self.edges)

    def vertex_indices(self) -> tuple[int, ...]:
        return tuple(e.src for e in self.edges)


@dataclass(frozen=True)
class CycleCensus:
    """Aggregated counts of the directed r-cycles of one graph."""

    p: int
    ell: int
    r: int
    n_t_graph: int
    n_s_graph: int
    spine_count_histogram: Mapping[int, int]
    tainted_present: bool
    untainted_support: frozenset[int]  # spine counts of the untainted cycles


class _EdgeTable:
    """Flat edge arrays: index order equals lexicographic (src, dst, copy)."""

    def __init__(self, graph: IsogenyGraph):
        edges: list[EdgeRef] = []
        vert_start = [0]
        for u, row in enumerate(graph.out_edges):
            for v, mult in row:
                for c in range(mult):
                    edges.append(EdgeRef(u, v, c))
            vert_start.append(len(edges))
        index = {(e.src, e.dst, e.copy): i for i, e in enumerate(edges)}
        dual = []
        for e in edges:
            back = graph.multiplicity(e.dst, e.src)
            if back == 0:
                raise InvariantViolation(
                    f"adjacency is not symmetric at p = {graph.p}: edge {e.src} -> {e.dst} has no reverse"
                )
            c = e.copy if e.copy < back else e.copy % back
            dual.append(index[(e.dst, e.src, c)])
        self.edges = edges
        self.index = index
        self.dual = dual
        self.edge_to = [e.dst for e in edges]
        self.vert_start = vert_start


def _scored_walks(graph: IsogenyGraph, r: int):
    """The table and the kernel's walks, each with its spine count and taint flag.

    Spine count and taint are read from per-edge flags on each edge's source,
    so no per-cycle objects are built.
    """
    if r < 3:
        raise ValueError("cycle length must be at least 3")
    table = _EdgeTable(graph)
    special = ((0, 0), (1728 % graph.p, 0))
    on_spine = [graph.spine[e.src] for e in table.edges]
    at_special = [graph.vertices[e.src] in special for e in table.edges]
    walks = _kernel.closed_walks(r, table.edge_to, table.dual, table.vert_start)
    return table, [
        (walk, sum(map(on_spine.__getitem__, walk)), any(map(at_special.__getitem__, walk)))
        for walk in walks
    ]


def enumerate_cycles(graph: IsogenyGraph, r: int) -> list[DirectedCycle]:
    """All directed isogeny cycles of length r, canonically sorted."""
    table, scored = _scored_walks(graph, r)
    return [
        DirectedCycle(edges=tuple(table.edges[i] for i in walk), spine_count=spine, tainted=tainted)
        for walk, spine, tainted in scored
    ]


def census(graph: IsogenyGraph, r: int) -> CycleCensus:
    """Counts, the per-cycle spine-vertex histogram and its untainted support."""
    _, scored = _scored_walks(graph, r)
    histogram: dict[int, int] = {}
    for _, spine, _ in scored:
        histogram[spine] = histogram.get(spine, 0) + 1
    return CycleCensus(
        p=graph.p,
        ell=graph.ell,
        r=r,
        n_t_graph=len(scored),
        n_s_graph=len(scored) - histogram.get(0, 0),
        spine_count_histogram=histogram,
        tainted_present=any(tainted for _, _, tainted in scored),
        untainted_support=frozenset(spine for _, spine, tainted in scored if not tainted),
    )
