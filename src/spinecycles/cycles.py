"""Directed cycle enumeration in a built isogeny graph.

A cycle of length r is a cyclically non-backtracking closed walk of r edges
that is not a proper power of a shorter walk, with the basepoint forgotten.
The kernel's search emits each cycle once, in canonical form: the
lexicographically least rotation of its edge-index sequence.
Direction is kept: a cycle and its opposite (reverse traversal through dual
edges) are distinct.

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
from .ssgraph import IsogenyGraph

MAX_CYCLE_LENGTH = 10


class DepthExceeded(Exception):
    """Requested walk length above the supported enumeration depth."""


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
                raise ValueError("adjacency is not symmetric: missing reverse edge")
            c = e.copy if e.copy < back else e.copy % back
            dual.append(index[(e.dst, e.src, c)])
        self.edges = edges
        self.index = index
        self.dual = dual
        self.edge_to = [e.dst for e in edges]
        self.vert_start = vert_start


def enumerate_cycles(graph: IsogenyGraph, r: int) -> list[DirectedCycle]:
    """All directed isogeny cycles of length r, canonically sorted."""
    if r > MAX_CYCLE_LENGTH:
        raise DepthExceeded(f"cycle length {r} above the supported bound {MAX_CYCLE_LENGTH}")
    if r < 3:
        raise ValueError("cycle length must be at least 3")
    table = _EdgeTable(graph)
    special = {i for i, v in enumerate(graph.vertices)
               if v in ((0, 0), (1728 % graph.p, 0))}
    out = []
    for walk in _kernel.closed_walks(r, table.edge_to, table.dual, table.vert_start):
        edges = tuple(table.edges[i] for i in walk)
        verts = [e.src for e in edges]
        out.append(
            DirectedCycle(
                edges=edges,
                spine_count=sum(1 for v in verts if graph.spine[v]),
                tainted=any(v in special for v in verts),
            )
        )
    return out


def census(graph: IsogenyGraph, r: int) -> CycleCensus:
    """Counts and the per-cycle spine-vertex histogram for length-r cycles."""
    return census_of(graph, r, enumerate_cycles(graph, r))


def census_of(graph: IsogenyGraph, r: int, found: list[DirectedCycle]) -> CycleCensus:
    """The census of `found`, the already enumerated length-r cycles of graph."""
    histogram: dict[int, int] = {}
    for c in found:
        histogram[c.spine_count] = histogram.get(c.spine_count, 0) + 1
    return CycleCensus(
        p=graph.p,
        ell=graph.ell,
        r=r,
        n_t_graph=len(found),
        n_s_graph=sum(1 for c in found if c.spine_count >= 1),
        spine_count_histogram=histogram,
        tainted_present=any(c.tainted for c in found),
    )
