"""Directed cycles of a built isogeny graph, counted by `census`.

A cycle of length r is a cyclically non-backtracking closed walk of r edges
that is not a proper power of a shorter walk, with the basepoint forgotten.
The kernel's search emits each cycle once, in canonical form: the
lexicographically least rotation of its edge-index sequence.
Direction is kept: a cycle and its opposite (reverse traversal through dual
edges) are distinct.  Any r >= 3 is accepted.  The search meets in the
middle: from each start vertex v it grows the heads of ceil(r/2) edges
forwards and the tails of r // 2 edges backwards into v, through in-edges
(the dual pairing is not an involution at j = 0 and 1728, so a tail is not
a head reversed), and joins each head to the tails at its end.  Both halves
keep to the vertices >= v and the edges >= the start edge, so each cycle is
still found once, as its least rotation, and the walks still come out
sorted.  `census` folds the walks into spine counts and taint through
per-edge flags, so no cycle is ever built as an object; a caller that needs
the cycles themselves lists them with `_kernel.closed_walks` over the
arrays of `_edges`.

Backtracking is decided by a fixed pairing of parallel edge copies: copy c
of u -> v is paired with copy c mod m of v -> u, where m is the multiplicity
of v -> u.  That is copy c itself except where the reverse multiset is
smaller (possible only through the extra-automorphism vertices j = 0, 1728).
Cycles touching those two vertices are flagged tainted, and censuses report
them separately, since the exact-count theorems are silent there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import _kernel
from .quadforms import InvariantViolation
from .ssgraph import IsogenyGraph


@dataclass(frozen=True)
class CycleCensus:
    """Aggregated counts of the directed r-cycles of one graph."""

    n_t_graph: int
    n_s_graph: int
    spine_count_histogram: Mapping[int, int]
    tainted_present: bool
    untainted_support: frozenset[int]  # spine counts of the untainted cycles


def _edges(graph: IsogenyGraph) -> tuple[list[int], list[int], list[int], list[int]]:
    """Flat edge arrays (src, edge_to, dual, vert_start).

    Edge indices follow the lexicographic (src, dst, copy) order, so the
    out-edges of vertex u are the indices [vert_start[u], vert_start[u+1]).
    """
    src: list[int] = []
    edge_to: list[int] = []
    vert_start = [0]
    first: dict[tuple[int, int], tuple[int, int]] = {}  # (u, v) -> (index of copy 0, multiplicity)
    for u, row in enumerate(graph.out_edges):
        for v, mult in row:
            first[u, v] = (len(src), mult)
            src += [u] * mult
            edge_to += [v] * mult
        vert_start.append(len(src))
    dual: list[int] = []
    for (u, v), (_, mult) in first.items():  # insertion order is edge order
        if (v, u) not in first:
            raise InvariantViolation(
                f"adjacency is not symmetric at p = {graph.p}: edge {u} -> {v} has no reverse"
            )
        start, back = first[v, u]
        dual += [start + c % back for c in range(mult)]
    return src, edge_to, dual, vert_start


def census(graph: IsogenyGraph, r: int) -> CycleCensus:
    """Counts, the per-cycle spine-vertex histogram and its untainted support."""
    if r < 3:
        raise ValueError("cycle length must be at least 3")
    src, edge_to, dual, vert_start = _edges(graph)
    special = ((0, 0), (1728 % graph.p, 0))
    on_spine = [graph.spine[u] for u in src]
    at_special = [graph.vertices[u] in special for u in src]
    walks = _kernel.closed_walks(r, edge_to, dual, vert_start)
    histogram: dict[int, int] = {}
    tainted_present = False
    untainted_support = set()
    for walk in walks:
        spine = sum(map(on_spine.__getitem__, walk))
        histogram[spine] = histogram.get(spine, 0) + 1
        if any(map(at_special.__getitem__, walk)):
            tainted_present = True
        else:
            untainted_support.add(spine)
    return CycleCensus(
        n_t_graph=len(walks),
        n_s_graph=len(walks) - histogram.get(0, 0),
        spine_count_histogram=histogram,
        tainted_present=tainted_present,
        untainted_support=frozenset(untainted_support),
    )
