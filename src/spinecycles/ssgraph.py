"""Supersingular ell-isogeny graphs over F_{p^2}.

Adjacency comes from the classical modular polynomial: the out-neighbors of a
vertex j are the roots of Phi_ell(j, Y) in F_{p^2}, with multiplicity.  The
graph is grown by breadth-first closure from one supersingular j-invariant in
F_p (the graph is connected): 1728 or 0 when p = 3 mod 4 or p = 2 mod 3,
else the CM j-invariant of a class-number-one discriminant inert at p, with
a scan by point orders only when all seven such discriminants split.  Vertices
are the pairs (a, b) standing for a + b*w, where w^2 is the least quadratic
nonresidue mod p (``arith.least_nonresidue``), sorted canonically, and the
spine is flagged as the b == 0 locus.  Off the spine the kernel finds roots
at one vertex of each Frobenius pair (a, b), (a, -b) and the other row is
its conjugate.  Phi_ell is symmetric, so every built vertex whose row lists
v is a root at v: the kernel is handed those and divides them out before it
searches.  So the closure is breadth-first with one exception: a vertex
that two built rows list is built next, ahead of the queue, since two known
roots leave the kernel a quadratic at ell = 3 where one leaves a cubic.
The vertex set and every row are the same in any order.  The vertex-count
identity floor((p-1)/12) + eps is enforced as a hard postcondition so that
any arithmetic defect fails loudly instead of corrupting a census.

Built-in coefficient tables cover ell in {2, 3, 5, 7}; the same text format
("i j coefficient" per line, '#' comments, symmetric completion implied) can
be loaded from a file for other levels; a coefficient given twice with
different values, directly or through its mirror, is rejected.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel
from .arith import factorize, is_prime, kronecker, least_nonresidue

BUILTIN_LEVELS = (2, 3, 5, 7)

_EPS_BY_RESIDUE = {1: 0, 5: 1, 7: 1, 11: 2}

# (D, j(D)) for the class-number-one discriminants other than -3 and -4,
# whose j-invariants 0 and 1728 are ordinary at p = 1 mod 12
_CM_J_INVARIANTS = (
    (-7, -3375),
    (-8, 8000),
    (-11, -32768),
    (-19, -884736),
    (-43, -884736000),
    (-67, -147197952000),
    (-163, -262537412640768000),
)


class VertexCountMismatch(Exception):
    """BFS closure disagrees with floor((p-1)/12) + eps: an arithmetic bug."""


class NonSplitInput(Exception):
    """Phi_ell(j, Y) at a vertex j has no ell + 1 roots in F_{p^2}.

    Either an irreducible nonlinear factor remains (j is not supersingular), or
    a neighbour handed to the kernel as known is not a root, or the kernel
    returned the wrong number of roots: an arithmetic bug.
    """


@dataclass(frozen=True)
class ModularPolynomialData:
    """Integer coefficient table of a symmetric modular polynomial."""

    ell: int
    table: dict[tuple[int, int], int]

    def __post_init__(self):
        deg = self.ell + 1
        for (i, k), c in self.table.items():
            if self.table.get((k, i)) != c:
                raise ValueError(f"coefficient table not symmetric at {(i, k)}")
            if not (0 <= i <= deg and 0 <= k <= deg):
                raise ValueError(f"exponent {(i, k)} outside degree {deg}")
        if self.table.get((deg, 0)) != 1 or self.table.get((self.ell, self.ell)) != -1:
            raise ValueError("leading structure is not X^(l+1) + ... - X^l Y^l")

    @classmethod
    def load(cls, ell: int) -> "ModularPolynomialData":
        if ell not in BUILTIN_LEVELS:
            raise ValueError(f"no built-in table for level {ell}; supply a file")
        return _builtin(ell)

    @classmethod
    def from_text(cls, text: str) -> "ModularPolynomialData":
        table: dict[tuple[int, int], int] = {}
        deg = 0
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i, k, c = line.split()
            i, k, c = int(i), int(k), int(c)
            for key in ((i, k), (k, i)):
                if table.setdefault(key, c) != c:
                    raise ValueError(
                        f"coefficient of X^{key[0]} Y^{key[1]} given twice with different values"
                    )
            deg = max(deg, i, k)
        return cls(deg - 1, table)

    @classmethod
    def from_file(cls, path) -> "ModularPolynomialData":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def reduced_rows(self, p: int) -> list[list[int]]:
        """(ell+2) x (ell+2) coefficient matrix with entries reduced mod p."""
        d = self.ell + 2
        return [[self.table.get((i, k), 0) % p for k in range(d)] for i in range(d)]


@lru_cache(maxsize=None)
def _builtin(ell: int) -> ModularPolynomialData:
    path = os.path.join(os.path.dirname(__file__), "data", f"phi{ell}.txt")
    data = ModularPolynomialData.from_file(path)
    if data.ell != ell:
        raise ValueError(f"table phi{ell}.txt describes level {data.ell}")
    return data


def expected_vertex_count(p: int) -> int:
    return (p - 1) // 12 + _EPS_BY_RESIDUE[p % 12]


def _killed(n: int, x: int, a: int, b: int, p: int) -> bool:
    """Whether [n]P = O for P = (x : 1) on y^2 = x^3 + a x + b or, as y is unread, its twist."""
    r = [(1, 0), (x, 1)]  # a Montgomery ladder over (X : Z): R0 = O, R1 = P, R1 - R0 = P
    for bit in map(int, bin(n)[2:]):
        # R_bit <- 2 R_bit and R_(1-bit) <- R0 + R1, x-only (Brier and Joye 2002)
        (x0, z0), (x1, z1) = r[bit], r[1 - bit]
        t, u, zz = x0 * z1 - x1 * z0, z0 * z1, z0 * z0
        r[1 - bit] = ((x0 * x1 - a * u) ** 2 - 4 * b * u * (x0 * z1 + x1 * z0)) % p, x * t * t % p
        dz = 4 * z0 * (x0 * x0 * x0 + a * x0 * zz + b * zz * z0) % p
        r[bit] = ((x0 * x0 - a * zz) ** 2 - 8 * b * x0 * zz * z0) % p, dz
    return r[0][1] == 0


def is_supersingular(j: int, p: int) -> bool:
    """Supersingularity of j in F_p (p > 13), by point orders (Sutherland 2012).

    For x = 1, 2, ..., skipping roots of the cubic of the kernel's model for j,
    P = (x : 1) is on the curve or on its twist, and both have p + 1 points iff
    j is supersingular.  [p+1]P != O proves j ordinary.  Else N^2 > 4p, for N
    the exact order of P, leaves p + 1 the only multiple of N in the Hasse
    interval: a_p = 0.  An ordinary curve kills only orders dividing a_p != 0;
    a supersingular one has points of order (p + 1)/2 > 2 sqrt(p) or more.
    """
    if p <= 13:
        raise ValueError("p must exceed 13")
    a, b = _kernel._curve_for_j(j % p, p)
    for x in range(1, p):
        if (x * x * x + a * x + b) % p == 0:
            continue
        if not _killed(p + 1, x, a, b, p):
            return False
        order = p + 1
        for q, _ in factorize(p + 1):
            while order % q == 0 and _killed(order // q, x, a, b, p):
                order //= q
        if order * order > 4 * p:
            return True
    return False


def find_supersingular_j(p: int) -> int:
    """A supersingular j-invariant in F_p (the spine is never empty).

    j = 1728 when p = 3 mod 4 and j = 0 when p = 2 mod 3.  For p = 1 mod 12
    both are ordinary, and the j-invariant of the first class-number-one
    discriminant D in ``_CM_J_INVARIANTS`` inert at p is returned: a curve
    with CM by the order of discriminant D is supersingular at every prime
    inert in Q(sqrt D) (Deuring).  Only when all of them split, e.g. at
    p = 15073, is it the least j >= 1 that ``is_supersingular`` accepts.
    """
    if p <= 13:
        raise ValueError("p must exceed 13")
    if p % 4 == 3:
        return 1728 % p
    if p % 3 == 2:
        return 0
    for d, j in _CM_J_INVARIANTS:
        if kronecker(d, p) == -1:
            return j % p
    return next(j for j in range(1, p) if is_supersingular(j, p))


@dataclass(frozen=True)
class IsogenyGraph:
    """The supersingular ell-isogeny graph at p, with spine flags."""

    p: int
    ell: int
    vertices: tuple[tuple[int, int], ...]  # (a, b) for a + b*w, sorted
    out_edges: tuple[tuple[tuple[int, int], ...], ...]  # per vertex: (target, mult)
    spine: tuple[bool, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def spine_size(self) -> int:
        return sum(self.spine)


def build_graph(p: int, ell: int, seed: int = 0, phi: ModularPolynomialData | None = None) -> IsogenyGraph:
    """Breadth-first closure of the ell-isogeny adjacency from a spine seed."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if p == ell:
        raise ValueError("p and ell must be distinct primes")
    if p <= 13:
        raise ValueError("p must exceed 13")
    if not is_prime(p):
        raise ValueError(f"{p} is not an admissible prime")
    data = phi if phi is not None else ModularPolynomialData.load(ell)
    if data.ell != ell:
        raise ValueError(f"modular polynomial table has level {data.ell}, expected {ell}")
    if ell + 1 > _kernel.MAX_POLY_DEGREE:
        raise ValueError(f"level {ell} exceeds kernel degree capacity")
    phimod = _kernel.PhiMod(p, least_nonresidue(p), ell, data.reduced_rows(p))

    j0 = (find_supersingular_j(p), 0)
    adjacency: dict[tuple[int, int], tuple[tuple[tuple[int, int], int], ...]] = {}
    # the built vertices whose rows list a queued vertex: by the symmetry of
    # Phi_ell they are roots at that vertex, so the kernel need not find them
    known: dict[tuple[int, int], list[tuple[int, int]]] = {}
    queue = deque([j0])
    ready: deque[tuple[int, int]] = deque()  # vertices with two known roots, built first
    pending = {j0}
    while ready or queue:
        v = ready.popleft() if ready else queue.popleft()
        if v in adjacency:
            continue
        conj = (v[0], -v[1] % p)
        neighbours = known.pop(v, ())
        if conj in adjacency:
            # Phi_ell has integer coefficients, so Frobenius maps the roots at
            # conj(v) onto the roots at v, multiplicities included
            grouped = tuple(sorted(((w[0], -w[1] % p), m) for w, m in adjacency[conj]))
        else:
            found = phimod.roots(v[0], v[1], seed, neighbours)
            if found is None or len(found) != ell + 1:
                raise NonSplitInput(
                    f"Phi_{ell}({_label(v)}, Y) does not split into {ell + 1} roots"
                    f" in F_{{p^2}} at p = {p}"
                )
            # the kernel returns the roots sorted
            if len(set(found)) == len(found):
                grouped = tuple((w, 1) for w in found)
            else:
                grouped = tuple(sorted(Counter(found).items()))
        adjacency[v] = grouped
        for w, _ in grouped:
            if w not in adjacency:
                listed = known.setdefault(w, [])
                listed.append(v)
                if len(listed) == 2:
                    ready.append(w)
            if w not in pending:
                pending.add(w)
                queue.append(w)

    expected = expected_vertex_count(p)
    if len(adjacency) != expected:
        raise VertexCountMismatch(
            f"closure has {len(adjacency)} vertices, expected {expected} at p = {p}"
        )

    ordering = sorted(adjacency)
    index = {v: i for i, v in enumerate(ordering)}
    # each row is sorted by w, and index is monotone in w
    out_edges = tuple(tuple((index[w], m) for w, m in adjacency[v]) for v in ordering)
    spine = tuple(b == 0 for _, b in ordering)
    return IsogenyGraph(p=p, ell=ell, vertices=tuple(ordering), out_edges=out_edges, spine=spine)


def _label(v: tuple[int, int]) -> str:
    a, b = v
    return f"{a}" if b == 0 else f"{a}+{b}w"


def to_dot(graph: IsogenyGraph) -> str:
    """Graph description text with spine vertices doubly circled."""
    lines = [f"digraph ssgraph_p{graph.p}_l{graph.ell} {{"]
    for i, v in enumerate(graph.vertices):
        shape = "doublecircle" if graph.spine[i] else "circle"
        lines.append(f'  v{i} [label="{_label(v)}", shape={shape}];')
    for u, row in enumerate(graph.out_edges):
        for w, mult in row:
            for _ in range(mult):
                lines.append(f"  v{u} -> v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
