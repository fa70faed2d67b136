"""Graph construction time and answers, as in README's `build_graph` table.

    python scripts/time_build.py [SRC]

Builds `build_graph(p, ell)` for a fixed list of (p, ell) rows and prints,
per row, the vertex count, the best of three builds in milliseconds and a
sha256 prefix of repr((vertices, out_edges, spine)).  Each build starts from
nothing (`build_graph` keeps no graph between calls), so runs on two
checkouts (SRC, default: this repository's src/) compare both time and
answers.
"""

import hashlib
import sys
import time
from pathlib import Path

ROWS = [  # (p, ell)
    (4129, 2),
    (20011, 2),
    (259603, 2),
    (4643, 3),
    (20011, 3),
    (20011, 5),
    (100003, 5),
    (10007, 7),
    (50021, 7),
]
BUILDS = 3


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from spinecycles.ssgraph import build_graph

    print("| (p, ell) | vertices | best of 3 | sha256 |")
    print("|---|---|---|---|")
    for p, ell in ROWS:
        best = float("inf")
        for _ in range(BUILDS):
            t = time.perf_counter()
            g = build_graph(p, ell)
            best = min(best, time.perf_counter() - t)
        digest = hashlib.sha256(repr((g.vertices, g.out_edges, g.spine)).encode()).hexdigest()
        print(f"| ({p}, {ell}) | {g.vertex_count} | {1000 * best:.1f} ms | {digest[:16]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
