"""Per-prime cost of `predictor.predict`, as in README's prediction table.

    python scripts/time_predict.py [SRC]

Times `predict(ell, r, p)` at every prime of four fixed sweeps: one warm-up
pass fills the caches (class numbers, discriminant families, per-family
tables), then the best of five passes is reported as milliseconds per prime.
The last line is a sha256 over every (ell, r, p, n_s, n_t), so runs on two
checkouts (SRC, default: this repository's src/) show the same answers.
"""

import hashlib
import sys
import time
from pathlib import Path

SWEEPS = [  # (ell, r, lowest prime, highest prime)
    (5, 7, 312500, 316000),
    (2, 10, 4097, 9000),
    (3, 3, 2783, 40000),
    (3, 8, 172154081, 172154400),
]
PASSES = 5


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from spinecycles import predictor
    from spinecycles.arith import primes_in

    digest = hashlib.sha256()
    print("| (ell, r) | primes | ms per prime |")
    print("|---|---|---|")
    for ell, r, lo, hi in SWEEPS:
        primes = primes_in(lo, hi)
        for p in primes:
            sp = predictor.predict(ell, r, p)
            digest.update(f"{ell},{r},{p},{sp.n_s},{sp.n_t}\n".encode())
        best = float("inf")
        for _ in range(PASSES):
            t = time.perf_counter()
            for p in primes:
                predictor.predict(ell, r, p)
            best = min(best, time.perf_counter() - t)
        print(f"| ({ell}, {r}) | {len(primes)} in ({lo - 1}, {hi}] | {1000 * best / len(primes):.3f} ms |")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
