"""Census benchmark: prime sweeps through the public census path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, `--jobs 1`: set-up
(import, modular-polynomial table, the (ell, r) discriminant families and
bounds), then repeated sweeps of cli.run_census + cli.write_census_csv over
the workload's fixed prime range until the next sweep would overrun S
seconds, timed against probes of a fixed reference load (see calibrate.py),
then independent checks of the census rows (see checks.py).  The
seed is passed as census --seed; no count may depend on it.

The last line of stdout is one JSON object: correct, attempted and failed
primes, and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1, see tracing.py).  See README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class Workload(NamedTuple):
    ell: int
    r: int
    p_min: int
    p_max: int
    oracle: bool  # census --oracle: build every graph and count its cycles
    theorem: bool  # every prime is above the operative bound: formula = graph


# Consecutive primes just above the point where the formula side applies:
# M(3,3) = 2782, max|D| = 4 * 2^10 at (2, 10), max|D| = 4 * 5^7 - 1 at (5, 7).
WORKLOADS = {
    "oracle_l3r3": Workload(3, 3, 2783, 2800, oracle=True, theorem=True),
    "oracle_l2r10": Workload(2, 10, 4097, 4130, oracle=True, theorem=False),
    "formula_l5r7": Workload(5, 7, 312500, 316000, oracle=False, theorem=False),
}
CLASS_NUMBER_SAMPLE = 12


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _is_prime(n):
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def _expected_vertices(p):
    return (p - 1) // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[p % 12]


def check_rows(w: Workload, rows, seed: int) -> list[str]:
    """Problems found by recounting the census rows independently."""
    import checks  # imports numpy: only after peak RSS has been read
    from spinecycles import predictor, quadforms, ssgraph

    ell, r, p_min, p_max = w.ell, w.r, w.p_min, w.p_max
    problems = []
    primes = [p for p in range(p_min, p_max + 1) if _is_prime(p) and p != ell]
    if [row.p for row in rows] != primes:
        problems.append(f"rows cover {len(rows)} primes, expected the {len(primes)} in range")
    good = [row for row in rows if not row.error]
    for row in good:
        if row.vertex_count != _expected_vertices(row.p):
            problems.append(f"p={row.p}: vertex_count {row.vertex_count}")
    if not w.oracle:
        exact_total = sum(len(predictor.disc_set_exact(ell, d)) for d in _divisors(r))
        dividing = len(predictor.disc_set_dividing(ell, r))
        if exact_total != dividing:
            problems.append(f"sum_d|r |exact(d)| = {exact_total} != |dividing(r)| = {dividing}")
        exact = predictor.disc_set_exact(ell, r).values()
        step = (len(exact) - 1) / (CLASS_NUMBER_SAMPLE - 1)
        for d in sorted({exact[round(i * step)] for i in range(CLASS_NUMBER_SAMPLE)}):
            h, want = quadforms.class_number(d), checks.class_number(d)
            if h != want:
                problems.append(f"h({d}) = {h}, Dirichlet gives {want}")
        for row in good:
            if row.n_s_formula % 2 or row.n_t_formula % 2:
                problems.append(f"p={row.p}: odd formula count ({row.n_s_formula}, {row.n_t_formula})")
        return problems
    for row in good:
        graph = ssgraph.build_graph(row.p, ell, seed=seed)
        counted = checks.cycle_counts(graph.out_edges, graph.spine, r)
        if (row.n_s_graph, row.n_t_graph) != counted:
            problems.append(f"p={row.p}: graph (n_s, n_t) = ({row.n_s_graph}, {row.n_t_graph}), traces give {counted}")
        spine = checks.supersingular_fp_count(row.p)
        if row.spine_size != spine or graph.spine_size != spine:
            problems.append(f"p={row.p}: spine_size {row.spine_size}, class numbers give {spine}")
        if graph.vertex_count != row.vertex_count:
            problems.append(f"p={row.p}: graph has {graph.vertex_count} vertices")
        if row.n_t_graph % 2:
            problems.append(f"p={row.p}: n_t_graph = {row.n_t_graph} is odd")
    if w.theorem:
        untainted = [row for row in good if not row.tainted]
        if not untainted:
            problems.append("no untainted row to compare formula and graph on")
        for row in untainted:
            if not row.agreement:
                problems.append(
                    f"p={row.p}: formula ({row.n_s_formula}, {row.n_t_formula})"
                    f" != graph ({row.n_s_graph}, {row.n_t_graph})"
                )
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spinecycles" / "__init__.py").is_file():
        print(f"error: no spinecycles sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["SPINECYCLES_BACKEND"] = "pure"
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    ell, r, p_min, p_max = w.ell, w.r, w.p_min, w.p_max

    import spinecycles
    from spinecycles import cli, predictor, ssgraph

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    OUT.mkdir(exist_ok=True)
    cfg = cli.CensusConfig(
        ell=ell,
        r=r,
        p_min=p_min,
        p_max=p_max,
        with_oracle=w.oracle,
        skip_tainted=False,
        seed=args.seed,
        output=str(OUT / f"census_{args.workload}.csv"),
        average_start=p_min,
    )
    if w.oracle:
        ssgraph.ModularPolynomialData.load(ell)
    for d in _divisors(r):
        predictor.disc_set_dividing(ell, d)
    predictor.disc_set_exact(ell, r)
    predictor.kaneko_bound(ell, r)
    predictor.average_limit(ell, r)
    setup_s = time.perf_counter() - _T0
    import calibrate

    # A probe of the reference load after every half second of census work
    # (after each prime, at the oracle workloads' 1 s per prime) and at the
    # end of each sweep: sweep times are then in reference seconds.  Only the
    # end-of-sweep probes remain if cli ever stops computing rows through
    # its module-level _census_row.
    clock = calibrate.Clock()
    census_row = getattr(cli, "_census_row", None)

    def probed_row(args):
        row = census_row(args)
        clock.tick()
        return row

    if census_row is not None:
        cli._census_row = probed_row

    sweep_s, sweep_ref_s, wall_s, digests = [], [], [], set()
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.enter(f"sweep{len(sweep_s)}")
        t = time.perf_counter()
        clock.start()
        rows, _ = cli.run_census(cfg)
        cli.write_census_csv(rows, cfg.output)
        raw_s, ref_s = clock.stop()
        sweep_s.append(raw_s)
        sweep_ref_s.append(ref_s)
        digests.add(hashlib.sha256(Path(cfg.output).read_bytes()).hexdigest())
        wall_s.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(wall_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.enter("checks")
    problems = check_rows(w, rows, args.seed)
    if len(digests) != 1:
        problems.append(f"census CSV differs between sweeps ({len(digests)} versions)")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    sweeps = len(sweep_s)
    if tracer:
        tracer.write(OUT / f"trace_{args.workload}.json")
        values = tracing.layer_metrics(tracer, [f"sweep{i}" for i in range(sweeps)])
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # per reference second (see calibrate.py): other tenants of a
            # shared machine change its speed twofold within seconds
            "primes_per_s": {"value": len(rows) / statistics.median(sweep_ref_s), "unit": "primes/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"workload={args.workload} ell={ell} r={r} primes=[{p_min},{p_max}] seed={args.seed}"
          f" backend={spinecycles.BACKEND} sweeps={sweeps} rows_per_sweep={len(rows)}"
          f" median_sweep_s={statistics.median(sweep_s):.4f} median_sweep_ref_s={statistics.median(sweep_ref_s):.4f}"
          f" wall_primes_per_s={len(rows) / statistics.median(sweep_s):.4f}"
          f" probes={len(clock.probes)} median_load_s={statistics.median(clock.probes):.4f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} failed"))
    failed = sum(1 for row in rows if row.error)
    result = {
        "correct": not problems,
        "attempted": len(rows) * sweeps,
        "failed": failed * sweeps,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
