"""Command-line orchestration: prime sweeps, validation runs, residue tables.

Subcommands
-----------
discs L R [--exact]        discriminant family for (L, R)
bound L R                  distinctness thresholds M (and M_strong for even R)
predict L R P              formula-side counts at one prime
graph P L [--dot FILE]     build one graph, optionally emit DOT
census ... -o FILE         per-prime CSV sweep, optional graph oracle
validate ...               enforce formula/graph agreement and per-cycle laws
residues L R -o FILE       residue-class census (modulus + sampled entries)

`census --oracle` and `validate` count cycles through `cycles.census` and
need r >= 3, checked before any graph is built; there is no upper cap on r.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 internal error
(an arithmetic invariant failed, which is a bug).  All output is
deterministic given the arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import cycles, predictor, ssgraph
from .arith import is_prime, primes_in
from .predictor import BoundViolation
from .quadforms import InvariantViolation

CSV_COLUMNS = (
    "p",
    "ns_formula",
    "nt_formula",
    "ns_graph",
    "nt_graph",
    "spine_size",
    "vertex_count",
    "running_avg",
    "limit",
    "agreement",
    "tainted",
)


def _fmt_q(x: Fraction | int | float | None) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(float(x))
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


@lru_cache(maxsize=8)
def _load_phi(path):
    return ssgraph.ModularPolynomialData.from_file(path) if path else None


# ---------------------------------------------------------------- census ----


@dataclass
class CensusConfig:
    ell: int
    r: int
    p_min: int
    p_max: int
    with_oracle: bool
    output: str
    average_start: int
    # roots come back sorted, so no output depends on it; the benchmark
    # harness (perfbench/) sets and varies it
    seed: int = 0
    phi_path: str | None = None
    jobs: int = 1
    # unread: tainted rows never count as mismatches; kept only because the
    # benchmark harness (perfbench/) still passes it by keyword
    skip_tainted: bool = False

    def __post_init__(self):
        if not 13 < self.p_min <= self.p_max:
            raise ValueError("need 13 < p_min <= p_max")
        if self.jobs < 1:
            raise ValueError(f"need jobs >= 1, got {self.jobs}")
        if self.with_oracle and self.phi_path is None and self.ell not in ssgraph.BUILTIN_LEVELS:
            raise ValueError(
                f"no built-in modular polynomial for ell={self.ell}; pass --phi FILE"
            )
        if self.with_oracle and self.r < 3:
            raise ValueError(f"cycle length must be at least 3, got r = {self.r}")


@dataclass
class CensusRow:
    p: int
    n_s_formula: int | None
    n_t_formula: int | None
    n_s_graph: int | None
    n_t_graph: int | None
    spine_size: int | None
    vertex_count: int
    running_avg: float | None
    limit: Fraction
    tainted: bool | None
    error: str | None = None

    @property
    def agreement(self) -> bool:
        return (
            self.n_s_graph is not None
            and (self.n_s_graph, self.n_t_graph) == (self.n_s_formula, self.n_t_formula)
        )


def _census_row(args) -> CensusRow:
    p, cfg = args
    limit = predictor.average_limit(cfg.ell, cfg.r)
    vcount = ssgraph.expected_vertex_count(p)
    try:
        sp = predictor.predict(cfg.ell, cfg.r, p)
        ns_f, nt_f = sp.n_s, sp.n_t
        err = None
    except BoundViolation as exc:
        ns_f = nt_f = None
        err = str(exc)
    ns_g = nt_g = spine = tainted = None
    if cfg.with_oracle:
        graph = ssgraph.build_graph(p, cfg.ell, seed=cfg.seed, phi=_load_phi(cfg.phi_path))
        cen = cycles.census(graph, cfg.r)
        ns_g, nt_g, tainted = cen.n_s_graph, cen.n_t_graph, cen.tainted_present
        spine = graph.spine_size
    return CensusRow(
        p=p,
        n_s_formula=ns_f,
        n_t_formula=nt_f,
        n_s_graph=ns_g,
        n_t_graph=nt_g,
        spine_size=spine,
        vertex_count=vcount,
        running_avg=None,
        limit=limit,
        tainted=tainted,
        error=err,
    )


def run_census(cfg: CensusConfig) -> tuple[list[CensusRow], list[str]]:
    """One row per prime in [p_min, p_max] (skipping ell), plus summary lines."""
    primes = [p for p in primes_in(cfg.p_min, cfg.p_max) if p != cfg.ell]
    work = [(p, cfg) for p in primes]
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_census_row, work, chunksize=16))
    else:
        rows = [_census_row(w) for w in work]

    # sequential running average of the formula-side n_s from average_start
    total = 0
    count = 0
    for row in rows:
        if row.p >= cfg.average_start and row.n_s_formula is not None:
            total += row.n_s_formula
            count += 1
            row.running_avg = total / count

    summary = _census_summary(cfg, rows)
    return rows, summary


def _census_summary(cfg: CensusConfig, rows: list[CensusRow]) -> list[str]:
    lines = []
    errors = [r for r in rows if r.error]
    lines.append(f"rows={len(rows)} errors={len(errors)}")
    for r in errors[:10]:
        lines.append(f"  p={r.p}: {r.error}")
    limit = predictor.average_limit(cfg.ell, cfg.r)
    avg = next((r.running_avg for r in reversed(rows) if r.running_avg is not None), None)
    lines.append(f"final_running_avg={_fmt_q(avg)} limit={_fmt_q(limit)}")
    if cfg.with_oracle:
        checked = [r for r in rows if r.n_s_graph is not None and not r.error]
        bad = [r for r in checked if not r.agreement and not r.tainted]
        lines.append(f"oracle_rows={len(checked)} mismatched_untainted={len(bad)}")
        for r in bad[:20]:
            lines.append(
                f"  MISMATCH p={r.p} formula=({r.n_s_formula},{r.n_t_formula})"
                f" graph=({r.n_s_graph},{r.n_t_graph})"
            )
        dense = sum(
            1
            for r in checked
            if r.n_s_graph and r.spine_size
            and Fraction(r.n_t_graph, r.vertex_count) < Fraction(r.n_s_graph, r.spine_size)
        )
        withspine = sum(1 for r in checked if r.n_s_graph)
        lines.append(
            f"density_comparison: n_t/#V < n_s/#spine on {dense}/{withspine} rows with n_s>0;"
            f" n_s=0 rows: {sum(1 for r in checked if r.n_s_graph == 0)}"
        )
    if predictor.is_even_power_of_two(cfg.r):
        lines.append("note: r is a power of two; spine predictions are experimental")
    return lines


def write_census_csv(rows: list[CensusRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in rows:
            agreement = "" if r.n_s_graph is None else str(r.agreement).lower()
            tainted = "" if r.tainted is None else str(r.tainted).lower()
            fields = (
                str(r.p),
                "" if r.n_s_formula is None else str(r.n_s_formula),
                "" if r.n_t_formula is None else str(r.n_t_formula),
                "" if r.n_s_graph is None else str(r.n_s_graph),
                "" if r.n_t_graph is None else str(r.n_t_graph),
                "" if r.spine_size is None else str(r.spine_size),
                str(r.vertex_count),
                "" if r.running_avg is None else f"{r.running_avg:.6g}",
                _fmt_q(r.limit),
                agreement,
                tainted,
            )
            fh.write(",".join(fields) + "\n")


# -------------------------------------------------------------- validate ----


def run_validate(ell: int, r: int, primes: list[int], phi_path=None) -> tuple[bool, list[str]]:
    """Check formula/graph agreement and per-cycle spine laws at given primes.

    Enforced (failures flip the exit code) for non-power-of-two r:
      * untainted formula/graph equality, when p also clears max(M, M_strong)
      * per-cycle spine counts in {0,1} (odd r) / {0,2} (even r), untainted
      * n_t even; n_s even for odd r
    For r a power of two everything is reported but nothing enforced.
    """
    if r < 3:
        raise ValueError(f"cycle length must be at least 3, got r = {r}")
    if not primes:
        raise ValueError("no primes to validate")
    bound = predictor.kaneko_bound(ell, r)
    gate = bound.M if r % 2 else bound.M_strong
    experimental = predictor.is_even_power_of_two(r)
    lines = []
    ok = True
    allowed_support = {0, 1} if r % 2 else {0, 2}
    for p in primes:
        if not is_prime(p) or p == ell:
            raise ValueError(f"{p} is not an admissible prime")
        if p <= gate:
            raise ValueError(f"p = {p} does not exceed the applicable bound {float(gate)}")
    for p in primes:
        graph = ssgraph.build_graph(p, ell, phi=_load_phi(phi_path))
        cen = cycles.census(graph, r)
        sp = predictor.predict(ell, r, p)
        problems = []  # (message, enforced); nothing is enforced for r a power of two
        if (cen.n_s_graph, cen.n_t_graph) != (sp.n_s, sp.n_t) and not cen.tainted_present:
            below = p <= bound.operative
            problems.append((
                f"formula=({sp.n_s},{sp.n_t}) != graph=({cen.n_s_graph},{cen.n_t_graph})"
                + (" [below operative bound: reported only]" if below else ""),
                not (experimental or below),
            ))
        if not cen.untainted_support <= allowed_support:
            problems.append((
                f"histogram support {sorted(cen.untainted_support)} not within {sorted(allowed_support)}",
                not experimental,
            ))
        if cen.n_t_graph % 2:
            problems.append((f"n_t_graph={cen.n_t_graph} odd", not experimental))
        if r % 2 and cen.n_s_graph % 2:
            problems.append((f"n_s_graph={cen.n_s_graph} odd", not experimental))
        failed = any(enforced for _, enforced in problems)
        ok = ok and not failed
        status = "FAIL" if failed else ("reported" if problems else "ok")
        hist = dict(sorted(cen.spine_count_histogram.items()))
        lines.append(
            f"p={p} formula=({sp.n_s},{sp.n_t}) graph=({cen.n_s_graph},{cen.n_t_graph})"
            f" hist={hist} tainted={str(cen.tainted_present).lower()} {status}"
        )
        for q, enforced in problems:
            lines.append(f"  {'VIOLATION' if enforced else 'NOTE'}: {q}")
    if experimental:
        lines.append("note: r is a power of two; checks reported, not enforced")
    return ok, lines


# -------------------------------------------------------------- residues ----


def run_residues(ell: int, r: int, sample: int = 24) -> list[str]:
    """Residue-census report: modulus and a deterministic sample of entries."""
    if sample < 1:
        raise ValueError(f"need sample >= 1, got {sample}")
    rc = predictor.residue_census(ell, r)
    bound = predictor.kaneko_bound(ell, r)
    lines = [
        f"# residue census ell={ell} r={r}",
        f"modulus={rc.modulus}",
        f"even_case={str(rc.even_case).lower()}",
        f"# entries sampled at the first {sample} primes above the operative bound"
        f" {_fmt_q(bound.operative)}",
    ]
    start = int(bound.operative) + 1
    found = []
    p = start
    while len(found) < sample:
        if is_prime(p) and p != ell:
            found.append(p)
        p += 1
    avoiding = []
    for p in found:
        n_s, n_t = rc.entry(p % rc.modulus)
        lines.append(f"residue={p % rc.modulus} n_s={n_s} n_t={n_t}")
        if n_s == 0 and n_t > 0:
            avoiding.append(p % rc.modulus)
    lines.append("# spine-avoiding residues in the sample (n_s = 0, n_t > 0)")
    for m in avoiding:
        lines.append(f"spine_avoiding={m}")
    return lines


# ------------------------------------------------------------------ main ----


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spinecycles", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discs", help="discriminant family for (ell, r)")
    d.add_argument("ell", type=int)
    d.add_argument("r", type=int)
    d.add_argument("--exact", action="store_true", help="order exactly r instead of dividing r")

    b = sub.add_parser("bound", help="distinctness thresholds")
    b.add_argument("ell", type=int)
    b.add_argument("r", type=int)

    pr = sub.add_parser("predict", help="formula-side counts at one prime")
    pr.add_argument("ell", type=int)
    pr.add_argument("r", type=int)
    pr.add_argument("p", type=int)

    g = sub.add_parser("graph", help="build one isogeny graph")
    g.add_argument("p", type=int)
    g.add_argument("ell", type=int)
    g.add_argument("--dot", metavar="FILE", help="write DOT output with the spine marked")
    g.add_argument("--phi", metavar="FILE", help="external modular polynomial table")

    c = sub.add_parser("census", help="per-prime CSV sweep")
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--pmin", type=int, required=True)
    c.add_argument("--pmax", type=int, required=True)
    c.add_argument("--oracle", action="store_true", help="also build graphs and compare")
    c.add_argument("--avg-start", type=int, default=None, help="prime starting the running average")
    c.add_argument("--phi", metavar="FILE")
    c.add_argument("--jobs", type=int, default=1)
    c.add_argument("-o", "--output", required=True)

    v = sub.add_parser("validate", help="enforce formula/graph agreement")
    v.add_argument("--ell", type=int, required=True)
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--primes", required=True, help="comma-separated list")
    v.add_argument("--phi", metavar="FILE")

    res = sub.add_parser("residues", help="residue-class census")
    res.add_argument("ell", type=int)
    res.add_argument("r", type=int)
    res.add_argument("--sample", type=int, default=24)
    res.add_argument("-o", "--output", required=True)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, BoundViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ssgraph.NonSplitInput, ssgraph.VertexCountMismatch, InvariantViolation, ArithmeticError
    ) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "discs":
        family = (
            predictor.disc_set_exact(args.ell, args.r)
            if args.exact
            else predictor.disc_set_dividing(args.ell, args.r)
        )
        print(_fmt_set(family.values()))
        return 0

    if args.command == "bound":
        kb = predictor.kaneko_bound(args.ell, args.r)
        print(f"ell={args.ell} r={args.r}")
        print(f"M={_fmt_q(kb.M)}")
        if kb.M_strong is not None:
            print(f"M_strong={_fmt_q(kb.M_strong)}")
        print(f"operative={_fmt_q(kb.operative)}")
        return 0

    if args.command == "predict":
        sp = predictor.predict(args.ell, args.r, args.p)
        print(
            f"p={sp.p} ell={sp.ell} r={sp.r} n_s={sp.n_s} n_t={sp.n_t}"
            f" valid={str(sp.valid).lower()} experimental={str(sp.experimental).lower()}"
        )
        return 0

    if args.command == "graph":
        phi = _load_phi(args.phi)
        graph = ssgraph.build_graph(args.p, args.ell, phi=phi)
        print(
            f"p={graph.p} ell={graph.ell} vertices={graph.vertex_count}"
            f" spine={graph.spine_size} out_degree={graph.ell + 1}"
        )
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(ssgraph.to_dot(graph))
            print(f"dot written to {args.dot}")
        return 0

    if args.command == "census":
        cfg = CensusConfig(
            ell=args.ell,
            r=args.r,
            p_min=args.pmin,
            p_max=args.pmax,
            with_oracle=args.oracle,
            output=args.output,
            average_start=args.avg_start if args.avg_start is not None else args.pmin,
            phi_path=args.phi,
            jobs=args.jobs,
        )
        rows, summary = run_census(cfg)
        write_census_csv(rows, cfg.output)
        for line in summary:
            print(line)
        print(f"csv written to {cfg.output}")
        return 0

    if args.command == "validate":
        primes = [int(tok) for tok in args.primes.split(",") if tok]
        ok, lines = run_validate(args.ell, args.r, primes, args.phi)
        for line in lines:
            print(line)
        return 0 if ok else 1

    if args.command == "residues":
        lines = run_residues(args.ell, args.r, sample=args.sample)
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        for line in lines[:4]:
            print(line)
        print(f"table written to {args.output}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
