"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite takes about three minutes on a 2-core machine, most
of it building the graphs of criteria 06 and 09.  Tolerances are pinned
here and nowhere else.
"""

import time
from fractions import Fraction

from form_oracle import two_torsion_bruteforce

from spinecycles import _kernel, cli, cycles, predictor, ssgraph
from spinecycles.arith import kronecker, primes_in
from spinecycles.quadforms import class_number, h2

TABLE1_CLASS_NUMBERS = {-23: 3, -44: 3, -59: 3, -83: 3, -92: 3, -104: 6, -107: 3}


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _cli_lines(*argv):
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_01_discriminant_enumeration():
    t0 = time.time()
    code1, out1 = _cli_lines("discs", "3", "3")
    code2, out2 = _cli_lines("discs", "3", "1")
    code3, out3 = _cli_lines("discs", "3", "3", "--exact")
    elapsed = time.time() - t0
    ok = (
        code1 == code2 == code3 == 0
        and out1.strip() == "{-107,-104,-92,-83,-59,-44,-23,-11,-8}"
        and out2.strip() == "{-11,-8}"
        and out3.strip() == "{-107,-104,-92,-83,-59,-44,-23}"
        and elapsed < 1.0
    )
    _verdict(1, ok, f"discs output exact, {elapsed:.3f}s < 1s")


def test_criterion_02_average_limit():
    # the paper's Moebius form over the dividing families, mu(1) = 1, mu(3) = -1
    via_moebius = len(predictor.disc_set_dividing(3, 3)) - len(predictor.disc_set_dividing(3, 1))
    limit = predictor.average_limit(3, 3)
    ok = limit == via_moebius == 7
    _verdict(2, ok, f"average limit (3,3): {limit}, moebius form={via_moebius}")


def test_criterion_03_kaneko_bounds():
    m33 = predictor.kaneko_bound(3, 3).M
    m53 = predictor.kaneko_bound(5, 3).M
    ok = m33 == 2782 and m53 == 61876
    _verdict(3, ok, f"M(3,3)={m33} (=104*107/4), M(5,3)={m53}")


def test_criterion_04_residue_modulus(tmp_path):
    out_file = tmp_path / "residues33.txt"
    code, out = _cli_lines("residues", "3", "3", "--sample", "4", "-o", str(out_file))
    text = out_file.read_text()
    ok = code == 0 and "modulus=13786935448" in text and "modulus=13786935448" in out
    _verdict(4, ok, "residues 3 3 reports modulus=13786935448")


def test_criterion_05_worked_prime_4643():
    t0 = time.time()
    sp = predictor.predict(3, 3, 4643)
    graph = ssgraph.build_graph(4643, 3)
    cen = cycles.census(graph, 3)
    src, edge_to, dual, vert_start = cycles._edges(graph)
    found = [tuple(src[e] for e in walk) for walk in _kernel.closed_walks(3, edge_to, dual, vert_start)]

    checks = {
        "formula (4,8)": (sp.n_s, sp.n_t) == (4, 8),
        "graph matches": (cen.n_s_graph, cen.n_t_graph) == (4, 8),
        "ratio 1/2": Fraction(cen.n_s_graph, cen.n_t_graph) == Fraction(1, 2),
        "388 vertices": graph.vertex_count == 388,
    }

    # Table 1 vertex identification: the -23 cycles carry spine vertex 173,
    # the -104 cycles carry no F_p vertex at all
    p = 4643
    inv2 = pow(2, -1, p)
    u = pow(61 * inv2 % p, (p + 1) // 4, p)  # sqrt(61) = u*w in our basis

    def conv(c, d):
        return ((c + 9 * d * inv2) % p, d * u * inv2 % p)

    row23 = frozenset([(173, 0), conv(3319, 1283), conv(937, 3360)])
    row104 = frozenset(
        conv(c, d)
        for c, d in ((3241, 2549), (3162, 3268), (3085, 3037),
                     (2967, 2094), (2560, 1606), (73, 1375))
    )
    cycles23 = [c for c in found if frozenset(graph.vertices[v] for v in c) == row23]
    offspine = [c for c in found if not any(graph.spine[v] for v in c)]
    off_verts = frozenset(graph.vertices[v] for c in offspine for v in c)
    checks["two -23 cycles, spine vertex 173"] = len(cycles23) == 2 and all(
        graph.vertices[v] == (173, 0) for c in cycles23 for v in c if graph.spine[v]
    )
    checks["-104 cycles have no F_p vertex"] = (
        len(offspine) == 4 and off_verts == row104 and all(b != 0 for _, b in off_verts)
    )
    elapsed = time.time() - t0
    checks[f"runtime {elapsed:.2f}s < 30s"] = elapsed < 30
    ok = all(checks.values())
    _verdict(5, ok, "; ".join(k for k in checks) if ok else str(checks))


def test_criterion_06_formula_graph_equivalence(sweep_3_3):
    mismatches = [
        (p, cen.n_s_graph, cen.n_t_graph, sp.n_s, sp.n_t)
        for p, cen, sp, _ in sweep_3_3
        if not cen.tainted_present
        and (cen.n_s_graph, cen.n_t_graph) != (sp.n_s, sp.n_t)
    ]
    untainted = sum(1 for _, cen, _, _ in sweep_3_3 if not cen.tainted_present)
    ok = not mismatches and untainted > 300
    _verdict(
        6,
        ok,
        f"(n_s, n_t) graph == formula at all {untainted} untainted primes in (2782, 6000]"
        + (f"; mismatches: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_07_per_cycle_spine_counts(sweep_3_3):
    bad_odd = [(p, s) for p, _, _, s in sweep_3_3 if not s <= {0, 1}]
    even_supports = {}
    for p in (3779, 3793, 3797):  # first primes above M_strong(2,6) = 3778.25
        graph = ssgraph.build_graph(p, 2)
        even_supports[p] = cycles.census(graph, 6).untainted_support
    bad_even = {p: s for p, s in even_supports.items() if not s <= {0, 2}}
    ok = not bad_odd and not bad_even
    _verdict(
        7,
        ok,
        f"(3,3) supports within {{0,1}} at {len(sweep_3_3)} primes; "
        f"(2,6) supports within {{0,2}} at {sorted(even_supports)}"
        + (f"; violations {bad_odd[:3]} {bad_even}" if not ok else ""),
    )


def test_criterion_08_genus_theory_oracle():
    bad = [
        d
        for d in range(-3, -5001, -1)
        if d % 4 in (0, 1) and h2(d) != two_torsion_bruteforce(d)
    ]
    table_ok = all(class_number(d) == h for d, h in TABLE1_CLASS_NUMBERS.items())
    ok = not bad and table_ok
    _verdict(
        8,
        ok,
        f"h2 == two-torsion oracle for all valid |D| <= 5000; Table-1 class numbers match"
        + (f"; failures {bad[:5]}" if bad else ""),
    )


def test_criterion_09_graph_structure():
    bad = []
    for ell in (2, 3, 5):
        for p in primes_in(17, 2000):
            if p == ell:
                continue
            g = ssgraph.build_graph(p, ell)
            if g.vertex_count != ssgraph.expected_vertex_count(p):
                bad.append((p, ell, "count"))
            if any(sum(m for _, m in row) != ell + 1 for row in g.out_edges):
                bad.append((p, ell, "degree"))
    ok = not bad
    _verdict(
        9,
        ok,
        "vertex count floor((p-1)/12)+eps and (ell+1)-out-regularity for all"
        f" 13 < p <= 2000, ell in {{2,3,5}}" + (f"; failures {bad[:5]}" if bad else ""),
    )


def test_criterion_10_convergence_reproduction():
    t0 = time.time()
    total = count = 0
    for p in primes_in(2789, 100000):
        if p != 3:
            total += predictor.predict(3, 3, p).n_s
            count += 1
    avg33 = total / count
    total = count = 0
    for p in primes_in(1000, 100000):
        if p != 5:
            total += predictor.predict(5, 3, p).n_s
            count += 1
    avg53 = total / count
    limit53 = float(predictor.average_limit(5, 3))
    elapsed = time.time() - t0
    ok = 6 <= avg33 <= 8 and abs(avg53 - limit53) <= 1.5 and elapsed < 120
    _verdict(
        10,
        ok,
        f"(3,3) avg={avg33:.3f} in [6,8] around 7; (5,3) avg={avg53:.3f} within 1.5 of"
        f" {limit53}; {elapsed:.1f}s < 120s",
    )


def test_criterion_11_moebius_consistency():
    bad = []
    for ell in (2, 3, 5):
        for r in range(1, 9):
            lhs = sum(len(predictor.disc_set_exact(ell, d)) for d in predictor._divisors(r))
            rhs = len(predictor.disc_set_dividing(ell, r))
            if lhs != rhs:
                bad.append((ell, r, lhs, rhs))
    ok = not bad
    _verdict(11, ok, "sum of exact-order set sizes over divisors equals dividing-set size"
             f" for ell in {{2,3,5}}, r <= 8" + (f"; failures {bad}" if bad else ""))


def test_criterion_12_even_case_experiment(tmp_path):
    out_csv = tmp_path / "even26.csv"
    code, out = _cli_lines(
        "census", "--ell", "2", "--r", "6", "--pmin", "3779", "--pmax", "3900",
        "--oracle", "-o", str(out_csv),
    )
    reported = [ln for ln in out.splitlines() if "mismatched_untainted=" in ln]
    rows = out_csv.read_text().splitlines()[1:]
    recount = 0
    for ln in rows:
        rec = dict(zip(cli.CSV_COLUMNS, ln.split(",")))
        if rec["agreement"] == "false" and rec["tainted"] == "false":
            recount += 1
    harness_detects = (
        code == 0 and len(reported) == 1
        and reported[0].endswith(f"mismatched_untainted={recount}")
    )
    ok = harness_detects and len(rows) >= 3
    detail = (
        f"(2,6) census above M_strong: {len(rows)} rows, harness reports"
        f" mismatched_untainted={recount} (finding, not a failure)"
    )
    _verdict(12, ok, detail)
