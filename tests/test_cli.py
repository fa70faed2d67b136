import dataclasses

import pytest

from spinecycles import _kernel, cli, cycles, predictor, quadforms, ssgraph
from spinecycles.arith import is_prime


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------ simple output --


def test_discs_exact_strings(capsys):
    code, out, _ = run(capsys, "discs", "3", "3")
    assert code == 0
    assert out.strip() == "{-107,-104,-92,-83,-59,-44,-23,-11,-8}"
    code, out, _ = run(capsys, "discs", "3", "1")
    assert out.strip() == "{-11,-8}"
    code, out, _ = run(capsys, "discs", "3", "3", "--exact")
    assert out.strip() == "{-107,-104,-92,-83,-59,-44,-23}"


def test_bound_output(capsys):
    code, out, _ = run(capsys, "bound", "3", "3")
    assert code == 0
    assert "M=2782" in out
    code, out, _ = run(capsys, "bound", "5", "3")
    assert "M=61876" in out
    code, out, _ = run(capsys, "bound", "2", "6")
    assert "M=15746.25" in out and "M_strong=3778.25" in out


def test_predict_output(capsys):
    code, out, _ = run(capsys, "predict", "3", "3", "4643")
    assert code == 0
    assert "n_s=4" in out and "n_t=8" in out and "valid=true" in out


def test_predict_rejects_pseudoprime_beyond_word_range(capsys):
    # 399165290221 * 798330580441, a strong pseudoprime to every witness
    # of the primality test, which is exact only below 2^64
    code, out, err = run(capsys, "predict", "3", "3", "318665857834031151167461")
    assert code == 2
    assert out == "" and "too large for the primality test" in err


def test_predict_experimental_flag(capsys):
    code, out, _ = run(capsys, "predict", "3", "4", "2801")
    assert code == 0
    assert "experimental=true" in out


def test_graph_output_and_dot(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "101", "2", "--dot", str(dot))
    assert code == 0
    assert "vertices=9" in out and "spine=7" in out
    text = dot.read_text()
    assert text.count("doublecircle") == 7


def _write_phi2(tmp_path):
    """The built-in level-2 table, written out as an external --phi file."""
    data = ssgraph.ModularPolynomialData.load(2)
    path = tmp_path / "phi2.txt"
    lines = [f"{i} {k} {c}" for (i, k), c in sorted(data.table.items()) if i >= k]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_graph_accepts_external_phi(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "101", "2", "--phi", _write_phi2(tmp_path))
    assert code == 0 and "vertices=9" in out


def test_graph_rejects_phi_of_another_level(capsys, tmp_path):
    code, out, err = run(capsys, "graph", "101", "3", "--phi", _write_phi2(tmp_path))
    assert code == 2
    assert out == "" and "level 2, expected 3" in err


def test_graph_rejects_phi_with_conflicting_mirror_lines(capsys, tmp_path):
    path = _write_phi2(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1 2 1489\n")  # the mirror of the line "2 1 1488"
    code, out, err = run(capsys, "graph", "101", "2", "--phi", path)
    assert code == 2
    assert out == "" and "given twice with different values" in err


def test_graph_rejects_phi_of_composite_level(capsys, tmp_path):
    # a table of degree 5 reads as level 4, which no isogeny graph has
    path = tmp_path / "phi4.txt"
    path.write_text("5 0 1\n4 4 -1\n")
    code, out, err = run(capsys, "graph", "101", "4", "--phi", str(path))
    assert code == 2
    assert out == "" and err == "error: 4 is not prime\n"


def test_validate_rejects_phi_of_another_level(capsys, tmp_path):
    # a level-2 table must not stand in for Phi_3: that would compare the
    # (3, 3) formula with a 2-isogeny graph and report a false violation
    code, out, err = run(
        capsys, "validate", "--ell", "3", "--r", "3", "--primes", "2789",
        "--phi", _write_phi2(tmp_path),
    )
    assert code == 2
    assert "VIOLATION" not in out and "level 2, expected 3" in err


# ------------------------------------------------------------------ census --


def test_census_csv_structure_and_agreement(capsys, tmp_path):
    out_csv = tmp_path / "c.csv"
    code, out, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "2789", "--pmax", "2900",
        "--oracle", "-o", str(out_csv),
    )
    assert code == 0
    assert "mismatched_untainted=0" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    first = dict(zip(cli.CSV_COLUMNS, lines[1].split(",")))
    assert first["p"] == "2789"
    assert first["ns_formula"] == first["ns_graph"] == "6"
    assert first["agreement"] == "true"
    assert first["tainted"] == "false"
    assert first["limit"] == "7"


def test_census_byte_identical_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "census", "--ell", "3", "--r", "3", "--pmin", "2789", "--pmax", "3100",
            "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_records_bound_violations_per_row(capsys, tmp_path):
    out_csv = tmp_path / "low.csv"
    code, out, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "17", "--pmax", "120",
        "-o", str(out_csv),
    )
    assert code == 0
    assert "errors=" in out and "errors=0" not in out
    rows = out_csv.read_text().splitlines()[1:]
    # primes at or below max |D| = 107 have empty formula fields, sweep continues
    low = dict(zip(cli.CSV_COLUMNS, rows[0].split(",")))
    assert low["ns_formula"] == ""
    high = dict(zip(cli.CSV_COLUMNS, rows[-1].split(",")))
    assert high["p"] == "113" and high["ns_formula"] != ""


def test_census_running_average_and_avg_start(capsys, tmp_path):
    out_csv = tmp_path / "avg.csv"
    code, _, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "2789", "--pmax", "3000",
        "--avg-start", "2797", "-o", str(out_csv),
    )
    assert code == 0
    rows = [dict(zip(cli.CSV_COLUMNS, ln.split(","))) for ln in out_csv.read_text().splitlines()[1:]]
    assert rows[0]["p"] == "2789" and rows[0]["running_avg"] == ""
    assert rows[1]["p"] == "2791" and rows[1]["running_avg"] == ""
    started = [r for r in rows if r["running_avg"]]
    assert started[0]["p"] == "2797"
    # average of a single row equals its own n_s
    assert float(started[0]["running_avg"]) == float(started[0]["ns_formula"])


def test_census_jobs_matches_sequential(capsys, tmp_path):
    # small graphs, but more than 32 primes, so that --jobs 2 with chunks of 16
    # hands both workers work; the range has rows below the bound and tainted rows
    a, b = tmp_path / "seq.csv", tmp_path / "par.csv"
    argv = ["census", "--ell", "2", "--r", "3", "--pmin", "17", "--pmax", "600", "--oracle"]
    run(capsys, *argv, "-o", str(a))
    run(capsys, *argv, "--jobs", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    rows = [dict(zip(cli.CSV_COLUMNS, ln.split(","))) for ln in a.read_text().splitlines()[1:]]
    assert len(rows) > 32
    assert any(row["ns_formula"] == "" for row in rows)
    assert any(row["tainted"] == "true" for row in rows)


def test_census_single_worked_prime_row(capsys, tmp_path):
    out_csv = tmp_path / "single.csv"
    code, _, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "4643", "--pmax", "4643",
        "--oracle", "-o", str(out_csv),
    )
    assert code == 0
    row = dict(zip(cli.CSV_COLUMNS, out_csv.read_text().splitlines()[1].split(",")))
    assert (row["ns_formula"], row["nt_formula"]) == ("4", "8")
    assert (row["ns_graph"], row["nt_graph"]) == ("4", "8")
    assert row["vertex_count"] == "388" and row["agreement"] == "true"
    # a row with spine cycles must see a nonempty spine
    assert int(row["ns_graph"]) > 0 and int(row["spine_size"]) > 0


def test_census_formula_sweep_average_band(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "2789", "--pmax", "10000",
        "-o", str(out_csv),
    )
    assert code == 0
    avg_line = next(ln for ln in out.splitlines() if ln.startswith("final_running_avg="))
    avg = float(avg_line.split("=")[1].split()[0])
    assert 6 <= avg <= 8


def test_census_sweeps_above_ten_to_the_eight(capsys, tmp_path):
    # just above the (3, 8) operative bound, where the sieve once refused
    lo, hi = 172154081, 172154400
    out_csv = tmp_path / "l3r8.csv"
    code, out, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "8", "--pmin", str(lo), "--pmax", str(hi),
        "-o", str(out_csv),
    )
    assert code == 0
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    rows = out_csv.read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == primes
    assert f"rows={len(primes)} errors=0" in out


def test_census_oracle_requires_builtin_or_phi(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "census", "--ell", "11", "--r", "2", "--pmin", "2789", "--pmax", "2800",
        "--oracle", "-o", str(tmp_path / "x.csv"),
    )
    assert code == 2 and "--phi" in err


def test_census_oracle_reports_mismatch_exit_0(capsys, monkeypatch, tmp_path):
    # census reports a disagreement; only validate turns one into exit code 1
    real = cycles.census
    monkeypatch.setattr(
        cycles, "census", lambda graph, r: dataclasses.replace(real(graph, r), n_s_graph=0)
    )
    out_csv = tmp_path / "bad.csv"
    code, out, _ = run(
        capsys,
        "census", "--ell", "3", "--r", "3", "--pmin", "2789", "--pmax", "2791",
        "--oracle", "-o", str(out_csv),
    )
    assert code == 0
    assert "oracle_rows=2 mismatched_untainted=2" in out
    assert "  MISMATCH p=2789 formula=(6,6) graph=(0,6)" in out
    assert "  MISMATCH p=2791 formula=(10,10) graph=(0,10)" in out
    rows = [dict(zip(cli.CSV_COLUMNS, ln.split(","))) for ln in out_csv.read_text().splitlines()[1:]]
    assert [row["agreement"] for row in rows] == ["false", "false"]


# ---------------------------------------------------------------- validate --


def test_validate_passes_on_clean_primes(capsys):
    code, out, _ = run(capsys, "validate", "--ell", "3", "--r", "3",
                       "--primes", "2789,2791,2797")
    assert code == 0
    assert out.count(" ok") == 3


def test_validate_even_case(capsys):
    code, out, _ = run(capsys, "validate", "--ell", "2", "--r", "6",
                       "--primes", "3779,3793,3797")
    assert code == 0


def test_validate_power_of_two_reported_not_enforced(capsys):
    code, out, _ = run(capsys, "validate", "--ell", "3", "--r", "4",
                       "--primes", "2789,2791")
    assert code == 0
    assert "power of two" in out


def _break_one_law(monkeypatch, law):
    """Make the graph side break one of validate's laws, and only that one.

    The parity patches move the prediction along with the count, so that
    formula and graph still agree.
    """
    real_census, real_predict = cycles.census, predictor.predict
    ds, dt = {"mismatch": (2, 2), "odd n_t": (0, 1), "odd n_s": (1, 0)}.get(law, (0, 0))

    def census(graph, r):
        cen = real_census(graph, r)
        support = cen.untainted_support | {3} if law == "support" else cen.untainted_support
        return dataclasses.replace(
            cen, n_s_graph=cen.n_s_graph + ds, n_t_graph=cen.n_t_graph + dt, untainted_support=support
        )

    def predict(ell, r, p):
        sp = real_predict(ell, r, p)
        return sp if law == "mismatch" else dataclasses.replace(sp, n_s=sp.n_s + ds, n_t=sp.n_t + dt)

    monkeypatch.setattr(cycles, "census", census)
    monkeypatch.setattr(predictor, "predict", predict)


@pytest.mark.parametrize("law,problem", [
    ("mismatch", "formula=(6,6) != graph=(8,8)"),
    ("support", "histogram support [1, 3] not within [0, 1]"),
    ("odd n_t", "n_t_graph=7 odd"),
    ("odd n_s", "n_s_graph=7 odd"),
])
def test_validate_violation_exits_1(capsys, monkeypatch, law, problem):
    # 2789 is above the operative (3, 3) bound 2782, where graph (6, 6) = formula
    _break_one_law(monkeypatch, law)
    code, out, _ = run(capsys, "validate", "--ell", "3", "--r", "3", "--primes", "2789")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith(" FAIL")
    assert lines[1:] == [f"  VIOLATION: {problem}"]


@pytest.mark.parametrize("law,problem", [
    ("mismatch", "formula=(2,8) != graph=(4,10)"),
    ("support", "histogram support [0, 2, 3] not within [0, 2]"),
    ("odd n_t", "n_t_graph=9 odd"),
    ("odd n_s", None),  # n_s must be even only at odd r
])
def test_validate_power_of_two_notes_exit_0(capsys, monkeypatch, law, problem):
    # 25841 is above the operative (3, 4) bound 25840, where graph (2, 8) = formula
    _break_one_law(monkeypatch, law)
    code, out, _ = run(capsys, "validate", "--ell", "3", "--r", "4", "--primes", "25841")
    assert code == 0
    lines = out.splitlines()
    if problem is None:
        assert lines[0].endswith(" ok") and len(lines) == 2
    else:
        assert lines[0].endswith(" reported")
        assert lines[1] == f"  NOTE: {problem}"
    assert lines[-1] == "note: r is a power of two; checks reported, not enforced"


def test_validate_enumerates_once_per_prime(capsys, monkeypatch):
    calls = []
    real = _kernel.closed_walks

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(_kernel, "closed_walks", counted)
    code, out, _ = run(capsys, "validate", "--ell", "2", "--r", "3", "--primes", "179,181,191")
    assert code == 0 and out.count(" ok") == 3
    assert calls == [3, 3, 3]


def test_validate_rejects_prime_below_bound(capsys):
    code, _, err = run(capsys, "validate", "--ell", "3", "--r", "3", "--primes", "2777")
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize("primes", ["2789,2777", "2789,2793"])
def test_validate_checks_every_prime_before_building(capsys, monkeypatch, primes):
    # 2777 is below the (3, 3) bound, 2793 = 3 * 7^2 * 19 is composite
    def refuse(*_args, **_kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(ssgraph, "build_graph", refuse)
    code, _, err = run(capsys, "validate", "--ell", "3", "--r", "3", "--primes", primes)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("census", "--ell", "2", "--r", "2", "--pmin", "101", "--pmax", "113", "--oracle", "-o"),
    ("validate", "--ell", "2", "--r", "2", "--primes", "101,103"),
])
def test_cycle_length_below_three_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    def refuse(*_args, **_kwargs):
        raise AssertionError("graph built")

    monkeypatch.setattr(ssgraph, "build_graph", refuse)
    if argv[-1] == "-o":
        argv += (str(tmp_path / "short.csv"),)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "at least 3" in err


def test_census_oracle_counts_cycles_above_length_ten(capsys, tmp_path):
    out_csv = tmp_path / "r12.csv"
    code, _, err = run(
        capsys,
        "census", "--ell", "2", "--r", "12", "--pmin", "101", "--pmax", "103",
        "--oracle", "-o", str(out_csv),
    )
    assert code == 0 and err == ""
    rows = [dict(zip(cli.CSV_COLUMNS, ln.split(","))) for ln in out_csv.read_text().splitlines()[1:]]
    assert [row["p"] for row in rows] == ["101", "103"]
    for row in rows:
        cen = cycles.census(ssgraph.build_graph(int(row["p"]), 2), 12)
        assert (row["ns_graph"], row["nt_graph"]) == (str(cen.n_s_graph), str(cen.n_t_graph))
        assert cen.n_t_graph > 0


# ---------------------------------------------------------------- residues --


def test_residues_header_and_worked_entry(capsys, tmp_path):
    out_file = tmp_path / "res.txt"
    code, out, _ = run(capsys, "residues", "3", "3", "--sample", "4", "-o", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "modulus=13786935448" in text
    assert "modulus=13786935448" in out  # echoed to stdout
    assert "residue=2789 n_s=6 n_t=6" in text
    assert "# spine-avoiding residues" in text


def test_residues_lists_spine_avoiding_residue(capsys, tmp_path):
    out_file = tmp_path / "res.txt"
    code, _, _ = run(capsys, "residues", "3", "3", "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("spine_avoiding=")] == ["spine_avoiding=2953"]
    assert "residue=2953 n_s=0 n_t=4" in lines
    # the same counts at the prime itself: no spine cycle, four cycles in all
    code, out, _ = run(capsys, "predict", "3", "3", "2953")
    assert code == 0
    assert "n_s=0 n_t=4 valid=true" in out


def test_residues_rejects_power_of_two(capsys, tmp_path):
    code, _, err = run(capsys, "residues", "3", "4", "-o", str(tmp_path / "x.txt"))
    assert code == 2


# -------------------------------------------------------------- exit codes --


class _DropOneRootAtZero:
    """A PhiMod whose roots at j = 0, the seed at p = 101, lose one element."""

    real = _kernel.PhiMod

    def __init__(self, *args):
        self.inner = self.real(*args)

    def roots(self, ja, jb, seed, known=()):
        found = self.inner.roots(ja, jb, seed, known)
        return found[1:] if (ja, jb) == (0, 0) else found


@pytest.mark.parametrize("broken, message", [
    ((_kernel, "PhiMod", _DropOneRootAtZero), "does not split into 3 roots"),
    ((ssgraph, "expected_vertex_count", lambda p: 10), "closure has 9 vertices, expected 10"),
])
def test_internal_error_exit_3(capsys, monkeypatch, broken, message):
    monkeypatch.setattr(*broken)
    code, out, err = run(capsys, "graph", "101", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and message in err and "p = 101" in err


def test_asymmetric_adjacency_is_internal_error(capsys, monkeypatch):
    # a graph missing the edges of one group of vertex 0 (what a wrong
    # neighbour list at graph building would produce) is a bug, not bad input
    real = ssgraph.build_graph

    def drop_one_group(*args, **kwargs):
        g = real(*args, **kwargs)
        target = next(w for w, _ in g.out_edges[0] if w != 0)
        row = tuple((w, m) for w, m in g.out_edges[0] if w != target)
        return dataclasses.replace(g, out_edges=(row, *g.out_edges[1:]))

    monkeypatch.setattr(ssgraph, "build_graph", drop_one_group)
    code, out, err = run(capsys, "validate", "--ell", "2", "--r", "3", "--primes", "179")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:") and "not symmetric at p = 179" in err


def test_formula_invariant_is_internal_error(capsys, monkeypatch):
    # h(-104) = 6; a class number of 4 breaks the divisibility by r = 3
    monkeypatch.setattr(quadforms, "class_number", lambda d: 4)
    predictor._orbit_count.cache_clear()
    code, out, err = run(capsys, "predict", "3", "3", "4643")
    predictor._orbit_count.cache_clear()
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: h(-104) = 4 ")


def test_closed_form_failure_is_internal_error(capsys, monkeypatch):
    # the seed quartic of Phi_3(1728, Y) at 4643 goes through Cantor-Zassenhaus,
    # whose factors split by construction; closed forms that find no roots
    # there raise ArithmeticError, a bug and not a validation failure
    real = _kernel._low_degree_roots
    monkeypatch.setattr(
        _kernel, "_low_degree_roots", lambda f, p, s: None if len(f) > 2 else real(f, p, s)
    )
    code, out, err = run(capsys, "graph", "4643", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: no closed-form roots") and "p = 4643" in err
    assert len(err.splitlines()) == 1


def test_usage_error_exit_2(capsys):
    assert run(capsys, "discs", "4", "3")[0] == 2  # ell not prime
    assert run(capsys, "predict", "3", "3", "4642")[0] == 2  # p composite
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--ell", "3"])  # missing required args
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])


@pytest.mark.parametrize("argv", [
    ("census", "--ell", "3", "--r", "3", "--pmin", "2783", "--pmax", "2800", "--jobs", "0", "-o"),
    ("census", "--ell", "3", "--r", "3", "--pmin", "2783", "--pmax", "2800", "--jobs", "-1", "-o"),
    ("validate", "--ell", "3", "--r", "3", "--primes", ","),
    ("residues", "3", "3", "--sample", "-5", "-o"),
])
def test_meaningless_count_is_usage_error(capsys, tmp_path, argv):
    out_file = tmp_path / "out.txt"
    if argv[-1] == "-o":
        argv += (str(out_file),)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert not out_file.exists()
