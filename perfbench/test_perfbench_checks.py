"""Tests for the census benchmark's own checkers and its reference load.

Each checker must agree with hand counts or known values, and must reject a
perturbed count.  Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import dataclasses

import pytest

import calibrate
import checks
import run
from spinecycles import cli, cycles, quadforms, ssgraph

K4 = [((1, 1), (2, 1), (3, 1)), ((0, 1), (2, 1), (3, 1)), ((0, 1), (1, 1), (3, 1)), ((0, 1), (1, 1), (2, 1))]
TRIANGLE = [((1, 1), (2, 1)), ((0, 1), (2, 1)), ((0, 1), (1, 1))]


def test_cycle_counts_match_hand_counts():
    # K4: 4 triangles and 3 four-cycles, each in two directions; vertex 0 lies
    # on 3 of the triangles and on all three four-cycles
    assert checks.cycle_counts(K4, [True, False, False, False], 3) == (6, 8)
    assert checks.cycle_counts(K4, [True, False, False, False], 4) == (6, 6)
    assert checks.cycle_counts(K4, [False] * 4, 3) == (0, 8)
    # a triangle has one cycle each way; its 6-walks are powers, so none is primitive
    assert checks.cycle_counts(TRIANGLE, [False, True, False], 3) == (2, 2)
    assert checks.cycle_counts(TRIANGLE, [False, True, False], 6) == (0, 0)


def test_cycle_counts_match_enumeration_with_loops_and_multiple_edges():
    # small p: loops, parallel edges and both extra-automorphism vertices occur
    for p in (23, 47, 59, 71, 97, 101):
        graph = ssgraph.build_graph(p, 2)
        for r in (3, 4, 5, 6):
            cen = cycles.census(graph, r)
            assert checks.cycle_counts(graph.out_edges, graph.spine, r) == (cen.n_s_graph, cen.n_t_graph)


def test_class_numbers_known_values():
    known = {-3: 1, -4: 1, -23: 3, -104: 6, -75: 2, -108: 3, -12: 1, -16: 1, -28: 1, -99: 2}
    assert {d: checks.class_number(d) for d in known} == known


def test_class_numbers_match_form_enumeration():
    for d in range(-3, -1500, -1):
        if d % 4 in (0, 1):
            assert checks.class_number(d) == quadforms.class_number(d), d


def test_supersingular_count_known_values_and_graphs():
    # F_p supersingular j: p=11 {0, 1}, p=13 {5}, p=23 {0, 3, 19}
    assert [checks.supersingular_fp_count(p) for p in (11, 13, 23)] == [2, 1, 3]
    for p in (17, 19, 29, 31, 37, 41, 43, 53, 61, 73, 89, 101, 103, 107, 109):
        assert checks.supersingular_fp_count(p) == ssgraph.build_graph(p, 3).spine_size, p


def _rows(ell, r, p_min, p_max, oracle):
    cfg = cli.CensusConfig(
        ell=ell, r=r, p_min=p_min, p_max=p_max, with_oracle=oracle,
        skip_tainted=False, seed=5, output="", average_start=p_min,
    )
    rows, _ = cli.run_census(cfg)
    return rows


def test_oracle_checks_pass_and_reject_perturbed_rows():
    w = run.Workload(2, 4, 101, 140, oracle=True, theorem=False)
    rows = _rows(2, 4, 101, 140, True)
    assert run.check_rows(w, rows, seed=5) == []
    for field, delta in (("n_t_graph", 2), ("n_s_graph", 1), ("spine_size", 1), ("n_t_graph", 1)):
        bad = list(rows)
        bad[2] = dataclasses.replace(rows[2], **{field: getattr(rows[2], field) + delta})
        assert run.check_rows(w, bad, seed=5), field
    assert run.check_rows(w, rows[1:], seed=5)  # a missing prime


def test_formula_equals_graph_check_rejects_disagreement():
    w = run.Workload(2, 4, 101, 140, oracle=True, theorem=True)
    rows = [
        dataclasses.replace(row, n_s_formula=row.n_s_graph, n_t_formula=row.n_t_graph, tainted=False)
        for row in _rows(2, 4, 101, 140, True)
    ]
    assert run.check_rows(w, rows, seed=5) == []
    rows[0] = dataclasses.replace(rows[0], n_t_formula=rows[0].n_t_formula + 2)
    assert any("formula" in line for line in run.check_rows(w, rows, seed=5))


def test_formula_checks_pass_and_reject_wrong_class_numbers(monkeypatch):
    w = run.Workload(3, 3, 110, 200, oracle=False, theorem=False)
    rows = _rows(3, 3, 110, 200, False)
    assert run.check_rows(w, rows, seed=0) == []
    real = quadforms.class_number
    monkeypatch.setattr(quadforms, "class_number", lambda d: real(d) + (d == -107))
    assert any("h(-107)" in line for line in run.check_rows(w, rows, seed=0))


def test_runner_refuses_a_tree_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "oracle_l3r3", "--seed", "0", "--seconds", "1"]) == 2


def test_reference_load_is_fixed_and_probes_are_not_work():
    # the 2-isogeny graph at p = 311 = 11 (mod 12) has (311 - 1) // 12 + 2 vertices
    assert calibrate.reference_load() // 1000 == 27
    assert calibrate.reference_load() == calibrate.reference_load()
    clock = calibrate.Clock(loads=1, every_s=0.0)
    clock.start()
    clock.tick()  # a probe, with no work before it
    raw_s, ref_s = clock.stop()
    assert 0.0 <= raw_s < 0.5 * min(clock.probes)
    assert 0.0 <= ref_s
