"""Acceptance suite: one test per criterion, with its stated time budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  Every check is exact: graph equality, set equality, or
equality of rational functions; there are no numeric tolerances anywhere.
"""

import json
import time

from queercrystals import (all_words, e_even, ebar1, f_even, fbar1,
                           verify_decomposition,
                           verify_highest_weight_formula,
                           verify_reading_independence,
                           verify_unique_highest_weight, weyl_S)
from queercrystals.cli import main
from queercrystals.qrep.checks import (residue_check, verify_comult_odd,
                                       verify_relations)
from queercrystals.tableaux import strict_partitions
from queercrystals.tensor_rules import (e_even_recursive, ebar1_recursive,
                                        f_even_recursive, fbar1_recursive)

SWEEP = [(n, lam) for n in (2, 3, 4) for lam in strict_partitions(8, n)]


def announce(number: int, label: str, started: float, budget: float | None):
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance] criterion {number:2d} ({label}): "
          f"PASS in {elapsed:.1f}s")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def graph_json(argv, capsys):
    code = main(argv)
    assert code == 0
    return json.loads(capsys.readouterr().out)


def test_criterion_01_vector_crystal_figures(capsys):
    t0 = time.perf_counter()
    for rank in (3, 4, 5):
        data = graph_json(["graph", "--vector", "-n", str(rank),
                           "--format", "json"], capsys)
        assert [node["payload"] for node in data["nodes"]] == \
            [[a] for a in range(1, rank + 1)]
        edges = {(e["src"], e["label"], e["dst"]) for e in data["edges"]}
        expected = {(0, "1", 1), (0, "1bar", 1)}
        expected |= {(j - 1, str(j), j) for j in range(2, rank)}
        assert edges == expected
        # dot emission exists and is stable
        code = main(["graph", "--vector", "-n", str(rank)])
        assert code == 0
        first = capsys.readouterr().out
        main(["graph", "--vector", "-n", str(rank)])
        assert capsys.readouterr().out == first
    announce(1, "vector crystal figures", t0, 1.0 * 3)


def test_criterion_02_two_letter_crystal_figure(capsys):
    t0 = time.perf_counter()
    data = graph_json(["graph", "--tensor", "2", "-n", "3",
                       "--format", "json"], capsys)
    assert len(data["nodes"]) == 9
    by_id = {node["id"]: tuple(node["payload"]) for node in data["nodes"]}
    edges = {(by_id[e["src"]], e["label"], by_id[e["dst"]])
             for e in data["edges"]}
    expected = {
        ((1, 1), "1", (2, 1)), ((1, 1), "1bar", (1, 2)),
        ((2, 1), "2", (3, 1)), ((2, 1), "1", (2, 2)), ((2, 1), "1bar", (2, 2)),
        ((3, 1), "1", (3, 2)), ((3, 1), "1bar", (3, 2)),
        ((1, 2), "2", (1, 3)),
        ((2, 2), "2", (3, 2)),
        ((3, 2), "2", (3, 3)),
        ((1, 3), "1", (2, 3)), ((1, 3), "1bar", (2, 3)),
    }
    assert edges == expected
    announce(2, "9-node two-letter crystal figure", t0, 1.0)


def test_criterion_03_unique_highest_weight_sweep():
    t0 = time.perf_counter()
    for n, lam in SWEEP:
        rep = verify_unique_highest_weight(lam, n)
        assert rep["passed"], (n, lam, rep)
    announce(3, f"unique highest weight over {len(SWEEP)} shapes", t0, 300.0)


def test_criterion_04_decomposition_and_formula_sweep():
    t0 = time.perf_counter()
    for n, lam in SWEEP:
        rep = verify_decomposition(lam, n)
        assert rep["passed"], (n, lam, rep)
        rep = verify_highest_weight_formula(lam, n)
        assert rep["passed"], (n, lam, rep)
    announce(4, f"tensor decomposition over {len(SWEEP)} shapes", t0, 600.0)


def test_criterion_05_reading_independence_sweep():
    t0 = time.perf_counter()
    for n, lam in SWEEP:
        rep = verify_reading_independence(lam, n)
        assert rep["passed"], (n, lam, rep)
    announce(5, "row/column reading independence", t0, None)


def test_criterion_06_conjugated_odd_operator_well_defined():
    t0 = time.perf_counter()
    n = 4
    words_checked = 0
    for length in range(0, 5):
        for w in all_words(n, length):
            results = []
            for rw in ((2, 3, 1, 2), (2, 1, 3, 2)):
                x = weyl_S(rw, w, n)
                x = ebar1(x, n)
                results.append(None if x is None
                               else weyl_S(tuple(reversed(rw)), x, n))
            assert results[0] == results[1], w
            words_checked += 1
    assert words_checked == 1 + 4 + 16 + 64 + 256
    announce(6, "ebar_3 independent of the reduced word", t0, None)


def test_criterion_07_odd_nilpotence():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        for length in range(0, 7):
            for w in all_words(n, length):
                down = fbar1(w, n)
                if down is not None:
                    assert fbar1(down, n) is None, w
                up = ebar1(w, n)
                if up is not None:
                    assert ebar1(up, n) is None, w
    announce(7, "fbar1 and ebar1 square to zero", t0, None)


def test_criterion_08_closed_forms_equal_recursive_rules():
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        for length in range(0, 7):
            for w in all_words(n, length):
                assert fbar1(w, n) == fbar1_recursive(w, n), w
                assert ebar1(w, n) == ebar1_recursive(w, n), w
                for i in range(1, n):
                    assert e_even(i, w, n) == e_even_recursive(i, w, n), (i, w)
                    assert f_even(i, w, n) == f_even_recursive(i, w, n), (i, w)
    announce(8, "signature/fast rules equal recursive rules", t0, None)


def test_criterion_09_defining_relations():
    t0 = time.perf_counter()
    for n, N in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (3, 3),
                 (4, 3)]:
        rep = verify_relations(n, N)
        bad = [r for r in rep["records"] if r["status"] == "fail"]
        assert rep["passed"], (n, N, bad[:3])
    announce(9, "defining relations on tensor powers", t0, 300.0)


def test_criterion_10_odd_comultiplication():
    t0 = time.perf_counter()
    for n in (2, 3):
        rep = verify_comult_odd(n)
        assert rep["passed"], (n, rep)
    announce(10, "odd comultiplication formulas", t0, None)


def test_criterion_11_lattice_residues():
    t0 = time.perf_counter()
    for n, N in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                 (4, 3), (2, 4), (3, 4)]:
        rep = residue_check(n, N)
        bad = [r for r in rep["records"] if r["status"] == "fail"]
        assert rep["passed"], (n, N, bad[:3])
    announce(11, "lattice stability and q=0 residues", t0, 300.0)
