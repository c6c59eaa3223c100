"""Decomposition, highest-weight formula, reading independence, conjecture."""

from itertools import product

import pytest

from queercrystals import (crystal_of_shape, decompose_product,
                           explore_conjecture, strict_successors,
                           tensor_power_graph, vector_crystal,
                           verify_decomposition,
                           verify_highest_weight_formula,
                           verify_reading_independence,
                           verify_unique_highest_weight)
from queercrystals import kernel, tableaux, theorems
from queercrystals.errors import StructureError, VerificationError
from queercrystals.graphs import CrystalGraph, all_labels
from queercrystals.reports import check, report
from queercrystals.tableaux import strict_partitions
from queercrystals.theorems import highest_weight_formula_side


def test_strict_successors():
    assert strict_successors((1,), 3) == [(1, (2,))]
    assert strict_successors((2,), 3) == [(1, (3,)), (2, (2, 1))]
    assert strict_successors((2, 1), 3) == [(1, (3, 1))]
    assert strict_successors((3, 2, 1), 3) == [(1, (4, 2, 1))]
    assert strict_successors((2, 1), 2) == [(1, (3, 1))]


def test_decompose_vector_times_single_box():
    pieces = decompose_product(vector_crystal(3), crystal_of_shape((1,), 3))
    assert [(mu, len(g)) for mu, g in pieces] == [((2,), 9)]


def test_decompose_two_summands():
    pieces = decompose_product(vector_crystal(3), crystal_of_shape((2,), 3))
    assert sorted((mu, len(g)) for mu, g in pieces) == \
        [((2, 1), 8), ((3,), 19)]


def test_decompose_staircases():
    for n, lam in ((2, (2, 1)), (3, (3, 2, 1))):
        pieces = decompose_product(vector_crystal(n),
                                   crystal_of_shape(lam, n))
        expected = sorted(mu for _, mu in strict_successors(lam, n))
        assert sorted(mu for mu, _ in pieces) == expected


def test_decompose_with_the_letter_factor_on_the_right():
    """B(lam) (x) B splits into the same summands as B (x) B(lam)."""
    for n in (2, 3):
        for lam in strict_partitions(4, n):
            pieces = decompose_product(crystal_of_shape(lam, n),
                                       vector_crystal(n))
            expected = sorted(mu for _, mu in strict_successors(lam, n))
            assert sorted(mu for mu, _ in pieces) == expected, (n, lam)


def test_decompose_accepts_disconnected_factors():
    g = tensor_power_graph(2, 2)
    pieces = decompose_product(g, vector_crystal(2))
    assert sorted(mu for mu, _ in pieces) == [(2, 1), (3,)]


def test_decompose_flags_a_component_without_strict_highest_weight():
    from queercrystals.graphs import CrystalGraph
    # an isolated node of weight (1,1) is a legal graph but not a crystal
    # of the theory; its square has highest weight (2,2), which is caught
    fake = CrystalGraph(n=2, kind="word", nodes=(bytes([1, 2]),),
                        weights=((1, 1),), arrows=((-1,), (-1,)))
    with pytest.raises(VerificationError):
        decompose_product(fake, fake)


def test_a_component_unlike_its_model_is_a_failed_record(monkeypatch):
    monkeypatch.setattr(theorems, "isomorphic", lambda g1, g2: None)
    rep = verify_decomposition((2, 1), 3)
    assert rep["passed"] is False
    (failed,) = rep["records"]
    assert failed["check"] == "decomposition"
    assert failed["status"] == "fail"
    assert "does not match its model" in failed["witness"]["error"]


def test_a_component_with_two_highest_weights_is_a_failed_record(monkeypatch):
    monkeypatch.setattr(theorems, "highest_weight_nodes",
                        lambda graph: list(graph.nodes[:2]))
    rep = verify_decomposition((2, 1), 3)
    assert rep["passed"] is False
    assert rep["records"] == [{
        "check": "decomposition", "instance": "n=3 lam=(2, 1)",
        "status": "fail",
        "witness": {"error": "component with 2 highest-weight nodes"}}]


def test_a_formula_that_cannot_be_formed_is_a_failed_record(monkeypatch):
    def vanishing(parts, n, graph):
        raise VerificationError("f_1 vanished while forming the formula")

    monkeypatch.setattr(theorems, "highest_weight_formula_side", vanishing)
    rep = verify_highest_weight_formula((2, 1), 3)
    assert rep["passed"] is False
    assert rep["records"] == [{
        "check": "highest-weight-formula", "instance": "n=3 lam=(2, 1)",
        "status": "fail",
        "witness": {"error": "f_1 vanished while forming the formula"}}]


def test_a_formula_that_names_the_wrong_node_is_a_failed_record(monkeypatch):
    """The j = 1 side moved to 2 (x) b_lam: the witness lists the node the
    formula names but the product lacks as highest, and the one it misses."""
    real = theorems.highest_weight_formula_side

    def moved(parts, n, graph):
        side = real(parts, n, graph)
        side[1] = (bytes([2]), side[1][1])
        return side

    monkeypatch.setattr(theorems, "highest_weight_formula_side", moved)
    rep = verify_highest_weight_formula((2,), 2)
    assert rep["passed"] is False
    assert rep["records"] == [{
        "check": "highest-weight-formula", "instance": "n=2 lam=(2,)",
        "status": "fail",
        "witness": {"missing": [{"letter": 2, "weight": [2, 1]}],
                    "extra": [{"letter": 1, "weight": [3, 0]}]}}]


def test_a_vanishing_f_i_in_the_formula_side_raises():
    """A graph holding b_lam with no arrows: f_1 b_lam vanishes for j = 2."""
    top = tableaux.b_lambda((2,), 3)
    graph = CrystalGraph(n=3, kind="tableau", nodes=(top,),
                         weights=(top.weight(3),),
                         arrows=tuple((-1,) for _ in all_labels(3)))
    with pytest.raises(VerificationError, match="f_1 vanished .* j=2"):
        highest_weight_formula_side((2,), 3, graph)


def test_highest_weight_formula_examples():
    side = highest_weight_formula_side((1,), 3, crystal_of_shape((1,), 3))
    assert list(side) == [1]
    rep = verify_highest_weight_formula((1,), 3)
    assert rep["passed"] and rep["count_actual"] == 1
    rep = verify_highest_weight_formula((2,), 2)
    assert rep["passed"] and rep["count_actual"] == 2
    rep = verify_highest_weight_formula((2, 1), 2)
    assert rep["passed"] and rep["count_actual"] == 1


def test_unique_highest_weight_small_sweep():
    for n in (2, 3):
        for lam in strict_partitions(5, n):
            rep = verify_unique_highest_weight(lam, n)
            assert rep["passed"], rep


def test_decomposition_small_sweep():
    for n in (2, 3):
        for lam in strict_partitions(4, n):
            rep = verify_decomposition(lam, n)
            assert rep["passed"], rep
            rep = verify_highest_weight_formula(lam, n)
            assert rep["passed"], rep


def test_reading_independence_small_sweep():
    for n in (2, 3):
        for lam in strict_partitions(5, n):
            assert verify_reading_independence(lam, n)["passed"]


def test_a_reading_that_is_not_admissible_fails_with_a_witness(
        monkeypatch, fresh_shape_crystals):
    # reversing the row reading is not admissible: on lam = (2) the two
    # boxes swap roles, and f_1 lowers the other box of the first filling
    real = tableaux.reading_order

    def reversed_column(boxes, reading):
        order = real(boxes, "row")
        return order[::-1] if reading == "col" else order

    monkeypatch.setattr(tableaux, "reading_order", reversed_column)
    rep = verify_reading_independence((2,), 2)
    assert rep["passed"] is False
    (rec,) = rep["records"]
    assert rec["status"] == "fail"
    assert rec["witness"] == {"tableau": [1, 1], "op": "f_1"}


@pytest.mark.parametrize("lam", [(3, 1), (3, 2, 1)])
def test_reading_independence_scans_each_distinct_word_once(
        monkeypatch, fresh_shape_crystals, lam):
    # one kernel.edits scan per word gives all 2n operators' positions; the
    # column word is scanned only when it is not the row word.  On (3, 1)
    # the two readings are one order, on (3, 2, 1) every filling's words
    # differ
    calls = []
    real = kernel.edits

    def counting(w, n):
        calls.append(w)
        return real(w, n)

    monkeypatch.setattr(kernel, "edits", counting)
    n = 3
    assert verify_reading_independence(lam, n)["passed"]
    fillings = tableaux.enumerate_ssyt(tableaux.shape_from_partition(lam, n), n)
    rows = [tableaux.reading_word(t) for t in fillings]
    columns = [tableaux.reading_word(t, "col") for t in fillings]
    words = rows + [c for r, c in zip(rows, columns) if c != r]
    expected = {(3, 1): len(fillings), (3, 2, 1): 2 * len(fillings)}[lam]
    assert len(calls) == len(words) == expected
    assert sorted(calls) == sorted(words)


def two_scan_reading_independence(parts, n):
    """Reading independence with two scans per filling, each reading's
    positions mapped to boxes, operator by operator.  The
    fillings come from every word of the right length that is
    semistandard, in lexicographic order, not from the library's
    enumerator."""
    parts = tableaux.check_strict_partition(parts, n)
    instance = f"n={n} lam={parts}"
    shape = tableaux.shape_from_partition(parts, n)
    row_ops = tableaux.TableauOps(shape, n, "row")
    col_ops = tableaux.TableauOps(shape, n, "col")
    down_letters, up_letters = kernel.edit_letters(n)
    operators = []
    for i in range(1, n):
        operators.append((f"f_{i}", 0, i - 1, down_letters[i - 1]))
        operators.append((f"e_{i}", 1, i - 1, up_letters[i - 1]))
    if n >= 2:
        operators.append(("fbar1", 0, n - 1, down_letters[n - 1]))
        operators.append(("ebar1", 1, n - 1, up_letters[n - 1]))
    row_box = row_ops.order + (-1,)
    col_box = col_ops.order + (-1,)
    fits = row_ops.keeps_semistandard
    mismatch = None
    for entries in product(range(1, n + 1), repeat=len(shape.boxes)):
        if not tableaux.is_semistandard(shape, entries):
            continue
        t = tableaux.Tableau(shape=shape, entries=entries)
        row_word = row_ops.encode(t)
        col_word = col_ops.encode(t)
        row_edits = kernel.edits(row_word, n)
        col_edits = kernel.edits(col_word, n)
        for name, side, k, letter in operators:
            p = row_edits[side][k]
            q = col_edits[side][k]
            x = row_box[p]
            y = col_box[q]
            if x >= 0 and not fits(entries, x, letter):
                row_ops.decode(kernel._put(row_word, p, letter))
            if y != x and y >= 0 and not fits(entries, y, letter):
                col_ops.decode(kernel._put(col_word, q, letter))
            if x != y:
                mismatch = {"tableau": list(entries), "op": name}
                break
        if mismatch:
            break
    records = [check("reading-independence", instance, mismatch is None,
                     mismatch)]
    return report(records, instance=instance)


def outcome(verify, lam, n):
    try:
        return "report", verify(lam, n)
    except StructureError as exc:
        return "raises", str(exc)


@pytest.mark.parametrize("admissible", [True, False])
def test_reading_independence_equals_the_two_scan_check(
        monkeypatch, fresh_shape_crystals, admissible):
    # the reversed row reading is not admissible: on most shapes it gives
    # a witness or a non-semistandard result, and both checks must report
    # the same one
    if not admissible:
        real = tableaux.reading_order

        def reversed_column(boxes, reading):
            order = real(boxes, "row")
            return order[::-1] if reading == "col" else order

        monkeypatch.setattr(tableaux, "reading_order", reversed_column)
    instances = [(lam, n) for n in (1, 2, 3, 4)
                 for lam in strict_partitions(6, n)]
    if admissible:
        # the sweep shapes of size 7 and 8 whose two orders differ, where
        # the loop compares column boxes
        instances += [(lam, n) for n in (3, 4)
                      for lam in ((4, 2, 1), (4, 3, 1), (5, 2, 1))]
    failed = 0
    for lam, n in instances:
        got = outcome(verify_reading_independence, lam, n)
        assert got == outcome(two_scan_reading_independence, lam, n), (n, lam)
        failed += got[0] == "raises" or not got[1]["passed"]
    assert (failed == 0) == admissible


def column_words_of(lam, n):
    # on lam = (3, 2, 1) no column word is also a row word, so breaking a
    # result on column words alone leaves every row result as it was
    fillings = tableaux.enumerate_ssyt(tableaux.shape_from_partition(lam, n), n)
    column_words = {tableaux.reading_word(t, "col") for t in fillings}
    assert not column_words & {tableaux.reading_word(t) for t in fillings}
    return fillings, column_words


@pytest.mark.parametrize("op", ["f_1", "e_1", "f_2", "e_2", "fbar1", "ebar1"])
def test_a_changed_result_of_each_operator_is_reported_by_name(
        monkeypatch, fresh_shape_crystals, op):
    # on column words, one operator's result flips between the crystal zero
    # and the (semistandard) word itself, an edit that writes the letter
    # already there, so it differs on every filling
    n, lam = 3, (3, 2, 1)
    fillings, column_words = column_words_of(lam, n)
    side = 0 if op[0] == "f" else 1
    k = n - 1 if op.endswith("bar1") else int(op[-1]) - 1
    letter = kernel.edit_letters(n)[side][k]
    real = kernel.edits

    def edits(w, n):
        positions = real(w, n)
        if w in column_words:
            row = list(positions[side])
            row[k] = w.index(letter) if row[k] < 0 else -1
            positions = list(positions)
            positions[side] = row
        return tuple(positions)

    monkeypatch.setattr(kernel, "edits", edits)
    rep = verify_reading_independence(lam, n)
    assert rep["passed"] is False
    (rec,) = rep["records"]
    assert rec["witness"] == {"tableau": list(fillings[0].entries), "op": op}


@pytest.mark.parametrize("broken", ["every word", "column words"])
def test_a_non_semistandard_result_raises_under_either_reading(
        monkeypatch, fresh_shape_crystals, broken):
    # every even lowering operator edits the first letter of the word, the
    # top box of the three-box column under both readings, which must
    # hold 1
    n, lam = 3, (3, 2, 1)
    _, column_words = column_words_of(lam, n)
    real = kernel.edits

    def edits(w, n):
        down, up = real(w, n)
        if broken == "every word" or w in column_words:
            down = [0] * (n - 1) + down[n - 1:]
        return down, up

    monkeypatch.setattr(kernel, "edits", edits)
    with pytest.raises(StructureError):
        verify_reading_independence(lam, n)


@pytest.mark.parametrize("side", ["lowering", "raising"])
def test_a_non_semistandard_result_raises_where_the_readings_agree(
        monkeypatch, fresh_shape_crystals, side):
    # on lam = (3, 1) the two readings are one order, so each filling is
    # scanned once and no operator's results can differ: only the
    # semistandard check of each result can fail.  Reading position 0 is
    # the top of the two-box column and position 1 its bottom; every even
    # lowering operator writing i + 1 at the top, or every even raising
    # operator writing i at the bottom, breaks that column
    n, lam = 3, (3, 1)
    boxes = tableaux.shape_from_partition(lam, n).boxes
    assert tableaux.reading_order(boxes, "row") == \
        tableaux.reading_order(boxes, "col")
    real = kernel.edits

    def edits(w, n):
        down, up = real(w, n)
        if side == "lowering":
            down = [0] * (n - 1) + down[n - 1:]
        else:
            up = [1] * (n - 1) + up[n - 1:]
        return down, up

    monkeypatch.setattr(kernel, "edits", edits)
    with pytest.raises(StructureError, match="non-semistandard"):
        verify_reading_independence(lam, n)


def test_conjecture_reports_are_descriptive():
    rep = explore_conjecture((1,), 2)
    assert rep["passed"]
    assert all(v["found"] for v in rep["highest_weight_vectors"])
    rep = explore_conjecture((1,), 3)
    assert len(rep["highest_weight_vectors"]) >= 1


def test_conjecture_with_empty_budget_marks_not_found():
    rep = explore_conjecture((2,), 2, max_depth=0)
    vecs = rep["highest_weight_vectors"]
    assert len(vecs) == 2
    assert sorted(v["found"] for v in vecs) == [False, True]
    full = explore_conjecture((2,), 2)
    assert all(v["found"] for v in full["highest_weight_vectors"])


@pytest.mark.parametrize("max_depth", [1.5, "1", 2.0, True])
def test_a_conjecture_depth_that_is_not_an_integer_is_refused(max_depth):
    # 1.5 used to be accepted and reported as "max_depth": 1.5
    with pytest.raises(ValueError, match="max_depth must be an integer"):
        explore_conjecture((2, 1), 3, max_depth=max_depth)
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        explore_conjecture((2, 1), 3, max_depth=-1)
