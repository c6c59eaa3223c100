"""Relation catalogue, odd comultiplication, residue checks (small sizes)."""

import gc
import re
import weakref

import pytest

from queercrystals import CrystalGraph, tensor_power_graph
from queercrystals.graphs import ODD, all_labels
from queercrystals.qrep import checks, kashiwara
from queercrystals.qrep.action import (Operator, basis, compose, expr_sum,
                                       identity_expr, op, unit, vec_add,
                                       vec_scale)
from queercrystals.qrep.checks import (comult_formulas, relations_catalogue,
                                       residue_check, verify_comult_odd,
                                       verify_relations)
from queercrystals.qrep.laurent import ONE, Q, RatFunc
from queercrystals.reports import check, passed, record


def _failures(rep):
    return [r for r in rep["records"] if r["status"] == "fail"]


def test_catalogue_covers_the_relation_families():
    names = [name for name, _, _ in relations_catalogue(3)]
    for family in ("qh-additivity", "qh-e-commutation", "qh-f-commutation",
                   "qh-kbar-commute", "e-f-commutator", "e-serre", "f-serre",
                   "kbar-squared", "kbar-anticommute", "kbar-e-twist",
                   "kbar-f-twist", "e-fbar-commutator", "ebar-f-commutator",
                   "e-ebar-commute", "f-fbar-commute", "e-braid-odd",
                   "f-braid-odd", "e-serre-odd", "f-serre-odd"):
        assert any(family in nm for nm in names), family
    names4 = [name for name, _, _ in relations_catalogue(4)]
    assert any("e-e-distant-commute" in nm for nm in names4)


def test_catalogue_names_are_unique():
    for n in range(1, 5):
        names = [name for name, _, _ in relations_catalogue(n)]
        assert len(names) == len(set(names)), n
    assert [name for name, _, _ in relations_catalogue(1)] == [
        "qh-additivity h1=(1,) h2=(1,)", "qh-kbar-commute j=1",
        "kbar-squared i=1"]


def test_relations_hold_on_v():
    rep = verify_relations(2, 1)
    assert rep["passed"], _failures(rep)


def test_relations_hold_on_v_squared():
    rep = verify_relations(2, 2)
    assert rep["passed"], _failures(rep)


def _paper_right_side(name: str, t) -> dict:
    """The paper's right side of [e_i, f_j] or kbar_i^2 on the basis tensor
    t, with its scalars 1/(q - q^-1) and 1/(q^2 - q^-2) as RatFunc."""
    index = {k: int(v) for k, v in re.findall(r"(i|j)=(\d+)", name)}
    letters = [j for j, _ in t]
    i = index["i"]
    if name.startswith("e-f-commutator"):
        if i != index["j"]:
            return {}
        k, denominator = letters.count(i) - letters.count(i + 1), Q - ONE / Q
    else:
        k, denominator = 2 * letters.count(i), Q * Q - ONE / (Q * Q)
    c = (RatFunc.q_power(k) - RatFunc.q_power(-k)) / denominator
    return {t: c} if c else {}


@pytest.mark.parametrize("n, N", [(2, 2), (3, 2)])
def test_the_rescaled_relations_equal_the_papers_form(n, N):
    """[e_i, f_j] and kbar_i^2 are checked multiplied through by
    q - q^-1 and q^2 - q^-2; divided back, the view of each left side is
    the paper's right side on every basis tensor."""
    factors = {"e-f-commutator": ONE / (Q - ONE / Q),
               "kbar-squared": ONE / (Q * Q - ONE / (Q * Q))}
    checked = 0
    for name, lhs, _ in relations_catalogue(n):
        factor = factors.get(name.split(" ")[0])
        if factor is None:
            continue
        for t in basis(n, N):
            assert vec_scale(factor, lhs.view(t)) == _paper_right_side(
                name, t), (name, t)
        checked += 1
    assert checked == (n - 1) ** 2 + n


def test_relation_filter():
    rep = verify_relations(2, 1, which="kbar-squared")
    assert rep["passed"] and len(rep["records"]) == 2


def test_a_report_without_records_fails():
    assert not passed([])
    assert passed([record("x", "y", "pass")])
    assert not passed([record("x", "y", "pass"), record("x", "z", "fail")])
    rep = verify_relations(2, 1, which="no-such-relation")
    assert rep["records"] == [] and rep["passed"] is False


def test_a_record_carries_a_witness_only_on_a_failure():
    assert check("x", "y", True, {"w": 1}) == record("x", "y", "pass")
    assert check("x", "y", False, {"w": 1}) == record("x", "y", "fail",
                                                      {"w": 1})
    assert check("x", "y", False) == record("x", "y", "fail")


def test_commutators_vanish_off_the_diagonal():
    """[e_i, f_j], [e_i, fbar_j] and [ebar_i, f_j] at rank 3, the last two
    interleaved at each (i, j); i != j takes the zero right side."""
    rep = verify_relations(3, 1, which="commutator")
    assert rep["passed"], _failures(rep)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [r["instance"] for r in rep["records"]] == [
        f"n=3 N=1 e-f-commutator i={i} j={j}" for i, j in pairs] + [
        f"n=3 N=1 {name} i={i} j={j}" for i, j in pairs
        for name in ("e-fbar-commutator", "ebar-f-commutator")]


@pytest.mark.parametrize("n, swap, family, failing", [
    (3, {("ebar", 1): ("f", 1), ("ebar", 2): ("f", 2)}, "e-ebar-commute",
     ["i=1", "i=2"]),
    (3, {("fbar", 1): ("e", 1), ("fbar", 2): ("e", 2)}, "f-fbar-commute",
     ["i=1", "i=2"]),
    (4, {("e", 3): ("f", 1)}, "e-e-distant-commute",
     ["i=1 j=3", "i=3 j=1"]),
    (4, {("f", 3): ("e", 1)}, "f-f-distant-commute",
     ["i=1 j=3", "i=3 j=1"]),
    (2, {("kbar", 1): ("e", 1), ("kbar", 2): ("e", 1)}, "qh-kbar-commute",
     ["j=1", "j=2"]),
])
def test_each_commuting_family_fails_on_a_pair_that_does_not_commute(
        monkeypatch, n, swap, family, failing):
    """A generator swapped for one it does not commute with fails every
    relation of the family, so neither side of a commuting relation is
    the other side repeated."""
    real = checks.generator_expr
    monkeypatch.setattr(checks, "generator_expr",
                        lambda g, n: real(swap.get(g, g), n))
    rep = verify_relations(n, 1, which=family)
    assert [r["instance"] for r in _failures(rep)] == [
        f"n={n} N=1 {family} {at}" for at in failing]
    assert len(rep["records"]) == len(failing)


def test_a_false_relation_fails_with_a_witness(monkeypatch):
    """q^{k_1} e_1 = e_1 q^{k_1} drops the factor q of the true relation."""
    qk1, e1 = op(("qh", (1, 0))), op(("e", 1))
    false = ("false qh-e", compose(qk1, e1), compose(e1, qk1))
    monkeypatch.setattr(checks, "relations_catalogue",
                        lambda n: relations_catalogue(n) + [false])
    rep = verify_relations(2, 1)
    assert rep["passed"] is False
    failed = _failures(rep)
    assert [r["instance"] for r in failed] == ["n=2 N=1 false qh-e"]
    # first on v_2: q^{k_1} e_1 v_2 = q v_1 but e_1 q^{k_1} v_2 = v_1
    assert failed[0]["witness"] == {"tensor": "((2, 0),)",
                                    "component": "((1, 0),)",
                                    "coefficient": "q - 1"}


def test_the_witness_component_is_the_least_differing_tensor(monkeypatch):
    """f_1 = 0 is false; its column at v_1 (x) v_1 is built starting from
    the first factor, so v_2 (x) v_1 is summed before v_1 (x) v_2."""
    false = ("false f-zero", op(("f", 1)), expr_sum())
    monkeypatch.setattr(checks, "relations_catalogue",
                        lambda n: relations_catalogue(n) + [false])
    (failed,) = _failures(verify_relations(2, 2))
    assert failed["witness"] == {"tensor": "((1, 0), (1, 0))",
                                 "component": "((1, 0), (2, 0))",
                                 "coefficient": "q"}


def test_each_relation_is_released_once_checked(monkeypatch):
    """The first relation's operator, with its cached columns, is collected
    before the last relation is evaluated: one collection, at the last
    relation's first column."""
    first_lhs, alive_at_last = [], []

    def last_column(t):
        if not alive_at_last:
            gc.collect()
            alive_at_last.append(first_lhs[0]() is not None)
        return identity_expr()[t]

    def catalogue(n):
        lhs = op(("f", 1))
        first_lhs.append(weakref.ref(lhs))
        return [("first", lhs, op(("f", 1))),
                ("middle", identity_expr(), identity_expr()),
                ("last", Operator(last_column), identity_expr())]

    monkeypatch.setattr(checks, "relations_catalogue", catalogue)
    rep = verify_relations(2, 2)
    assert rep["passed"], _failures(rep)
    assert alive_at_last == [False]


def test_a_comultiplication_without_the_super_sign_fails(monkeypatch):
    """Dropping the odd flag of 1 (x) ktilde_1 loses the sign on an odd x."""
    def unsigned(n):
        formulas = comult_formulas(n)
        name, whole, terms = formulas[0]
        terms = [(a, b, 0) for a, b, _ in terms]
        return [(name, whole, terms)] + formulas[1:]

    monkeypatch.setattr(checks, "comult_formulas", unsigned)
    rep = verify_comult_odd(2)
    assert rep["passed"] is False
    (failed,) = _failures(rep)
    assert failed["instance"] == "n=2 ktilde1"
    # first at x = vbar_1 (odd), y = v_1: the signed term -vbar_1 (x) vbar_1
    # and the unsigned one differ by twice that
    assert failed["witness"] == {"tensor": "((1, 1), (1, 0))",
                                 "component": "((1, 1), (1, 1))",
                                 "coefficient": "-2"}


@pytest.mark.parametrize("which", [1, b"kbar", ["kbar"]])
def test_a_relation_filter_that_is_not_a_string_is_refused(which):
    # an int used to end in a TypeError from `in`
    with pytest.raises(ValueError, match="which must be a string or None"):
        verify_relations(2, 1, which=which)


def test_comultiplication_of_odd_operators():
    for n in (2, 3):
        rep = verify_comult_odd(n)
        assert rep["passed"], _failures(rep)
        assert len(rep["records"]) == 3


def test_residue_reproduces_the_letter_crystal():
    rep = residue_check(3, 1)
    assert rep["passed"], _failures(rep)
    eq = [r for r in rep["records"] if r["check"] == "residue-graph-equality"]
    assert eq and eq[0]["status"] == "pass"


def test_residue_on_the_two_fold_tensor():
    rep = residue_check(2, 2)
    assert rep["passed"], _failures(rep)
    nil = [r for r in rep["records"] if r["check"].endswith("squared-zero")]
    assert len(nil) == 2 and all(r["status"] == "pass" for r in nil)


def test_the_residue_arrows_are_read_from_the_stored_word_crystal(
        monkeypatch):
    """With the fbar1 arrows of the (2, 1) crystal removed, the residues of
    fbar1 on [1] and of ebar1 on [2], which land where the true arrow
    points, fail as residues that should vanish; no other record fails."""
    real = tensor_power_graph(2, 1)
    arrows = tuple((-1,) * len(real) if lab == ODD else succ
                   for lab, succ in zip(all_labels(2), real.arrows))
    broken = CrystalGraph(n=2, kind=real.kind, nodes=real.nodes,
                          weights=real.weights, arrows=arrows)
    monkeypatch.setattr(checks, "tensor_power_graph", lambda n, N: broken)
    rep = residue_check(2, 1)
    assert [(r["check"], r["instance"], r["witness"])
            for r in _failures(rep)] == [
        ("residue-vanishes", "n=2 N=1 b=[1] op=fbar1", {"support": [[2]]}),
        ("residue-vanishes", "n=2 N=1 b=[2] op=ebar1", {"support": [[1]]})]


def test_three_fold_tensor_depth():
    """The coproduct recursion and string solves hold one level deeper."""
    rep = verify_relations(2, 3, which="kbar")
    assert rep["passed"], _failures(rep)
    rep = residue_check(2, 3)
    assert rep["passed"], _failures(rep)


def polar(v, *_):
    """Every tensor of v with the coefficient 1/q, which has a pole at 0."""
    return {t: ONE / Q for t in v}


def test_a_residue_with_a_pole_fails_lattice_stability(monkeypatch):
    """Every class tensor c's raised numerator made D / q on c, so that
    its column is {c: 1/q}: the residue check reads the class residues
    off the numerators, so e_1 fails on both patterns."""
    real = kashiwara._string_basis

    def polar_raised(m, a):
        basis = real(m, a)
        d = basis.denominator
        raised = {c: {(c, k - 1): x for k, x in enumerate(d) if x}
                  for c in basis.raised}
        return basis._replace(raised=raised, raised_at_zero={
            c: kashiwara._numerator_at_zero(col, d)
            for c, col in raised.items()})

    monkeypatch.setattr(kashiwara, "_string_basis", polar_raised)
    rep = residue_check(2, 1)
    assert rep["passed"] is False
    failed = [r for r in _failures(rep) if r["check"] == "lattice-stability"]
    assert [r["instance"] for r in failed] == ["n=2 N=1 b=[1] op=e-1",
                                               "n=2 N=1 b=[2] op=e-1"]
    assert failed[0]["witness"] == {"tensor": "((1, 0),)",
                                    "component": "((1, 0),)",
                                    "coefficient": "(1)/(q)"}


def test_a_ktilde1_with_a_pole_fails_on_every_pattern(monkeypatch):
    monkeypatch.setattr(checks, "tilde_k1", polar)
    rep = residue_check(2, 1)
    assert rep["passed"] is False
    failed = _failures(rep)
    assert [(r["check"], r["instance"]) for r in failed] == [
        ("ktilde1-lattice", "n=2 N=1 b=[1]"),
        ("ktilde1-lattice", "n=2 N=1 b=[2]")]
    assert failed[1]["witness"] == {"tensor": "((2, 0),)",
                                    "component": "((2, 0),)",
                                    "coefficient": "(1)/(q)"}


def test_an_identity_ebar1_fails_its_arrows_and_nilpotence(monkeypatch):
    monkeypatch.setattr(checks, "tilde_ebar1", lambda v, n: v)
    rep = residue_check(2, 1)
    assert rep["passed"] is False
    failed = {r["check"]: r for r in _failures(rep)}
    assert sorted(failed) == ["residue-graph-equality", "residue-target",
                              "residue-vanishes", "tilde-ebar1-squared-zero"]
    assert failed["residue-vanishes"]["witness"] == {"support": [[1]]}
    assert failed["residue-target"]["witness"] == {"support": [[2]],
                                                   "expected": [1]}
    assert failed["tilde-ebar1-squared-zero"]["witness"] == {
        "tensor": "((1, 0),)", "component": "((1, 0),)", "value": "1"}


def test_a_squared_fbar1_with_a_pole_fails_nilpotence(monkeypatch):
    monkeypatch.setattr(checks, "tilde_fbar1", polar)
    rep = residue_check(2, 1)
    assert rep["passed"] is False
    (failed,) = [r for r in _failures(rep)
                 if r["check"] == "tilde-fbar1-squared-zero"]
    assert failed["witness"] == {"tensor": "((1, 0),)",
                                 "component": "((1, 0),)",
                                 "coefficient": "(1)/(q)"}


def test_a_vanishing_fbar1_fails_its_arrow(monkeypatch):
    monkeypatch.setattr(checks, "tilde_fbar1", lambda v, n: {})
    rep = residue_check(2, 1)
    assert rep["passed"] is False
    failed = {r["check"]: r for r in _failures(rep)}
    assert sorted(failed) == ["residue-graph-equality", "residue-target"]
    assert failed["residue-target"]["witness"] == {"support": [],
                                                   "expected": [2]}


def test_a_residue_map_that_is_not_invertible_fails(monkeypatch):
    """fbar1 with its bars dropped sends v_1 and vbar_1 onto the line of
    v_2: the target pattern is right, the rank is 1 of 2."""
    real = checks.tilde_fbar1

    def unbarred(v, n):
        out = {}
        for t, c in real(v, n).items():
            vec_add(out, tuple((a, 0) for a, _ in t), c)
        return out

    monkeypatch.setattr(checks, "tilde_fbar1", unbarred)
    rep = residue_check(2, 1)
    assert [(r["check"], r["instance"], r["witness"])
            for r in _failures(rep)] == [
        ("residue-isomorphism", "n=2 N=1 b=[1] op=fbar1",
         {"rank": 1, "expected": 2})]


def test_a_lattice_basis_that_misses_a_tensor_fails(monkeypatch):
    """lattice-dimension compares lattice_basis(b) with the basis tensors
    of pattern b, so a dropped tensor fails, and so does one of another
    pattern in its place, although that keeps the size 2^N."""
    real = checks.lattice_basis

    def swapped(b):
        """The first tensor's first letter swapped for the other one."""
        first, *rest = real(b)
        return rest + [((3 - first[0][0], 0),) + first[1:]]

    for broken in (lambda b: real(b)[1:], swapped):
        monkeypatch.setattr(checks, "lattice_basis", broken)
        rep = residue_check(2, 2)
        failed = [r["instance"] for r in _failures(rep)
                  if r["check"] == "lattice-dimension"]
        assert failed == [f"n=2 N=2 b={b}"
                          for b in ([1, 1], [1, 2], [2, 1], [2, 2])]
