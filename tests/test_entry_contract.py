"""The entry contract's first two rows: an object of the wrong kind
where a graph, an ops adapter, a vector, a shape or a tableau is expected
is refused with a TypeError, and a rank that fails ``check_rank`` or a
letter out of range with a ValueError, before any work, not with whatever
error Python raises first or with an empty result."""

import pytest

from queercrystals import (WordOps, closure, highest_weight_nodes,
                           isomorphic, tensor, vector_crystal)
from queercrystals.graphs import (build_graph, components, graph_components,
                                  validate)
from queercrystals.qrep.action import act_on_tensor
from queercrystals.qrep.checks import comult_formulas, relations_catalogue
from queercrystals.qrep.kashiwara import tilde_e, tilde_k1
from queercrystals.serialize import graph_to_dot, graph_to_json
from queercrystals.tableaux import (Tableau, TableauOps, enumerate_ssyt,
                                    is_semistandard, reading_word,
                                    shape_from_partition, tableau_json,
                                    tableau_operator)
from queercrystals.theorems import highest_weight_formula_side

T = ((1, 0),)
W = b"\x02"  # the word 2


@pytest.mark.parametrize("call", [
    lambda: graph_to_json(5),
    lambda: graph_to_dot("graph"),
    lambda: tensor(1, 2),
    lambda: tensor(vector_crystal(2), {}),
    lambda: isomorphic(1, 2),
    lambda: isomorphic(vector_crystal(2), None),
    lambda: graph_components(5),
    lambda: highest_weight_nodes([]),
    lambda: tilde_e(1, [T], 2),
    lambda: tilde_k1((T,), 2),
    lambda: act_on_tensor(("f", 1), [T], 2),
    lambda: validate(5),
    lambda: closure(5, W),
    lambda: components(vector_crystal(2).nodes, [W]),
    lambda: build_graph(None, [W]),
    lambda: TableauOps(5, 2),
    lambda: enumerate_ssyt(5, 2),
    lambda: is_semistandard(5, (1,)),
    lambda: reading_word(5),
    lambda: tableau_json(5),
    lambda: tableau_operator("e", 1, 5, 2),
    lambda: highest_weight_formula_side((2, 1), 3, None),
], ids=["graph_to_json", "graph_to_dot", "tensor", "tensor-right",
        "isomorphic", "isomorphic-second", "graph_components",
        "highest_weight_nodes", "tilde_e", "tilde_k1", "act_on_tensor",
        "validate", "closure", "components", "build_graph", "TableauOps",
        "enumerate_ssyt", "is_semistandard", "reading_word", "tableau_json",
        "tableau_operator", "highest_weight_formula_side"])
def test_an_object_of_the_wrong_kind_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: enumerate_ssyt(shape_from_partition((2, 1)), 0),
    lambda: enumerate_ssyt(shape_from_partition((2, 1)), "x"),
    lambda: TableauOps(shape_from_partition((2, 1)), "x"),
], ids=["enumerate_ssyt-0", "enumerate_ssyt-str", "TableauOps-str"])
def test_a_tableau_rank_that_fails_check_rank_is_a_value_error(call):
    with pytest.raises(ValueError, match="rank must be"):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: closure(TableauOps(shape_from_partition((2, 1)), 3), W),
     TypeError, "not a word adapter"),
    (lambda: closure(vector_crystal(3), 0), TypeError, "not a word adapter"),
    (lambda: reading_word(Tableau(5, (1,))), TypeError, "not a SkewShape"),
    (lambda: tableau_json(Tableau(5, (1,))), TypeError, "not a SkewShape"),
    (lambda: closure(WordOps(2), b"\x00"), ValueError, "letter 0"),
    (lambda: closure(WordOps(2), b"\x03"), ValueError, "letter 3"),
    (lambda: WordOps(300), ValueError, "rank must be"),
    (lambda: relations_catalogue(2.0), ValueError, "rank must be"),
    (lambda: comult_formulas("3"), ValueError, "rank must be"),
    (lambda: comult_formulas(1), ValueError, "rank >= 2"),
], ids=["closure-TableauOps", "closure-graph", "reading_word-shape",
        "tableau_json-shape", "closure-letter-0", "closure-letter-3",
        "WordOps-300", "relations_catalogue-float", "comult_formulas-str",
        "comult_formulas-1"])
def test_a_word_adapter_seed_tableau_shape_and_catalogue_rank_are_checked(
        call, error, message):
    with pytest.raises(error, match=message):
        call()
