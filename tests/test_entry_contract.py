"""The entry contract's first row: an object of the wrong kind where a
graph, an ops adapter or a vector is expected is refused with a
TypeError, before any work, not with whatever error Python raises
first."""

import pytest

from queercrystals import (closure, highest_weight_nodes, isomorphic, tensor,
                           vector_crystal)
from queercrystals.graphs import (build_graph, components, graph_components,
                                  validate)
from queercrystals.qrep.action import act_on_tensor
from queercrystals.qrep.kashiwara import tilde_e, tilde_k1
from queercrystals.serialize import graph_to_dot, graph_to_json

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
], ids=["graph_to_json", "graph_to_dot", "tensor", "tensor-right",
        "isomorphic", "isomorphic-second", "graph_components",
        "highest_weight_nodes", "tilde_e", "tilde_k1", "act_on_tensor",
        "validate", "closure", "components", "build_graph"])
def test_an_object_of_the_wrong_kind_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()
