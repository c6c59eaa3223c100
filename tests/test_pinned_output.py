"""DOT and JSON output, and exact-side JSON reports, pinned by digest.

The determinism tests compare two runs of the same code; these digests
were recorded from an earlier revision of the library, so they also
catch a change of output between revisions.  Regenerate them only for a
deliberate change of the output format.
"""

import hashlib

from queercrystals import (crystal_of_shape, full_ssyt_graph, graph_components,
                           tensor, tensor_power_graph, vector_crystal)
from queercrystals.qrep.checks import (residue_check, verify_comult_odd,
                                       verify_relations)
from queercrystals.serialize import graph_to_dot, graph_to_json, report_to_json

# (sha256 of the DOT text, sha256 of the JSON text as the CLI prints it)
PINNED = {
    "tensor_power_graph(3, 3)": (
        "bb8ac61eb27305aef936e67e3e8f52d550df16f59049621b6592158120efa4d9",
        "d1b06c7275ad4abc71491ec2c19311734aae3bea84ba0356e172e34c43363f96"),
    "crystal_of_shape((3, 1), 4, 'row')": (
        "41118fc6a71faa120a30549998b148122cc932fd33eb7fbc03ef476dd0e0d268",
        "a714ff8d35bdb8eb0bf06dd97fb4051402301b659cdbb8c4978f180baf239336"),
    "crystal_of_shape((3, 1), 4, 'col')": (
        "41118fc6a71faa120a30549998b148122cc932fd33eb7fbc03ef476dd0e0d268",
        "a714ff8d35bdb8eb0bf06dd97fb4051402301b659cdbb8c4978f180baf239336"),
    "full_ssyt_graph((2, 1), 3)": (
        "c666649fe57a239d7fcd48b8709b7c792509ac56fd28b6879ba972ec79b7b93a",
        "c2f4d40d225dc5bcf0baea3293c20cdad99d12c872f68e28176671ce6e84a921"),
    "tensor(crystal_of_shape((2, 1), 3), vector_crystal(3))": (
        "55a5ab53145e1e529c8bb6b7c4361264bbf1865e2523dbcda6e508a0ab663a54",
        "76e01b3f099d37e5f83946e6f8d15bbd43c003e3dc38cbc71394c25c65401989"),
    "graph_components(tensor_power_graph(2, 4))[0]": (
        "cbc964b9aff6114c1366b4274e92ebe7e14e2cf0f4da7734a650c32035d11d9c",
        "c6435d5c10ecb8bdc431c2bba39814c67e2e24c2557eb0c460f4d89e65b14bc7"),
    "graph_components(tensor_power_graph(2, 4))[1]": (
        "0977872f82931253431beba4b7ac2562df0409c051ae67fc1382226e6006ce80",
        "7a29bdfd7a2dadfcb64d97671f102dbe2d62526ecd5b505a38d60e50fd4c9b0c"),
    "graph_components(tensor_power_graph(2, 4))[2]": (
        "6e2823a38b49eb9093409493dbe8209f210c1c654ee21e416782afcf2bc0715f",
        "76ca25a432b42356fb1dece96ed7587458faa7ceb5265701e5fa1d6ad54d462e"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_graphs():
    yield "tensor_power_graph(3, 3)", tensor_power_graph(3, 3)
    for reading in ("row", "col"):
        yield (f"crystal_of_shape((3, 1), 4, {reading!r})",
               crystal_of_shape((3, 1), 4, reading))
    yield "full_ssyt_graph((2, 1), 3)", full_ssyt_graph((2, 1), 3)
    yield ("tensor(crystal_of_shape((2, 1), 3), vector_crystal(3))",
           tensor(crystal_of_shape((2, 1), 3), vector_crystal(3)))
    for k, comp in enumerate(graph_components(tensor_power_graph(2, 4))):
        yield f"graph_components(tensor_power_graph(2, 4))[{k}]", comp


def test_dot_and_json_equal_the_pinned_digests():
    got = {name: (sha(graph_to_dot(g)), sha(report_to_json(graph_to_json(g))))
           for name, g in pinned_graphs()}
    assert got == PINNED


# sha256 of report_to_json of each exact-side report, as the CLI prints it
PINNED_REPORTS = {
    "residue_check(2, 2)":
        "5eb1e54aab930b86985c33020026cb6c1a1642251074882e43e340abb50b13be",
    "residue_check(3, 2)":
        "b0a98b3b3a56da0109679ecc4049f3330995203144271f5d434d90c1ded774b1",
    "residue_check(2, 3)":
        "455bd25a22e2b3795a178b8f567740e8e850f75b23dddad3fa8bc702e62276ec",
    "verify_relations(3, 2)":
        "6eb9ce93c2d3e456d195bbecbb5ebb106f95c9db6bba58b9e15a1339b1a59f22",
    "verify_comult_odd(2)":
        "f7fdf2af6e832adca92e856009f003aebd1927cec96b32d6ff5ab5c70dcaa08d",
}


def pinned_reports():
    for n, N in ((2, 2), (3, 2), (2, 3)):
        yield f"residue_check({n}, {N})", residue_check(n, N)
    yield "verify_relations(3, 2)", verify_relations(3, 2)
    yield "verify_comult_odd(2)", verify_comult_odd(2)


def test_exact_side_reports_equal_the_pinned_digests():
    got = {name: sha(report_to_json(rep)) for name, rep in pinned_reports()}
    assert got == PINNED_REPORTS
