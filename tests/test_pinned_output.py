"""DOT and JSON output, and theorem and exact-side reports, pinned by digest.

The determinism tests compare two runs of the same code; these digests
were recorded from an earlier revision of the library, so they also
catch a change of output between revisions.  Regenerate them only for a
deliberate change of the output format.
"""

import hashlib

from queercrystals import (crystal_of_shape, explore_conjecture,
                           full_ssyt_graph, graph_components, tensor,
                           tensor_power_graph, vector_crystal,
                           verify_decomposition, verify_highest_weight_formula,
                           verify_reading_independence,
                           verify_unique_highest_weight)
from queercrystals.qrep.action import basis
from queercrystals.qrep.checks import (relations_catalogue, residue_check,
                                       verify_comult_odd, verify_relations)
from queercrystals.serialize import graph_to_dot, graph_to_json, report_to_json

# (sha256 of the DOT text, sha256 of the JSON text as the CLI prints it)
PINNED = {
    "tensor_power_graph(3, 3)": (
        "bb8ac61eb27305aef936e67e3e8f52d550df16f59049621b6592158120efa4d9",
        "d1b06c7275ad4abc71491ec2c19311734aae3bea84ba0356e172e34c43363f96"),
    "crystal_of_shape((3, 1), 4)": (
        "41118fc6a71faa120a30549998b148122cc932fd33eb7fbc03ef476dd0e0d268",
        "a714ff8d35bdb8eb0bf06dd97fb4051402301b659cdbb8c4978f180baf239336"),
    "crystal_of_shape((4, 2, 1), 4)": (
        "5df429f85a1d6c1f8246619ae55f5dd7986ec3055985acd70a6fdde21d66c340",
        "153261e2f0b18bf1393da9eafd937e5a4c6bdc799d2f810063db8a68aefcb363"),
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
    yield "crystal_of_shape((3, 1), 4)", crystal_of_shape((3, 1), 4)
    yield "crystal_of_shape((4, 2, 1), 4)", crystal_of_shape((4, 2, 1), 4)
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


# sha256 of report_to_json of each theorem-side report, as the CLI prints it
PINNED_THEOREM_REPORTS = {
    "verify_unique_highest_weight((3, 1), 4)":
        "99129a68eb9a90330206aebc8c2c56c551ca75740b73e1724336671a3851f74a",
    "verify_unique_highest_weight((4, 2, 1), 4)":
        "be658a91bd0106be16fd9b6a7dfc52299b2e631a46e142f279c23eb74b5dc755",
    "verify_unique_highest_weight((5,), 3)":
        "4108e59b1afb76e980b668bd6e0fdc604da27cb52e55f3eafefa42dfcfde49a6",
    "verify_unique_highest_weight((2, 1), 3)":
        "869d3f541579d382b84a8b7cc1c81ddf49c2e00a201f813ed1bc7c2308ec149a",
    "verify_highest_weight_formula((3, 1), 4)":
        "ba42fb87a330f66996cc1dd1ef0d1e13e5fc41eb3d913f1d063bd7ea14636326",
    "verify_highest_weight_formula((4, 2, 1), 4)":
        "23e09a17cd5d5379e7aaee0cf02e42fe38e8f14d7275b7b9a1819c60ce44a839",
    "verify_highest_weight_formula((5,), 3)":
        "5c6d5941f0e2a2a6e9b89dbd27d3b7d576c035dd4ea18d926c39d1a4a0db9102",
    "verify_highest_weight_formula((2, 1), 3)":
        "8ca857bcad5eb6d3a155e2e48cea2eb0248c4786b872707d48f70c27c7a75629",
    "verify_decomposition((3, 1), 4)":
        "94fec9ac90f0b449214f415b5874a949dbb5964c6ac3c4cba4a8937a6af0b98d",
    "verify_decomposition((4, 2, 1), 4)":
        "c5501f0f5ad31406c22db2f64897846adaa78ba54584b0740976bc4dbd06f0bd",
    "verify_decomposition((5,), 3)":
        "9c34608237dc49932a7f8d5cef310c4a320d0a9ddc565aec9ea61a1a431cdd58",
    "verify_decomposition((2, 1), 3)":
        "5391acf92555dc6831f2e7b76cb23752d9b7b53ea3f0eb296fbb31a7acd20240",
    "verify_reading_independence((3, 1), 4)":
        "b049a080de8bf160cb762eab89db95ddd56b51708ff9868b5a0af66ee2b23ae1",
    "verify_reading_independence((4, 2, 1), 4)":
        "22620326c5dc16621456d72600804720ca5a52fc90f763b287e0004a99077240",
    "verify_reading_independence((5,), 3)":
        "b5540544ee828e061200b88f5c0293cfc4c2157fbc1053419b106b3b701d3e63",
    "verify_reading_independence((2, 1), 3)":
        "09bd51e18ee8ef934f318b60d1e4d10aaea1f53e7dee28be14b4cc658d000ff5",
    "explore_conjecture((2, 1), 3)":
        "7af467a945493774a6d9eb78dbf722a6ed6f198a3f8181d876e95eb3ee487946",
    # rank 5 reaches the conjugated odd operators at i = 4
    "explore_conjecture((2, 1), 5)":
        "0d77bf91c8d9e2212a8c02e45676285c05184c637627f818c06c5f8ae51c6fe6",
    "explore_conjecture((3, 1), 4)":
        "b7f007ff61395d26017cc0d9050218f0507cdda76db74b3a2e67a3e271099f71",
    "verify_highest_weight_formula((3, 1), 5)":
        "394f97146e6c1a587ab8bf761afdc2fb5d5ab98f5828c9d19dcdb16aab15e6e4",
}

THEOREMS = (verify_unique_highest_weight, verify_highest_weight_formula,
            verify_decomposition, verify_reading_independence)


def pinned_theorem_reports():
    for verify in THEOREMS:
        for lam, n in (((3, 1), 4), ((4, 2, 1), 4), ((5,), 3), ((2, 1), 3)):
            yield f"{verify.__name__}({lam}, {n})", verify(lam, n)
    for lam, n in (((2, 1), 3), ((2, 1), 5), ((3, 1), 4)):
        yield (f"explore_conjecture({lam}, {n})",
               explore_conjecture(lam, n))
    yield ("verify_highest_weight_formula((3, 1), 5)",
           verify_highest_weight_formula((3, 1), 5))


def test_theorem_reports_equal_the_pinned_digests():
    got = {name: sha(report_to_json(rep))
           for name, rep in pinned_theorem_reports()}
    assert got == PINNED_THEOREM_REPORTS


# Per relation of relations_catalogue(n) on basis(n, N): the first 16 hex
# digits of the sha256 of its lhs and rhs columns, one line per basis
# tensor in sorted order, each column sorted by basis tensor.  A report
# only says pass; these also catch a relation replaced by a different
# true identity, such as one side rescaled.
PINNED_RELATION_COLUMNS = {
    (2, 2): {
        "e-ebar-commute i=1": "be01bc2023820994",
        "e-f-commutator i=1 j=1": "e42d2f6b449cf18d",
        "e-fbar-commutator i=1 j=1": "7731e034d68b0130",
        "ebar-f-commutator i=1 j=1": "cad9d08c28b8be02",
        "f-fbar-commute i=1": "17c77ade6f55cbc2",
        "kbar-anticommute i=1 j=2": "32900af9c907f0f6",
        "kbar-anticommute i=2 j=1": "32900af9c907f0f6",
        "kbar-e-twist i=1": "0e3624a2f3a3ba98",
        "kbar-f-twist i=1": "e4cf6786aa58e98b",
        "kbar-squared i=1": "9cfc16693da9e9d2",
        "kbar-squared i=2": "bdfdf09097f006f1",
        "qh-additivity h1=(0, 1) h2=(1, 2)": "e5da4790612d80d3",
        "qh-additivity h1=(1, 0) h2=(0, 1)": "cc1bad98dbe199da",
        "qh-additivity h1=(1, 2) h2=(1, 0)": "b712bb2085f922a2",
        "qh-e-commutation i=1 h=(0, 1)": "b6937e6422546f10",
        "qh-e-commutation i=1 h=(1, 0)": "fc8ad1b0ddeddcdd",
        "qh-f-commutation i=1 h=(0, 1)": "0a70b6ad3510375c",
        "qh-f-commutation i=1 h=(1, 0)": "df8f2125519b74aa",
        "qh-kbar-commute j=1": "275e511bc09bf35a",
        "qh-kbar-commute j=2": "fe865d30feb4e77c",
    },
    (3, 2): {
        "e-braid-odd i=1": "7470cf573011e6c1",
        "e-ebar-commute i=1": "92e30f5ae87035f4",
        "e-ebar-commute i=2": "36af69d5acb28de8",
        "e-f-commutator i=1 j=1": "58520d2018df77da",
        "e-f-commutator i=1 j=2": "f8d581d80b0edf2d",
        "e-f-commutator i=2 j=1": "f8d581d80b0edf2d",
        "e-f-commutator i=2 j=2": "511921d3d1371529",
        "e-fbar-commutator i=1 j=1": "ad50f47332ae48ed",
        "e-fbar-commutator i=1 j=2": "f8d581d80b0edf2d",
        "e-fbar-commutator i=2 j=1": "f8d581d80b0edf2d",
        "e-fbar-commutator i=2 j=2": "ef822686dae38fe3",
        "e-serre i=1 j=2": "f8d581d80b0edf2d",
        "e-serre i=2 j=1": "f8d581d80b0edf2d",
        "e-serre-odd i=1 j=2": "f8d581d80b0edf2d",
        "e-serre-odd i=2 j=1": "f8d581d80b0edf2d",
        "ebar-f-commutator i=1 j=1": "c321cf82e9d8b70d",
        "ebar-f-commutator i=1 j=2": "f8d581d80b0edf2d",
        "ebar-f-commutator i=2 j=1": "f8d581d80b0edf2d",
        "ebar-f-commutator i=2 j=2": "201e243d4d44b61b",
        "f-braid-odd i=1": "ffcf2c347663e892",
        "f-fbar-commute i=1": "b7c59409a37ca141",
        "f-fbar-commute i=2": "26b11f8174c5d3f6",
        "f-serre i=1 j=2": "f8d581d80b0edf2d",
        "f-serre i=2 j=1": "f8d581d80b0edf2d",
        "f-serre-odd i=1 j=2": "f8d581d80b0edf2d",
        "f-serre-odd i=2 j=1": "f8d581d80b0edf2d",
        "kbar-anticommute i=1 j=2": "f8d581d80b0edf2d",
        "kbar-anticommute i=1 j=3": "f8d581d80b0edf2d",
        "kbar-anticommute i=2 j=1": "f8d581d80b0edf2d",
        "kbar-anticommute i=2 j=3": "f8d581d80b0edf2d",
        "kbar-anticommute i=3 j=1": "f8d581d80b0edf2d",
        "kbar-anticommute i=3 j=2": "f8d581d80b0edf2d",
        "kbar-e-twist i=1": "1ec48b751abb7f48",
        "kbar-e-twist i=2": "9ff66a292eb98f07",
        "kbar-f-twist i=1": "f4becdbba2086fd6",
        "kbar-f-twist i=2": "10e61bf8de4c9577",
        "kbar-squared i=1": "ff595c64f9698f1c",
        "kbar-squared i=2": "d2977181f956e67e",
        "kbar-squared i=3": "56a836cdc295bd58",
        "qh-additivity h1=(0, 0, 1) h2=(1, 2, 3)": "544d118df2418b4f",
        "qh-additivity h1=(0, 1, 0) h2=(0, 0, 1)": "f0156ecaf06f223a",
        "qh-additivity h1=(1, 0, 0) h2=(0, 1, 0)": "bf760bb28f3b64ed",
        "qh-additivity h1=(1, 2, 3) h2=(1, 0, 0)": "9b4b50e0750aa446",
        "qh-e-commutation i=1 h=(0, 1, 0)": "cc2fa40eabe0781e",
        "qh-e-commutation i=1 h=(1, 0, 0)": "970fe1c813af8e9d",
        "qh-e-commutation i=2 h=(0, 1, 0)": "9c1e2b47b5edc2eb",
        "qh-e-commutation i=2 h=(1, 0, 0)": "f39d8baa720ffa3f",
        "qh-f-commutation i=1 h=(0, 1, 0)": "e24ca276e9ee6439",
        "qh-f-commutation i=1 h=(1, 0, 0)": "85fac834c027b1b4",
        "qh-f-commutation i=2 h=(0, 1, 0)": "1ac9b027fc5a3118",
        "qh-f-commutation i=2 h=(1, 0, 0)": "e8ca313736526cb0",
        "qh-kbar-commute j=1": "bc75f0327e30ee49",
        "qh-kbar-commute j=2": "363eeb0cba86fcb8",
        "qh-kbar-commute j=3": "696445e6cb6a7425",
    },
    (4, 1): {
        "e-braid-odd i=1": "725c090f09bbf99f",
        "e-braid-odd i=2": "0b3b2bf26f6d93f0",
        "e-e-distant-commute i=1 j=3": "5001781d70b9bd3f",
        "e-e-distant-commute i=3 j=1": "5001781d70b9bd3f",
        "e-ebar-commute i=1": "5001781d70b9bd3f",
        "e-ebar-commute i=2": "5001781d70b9bd3f",
        "e-ebar-commute i=3": "5001781d70b9bd3f",
        "e-f-commutator i=1 j=1": "8fe0ee8e06083909",
        "e-f-commutator i=1 j=2": "5001781d70b9bd3f",
        "e-f-commutator i=1 j=3": "5001781d70b9bd3f",
        "e-f-commutator i=2 j=1": "5001781d70b9bd3f",
        "e-f-commutator i=2 j=2": "646d5a64781b8d52",
        "e-f-commutator i=2 j=3": "5001781d70b9bd3f",
        "e-f-commutator i=3 j=1": "5001781d70b9bd3f",
        "e-f-commutator i=3 j=2": "5001781d70b9bd3f",
        "e-f-commutator i=3 j=3": "9c7278767a48f969",
        "e-fbar-commutator i=1 j=1": "76b844048641ff28",
        "e-fbar-commutator i=1 j=2": "5001781d70b9bd3f",
        "e-fbar-commutator i=1 j=3": "5001781d70b9bd3f",
        "e-fbar-commutator i=2 j=1": "5001781d70b9bd3f",
        "e-fbar-commutator i=2 j=2": "f3f4047bf8226df3",
        "e-fbar-commutator i=2 j=3": "5001781d70b9bd3f",
        "e-fbar-commutator i=3 j=1": "5001781d70b9bd3f",
        "e-fbar-commutator i=3 j=2": "5001781d70b9bd3f",
        "e-fbar-commutator i=3 j=3": "505635af2e771981",
        "e-serre i=1 j=2": "5001781d70b9bd3f",
        "e-serre i=2 j=1": "5001781d70b9bd3f",
        "e-serre i=2 j=3": "5001781d70b9bd3f",
        "e-serre i=3 j=2": "5001781d70b9bd3f",
        "e-serre-odd i=1 j=2": "5001781d70b9bd3f",
        "e-serre-odd i=2 j=1": "5001781d70b9bd3f",
        "e-serre-odd i=2 j=3": "5001781d70b9bd3f",
        "e-serre-odd i=3 j=2": "5001781d70b9bd3f",
        "ebar-f-commutator i=1 j=1": "76b844048641ff28",
        "ebar-f-commutator i=1 j=2": "5001781d70b9bd3f",
        "ebar-f-commutator i=1 j=3": "5001781d70b9bd3f",
        "ebar-f-commutator i=2 j=1": "5001781d70b9bd3f",
        "ebar-f-commutator i=2 j=2": "f3f4047bf8226df3",
        "ebar-f-commutator i=2 j=3": "5001781d70b9bd3f",
        "ebar-f-commutator i=3 j=1": "5001781d70b9bd3f",
        "ebar-f-commutator i=3 j=2": "5001781d70b9bd3f",
        "ebar-f-commutator i=3 j=3": "505635af2e771981",
        "f-braid-odd i=1": "782bc05902f18d1e",
        "f-braid-odd i=2": "29554535e31a566d",
        "f-f-distant-commute i=1 j=3": "5001781d70b9bd3f",
        "f-f-distant-commute i=3 j=1": "5001781d70b9bd3f",
        "f-fbar-commute i=1": "5001781d70b9bd3f",
        "f-fbar-commute i=2": "5001781d70b9bd3f",
        "f-fbar-commute i=3": "5001781d70b9bd3f",
        "f-serre i=1 j=2": "5001781d70b9bd3f",
        "f-serre i=2 j=1": "5001781d70b9bd3f",
        "f-serre i=2 j=3": "5001781d70b9bd3f",
        "f-serre i=3 j=2": "5001781d70b9bd3f",
        "f-serre-odd i=1 j=2": "5001781d70b9bd3f",
        "f-serre-odd i=2 j=1": "5001781d70b9bd3f",
        "f-serre-odd i=2 j=3": "5001781d70b9bd3f",
        "f-serre-odd i=3 j=2": "5001781d70b9bd3f",
        "kbar-anticommute i=1 j=2": "5001781d70b9bd3f",
        "kbar-anticommute i=1 j=3": "5001781d70b9bd3f",
        "kbar-anticommute i=1 j=4": "5001781d70b9bd3f",
        "kbar-anticommute i=2 j=1": "5001781d70b9bd3f",
        "kbar-anticommute i=2 j=3": "5001781d70b9bd3f",
        "kbar-anticommute i=2 j=4": "5001781d70b9bd3f",
        "kbar-anticommute i=3 j=1": "5001781d70b9bd3f",
        "kbar-anticommute i=3 j=2": "5001781d70b9bd3f",
        "kbar-anticommute i=3 j=4": "5001781d70b9bd3f",
        "kbar-anticommute i=4 j=1": "5001781d70b9bd3f",
        "kbar-anticommute i=4 j=2": "5001781d70b9bd3f",
        "kbar-anticommute i=4 j=3": "5001781d70b9bd3f",
        "kbar-e-twist i=1": "9872e221d3456c11",
        "kbar-e-twist i=2": "4c5e0ed6e1d45f17",
        "kbar-e-twist i=3": "ae966b173097205a",
        "kbar-f-twist i=1": "c39b20e82dec01d4",
        "kbar-f-twist i=2": "f950a24a34a60764",
        "kbar-f-twist i=3": "a76ef404923c6532",
        "kbar-squared i=1": "f2a8e198ac941bcf",
        "kbar-squared i=2": "be63e84618dc23d5",
        "kbar-squared i=3": "0f19dc5e1a4fb14b",
        "kbar-squared i=4": "37572ad0602d6766",
        "qh-additivity h1=(0, 0, 0, 1) h2=(1, 2, 3, 4)": "c4f6b2208f86263f",
        "qh-additivity h1=(0, 0, 1, 0) h2=(0, 0, 0, 1)": "5cb1c9ca1cfdadc0",
        "qh-additivity h1=(0, 1, 0, 0) h2=(0, 0, 1, 0)": "4ddd6c8b6c015927",
        "qh-additivity h1=(1, 0, 0, 0) h2=(0, 1, 0, 0)": "bdb8e9c27d1377aa",
        "qh-additivity h1=(1, 2, 3, 4) h2=(1, 0, 0, 0)": "e2f09c2a3491ec1e",
        "qh-e-commutation i=1 h=(0, 1, 0, 0)": "5341566fe62150c5",
        "qh-e-commutation i=1 h=(1, 0, 0, 0)": "df261fd3692fe56f",
        "qh-e-commutation i=2 h=(0, 1, 0, 0)": "224c75e391665a8f",
        "qh-e-commutation i=2 h=(1, 0, 0, 0)": "cbf462e1f85e181b",
        "qh-e-commutation i=3 h=(0, 1, 0, 0)": "1100f8caf09db7df",
        "qh-e-commutation i=3 h=(1, 0, 0, 0)": "1100f8caf09db7df",
        "qh-f-commutation i=1 h=(0, 1, 0, 0)": "ba6f665962deb95a",
        "qh-f-commutation i=1 h=(1, 0, 0, 0)": "e900d6c8d9fc7556",
        "qh-f-commutation i=2 h=(0, 1, 0, 0)": "d895851f614a79e8",
        "qh-f-commutation i=2 h=(1, 0, 0, 0)": "4e82b33374321c17",
        "qh-f-commutation i=3 h=(0, 1, 0, 0)": "c7590295ed4a6205",
        "qh-f-commutation i=3 h=(1, 0, 0, 0)": "c7590295ed4a6205",
        "qh-kbar-commute j=1": "166e1e8b8e0d1053",
        "qh-kbar-commute j=2": "6e5307cdae315b2d",
        "qh-kbar-commute j=3": "ab89821d8e2ff2eb",
        "qh-kbar-commute j=4": "e50c1c8778e3f6d5",
    },
}


def relation_column_digests(n: int, N: int) -> dict:
    tensors = sorted(basis(n, N))
    out = {}
    for name, lhs, rhs in relations_catalogue(n):
        text = "\n".join(f"{t!r} {sorted(lhs.view(t).items())!r} "
                         f"{sorted(rhs.view(t).items())!r}" for t in tensors)
        out[name] = sha(text)[:16]
    return out


def test_relation_columns_equal_the_pinned_digests():
    got = {key: relation_column_digests(*key)
           for key in PINNED_RELATION_COLUMNS}
    assert got == PINNED_RELATION_COLUMNS
