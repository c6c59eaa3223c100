"""``tools/digests.py`` on a four-output subset, and its manifest against
the committed record, so that neither can rot unnoticed."""

import ast
import importlib.util
import json
import pathlib

from queercrystals import strict_partitions

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def test_the_manifest_counts_its_outputs_and_matches_the_record():
    record = json.loads(digests.DIGESTS.read_text())
    counts = {g: len(items) for g, items in digests.MANIFEST.items()}
    assert counts == {"relations": 9, "comult": 3, "residue": 12,
                      "theorems": 340, "crystal": 62, "words": 54,
                      "graphs": 16, "exact": 5, "theorem-reports": 20,
                      "relation-columns": 3}
    assert {g: v["count"] for g, v in record["groups"].items()} == counts
    names = digests.namespace()
    for items in digests.MANIFEST.values():
        for form, expression in items:
            assert form in ("report", "dot", "json", "text"), form
            for node in ast.walk(ast.parse(expression, mode="eval")):
                if isinstance(node, ast.Name):
                    assert node.id in names, expression


def test_the_theorems_group_sweeps_criteria_3_to_5():
    assert digests.SWEEP == [(lam, n) for n in (2, 3, 4)
                             for lam in strict_partitions(8, n)]
    assert len(digests.SWEEP) == 68


def test_check_passes_on_its_own_record_and_names_a_differing_group(
        tmp_path, capsys):
    subset = {"residue": [("report", "residue_check(2, 1)")],
              "theorems": [("report", "verify_decomposition((2,), 2)")],
              "words": [("dot", "tensor_power_graph(2, 1)"),
                        ("json", "tensor_power_graph(2, 1)")]}
    got = digests.digests(subset)
    assert got["groups"]["residue"]["count"] == 1
    assert got["groups"]["theorems"]["count"] == 1
    assert got["groups"]["words"]["count"] == 2
    record = tmp_path / "digests.json"
    record.write_text(json.dumps(got))
    assert digests.main(["--check"], subset, record) == 0
    assert json.loads(capsys.readouterr().out) == got
    got["groups"]["residue"]["sha256"] = "0" * 64
    record.write_text(json.dumps(got))
    assert digests.main(["--check"], subset, record) == 1
    assert "group residue differs" in capsys.readouterr().err
    assert digests.main(["--bad"], subset, record) == 2
