"""``tools/digests.py`` on a three-output subset, and its manifest against
the committed record, so that neither can rot unnoticed."""

import importlib.util
import json
import pathlib

import queercrystals
from queercrystals.qrep import checks

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def test_the_manifest_counts_its_outputs_and_matches_the_record():
    record = json.loads(digests.DIGESTS.read_text())
    counts = {g: len(items) for g, items in digests.MANIFEST.items()}
    assert counts == {"relations": 9, "comult": 3, "residue": 12,
                      "crystal": 62, "words": 54}
    assert {g: v["count"] for g, v in record["groups"].items()} == counts
    for items in digests.MANIFEST.values():
        for form, name, _, _ in items:
            module = checks if form == "report" else queercrystals
            assert form in ("report", "dot", "json"), form
            assert callable(getattr(module, name)), name


def test_check_passes_on_its_own_record_and_names_a_differing_group(
        tmp_path, capsys):
    subset = {"residue": [("report", "residue_check", (2, 1), {})],
              "words": [("dot", "tensor_power_graph", (2, 1), {}),
                        ("json", "tensor_power_graph", (2, 1), {})]}
    got = digests.digests(subset)
    assert got["groups"]["residue"]["count"] == 1
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
