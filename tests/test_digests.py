"""``tools/digests.py`` on a one-report subset, and its manifest against
the committed record, so that neither can rot unnoticed."""

import importlib.util
import json
import pathlib

from queercrystals.qrep import checks

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def test_the_manifest_names_23_checks_and_matches_the_record():
    record = json.loads(digests.DIGESTS.read_text())
    counts = {g: len(items) for g, items in digests.MANIFEST.items()}
    assert counts == {"relations": 9, "comult": 3, "residue": 11}
    assert {g: v["count"] for g, v in record["groups"].items()} == counts
    for items in digests.MANIFEST.values():
        for name, _, _ in items:
            assert callable(getattr(checks, name)), name


def test_check_passes_on_its_own_record_and_names_a_differing_group(
        tmp_path, capsys):
    subset = {"residue": [("residue_check", (2, 1), {})]}
    got = digests.digests(subset)
    assert got["groups"]["residue"]["count"] == 1
    record = tmp_path / "digests.json"
    record.write_text(json.dumps(got))
    assert digests.main(["--check"], subset, record) == 0
    assert json.loads(capsys.readouterr().out) == got
    got["groups"]["residue"]["sha256"] = "0" * 64
    record.write_text(json.dumps(got))
    assert digests.main(["--check"], subset, record) == 1
    assert "group residue differs" in capsys.readouterr().err
    assert digests.main(["--bad"], subset, record) == 2
