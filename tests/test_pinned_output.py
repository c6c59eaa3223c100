"""DOT and JSON output, and theorem and exact-side reports, against the
committed record of ``tools/digests.py``.

The determinism tests compare two runs of the same code; the record was
taken from an earlier revision of the library, so these tests also catch
a change of output between revisions.  Each checks one manifest group,
whose sha256 changes with any of its outputs.  Re-record only for a
deliberate change of the output format.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "digests", ROOT / "tools" / "digests.py")
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)


def _check_group(group: str) -> None:
    want = json.loads(digests.DIGESTS.read_text())["groups"][group]
    got = digests.digests({group: digests.MANIFEST[group]})["groups"][group]
    assert got == want


def test_dot_and_json_equal_the_pinned_digests():
    _check_group("graphs")


def test_exact_side_reports_equal_the_pinned_digests():
    _check_group("exact")


def test_theorem_reports_equal_the_pinned_digests():
    _check_group("theorem-reports")


def test_relation_columns_equal_the_pinned_digests():
    """Every relation's lhs and rhs columns on every basis tensor: a report
    only says pass, these also catch a relation replaced by a different
    true identity, such as one with both sides rescaled."""
    _check_group("relation-columns")
