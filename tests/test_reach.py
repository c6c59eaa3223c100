"""``tools/reach.py`` with a tiny budget: the series stop at their first
instance over it, each instance runs once, and the report digests agree
with the texts that ``tools/digests.py`` hashes."""

import hashlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach, digests = _tool("reach"), _tool("digests")


def test_a_tiny_budget_stops_every_series_and_agrees_with_the_digests():
    budget = 0.01
    rows = list(reach.table(budget))
    sizes = [(row["n"], row["N"]) for row in rows]
    assert len(sizes) == len(set(sizes))
    assert {(2, 1), (3, 1)} <= set(sizes)
    by_size = {(row["n"], row["N"]): row for row in rows}
    walked = set()
    for size in reach.SERIES:
        # each series runs up to its first instance over the budget
        k = 1
        while not reach.over(by_size[size(k)], budget):
            walked.add(size(k))
            k += 1
        walked.add(size(k))
    assert walked == set(sizes)
    shared = [row for row in rows if (row["n"], row["N"]) in digests.RESIDUE]
    assert shared
    for row in shared:
        text = digests.render("report", "residue_check",
                              (row["n"], row["N"]), {})
        assert row["sha256"] == hashlib.sha256(
            text.encode("utf-8")).hexdigest(), row
        assert row["records"] > 0 and row["maxrss_mb"] > 0
