"""Digests of the exact side's reports, in three groups.

    python tools/digests.py                      # print the digests
    python tools/digests.py --check              # compare with the record
    python tools/digests.py > tools/digests.json # re-record, deliberately

The manifest holds 23 reports: ``relations`` is criterion 9's eight
``verify_relations`` instances and ``verify_relations(2, 3,
which="kbar")``, ``comult`` is ``verify_comult_odd`` for n = 2..4, and
``residue`` is ``residue_check`` at (2..6, 1), (2..4, 2), (2, 3), (2, 4)
and (3, 3).  Each report is the JSON text ``report_to_json`` writes, and a
group's sha256 is taken over its reports' texts in manifest order, each
followed by a newline.  The output is JSON: per group the count of
reports and the sha256, then the sha256 of the groups' lines.

With ``--check`` the digests are compared with the committed
``tools/digests.json``; the exit status is 1 when any group differs, each
such group named on stderr, else 0.  The library is imported from this
checkout's ``src/``.  It uses only the standard library.
"""

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "digests.json"
CRITERION_9 = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (3, 3),
               (4, 3)]
RESIDUE = [(n, 1) for n in range(2, 7)] + [(n, 2) for n in range(2, 5)] + [
    (2, 3), (2, 4), (3, 3)]
# group -> reports, each (name of a function of qrep.checks, args, kwargs)
MANIFEST = {
    "relations": [("verify_relations", key, {}) for key in CRITERION_9]
    + [("verify_relations", (2, 3), {"which": "kbar"})],
    "comult": [("verify_comult_odd", (n,), {}) for n in range(2, 5)],
    "residue": [("residue_check", key, {}) for key in RESIDUE],
}


def digests(manifest: dict = MANIFEST) -> dict:
    """{"groups": {group: {"count", "sha256"}}, "total": sha256}."""
    sys.path.insert(0, str(ROOT / "src"))
    from queercrystals.qrep import checks
    from queercrystals.serialize import report_to_json

    groups = {}
    for group, reports in manifest.items():
        h = hashlib.sha256()
        for name, args, kwargs in reports:
            text = report_to_json(getattr(checks, name)(*args, **kwargs))
            h.update(text.encode("utf-8") + b"\n")
        groups[group] = {"count": len(reports), "sha256": h.hexdigest()}
    lines = "".join(f"{g} {v['count']} {v['sha256']}\n"
                    for g, v in groups.items())
    return {"groups": groups,
            "total": hashlib.sha256(lines.encode("utf-8")).hexdigest()}


def differing(got: dict, want: dict) -> list:
    """The groups of either side whose count or sha256 differ."""
    names = list(dict.fromkeys([*want["groups"], *got["groups"]]))
    return [g for g in names
            if got["groups"].get(g) != want["groups"].get(g)]


def main(argv=None, manifest: dict = MANIFEST, record=DIGESTS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print(__doc__, file=sys.stderr)
        return 2
    got = digests(manifest)
    print(json.dumps(got, indent=1))
    if not argv:
        return 0
    bad = differing(got, json.loads(pathlib.Path(record).read_text()))
    for group in bad:
        print(f"group {group} differs from {record}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
