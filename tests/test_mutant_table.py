"""``tools/mutants.py``'s table against the code, so that a stale
snippet or killer shows in the suite and not only in the tool's own
run of several minutes."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once_in_its_file():
    for path, snippet, replacement, what, _ in mutants.MUTANTS:
        text = (ROOT / path).read_text(encoding="utf-8")
        assert text.count(snippet) == 1, (path, what)
        assert replacement != snippet, what


def test_every_killer_is_a_test_file_or_the_digest_check():
    for *_, what, killers in mutants.MUTANTS:
        assert killers, what
        for killer in killers:
            assert killer in mutants.DIGESTS or (
                killer.startswith("tests/test_") and killer.endswith(".py")
                and (ROOT / killer).is_file()), (killer, what)
