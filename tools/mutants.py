"""Mutation check for the word kernel, the Weyl action, the tableaux and
the verifiers (check records, the exact checks, graph isomorphism).

Each mutant replaces one snippet of one source file by a wrong variant
and names the test files that must kill it.  It is applied to a fresh
temporary copy of ``src/`` and ``tests/``, those tests run on that copy,
and a mutant that leaves them passing is a survivor.  The checkout itself
is never edited.

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when any survives, 2 when a
mutant's snippet does not occur exactly once in its file (the list no
longer matches the code) or the unmutated copy already fails its tests.
It uses only the standard library and pytest, which tier-1 needs anyway.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PKG = "src/queercrystals/"
WORDS = ("tests/test_kernel_oracles.py", "tests/test_weyl.py",
         "tests/test_words.py", "tests/test_tableaux.py")
CHECKS = ("tests/test_qrep_checks.py",)
GRAPHS = ("tests/test_graphs.py",)

# (file, snippet, replacement, what the mutant breaks, tests that kill it)
MUTANTS = (
    (PKG + "_kernel_py.py", "k < len(plus)", "k <= len(plus)",
     "S_i writes one minus too many", WORDS),
    (PKG + "_kernel_py.py", "minus + plus", "plus + minus",
     "S_i rewrites the unmatched positions out of order", WORDS),
    (PKG + "_kernel_py.py", "out[pos] = 3 - letter", "out[pos] = letter",
     "the odd flip leaves its letter as it was", WORDS),
    (PKG + "_kernel_py.py", "if w[pos] <= 2:", "if w[pos] < 2:",
     "the odd flip looks past a rightmost letter 2", WORDS),
    (PKG + "_kernel_py.py", "apply_ebar(w, i) is None for i in range(1, n)",
     "apply_ebar(w, i) is None for i in range(2, n)",
     "is_q_highest skips ebar1", WORDS),
    (PKG + "_kernel_py.py", "for s in reversed(rw):\n        w = weyl_s",
     "for s in rw:\n        w = weyl_s",
     "the kernel conjugates by S_w where S_w^-1 belongs", WORDS),
    (PKG + "graphs.py", "for s in reversed(rw):", "for s in rw:",
     "the generic conjugation by S_w where S_w^-1 belongs", WORDS),
    (PKG + "words.py", "    return kernel.apply_fbar(w, i)",
     "    return kernel.apply_ebar(w, i)",
     "words.fbar raises instead of lowering", WORDS),
    (PKG + "words.py", "product(range(1, n + 1), repeat=length)",
     "product(range(1, n), repeat=length)",
     "all_words drops the letter n", WORDS),
    (PKG + "tableaux.py", "r + c - parts[0]", "r + c - parts[-1]",
     "b_lambda measures anti-diagonals from the last part", WORDS),
    (PKG + "tableaux.py",
     "    if label not in all_labels(n):\n"
     "        raise ValueError(", "    if False:\n        raise ValueError(",
     "tableau_operator takes any label", WORDS),
    (PKG + "tableaux.py", 'if direction not in ("e", "f"):',
     'if direction not in ("e", "f", "up"):',
     'tableau_operator takes "up" for "f"', WORDS),
    (PKG + "reports.py", "None if ok else witness)", "witness)",
     "a passed record keeps its witness", CHECKS),
    (PKG + "qrep/checks.py", "diagonal(i) if i == j else zero",
     "diagonal(i) if i <= j else zero",
     "a commutator above the diagonal takes the diagonal term", CHECKS),
    (PKG + "qrep/checks.py", "lambda i: kbar_shift(i, -1)",
     "lambda i: kbar_shift(i, 1)",
     "[e_i, fbar_i] takes the shift of [ebar_i, f_i]", CHECKS),
    (PKG + "qrep/checks.py", 'for kind in ("e", "f")]',
     'for kind in ("f", "e")]',
     "the word arrows e_i and f_i trade keys", CHECKS),
    (PKG + "qrep/checks.py", "ok = support == {expected}",
     "ok = support <= {expected}",
     "a vanished residue passes as the expected target", CHECKS),
    (PKG + "qrep/checks.py", "[1]) == 2 ** N))", "[1]) >= 2 ** (N - 1)))",
     "a residue map of half rank passes as invertible", CHECKS),
    (PKG + "qrep/checks.py", "            if witness is None:\n"
     "                witness = next(",
     "            if False:\n                witness = next(",
     "a nonzero residue of a squared odd operator passes", CHECKS),
    (PKG + "graphs.py", "if a != b:", "if a > b:",
     "isomorphic misses an arrow that only the second graph has", GRAPHS),
)


def run_tests(tree: pathlib.Path, tests) -> bool:
    """True when the given test files pass on the copy at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return result.returncode == 0


def copy_tree(dest: pathlib.Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    for number, (path, snippet, *_) in enumerate(MUTANTS, 1):
        found = (ROOT / path).read_text(encoding="utf-8").count(snippet)
        if found != 1:
            print(f"mutant {number}: {snippet!r} occurs {found} times in "
                  f"{path}, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp)
        copy_tree(tree)
        if not run_tests(tree, sorted({t for m in MUTANTS for t in m[4]})):
            print("the unmutated copy fails its tests", file=sys.stderr)
            return 2
        survivors = []
        for number, (path, snippet, replacement, what,
                     tests) in enumerate(MUTANTS, 1):
            target = tree / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(snippet, replacement),
                              encoding="utf-8")
            killed = not run_tests(tree, tests)
            target.write_text(original, encoding="utf-8")
            print(f"{number:2d} {'killed' if killed else 'SURVIVED'}  "
                  f"{path}: {what}")
            if not killed:
                survivors.append(number)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; "
          f"survivors: {survivors or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
