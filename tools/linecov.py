"""Line coverage of ``src/`` under the test suite, standard library only.

Runs pytest in this process under a ``sys.settrace`` line tracer that
follows only frames of files under ``src/``, then lists every statement of
those files that never ran, as ``path:line  source``, followed by one
count per file.  A statement is a line that carries bytecode; the ``def``
line of a function counts as run when its enclosing code ran.  Code run in
subprocesses (the CLI tests that start ``python -m queercrystals``) is not
followed.

    python tools/linecov.py                 # the whole suite
    python tools/linecov.py tests/test_words.py -k weight

Extra arguments go to pytest.  The tracer slows the suite several times
over (about 150 s for all of it on a 2-core machine), so it is a tool to
run by hand, not part of the test suite.  Exit status is pytest's.
"""

import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def statements(path: pathlib.Path) -> set:
    """Lines of a source file that carry bytecode, without the first line
    of each nested code object (its def, class or lambda line, which the
    enclosing code runs)."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = set()
    todo = [(code, False)]
    while todo:
        co, nested = todo.pop()
        # line 0 (or None) marks bytecode with no source line
        lines.update(line for _, _, line in co.co_lines()
                     if line and not (nested and line == co.co_firstlineno))
        todo.extend((c, True) for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv) -> int:
    import pytest
    from hypothesis import settings

    # the tracer makes examples slow; a deadline would fail them
    settings.register_profile("linecov", deadline=None)
    settings.load_profile("linecov")

    prefix = str(SRC) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        # hypothesis is imported above, too early for assertion rewriting
        status = pytest.main(["-q", "-p", "no:cacheprovider", "-W",
                              "ignore::pytest.PytestAssertRewriteWarning",
                              *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    counts = []
    for path in sorted(SRC.rglob("*.py")):
        want = statements(path)
        miss = sorted(want - ran.get(str(path), set()))
        total += len(want)
        missed += len(miss)
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT)
        for line in miss:
            print(f"{name}:{line}  {source[line - 1].strip()}")
        counts.append(f"{name}: {len(miss)} of {len(want)} never run")
    print("\n".join(counts))
    print(f"total: {missed} of {total} statements never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
