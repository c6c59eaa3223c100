"""CLI subcommands, exit codes, determinism, DOT/JSON agreement."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queercrystals import cli
from queercrystals.cli import main
from queercrystals.errors import VerificationError
from queercrystals.graphs import CrystalGraph
from queercrystals.serialize import graph_to_dot, graph_to_json

# a directory that no test creates: writing below it must fail
MISSING_DIR = pathlib.Path(__file__).resolve().parent / "no-such-dir"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_graph_vector_dot(capsys):
    code, out = run(capsys, "graph", "--vector", "-n", "3", "--format", "dot")
    assert code == 0
    assert out.count("->") == 3
    assert 'style=dashed' in out
    assert out.startswith("digraph crystal {")


def test_graph_tensor_json(capsys):
    code, out = run(capsys, "graph", "--tensor", "2", "-n", "3",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3
    assert len(data["nodes"]) == 9
    assert len(data["edges"]) == 12
    labels = {e["label"] for e in data["edges"]}
    assert labels == {"1", "2", "1bar"}
    assert all(node["kind"] == "word" for node in data["nodes"])


def test_graph_shape_single_box(capsys):
    code, out = run(capsys, "graph", "--shape", "1", "-n", "4",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4
    assert all(node["kind"] == "tableau" for node in data["nodes"])


def test_output_is_deterministic(capsys, tmp_path):
    argv = ["graph", "--shape", "2,1", "-n", "3", "--format", "json"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    target = tmp_path / "g.json"
    code = main(argv + ["-o", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == first


def test_output_is_deterministic_across_processes():
    """Hash randomization must not leak into artifacts."""
    import os
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    for argv in (["graph", "--shape", "3,1", "-n", "3", "--format", "json"],
                 ["conjecture", "--shape", "2,1", "-n", "3"]):
        outs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-m", "queercrystals.cli", *argv],
                capture_output=True, env=env, check=True)
            outs.add(proc.stdout)
        assert len(outs) == 1, argv


def test_dot_and_json_carry_the_same_graph(capsys):
    _, dot = run(capsys, "graph", "--tensor", "2", "-n", "3")
    _, js = run(capsys, "graph", "--tensor", "2", "-n", "3",
                "--format", "json")
    data = json.loads(js)
    dot_edges = [line for line in dot.splitlines() if "->" in line]
    assert len(dot_edges) == len(data["edges"])
    dot_nodes = [line for line in dot.splitlines()
                 if "label" in line and "->" not in line
                 and "node [" not in line]
    assert len(dot_nodes) == len(data["nodes"])
    # arrow multiset agrees
    arrows = sorted((e["src"], e["dst"]) for e in data["edges"])
    parsed = sorted(
        (int(line.split("->")[0]), int(line.split("->")[1].split("[")[0]))
        for line in dot_edges)
    assert arrows == parsed


def test_a_node_of_unknown_type_is_not_serialized():
    g = CrystalGraph(n=1, kind="word", nodes=(7,), weights=((1,),), arrows=())
    with pytest.raises(TypeError, match="cannot serialize node 7"):
        graph_to_json(g)
    with pytest.raises(TypeError, match="cannot label node 7"):
        graph_to_dot(g)


def test_invalid_shape_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--shape", "2,2", "-n", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: queercrystals graph ")
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--shape", "", "-n", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--shape", "1,5", "-n", "3"])
    assert exc.value.code == 2
    # a non-integer part is refused, not truncated to the shape (2, 1)
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--shape", "2.7,1", "-n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--qrep", "relations", "-n", "2", "-N", "0"],
    ["verify", "--qrep", "residue", "-n", "2", "-N", "0"],
    ["verify", "--qrep", "comult", "-n", "1"],
    ["graph", "--vector", "-n", "300"],
    ["verify", "--qrep", "relations", "-n", "0"],
    ["conjecture", "--shape", "1", "-n", "2", "--max-depth", "-1"],
    ["verify", "--qrep", "residue", "-n", "2", "-N", "1", "--shape", "5"],
    ["verify", "--qrep", "comult", "-n", "2", "-N", "7"],
    ["verify", "--theorem", "b", "--shape", "2,1", "-n", "3", "-N", "0"],
    ["graph", "--tensor", "-1", "-n", "2"],
    ["graph", "--shape", "1", "-n", "3", "-o", "."],
    ["verify", "--theorem", "b", "--shape", "1", "-n", "2",
     "-o", str(MISSING_DIR / "x.dot")],
    ["verify", "--theorem", "b", "-n", "2"],
])
def test_out_of_range_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the subcommand's own usage line, not the top-level one
    assert err.startswith(f"usage: queercrystals {argv[0]} ")
    assert "error:" in err
    assert "Traceback" not in err


def test_unwritable_output_fails_before_any_work(capsys, monkeypatch,
                                                 tmp_path):
    def no_work(*args, **kwargs):
        raise AssertionError("the check ran before -o was rejected")

    monkeypatch.setattr(cli, "verify_relations", no_work)
    (tmp_path / "file.json").write_bytes(b"kept")
    for target in (MISSING_DIR / "x.json", tmp_path,
                   tmp_path / "file.json" / "x.json"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--qrep", "relations", "-n", "3", "-N", "3",
                  "-o", str(target)])
        assert exc.value.code == 2
        assert "cannot write" in capsys.readouterr().err


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(),
                    reason="needs a device that refuses every write")
def test_a_failed_write_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--vector", "-n", "2", "-o", "/dev/full"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write '/dev/full'" in err
    assert "Traceback" not in err


def test_a_verifier_that_raises_exits_1(capsys, monkeypatch):
    def broken(parts, n):
        raise VerificationError("no highest weight")

    monkeypatch.setattr(cli, "verify_unique_highest_weight", broken)
    code = main(["verify", "--theorem", "b", "--shape", "2,1", "-n", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification failure: no highest weight\n"


def test_a_broken_crystal_exits_1(capsys, monkeypatch):
    # B((2, 1)) with its first 1-arrow repointed at its own source: the
    # graph check raises StructureError, a verification failure, not a
    # usage error
    from queercrystals import theorems

    good = theorems.crystal_of_shape((2, 1), 3)
    first = (0,) + good.arrows[0][1:]
    broken = CrystalGraph(good.n, good.kind, good.nodes, good.weights,
                          (first,) + good.arrows[1:])
    monkeypatch.setattr(theorems, "crystal_of_shape", lambda parts, n: broken)
    code = main(["verify", "--theorem", "b", "--shape", "2,1", "-n", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "verification failure: edge (0, 1, 0) breaks weights")


def test_usage_error_leaves_an_existing_output_file_alone(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"earlier report\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--qrep", "relations", "-n", "2", "-N", "0",
              "-o", str(target)])
    assert exc.value.code == 2
    assert target.read_bytes() == b"earlier report\n"


def test_missing_selector_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-n", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: queercrystals verify ")


def test_package_runs_as_a_module():
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "queercrystals", "graph", "--vector", "-n", "2"],
        capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("digraph crystal {")
    assert proc.stdout.count("->") == 2


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # every CLI command pays for what the package imports; dataclasses
    # alone brought in inspect, ast, dis and tokenize
    import os
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, queercrystals, queercrystals.cli, "
            "queercrystals.qrep.checks; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_passes_and_reports(capsys):
    code, out = run(capsys, "verify", "--theorem", "b", "--shape", "2,1",
                    "-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(set(r) >= {"check", "instance", "status"}
               for r in data["records"])
    code, out = run(capsys, "verify", "--theorem", "e3", "--shape", "1",
                    "-n", "3")
    assert code == 0
    assert json.loads(out)["labels"] == [[2]]


def test_verify_qrep_relations(capsys):
    code, out = run(capsys, "verify", "--qrep", "relations", "-n", "2",
                    "-N", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True
    # without -N the tensor power is 2
    code, out = run(capsys, "verify", "--qrep", "relations", "-n", "1")
    assert code == 0
    assert json.loads(out)["N"] == 2


def test_verify_remaining_selectors(capsys):
    code, out = run(capsys, "verify", "--theorem", "c", "--shape", "2",
                    "-n", "2")
    assert code == 0 and json.loads(out)["count_actual"] == 2
    code, out = run(capsys, "verify", "--reading-independence",
                    "--shape", "2,1", "-n", "3")
    assert code == 0
    code, out = run(capsys, "verify", "--qrep", "comult", "-n", "2")
    assert code == 0
    code, out = run(capsys, "verify", "--qrep", "residue", "-n", "2",
                    "-N", "1")
    assert code == 0


def test_conjecture_report(capsys):
    code, out = run(capsys, "conjecture", "--shape", "1", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["highest_weight_vectors"]


# CLI fuzzing: argument vectors from the three subcommands and their
# options, with small values and, now and then, junk


def mostly(good, bad):
    """Valid values three times as often as invalid ones."""
    return st.sampled_from(good * 3 + bad)


RANKS = mostly(["1", "2", "3"], ["0", "-1", "x"])
POWERS = mostly(["0", "1", "2", "3"], ["-2", "y"])
SHAPES = mostly(["1", "2", "2,1", "3", "3,1", "4"],
                ["1,2", "2,2", "0", "-1", ",", "a,b", "", "3,1,"])
JUNK = st.sampled_from(["--bogus", "-x", "-5", "7", "--", "--shape", "-n",
                        "-o", str(MISSING_DIR / "out.json")])


def option(flag, values):
    return st.tuples(st.just(flag), values)


# per subcommand: the mutually exclusive selectors, then the other options
# with the chance, in tenths, that each is given
OPTIONS = {
    "graph": (
        [st.just(("--vector",)), option("--tensor", POWERS),
         option("--shape", SHAPES)],
        [(9, option("-n", RANKS)),
         (3, option("--format", mostly(["dot", "json"], ["xml"])))]),
    "verify": (
        [option("--theorem", mostly(["b", "c", "e3"], ["z"])),
         st.just(("--reading-independence",)),
         option("--qrep", mostly(["relations", "comult", "residue"],
                                 ["foo"]))],
        [(9, option("-n", RANKS)), (6, option("--shape", SHAPES)),
         (3, option("-N", POWERS))]),
    "conjecture": (
        [option("--shape", SHAPES)],
        [(9, option("-n", RANKS)),
         (3, option("--max-depth", mostly(["0", "2"], ["-1", "z"])))]),
}


def sometimes(draw, tenths):
    return draw(st.integers(min_value=0, max_value=9)) < tenths


@st.composite
def argument_vectors(draw):
    """Mostly well-formed vectors: one selector, -n, some other options;
    sometimes a second selector, a missing -n or a junk token."""
    command = draw(st.sampled_from(sorted(OPTIONS) + ["nonsense"]))
    selectors, extras = OPTIONS.get(command, OPTIONS["graph"])
    groups = [draw(st.one_of(*selectors))]
    if sometimes(draw, 1):
        groups.append(draw(st.one_of(*selectors)))
    for tenths, extra in extras:
        if sometimes(draw, tenths):
            groups.append(draw(extra))
    if sometimes(draw, 2):
        groups.append((draw(JUNK),))
    groups = draw(st.permutations(groups))
    return [command] + [token for group in groups for token in group]


@settings(max_examples=100, deadline=None)
@given(argument_vectors())
def test_fuzzed_argument_vectors_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
