"""The benchmark's layer tracer finds every call site it names.

``perfbench/layertrace.py`` wraps library functions and methods by name
from outside the library.  This reads its ``SITES`` table without
installing the tracer and checks that each name still exists where the
tracer looks for it: functions as module attributes, methods in their
own class's ``__dict__`` (an inherited method would be missed).  It also
installs the tracer in a fresh interpreter and runs the library under it,
so a refactor that breaks one of its hooks fails here.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_traced_name_exists_where_the_tracer_looks():
    for _, module_name, functions, classes in load_sites():
        module = importlib.import_module(module_name)
        for fname in functions:
            assert callable(getattr(module, fname, None)), \
                f"{module_name}.{fname}"
        for cname, methods in classes.items():
            cls = getattr(module, cname)
            for mname in methods:
                assert mname in cls.__dict__, f"{module_name}.{cname}.{mname}"



# installs the tracer (argv[1]) and calls run() of this file (argv[2])
TRACED_RUN = """
import importlib.util, json, sys
import queercrystals.cli, queercrystals.serialize, queercrystals.qrep.checks

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracer = load("layertrace", sys.argv[1]).install()
results = load("smoke", sys.argv[2]).run()
print(json.dumps({"results": results, "summary": tracer.summary()}))
"""


def run():
    """Calls through every traced layer but cli, with stored graphs of
    words, tableaux and pairs."""
    from queercrystals import (graph_components, tensor_power_graph,
                               verify_decomposition)
    from queercrystals.qrep import checks
    from queercrystals.serialize import graph_to_json

    graph = tensor_power_graph(3, 3)
    return [checks.residue_check(2, 2), checks.verify_relations(2, 1),
            checks.verify_comult_odd(2),
            [graph_to_json(c) for c in graph_components(graph)],
            verify_decomposition((2, 1), 3)]


def test_the_installed_tracer_leaves_results_unchanged():
    """In a fresh interpreter with the tracer installed, no hook raises, no
    layer reports an error, and the results equal an untraced run's."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(LAYERTRACE), __file__],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["results"] == json.loads(json.dumps(run()))
    summary = traced["summary"]
    assert not any(summary["errors"].values()), summary["errors"]
    layers = {name.split(".")[0] for name, *_ in summary["stats"]}
    assert {"kernel", "graphs", "tableaux", "theorems", "serialize",
            "laurent", "action", "kashiwara", "checks"} <= layers
    assert summary["counters"]["action.act_expr.terms"] > 0
